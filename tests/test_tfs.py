import random
from collections import Counter

from seqsan import build_instance, kmer_counts, tfs_sanitize, verify_levels
from conftest import check_tfs_definition, random_instance
from oracles import nonsensitive_starts


def test_example1_golden(example1):
    assert tfs_sanitize(example1) == "aabaa#aaacbcbbba#baabbacaab"


def test_all_sensitive_gives_empty():
    inst = build_instance("aaaaa", 2, patterns=["aa"])
    assert tfs_sanitize(inst) == ""


def test_example4_golden_tight_bound(example4):
    x = tfs_sanitize(example4)
    assert x == "baaa#aabb#bbba#baba"
    n, k = 10, 4
    assert len(x) == 19 == ((n - k + 1 + 1) // 2) * k + (n - k + 1) // 2


def test_nothing_sensitive_is_identity():
    inst = build_instance("abcabc", 3)
    assert tfs_sanitize(inst) == "abcabc"


def test_example_merge_chain_golden(example_merge_chain):
    assert tfs_sanitize(example_merge_chain) == "aaabaccb#cbbb"


def test_properties_on_random_instances():
    rng = random.Random(4)
    for _ in range(80):
        inst = random_instance(rng)
        x = tfs_sanitize(inst)
        for res in verify_levels(x, inst):
            assert res.ok, f"{res.level} failed on {inst.text!r} k={inst.k}: {res.detail}"


def test_frequency_preservation_is_exact():
    rng = random.Random(5)
    for _ in range(40):
        inst = random_instance(rng)
        x = tfs_sanitize(inst)
        got = kmer_counts(x, inst.k)
        want = kmer_counts(inst.text, inst.k)
        for pat in inst.sensitive_patterns:
            del want[pat]
        assert got == want


def test_blocks_spell_overlap_chains():
    # Read against the definition of the chains, not against `overlap_chains`, which the output is built from.
    rng = random.Random(6)
    seen = Counter()
    for trial in range(2400):
        rate = (0.0, 1.0, 0.35, rng.random())[trial % 4]
        inst = random_instance(rng, n_min=2, n_max=40, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5), sensitive_rate=rate)
        check_tfs_definition(tfs_sanitize(inst), inst)
        seen["k=1"] += inst.k == 1
        seen["all sensitive"] += not nonsensitive_starts(inst)
        seen["none sensitive"] += not inst.sensitive_positions
    assert min(seen.values()) >= 100, seen


def test_separator_spacing():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng)
        x = tfs_sanitize(inst)
        positions = [i for i, ch in enumerate(x) if ch == "#"]
        assert all(b - a >= inst.k + 1 for a, b in zip(positions, positions[1:]))
        assert len(positions) <= (inst.n - inst.k + 1) // 2


def test_k_equals_one():
    inst = build_instance("abcabca", 1, patterns=["b"])
    x = tfs_sanitize(inst)
    assert x == "acaca"
