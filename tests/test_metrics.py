import random
from collections import Counter

import pytest

from seqsan import (
    Alphabet,
    Infeasible,
    ba_sanitize,
    build_instance,
    contains_sensitive,
    edit_distance,
    edre,
    kmer_counts,
    pfs_sanitize,
    tfs_sanitize,
    verify,
    verify_levels,
)
from seqsan.cli import MetricsReport
from seqsan.metrics import frequency_changes
from conftest import random_instance
from oracles import _levenshtein


class TestBaSanitize:
    def test_identity_without_sensitive(self):
        inst = build_instance("abcabc", 3)
        assert ba_sanitize(inst) == "abcabc"

    def test_hand_simulated_example(self):
        inst = build_instance("aab", 2, patterns=["aa"])
        assert ba_sanitize(inst) == "bab"

    def test_single_letter_alphabet_falls_back_to_separator(self):
        inst = build_instance("aaa", 2, patterns=["aa"])
        out = ba_sanitize(inst)
        assert out == "##a"
        assert not contains_sensitive(out, inst)

    def test_never_contains_sensitive(self):
        rng = random.Random(22)
        for _ in range(80):
            inst = random_instance(rng)
            out = ba_sanitize(inst)
            assert not contains_sensitive(out, inst)
            assert len(out) == inst.n  # in-place rewrites only


def _rescanning_ba(inst):
    """The baseline loop `ba_sanitize` replaced, kept as the reference for its outputs.

    It looks for sensitive windows among all n - k + 1 starts, re-examines a
    start after each rewrite, and tests a candidate letter on every window
    through it.
    """
    if not inst.sensitive_patterns:
        return inst.text
    k = inst.k
    seq = list(inst.text)
    n = len(seq)
    freq = Counter(inst.text)
    letters = inst.alphabet.chars

    def creates_sensitive(pos):
        for s in range(max(0, pos - k + 1), min(n - k, pos) + 1):
            win = seq[s : s + k]
            if "#" not in win and "".join(win) in inst.sensitive_patterns:
                return True
        return False

    i = 0
    while i <= n - k:
        window = "".join(seq[i : i + k])
        if "#" in window or window not in inst.sensitive_patterns:
            i += 1
            continue
        in_window = set(window)
        target = i + max(range(k), key=lambda off: (freq[seq[i + off]], -off))
        original = seq[target]
        replaced = False
        for cand in sorted((c for c in letters if c not in in_window), key=lambda c: (freq[c], c)):
            seq[target] = cand
            if not creates_sensitive(target):
                freq[original] -= 1
                freq[cand] += 1
                replaced = True
                break
            seq[target] = original
        if not replaced:
            seq[target] = "#"
            freq[original] -= 1
        # Re-examine the same start: the rewritten window must no longer be sensitive.
    return "".join(seq)


def test_ba_equals_the_rescanning_loop():
    rng = random.Random(20)
    seen = Counter()
    for case in range(3_000):
        sigma, n = rng.randint(1, 4), rng.randint(2, 30)
        k = rng.randint(1, min(5, n - 1))
        kind = ("char", "token", "all")[case % 3]
        if kind == "token":
            # Every token of the pool is a letter, also those the text lacks.
            pool = [f"t{j}" for j in range(sigma + rng.randint(0, 2))]
            alphabet = Alphabet.from_tokens(pool)
            text = alphabet.encode(rng.choice(pool[:sigma]) for _ in range(n))
        else:
            alphabet = None
            text = "".join(rng.choice("abcd"[:sigma]) for _ in range(n))
        if kind == "all":
            inst = build_instance(text, k, patterns={text[i : i + k] for i in range(n - k + 1)})
        else:
            positions = rng.sample(range(n - k + 1), rng.randint(0, min(4, n - k + 1)))
            inst = build_instance(text, k, positions=positions, alphabet=alphabet)
        want = _rescanning_ba(inst)
        assert ba_sanitize(inst) == want, (text, k, sorted(inst.sensitive_patterns))
        seen[kind] += 1
        seen["k=1"] += k == 1
        seen["sigma=1"] += sigma == 1 and bool(inst.sensitive_patterns)
        seen["fallback"] += "#" in want
        seen["absent letter"] += bool(set(want) - set(text) - {"#"})  # a rewrite with a letter the text lacks
    assert min(seen.values()) >= 100, seen


def _changes(source, output, k, tau=1, sensitive=frozenset()):
    """`frequency_changes` of two strings, through their k-mer counts."""
    return frequency_changes(kmer_counts(source, k), kmer_counts(output, k), tau, sensitive)


class TestDistortion:
    def test_zero_on_frequency_preservation(self, example1):
        assert _changes(example1.text, tfs_sanitize(example1), 4, sensitive=example1.sensitive_patterns)[0] == 0

    def test_hand_counted(self):
        assert _changes("aaa", "aab", 2)[0] == 2

    def test_matches_recomputation(self, example1):
        y = pfs_sanitize(example1)
        got = _changes(example1.text, y, 4, sensitive=example1.sensitive_patterns)[0]
        want = kmer_counts(example1.text, 4)
        have = kmer_counts(y, 4)
        manual = sum(
            (want[p] - have[p]) ** 2
            for p in (want.keys() | have.keys()) - example1.sensitive_patterns
        )
        assert got == manual == 0


def _naive_counts(text, k):
    # position scan, no splitting; deliberately separate from kmer_counts
    out = {}
    for i in range(len(text) - k + 1):
        win = text[i : i + k]
        if "#" in win:
            continue
        out[win] = out.get(win, 0) + 1
    return out


def test_metrics_agree_with_naive_position_scan(example1):
    import random

    from seqsan import mcsr_sanitize, uniform_cost_model

    rng = random.Random(31)
    for _ in range(20):
        inst = random_instance(rng)
        out = pfs_sanitize(inst)
        k = inst.k
        want = _naive_counts(inst.text, k)
        got = _naive_counts(out, k)
        manual_distortion = sum(
            (want.get(p, 0) - got.get(p, 0)) ** 2
            for p in set(want) | set(got)
            if p not in inst.sensitive_patterns
        )
        tau = rng.randint(1, 3)
        distortion, lost, ghost = _changes(inst.text, out, k, tau, inst.sensitive_patterns)
        assert manual_distortion == distortion
        manual_lost = {
            p
            for p in set(want) | set(got)
            if p not in inst.sensitive_patterns and want.get(p, 0) >= tau > got.get(p, 0)
        }
        manual_ghost = {
            p
            for p in set(want) | set(got)
            if p not in inst.sensitive_patterns and want.get(p, 0) < tau <= got.get(p, 0)
        }
        assert lost == manual_lost
        assert ghost == manual_ghost


def _union_of_keys_changes(source, output, k, tau, sensitive):
    """Distortion, lost and ghost over every pattern of either string, as defined."""
    want = _naive_counts(source, k)
    got = _naive_counts(output, k)
    total, lost, ghost = 0, set(), set()
    for p in set(want) | set(got):
        if p in sensitive:
            continue
        before, after = want.get(p, 0), got.get(p, 0)
        total += (before - after) ** 2
        if before >= tau > after:
            lost.add(p)
        elif before < tau <= after:
            ghost.add(p)
    return total, lost, ghost


def test_frequency_changes_with_and_without_output_counts():
    # Every output is measured on its recount; the source and the TFS, PFS and MCSR outputs also on the
    # counts of the patterns their stage changed: none for TFS and PFS, the added windows for MCSR.
    from seqsan import mcsr_sanitize, uniform_cost_model

    rng = random.Random(32)
    changed = 0
    for _ in range(300):
        inst = random_instance(rng, n_min=4, n_max=40, ks=(1, 2, 3, 4))
        k = inst.k
        letters = inst.alphabet.chars
        mutated = list(inst.text)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] = rng.choice(letters + "#")
        y = pfs_sanitize(inst)
        outputs = [
            (inst.text, (inst.counts, inst.counts)),
            (tfs_sanitize(inst), (Counter(), Counter())),
            (y, (Counter(), Counter())),
            ("".join(mutated), None),
            ("".join(rng.choice(letters + "#") for _ in range(rng.randint(0, 20))), None),
        ]
        try:
            z = mcsr_sanitize(y, inst, uniform_cost_model(tau=2))
            outputs.append((z.text, z.changed_counts()))
        except Infeasible:
            pass
        for out, stage_counts in outputs:
            tau = rng.randint(1, 3)
            want = _union_of_keys_changes(inst.text, out, k, tau, inst.sensitive_patterns)
            assert frequency_changes(inst.counts, kmer_counts(out, k), tau, inst.sensitive_patterns) == want
            if stage_counts is not None:
                assert frequency_changes(*stage_counts, tau, inst.sensitive_patterns) == want
            changed += want[0] > 0
    assert changed > 500  # the sweep must reach outputs whose counts differ


class TestLostGhost:
    def test_preserving_output_has_neither(self, example1):
        _total, lost, ghost = _changes(example1.text, tfs_sanitize(example1), 4, 1, example1.sensitive_patterns)
        assert lost == set() and ghost == set()

    def test_hand_counted(self):
        _total, lost, ghost = _changes("abab", "abaa", 2, 2)
        assert lost == {"ab"}
        assert ghost == set()

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            _changes("ab", "ab", 1, 0)


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("x", "x") == 0

    def test_paper_examples(self):
        assert edit_distance("aaaaaab", "aaa#aab") == 1
        assert edit_distance("aaabbaabaccbbb", "aaab#aabaccb#cbbb") == 4

    def test_metric_axioms_spot_check(self):
        rng = random.Random(23)
        words = ["".join(rng.choice("abc") for _ in range(rng.randint(0, 8))) for _ in range(12)]
        for a in words:
            for b in words:
                d = edit_distance(a, b)
                assert d == edit_distance(b, a)
                assert (d == 0) == (a == b)
        for a in words[:6]:
            for b in words[:6]:
                for c in words[:6]:
                    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_cut_off_matches_full_table(self):
        rng = random.Random(31)
        cases = [("", ""), ("", "ab#"), ("abc", ""), ("abcab", "abcab"), ("a" * 40, "b"), ("ab" * 30, "ba")]
        for _ in range(400):
            a = "".join(rng.choices("abc", k=rng.randint(0, 30)))
            b = "".join(rng.choices("abc#", k=rng.randint(0, 30)))
            cases += [(a, b), (a, a[: rng.randint(0, len(a))] + b[:2]), (a + b * 3, a)]
        # Masks of more than one machine word, letters only one side has, and token-mode letters past ASCII.
        for _ in range(60):
            a = "".join(rng.choices("ab#c\u4e00", k=rng.randint(60, 150)))
            b = "".join(rng.choices("abd\u4e00\u4e01", k=rng.randint(0, 150)))
            cases += [(a, b), (b, a), (a, a[::-1])]
        for a, b in cases:
            assert edit_distance(a, b) == _levenshtein(a, b), (a, b)


class TestEdre:
    def test_zero_when_equal(self):
        assert edre(edit_distance("abc", "abd"), edit_distance("abc", "abd")) == 0.0

    def test_example_ratios(self):
        w = "aaabbaabaccbbb"
        assert edre(edit_distance(w, "aaabaccb#cbbb"), edit_distance(w, "aaab#aabaccb#cbbb")) == pytest.approx(0.25)
        assert edre(edit_distance("aaaaaab", ""), edit_distance("aaaaaab", "aaa#aab")) == pytest.approx(6.0)
        assert edre(5, 4) == pytest.approx(0.25)

    def test_undefined_when_reference_zero(self):
        with pytest.raises(ValueError, match="optimal edit distance is zero but heuristic distance is not"):
            edre(1, 0)
        assert edre(0, 0) == 0.0


class TestVerify:
    def test_example1_all_levels(self, example1):
        x = tfs_sanitize(example1)
        assert all(r.ok for r in verify_levels(x, example1))

    def test_source_fails_c1_with_counterexample(self, example1):
        res = verify(example1.text, example1, "C1")
        assert not res.ok
        assert res.detail

    def test_partial_order_distinction(self, example1):
        y = "aaacbcbbba#aabaabbacaab"
        assert not verify(y, example1, "P1").ok
        assert verify(y, example1, "Pi1").ok

    def test_unknown_level(self, example1):
        with pytest.raises(ValueError):
            verify("x", example1, "P9")


def test_report_serialization_round_trip_keys():
    rep = MetricsReport(pipeline="tpm")
    rep.lengths = {"w": 10, "z": 9}
    rep.distortion = 2.0
    rep.lost = ["ab"]
    rep.ghost = []
    rep.runtimes_ms = {"tfs": 0.5}
    text = rep.to_text(Alphabet.from_text("ab"))
    lines = dict(
        line.split("=", 1) for line in text.strip().splitlines() if not line.startswith(("lost=", "ghost="))
    )
    assert lines["pipeline"] == "tpm"
    assert lines["length_w"] == "10"
    assert lines["distortion"] == "2"
    assert lines["lost_count"] == "1"
    assert "lost=ab" in text


def test_report_prints_distortion_as_the_exact_integer():
    rep = MetricsReport(pipeline="ba")
    for value, printed in ((0.0, "0"), (999_999.0, "999999"), (1_854_697.0, "1854697"), (2.0**60, str(2**60))):
        rep.distortion = value
        assert f"\ndistortion={printed}\n" in rep.to_text(Alphabet.from_text("ab")), value
