import logging
import random
from collections import Counter

import pytest

from seqsan import (
    Alphabet,
    SanitizationInstance,
    build_instance,
    contains_sensitive,
    kmer_counts,
    overlap_chains,
    pfs_sanitize,
    tfs_sanitize,
)
from conftest import random_instance
from oracles import nonsensitive_starts


class TestAlphabet:
    def test_char_mode_identity(self):
        ab = Alphabet.from_text("banana")
        assert ab.tokens == ("a", "b", "n")
        assert ab.chars == "abn"
        assert ab.encode("banana") == "banana"
        assert ab.decode("banana") == "banana"

    def test_token_mode_round_trip(self):
        ab = Alphabet.from_tokens("3 1 4 1 5".split())
        enc = ab.encode("3 1 4 1 5".split())
        assert len(enc) == 5
        assert "#" not in enc
        assert ab.decode(enc) == "3 1 4 1 5"
        assert ab.decode(enc + "#").split(" ") == ["3", "1", "4", "1", "5", "#"]

    def test_token_rank_matches_sort_order(self):
        ab = Alphabet.from_tokens(["beta", "alpha", "gamma"])
        a, b, g = ab.encode(["alpha"]), ab.encode(["beta"]), ab.encode(["gamma"])
        assert a < b < g

    def test_separator_rejected(self):
        with pytest.raises(ValueError, match="the separator '#' cannot be an alphabet letter"):
            Alphabet.from_text("ab#c")
        with pytest.raises(ValueError, match="the separator '#' cannot be an alphabet letter"):
            Alphabet.from_tokens(["a", "#"])

    def test_unknown_token(self):
        ab = Alphabet.from_text("ab")
        with pytest.raises(ValueError):
            ab.encode("abc")

    def test_token_count_limit(self):
        # The count is checked before the tokens are, so repeats of one token reach the limit cheaply.
        limit = 0x110000 - 0xE000
        with pytest.raises(ValueError, match=f"at most {limit:,} distinct tokens, got {limit + 1:,}"):
            Alphabet(tokens=("t",) * (limit + 1), token_mode=True)
        with pytest.raises(ValueError, match="unique"):
            Alphabet(tokens=("t",) * limit, token_mode=True)


class TestBuildInstance:
    def test_example1_closure(self, example1):
        assert sorted(example1.sensitive_positions) == [2, 10]
        assert example1.sensitive_patterns == {"baaa", "bbaa"}
        # one flag per window
        assert len(example1.mask) == len(example1.text) - 4 + 1

    def test_empty_sensitive(self):
        inst = build_instance("abcabc", 3, patterns=[])
        assert inst.sensitive_positions == frozenset()
        assert set(inst.mask) == {0}

    def test_positions_input(self, example4):
        assert sorted(example4.sensitive_positions) == [1, 3, 5]

    def test_position_closure_expands(self):
        # marking one occurrence of "ab" marks them all
        inst = build_instance("abab", 2, positions=[0])
        assert sorted(inst.sensitive_positions) == [0, 2]

    def test_closure_idempotent(self):
        rng = random.Random(0)
        for _ in range(25):
            inst = random_instance(rng)
            again = build_instance(inst.text, inst.k, positions=sorted(inst.sensitive_positions))
            assert again.sensitive_positions == inst.sensitive_positions

    def test_errors(self):
        with pytest.raises(ValueError, match="input sequence contains the reserved separator '#'"):
            build_instance("ab#a", 2)
        with pytest.raises(ValueError, match="k must satisfy 0 < k < 3, got 0"):
            build_instance("abc", 0)
        with pytest.raises(ValueError, match="k must satisfy 0 < k < 3, got 3"):
            build_instance("abc", 3)
        with pytest.raises(ValueError, match=r"position 3 outside valid range 0\.\.2"):
            build_instance("abcd", 2, positions=[3])
        with pytest.raises(ValueError, match="sensitive pattern 'abc' does not have length k=2"):
            build_instance("abcd", 2, patterns=["abc"])

    def test_absent_pattern_accepted_and_logged(self, caplog):
        with caplog.at_level(logging.WARNING):
            inst = build_instance("aaaa", 2, patterns=["bb"])
        assert inst.sensitive_positions == frozenset()
        assert any("does not occur" in rec.message for rec in caplog.records)

    def test_token_mode_absent_pattern_is_logged_in_tokens(self, caplog):
        ab = Alphabet.from_tokens("a b c".split())
        text = ab.encode("a b c a b c".split())
        with caplog.at_level(logging.WARNING, logger="seqsan.core"):
            build_instance(text, 2, patterns=[ab.encode(["c", "c"]), "zz"], alphabet=ab)
        # A pattern over chars outside the alphabet never occurs either; its chars are shown as they are.
        assert [rec.getMessage() for rec in caplog.records] == [
            f"sensitive pattern {pat!r} does not occur in the input; nothing to conceal" for pat in ("z z", "c c")
        ]


def _closure_by_find(text, k, wanted):
    """Closure by definition: every occurrence of every wanted pattern, one `str.find` scan per pattern."""
    positions, patterns, absent = set(), set(), []
    for pat in sorted(wanted):
        pos = text.find(pat)
        if pos == -1:
            absent.append(pat)
        while pos != -1:
            positions.add(pos)
            patterns.add(pat)
            pos = text.find(pat, pos + 1)
    n = len(text)
    mask = bytearray(n - k + 1)
    for i in positions:
        mask[i] = 1
    return positions, patterns, bytes(mask), absent


class TestOneWindowClosure:
    def test_matches_per_pattern_scan(self, caplog):
        rng = random.Random(8)
        seen = {"overlap": 0, "absent": 0, "k1": 0, "k_n_minus_1": 0, "positions": 0}
        for trial in range(2400):
            n = rng.randint(2, 24)
            sigma = rng.randint(1, 4)
            text = "".join(rng.choice("abcd"[:sigma]) for _ in range(n))
            k = rng.choice([1, n - 1, rng.randint(1, n - 1)])
            windows = [text[i : i + k] for i in range(n - k + 1)]
            patterns = [w for w in sorted(set(windows)) if rng.random() < 0.3]
            # Random patterns, many of them absent: over a letter the text lacks, or in an order it lacks.
            for _ in range(rng.randint(0, 2)):
                patterns.append("".join(rng.choice("abcde") for _ in range(k)))
            positions = rng.sample(range(n - k + 1), rng.randint(0, min(3, n - k + 1))) if trial % 2 else []
            wanted = set(patterns) | {text[i : i + k] for i in positions}
            want_pos, want_pat, want_mask, absent = _closure_by_find(text, k, wanted)

            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="seqsan.core"):
                inst = build_instance(text, k, patterns=patterns, positions=positions)
            assert inst.sensitive_positions == want_pos, (text, k, wanted)
            assert inst.sensitive_patterns == want_pat, (text, k, wanted)
            assert inst.mask == want_mask, (text, k, wanted)
            assert [rec.getMessage() for rec in caplog.records] == [
                f"sensitive pattern {pat!r} does not occur in the input; nothing to conceal" for pat in absent
            ]

            seen["overlap"] += any(pos + 1 in want_pos and text[pos + 1 : pos + 1 + k] == text[pos : pos + k]
                                   for pos in want_pos)
            seen["absent"] += bool(absent)
            seen["k1"] += k == 1
            seen["k_n_minus_1"] += k == n - 1 and k > 1
            seen["positions"] += bool(positions)
        assert min(seen.values()) > 100, seen

    def test_overlapping_occurrences_all_marked(self):
        inst = build_instance("baaaab", 2, patterns=["aa"])
        assert sorted(inst.sensitive_positions) == [1, 2, 3]
        assert inst.mask == bytes([0, 1, 1, 1, 0])

    def test_mask_and_patterns_match_a_per_position_scan(self):
        rng = random.Random(27)
        tokens = Alphabet.from_tokens(str(t) for t in range(300))
        seen = Counter()
        for trial in range(1500):
            k = trial % 6 + 1
            n = rng.randint(k + 1, 80)
            token_mode = trial % 3 == 0
            letters = rng.sample(tokens.chars, rng.randint(1, 3)) if token_mode else "abcd"[: rng.randint(1, 4)]
            text = "".join(rng.choice(letters) for _ in range(n))
            windows = [text[i : i + k] for i in range(n - k + 1)]
            rate = rng.choice((0.03, 0.5))
            patterns = [w for w in sorted(set(windows)) if rng.random() < rate]
            positions = [n - k] if rng.random() < 0.3 else []
            alphabet = tokens if token_mode else None
            inst = build_instance(text, k, patterns=patterns, positions=positions, alphabet=alphabet)

            wanted = set(patterns) | {windows[i] for i in positions}
            mask = bytes(w in wanted for w in windows)
            assert inst.mask == mask, (text, k, wanted)
            assert inst.sensitive_patterns == {w for w, hit in zip(windows, mask) if hit}, (text, k, wanted)

            hits = sum(mask)
            seen[f"k={k}"] += hits > 0
            seen["token"] += token_mode and hits > 0
            seen["last window"] += mask[-1]
            seen["overlap"] += any(mask[i] and mask[j] for i in range(len(mask)) for j in range(i + 1, min(i + k, len(mask))))
            seen["sparse"] += 0 < hits <= 0.1 * len(mask)
            seen["dense"] += hits >= 0.25 * len(mask)
        assert min(seen.values()) > 100, seen


class TestInheritedCounts:
    def test_tfs_and_pfs_outputs_have_the_preserved_counts(self):
        rng = random.Random(9)
        all_sensitive = none_sensitive = 0
        for trial in range(2000):
            rate = (0.0, 1.0, rng.random())[trial % 3]
            inst = random_instance(rng, n_min=4, n_max=36, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5), sensitive_rate=rate)
            preserved = inst.preserved_counts()
            assert preserved == kmer_counts(inst.text, inst.k) - Counter(
                {p: inst.counts[p] for p in inst.sensitive_patterns}
            )
            x = tfs_sanitize(inst)
            assert kmer_counts(x, inst.k) == preserved, (inst.text, inst.k)
            assert kmer_counts(pfs_sanitize(inst), inst.k) == preserved, (inst.text, inst.k)
            all_sensitive += not nonsensitive_starts(inst)
            none_sensitive += not inst.sensitive_patterns
        assert all_sensitive > 300 and none_sensitive > 300, (all_sensitive, none_sensitive)

    def test_preserved_counts_is_a_fresh_copy(self, example1):
        counts = Counter(example1.counts)
        kept = example1.preserved_counts()
        kept["aaaa"] += 7
        assert example1.counts == counts
        assert example1.preserved_counts() == counts - Counter({"baaa": 1, "bbaa": 1})

    def test_absent_sensitive_pattern_is_skipped(self):
        text = "abcab"
        inst = SanitizationInstance(
            text=text,
            k=2,
            alphabet=Alphabet.from_text(text),
            sensitive_patterns=frozenset({"cc"}),
            mask=bytes(len(text) - 2 + 1),
        )
        assert inst.preserved_counts() == kmer_counts(text, 2)


class TestKmerCounts:
    def test_overlapping(self):
        assert dict(kmer_counts("aaaa", 2)) == {"aa": 3}

    def test_separator_windows_excluded(self):
        assert dict(kmer_counts("ab#ab", 2)) == {"ab": 2}

    def test_example1_output_counts(self):
        counts = kmer_counts("aabaa#aaacbcbbba#baabbacaab", 4)
        assert counts["aaba"] == 1
        assert counts["caab"] == 1

    def test_total_matches_window_count(self):
        rng = random.Random(1)
        for _ in range(20):
            inst = random_instance(rng)
            text, k = inst.text, inst.k
            counts = kmer_counts(text, k)
            assert sum(counts.values()) == len(text) - k + 1

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must be positive, got 0"):
            kmer_counts("ab", 0)

    def test_keys_follow_first_occurrence(self):
        # P2's detail names the first differing pattern in the order of `inst.counts`.
        rng = random.Random(28)
        for _ in range(500):
            text = "".join(rng.choice("abc#") for _ in range(rng.randint(1, 40)))
            k = rng.randint(1, 5)
            windows = [text[i : i + k] for i in range(len(text) - k + 1)]
            assert list(kmer_counts(text, k)) == list(dict.fromkeys(w for w in windows if "#" not in w)), (text, k)


class TestContainsSensitive:
    def test_sanitized_output_clean(self, example1):
        assert not contains_sensitive("aabaa#aaacbcbbba#baabbacaab", example1)

    def test_source_contains_its_own(self, example1):
        assert contains_sensitive(example1.text, example1)

    def test_separator_breaks_window(self):
        inst = build_instance("baaab", 4, patterns=["baaa"])
        assert not contains_sensitive("ba#aa", inst)


class TestOverlapChains:
    def test_example1_chains(self, example1):
        assert overlap_chains(example1) == ["aabaa", "aaacbcbbba", "baabbacaab"]

    def test_no_chains_when_all_sensitive(self, example_all_sensitive):
        assert overlap_chains(example_all_sensitive) == []

    def test_chain_windows_are_k_runs(self):
        rng = random.Random(2)
        for _ in range(30):
            inst = random_instance(rng)
            for chain in overlap_chains(inst):
                assert len(chain) >= inst.k
                for i in range(len(chain) - inst.k + 1):
                    assert chain[i : i + inst.k] not in inst.sensitive_patterns
