import logging
import random

import pytest

from seqsan import (
    Alphabet,
    BadK,
    BadPosition,
    SeparatorInInput,
    build_instance,
    contains_sensitive,
    kmer_counts,
    overlap_chains,
)
from conftest import random_instance


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
        assert ab.decode_tokens(enc) == ["3", "1", "4", "1", "5"]

    def test_token_rank_matches_sort_order(self):
        ab = Alphabet.from_tokens(["beta", "alpha", "gamma"])
        a, b, g = ab.encode(["alpha"]), ab.encode(["beta"]), ab.encode(["gamma"])
        assert a < b < g

    def test_separator_rejected(self):
        with pytest.raises(SeparatorInInput):
            Alphabet.from_text("ab#c")
        with pytest.raises(SeparatorInInput):
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
        # mask tail copies the final window flag
        assert example1.mask[-3:] == bytes([example1.mask[len(example1.text) - 4]] * 3)

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
        with pytest.raises(SeparatorInInput):
            build_instance("ab#a", 2)
        with pytest.raises(BadK):
            build_instance("abc", 0)
        with pytest.raises(BadK):
            build_instance("abc", 3)
        with pytest.raises(BadPosition):
            build_instance("abcd", 2, positions=[3])
        with pytest.raises(BadK):
            build_instance("abcd", 2, patterns=["abc"])

    def test_absent_pattern_accepted_and_logged(self, caplog):
        with caplog.at_level(logging.WARNING):
            inst = build_instance("aaaa", 2, patterns=["bb"])
        assert inst.sensitive_positions == frozenset()
        assert any("does not occur" in rec.message for rec in caplog.records)


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
        with pytest.raises(BadK):
            kmer_counts("ab", 0)


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
