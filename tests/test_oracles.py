import random

import pytest

from seqsan import (
    Infeasible,
    MckElement,
    build_instance,
    edit_distance,
    etfs_sanitize,
    tfs_sanitize,
    verify_levels,
)
from conftest import random_instance
from oracles import BudgetExceeded, OracleBudget, matches, oracle_fo_ssm, oracle_mck, oracle_min_etfs, oracle_min_tfs


def small_instance(rng: random.Random):
    return random_instance(rng, n_min=5, n_max=8, sigmas=(2,), ks=(2, 3), sensitive_rate=0.4)


class TestOracleMinTfs:
    def test_identity_case(self):
        inst = build_instance("abab", 2)
        length, witness = oracle_min_tfs(inst)
        assert (length, witness) == (4, "abab")

    def test_all_sensitive(self):
        inst = build_instance("aaaa", 2, patterns=["aa"])
        assert oracle_min_tfs(inst) == (0, "")

    def test_witness_is_feasible(self):
        rng = random.Random(24)
        for _ in range(25):
            inst = small_instance(rng)
            length, witness = oracle_min_tfs(inst)
            assert len(witness) == length
            for lv in ("C1", "P1", "P2"):
                assert all(r.ok for r in verify_levels(witness, inst, (lv,)))

    def test_matches_construction(self):
        rng = random.Random(25)
        for _ in range(60):
            inst = small_instance(rng)
            length, _ = oracle_min_tfs(inst)
            assert length == len(tfs_sanitize(inst))

    def test_construction_on_wide_sweep(self):
        rng = random.Random(27)
        budget = OracleBudget(max_sigma=3)
        for _ in range(2000):
            inst = random_instance(rng, n_min=2, n_max=8, sigmas=(1, 2, 3), ks=(1, 2, 3, 4))
            x = tfs_sanitize(inst)
            assert len(x) == oracle_min_tfs(inst, budget)[0], (inst.text, inst.k, sorted(inst.sensitive_patterns))

    def test_budget_guard(self):
        inst = build_instance("abababababab", 2, patterns=["ab"])
        with pytest.raises(BudgetExceeded):
            oracle_min_tfs(inst, OracleBudget(max_n=8))


class TestOracleMinEtfs:
    def test_identity_case(self):
        inst = build_instance("abab", 2)
        assert oracle_min_etfs(inst) == (0, "abab")

    def test_known_example(self):
        inst = build_instance("aaaaaab", 4, patterns=["aaaa", "aaab"])
        dist, witness = oracle_min_etfs(inst)
        assert dist == 1
        assert witness == "aaa#aab"

    def test_matches_engine(self):
        rng = random.Random(26)
        for _ in range(60):
            inst = small_instance(rng)
            dist, witness = oracle_min_etfs(inst)
            assert dist == etfs_sanitize(inst).distance
            assert edit_distance(inst.text, witness) == dist

    def test_engine_on_wide_sweep(self):
        rng = random.Random(28)
        budget = OracleBudget(max_sigma=3, max_len=14)  # the longest searches take seconds each
        ran = skipped = 0
        for _ in range(1000):
            inst = random_instance(rng, n_min=2, n_max=8, sigmas=(1, 2, 3), ks=(1, 2, 3, 4))
            try:
                dist, _ = oracle_min_etfs(inst, budget)
            except BudgetExceeded:
                skipped += 1
                continue
            ran += 1
            res = etfs_sanitize(inst)
            case = (inst.text, inst.k, sorted(inst.sensitive_patterns))
            assert res.distance == dist, case
            assert matches(inst.k, inst.alphabet.chars, inst.chains, res.text), case
            assert edit_distance(inst.text, res.text) == res.distance, case
        assert ran >= 4 * skipped, f"{skipped} of {ran + skipped} instances exceeded the oracle budget"


class TestOracleMck:
    def test_single_class(self):
        classes = ((MckElement("a", 3, 1), MckElement("b", 1, 2)),)
        cost, picks = oracle_mck(classes, 1)
        assert cost == 3 and picks[0].choice == "a"

    def test_infeasible(self):
        classes = ((MckElement("a", 1, 9),),)
        with pytest.raises(Infeasible):
            oracle_mck(classes, 3)

    def test_budget(self):
        cls = tuple(MckElement(str(i), 1, 1) for i in range(30))
        with pytest.raises(BudgetExceeded):
            oracle_mck((cls,) * 6, 100, OracleBudget(max_candidates=1000))


class TestOracleFoSsm:
    def test_single_block(self):
        assert oracle_fo_ssm([(1, 2)], [5], 3) == 5

    def test_example_pairs(self):
        affixes = [(2, 3), (1, 4), (3, 2)]
        assert oracle_fo_ssm(affixes, [5, 10, 10], 3) == 23

    def test_budget(self):
        affixes = [(1, 1)] * 9
        with pytest.raises(BudgetExceeded):
            oracle_fo_ssm(affixes, [2] * 9, 1, OracleBudget(max_candidates=1000))
