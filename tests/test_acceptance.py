"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Seeds are fixed; everything here is deterministic.
"""

import gc
import random
import time
from collections import Counter

import pytest

from seqsan import (
    Infeasible,
    MckElement,
    build_instance,
    ba_sanitize,
    contains_sensitive,
    edit_distance,
    etfs_sanitize,
    fo_ssm,
    implausible_set,
    kmer_counts,
    mcsr_sanitize,
    pfs_sanitize,
    solve_mck,
    tfs_sanitize,
    uniform_cost_model,
    verify,
    verify_levels,
)
from seqsan.metrics import frequency_changes
from oracles import oracle_fo_ssm, oracle_mck, oracle_min_etfs, oracle_min_tfs

LETTERS = "abcdefghij"


def _criterion(name):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {name}: FAIL")
                raise
            print(f"\n[acceptance] {name}: PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


def _random_instance(rng, n, sigma, k, n_patterns):
    text = "".join(rng.choices(LETTERS[:sigma], k=n))
    windows = sorted({text[i : i + k] for i in range(n - k + 1)})
    pats = rng.sample(windows, min(n_patterns, len(windows)))
    return build_instance(text, k, patterns=pats)


@_criterion("criterion 1: golden worked examples")
def test_criterion_1_golden_examples():
    start = time.perf_counter()

    inst1 = build_instance("aabaaacbcbbbaabbacaab", 4, patterns=["baaa", "bbaa"])
    assert tfs_sanitize(inst1) == "aabaa#aaacbcbbba#baabbacaab"

    inst4 = build_instance("baaabbbaba", 4, positions=[1, 3, 5])
    x4 = tfs_sanitize(inst4)
    assert x4 == "baaa#aabb#bbba#baba"
    assert len(x4) == 19 == ((10 - 4 + 1 + 1) // 2) * 4 + (10 - 4 + 1) // 2

    inst12 = build_instance("aaaaaab", 4, patterns=["aaaa", "aaab"])
    assert tfs_sanitize(inst12) == ""
    res12 = etfs_sanitize(inst12)
    assert res12.distance == 1
    assert res12.text == "aaa#aab"

    inst8 = build_instance("aaabbaabaccbbb", 4, patterns=["aabb", "abba", "bbaa", "baab", "ccbb"])
    x8 = tfs_sanitize(inst8)
    assert len(x8) == 13
    assert edit_distance(inst8.text, x8) == 5
    assert etfs_sanitize(inst8).distance == 4

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden examples took {elapsed:.3f}s; expected milliseconds"


@_criterion("criterion 2: partial-order golden length")
def test_criterion_2_pfs_golden():
    inst = build_instance("aabaaacbcbbbaabbacaab", 4, patterns=["baaa", "bbaa"])
    y = pfs_sanitize(inst)
    assert len(y) == 23
    assert y.count("#") == 1
    for lv in ("C1", "Pi1", "P2", "P3"):
        assert verify(y, inst, lv).ok
    # the published alternative must be accepted as co-optimal
    reference = "aaacbcbbba#aabaabbacaab"
    assert len(reference) == 23
    for lv in ("C1", "Pi1", "P2", "P3"):
        assert verify(reference, inst, lv).ok


@_criterion("criterion 3: oracle equivalence")
def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(1001)

    for _ in range(200):
        n = rng.randint(5, 8)
        k = rng.choice([2, 3])
        text = "".join(rng.choices("ab", k=n))
        windows = sorted({text[i : i + k] for i in range(n - k + 1)})
        pats = [w for w in windows if rng.random() < 0.4]
        inst = build_instance(text, k, patterns=pats)
        min_len, _ = oracle_min_tfs(inst)
        assert min_len == len(tfs_sanitize(inst)), (text, k, pats)
        min_dist, _ = oracle_min_etfs(inst)
        assert min_dist == etfs_sanitize(inst).distance, (text, k, pats)

    for _ in range(200):
        delta = rng.randint(1, 5)
        sigma = rng.randint(1, 4)
        theta = rng.randint(0, 12)
        classes = tuple(
            tuple(MckElement(chr(97 + j), rng.randint(0, 9), rng.randint(0, 4)) for j in range(sigma))
            for _ in range(delta)
        )
        try:
            got = solve_mck(classes, theta)
        except Infeasible:
            with pytest.raises(Infeasible):
                oracle_mck(classes, theta)
            continue
        best_cost, _ = oracle_mck(classes, theta)
        assert sum(el.cost for el in got) == best_cost

    for _ in range(100):
        nb = rng.randint(1, 6)
        ell = rng.randint(1, 3)
        affixes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(nb)]
        lengths = [rng.randint(ell + 1, ell + 5) for _ in range(nb)]
        ordering = fo_ssm(affixes)
        merges = sum(len(t) - 1 for t in ordering)
        induced = sum(lengths) + (len(ordering) - 1) - merges * ell
        assert induced == oracle_fo_ssm(affixes, lengths, ell)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"oracle suite took {elapsed:.1f}s; budget is 5 minutes"


@_criterion("criterion 4: staged property suite on 1000 random instances")
def test_criterion_4_property_suite():
    rng = random.Random(2002)
    sizes = [(10, 50)] * 800 + [(51, 120)] * 150 + [(121, 200)] * 50
    checked_mcsri = 0

    for idx, (lo, hi) in enumerate(sizes):
        n = rng.randint(lo, hi)
        sigma = rng.choice([2, 4, 10])
        k = rng.choice([3, 4, 5])
        if k >= n:
            k = n - 1
        n_pats = rng.randint(0, 6)
        inst = _random_instance(rng, n, sigma, k, n_pats)
        tau = rng.choice([1, 2, 4])

        x = tfs_sanitize(inst)
        for res in verify_levels(x, inst):
            assert res.ok, (inst.text, inst.k, res)

        y = pfs_sanitize(inst)
        assert len(y) <= len(x)
        for lv in ("C1", "Pi1", "P2", "P3", "P4"):
            res = verify(y, inst, lv)
            assert res.ok, (inst.text, inst.k, res)

        try:
            z = mcsr_sanitize(y, inst, uniform_cost_model(tau=tau))
        except Infeasible:
            z = None
        if z is not None:
            assert "#" not in z.text
            assert not contains_sensitive(z.text, inst)
            before = kmer_counts(y, inst.k)
            after = kmer_counts(z.text, inst.k)
            for pat, cnt in before.items():
                assert after[pat] >= cnt, "a window count dropped across replacement"
            _distortion, lost, _ghost = frequency_changes(before, after, tau)
            assert lost == set()

        res = etfs_sanitize(inst)
        assert res.distance <= edit_distance(inst.text, x)
        for lv in ("C1", "P1", "P2"):
            chk = verify(res.text, inst, lv)
            assert chk.ok, (inst.text, inst.k, chk)

        if idx % 5 == 0 and inst.k > 2:
            imp = implausible_set(inst, -0.5)
            try:
                zi = mcsr_sanitize(x, inst, uniform_cost_model(tau=tau), implausible=imp)
            except Infeasible:
                zi = None
            if zi is not None:
                checked_mcsri += 1
                for _site, win in zi.site_windows:
                    assert win not in imp

    assert checked_mcsri >= 50, "too few implausibility-constrained runs exercised"


@_criterion("criterion 5: synthetic corpus comparison against the baseline")
def test_criterion_5_synthetic_vs_baseline():
    n, sigma, k, tau, n_pats = 100_000, 10, 4, 10, 50
    tpm_lost_counts = []
    ba_has_lost = 0
    tpm_wins_distortion = 0

    for seed in range(10):
        rng = random.Random(5000 + seed)
        text = "".join(rng.choices(LETTERS[:sigma], k=n))
        counts = Counter(text[i : i + k] for i in range(n - k + 1))
        frequent = sorted(p for p, c in counts.items() if c >= tau)
        pats = rng.sample(frequent, n_pats)
        inst = build_instance(text, k, patterns=pats)

        y = pfs_sanitize(inst)
        z = mcsr_sanitize(y, inst, uniform_cost_model(tau=tau)).text
        assert not contains_sensitive(z, inst)
        distortion_tpm, lost_tpm, _ = frequency_changes(inst.counts, kmer_counts(z, k), tau, inst.sensitive_patterns)
        tpm_lost_counts.append(len(lost_tpm))

        z_ba = ba_sanitize(inst)
        assert not contains_sensitive(z_ba, inst)
        distortion_ba, lost_ba, _ = frequency_changes(inst.counts, kmer_counts(z_ba, k), tau, inst.sensitive_patterns)
        if lost_ba:
            ba_has_lost += 1

        if distortion_tpm < distortion_ba:
            tpm_wins_distortion += 1

    assert tpm_lost_counts == [0] * 10, f"threshold losses must never happen: {tpm_lost_counts}"
    assert ba_has_lost >= 6, f"baseline incurred losses in only {ba_has_lost}/10 seeds"
    assert tpm_wins_distortion >= 8, f"distortion win in only {tpm_wins_distortion}/10 seeds"


def _best_of_3(build, stage):
    """The fastest of 3 timings of `stage(build())`, with the stage's last result.

    `build` runs untimed before each repetition, so every repetition starts
    from fresh inputs: an instance caches its chains, and spelling them is
    part of every timed stage.  The garbage collector is off inside a timing,
    as timeit does.
    """
    times = []
    for _ in range(3):
        inst = build()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            result = stage(inst)
            times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
    return min(times), result


@_criterion("criterion 6: scaling envelopes")
def test_criterion_6_scaling():
    # Linear stages: time the closure and tfs+pfs at doubling sizes.
    def linear_run(n, seed):
        rng = random.Random(seed)
        text = "".join(rng.choices(LETTERS[:10], k=n))
        pats = sorted({text[p : p + 5] for p in rng.sample(range(n - 5), 1000)})

        def closure_tfs_pfs(pats):
            inst = build_instance(text, 5, patterns=pats)
            return tfs_sanitize(inst), pfs_sanitize(inst)

        elapsed, (x, y) = _best_of_3(lambda: pats, closure_tfs_pfs)
        assert len(y) <= len(x)
        return elapsed

    t_half = linear_run(500_000, 61)
    t_one = linear_run(1_000_000, 62)
    t_two = linear_run(2_000_000, 63)
    assert t_two < 60.0, f"2e6 run took {t_two:.1f}s"
    floor = 0.05  # below this, timer noise dominates the ratio
    if t_one > floor:
        assert t_two / t_one <= 3.0, f"doubling ratio {t_two / t_one:.2f} (want ~2.5)"
    if t_half > floor:
        assert t_one / t_half <= 3.0, f"doubling ratio {t_one / t_half:.2f} (want ~2.5)"

    # Quadratic stage: time the edit-distance engine at doubling sizes.
    def quad_run(n, seed):
        rng = random.Random(seed)
        text = "".join(rng.choices("abcd", k=n))
        windows = sorted({text[i : i + 3] for i in range(n - 2)})
        pats = rng.sample(windows, 10)
        inst = build_instance(text, 3, patterns=pats)
        elapsed, res = _best_of_3(lambda: build_instance(text, 3, patterns=pats), etfs_sanitize)
        assert res.distance <= edit_distance(text, tfs_sanitize(inst))
        return elapsed

    q_half = quad_run(500, 71)
    q_one = quad_run(1000, 72)
    q_two = quad_run(2000, 73)
    assert q_two < 600.0, f"n=2000 edit-optimal run took {q_two:.1f}s"
    assert q_two / q_one <= 6.0, f"doubling ratio {q_two / q_one:.2f} (want ~4, quadratic)"
    print(
        f"\n[scaling] linear: {t_half:.3f}/{t_one:.3f}/{t_two:.3f}s  "
        f"quadratic: {q_half:.1f}/{q_one:.1f}/{q_two:.1f}s"
    )


@_criterion("criterion 7: relative edit-distance error of the fast construction")
def test_criterion_7_edre_distribution():
    rng = random.Random(7007)
    zero_count = 0
    total = 500
    for _ in range(total):
        n = rng.randint(8, 50)
        k = rng.choice([3, 4])
        if k >= n:
            k = n - 1
        inst = _random_instance(rng, n, 2, k, rng.randint(1, 4))
        x = tfs_sanitize(inst)
        d_fast = edit_distance(inst.text, x)
        d_opt = etfs_sanitize(inst).distance
        assert d_opt <= d_fast
        if d_opt == 0:
            assert d_fast == 0
            rel = 0.0
        else:
            rel = (d_fast - d_opt) / d_opt
        assert rel >= 0.0
        if rel == 0.0:
            zero_count += 1
    assert zero_count > total // 2, f"optimal in only {zero_count}/{total} instances"
