"""Property-based checks over randomly drawn instances."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from seqsan import (
    Infeasible,
    build_instance,
    contains_sensitive,
    kmer_counts,
    mcsr_sanitize,
    pfs_sanitize,
    tfs_sanitize,
    uniform_cost_model,
    verify_levels,
)
from conftest import check_tfs_definition
from oracles import nonsensitive_starts


@st.composite
def instances(draw, max_n=48):
    sigma = draw(st.integers(min_value=2, max_value=4))
    letters = "abcd"[:sigma]
    n = draw(st.integers(min_value=6, max_value=max_n))
    text = draw(st.text(alphabet=letters, min_size=n, max_size=n))
    k = draw(st.integers(min_value=2, max_value=min(5, n - 1)))
    windows = sorted({text[i : i + k] for i in range(n - k + 1)})
    marks = draw(st.lists(st.booleans(), min_size=len(windows), max_size=len(windows)))
    patterns = [w for w, m in zip(windows, marks) if m]
    return build_instance(text, k, patterns=patterns)


@settings(max_examples=120, deadline=None)
@given(instances())
def test_total_order_output_satisfies_all_levels(inst):
    x = tfs_sanitize(inst)
    assert all(r.ok for r in verify_levels(x, inst))


@settings(max_examples=120, deadline=None)
@given(instances())
def test_blocks_are_exactly_the_overlap_chains(inst):
    check_tfs_definition(tfs_sanitize(inst), inst)


@settings(max_examples=120, deadline=None)
@given(instances())
def test_partial_order_output_is_shorter_and_valid(inst):
    x = tfs_sanitize(inst)
    y = pfs_sanitize(inst)
    assert len(y) <= len(x)
    for r in verify_levels(y, inst, ("C1", "Pi1", "P2", "P3", "P4")):
        assert r.ok, r


@settings(max_examples=80, deadline=None)
@given(instances(max_n=36), st.integers(min_value=1, max_value=4))
def test_separator_replacement_is_safe_and_monotone(inst, tau):
    y = pfs_sanitize(inst)
    try:
        res = mcsr_sanitize(y, inst, uniform_cost_model(tau=tau))
    except Infeasible:
        return
    assert "#" not in res.text
    assert not contains_sensitive(res.text, inst)
    before = kmer_counts(y, inst.k)
    after = kmer_counts(res.text, inst.k)
    assert all(after[p] >= c for p, c in before.items())


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab#", max_size=40), st.integers(min_value=1, max_value=4))
def test_kmer_counts_sum_to_window_count(text, k):
    counts = kmer_counts(text, k)
    windows = sum(
        1
        for i in range(len(text) - k + 1)
        if "#" not in text[i : i + k]
    )
    assert sum(counts.values()) == windows
    assert all("#" not in key for key in counts)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_sanitizers_never_leak_a_sensitive_pattern(inst):
    for out in (tfs_sanitize(inst), pfs_sanitize(inst)):
        assert not contains_sensitive(out, inst)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_nonsensitive_multiset_preserved(inst):
    x = tfs_sanitize(inst)
    want = Counter(inst.text[i : i + inst.k] for i in nonsensitive_starts(inst))
    assert kmer_counts(x, inst.k) == want
