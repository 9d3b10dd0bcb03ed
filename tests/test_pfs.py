import gc
import hashlib
import random
import time
from collections import Counter, defaultdict, deque

import pytest

from seqsan import (
    Alphabet,
    build_instance,
    fo_ssm,
    pfs_sanitize,
    tfs_sanitize,
    verify,
    verify_levels,
)
from seqsan.pfs import assemble
from conftest import random_instance
from oracles import oracle_fo_ssm


class TestFoSsm:
    def test_example_decomposition(self):
        ordering = fo_ssm([(2, 3), (1, 4), (3, 2)])
        assert sorted(bid for trail in ordering for bid in trail) == [0, 1, 2]
        assert len(ordering) == 2
        assert sum(len(t) - 1 for t in ordering) == 1  # exactly one merge

    def test_single_pair(self):
        assert fo_ssm([(1, 2)]) == [[0]]

    def test_two_block_cycle_single_trail(self):
        ordering = fo_ssm([(1, 2), (2, 1)])
        assert len(ordering) == 1
        assert sorted(ordering[0]) == [0, 1]

    def test_merge_junctions_align(self):
        rng = random.Random(8)
        for _ in range(100):
            nb = rng.randint(1, 7)
            affixes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(nb)]
            ordering = fo_ssm(affixes)
            assert sorted(b for t in ordering for b in t) == list(range(nb))
            for trail in ordering:
                for left, right in zip(trail, trail[1:]):
                    assert affixes[left][1] == affixes[right][0]

    def test_matches_permutation_oracle(self):
        rng = random.Random(9)
        for _ in range(100):
            nb = rng.randint(1, 6)
            ell = rng.randint(1, 3)
            affixes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(nb)]
            lengths = [rng.randint(ell + 1, ell + 5) for _ in range(nb)]
            ordering = fo_ssm(affixes)
            merges = sum(len(t) - 1 for t in ordering)
            induced = sum(lengths) + (len(ordering) - 1) - merges * ell
            assert induced == oracle_fo_ssm(affixes, lengths, ell)


def _rescanning_fo_ssm(affixes):
    """The rescanning decomposition `fo_ssm` replaced, kept as the reference for its orderings.

    Phase 1 rescans the nodes for the first unbalanced one before every walk;
    phase 2 rescans them for the first on-trail node with edges left, and
    every trail for the first position a cycle shares.
    """
    if not affixes:
        return []
    out_edges = defaultdict(deque)
    out_deg = defaultdict(int)
    in_deg = defaultdict(int)
    for prefix, suffix, bid in sorted((prefix, suffix, bid) for bid, (prefix, suffix) in enumerate(affixes)):
        out_edges[prefix].append((suffix, bid))
        out_deg[prefix] += 1
        in_deg[suffix] += 1
    nodes = sorted(set(out_deg) | set(in_deg))

    def walk(start):
        node_seq, bid_seq, cur = [start], [], start
        while out_deg[cur]:
            nxt, bid = out_edges[cur].popleft()
            out_deg[cur] -= 1
            in_deg[nxt] -= 1
            bid_seq.append(bid)
            node_seq.append(nxt)
            cur = nxt
        return node_seq, bid_seq

    trails, on_trails = [], set()

    def add_trail(t_nodes, t_bids):
        trails.append((t_nodes, t_bids))
        on_trails.update(t_nodes)

    while True:
        start = next((v for v in nodes if out_deg[v] > in_deg[v]), None)
        if start is None:
            break
        add_trail(*walk(start))
    while True:
        start = next((v for v in nodes if out_deg[v] > 0 and v in on_trails), None)
        if start is None:
            start = next((v for v in nodes if out_deg[v] > 0), None)
        if start is None:
            break
        cyc_nodes, cyc_bids = walk(start)
        cyc_set = set(cyc_nodes)
        for t_nodes, t_bids in trails:
            hit = next((i for i, v in enumerate(t_nodes) if v in cyc_set), None)
            if hit is None:
                continue
            at = cyc_nodes.index(t_nodes[hit])
            t_nodes[hit : hit + 1] = cyc_nodes[at:-1] + cyc_nodes[: at + 1]
            t_bids[hit:hit] = cyc_bids[at:] + cyc_bids[:at]
            on_trails.update(cyc_nodes)
            break
        else:
            add_trail(cyc_nodes, cyc_bids)

    groups = defaultdict(deque)
    for bids in sorted((bids for _, bids in trails), key=min):
        groups[affixes[bids[0]][0]].append(bids)
    ranks = sorted(groups)
    ordering = []
    while any(groups[r] for r in ranks):
        for r in ranks:
            if groups[r]:
                ordering.append(groups[r].popleft())
    return ordering


def _cycles_through_a_trail(length):
    """A trail 1 -> 2 -> ... -> length + 1, and a two-edge cycle v -> x_v -> v off each of its nodes but the last."""
    affixes = [(i + 1, i + 2) for i in range(length)]
    for v in range(1, length + 1):
        x = length + 1 + v
        affixes += [(v, x), (x, v)]
    return affixes


class TestFoSsmAgainstRescanning:
    def test_orderings_equal_the_rescanning_reference(self):
        rng = random.Random(30)
        seen = {"open": 0, "balanced": 0, "revisits": 0}
        for case in range(24_000):
            ranks = rng.randint(1, 8)
            if case % 2:
                # Unions of closed walks, some with an open one: most edges are left to phase 2.
                edges = []
                for _ in range(rng.randint(1, 6)):
                    walk = [rng.randint(1, ranks) for _ in range(rng.randint(1, 6))]
                    walk.append(walk[0] if rng.random() < 0.8 else rng.randint(1, ranks))
                    edges += zip(walk, walk[1:])
                edges = edges[:30]
            else:
                edges = [(rng.randint(1, ranks), rng.randint(1, ranks)) for _ in range(rng.randint(1, 30))]
            rng.shuffle(edges)
            want = _rescanning_fo_ssm(edges)
            assert fo_ssm(edges) == want, edges
            balanced = Counter(prefix for prefix, _ in edges) == Counter(suffix for _, suffix in edges)
            seen["balanced" if balanced else "open"] += 1
            for trail in want:
                nodes = [edges[trail[0]][0]] + [edges[b][1] for b in trail]
                if len(set(nodes)) < len(nodes) - 1:  # a node visited twice besides a closed trail's ends
                    seen["revisits"] += 1
                    break
        assert min(seen.values()) > 1000, seen

    def test_many_cycles_through_one_trail_scale_linearly(self):
        def best_time(length):
            affixes = _cycles_through_a_trail(length)
            times = []
            for _ in range(3):
                gc.collect()
                enabled = gc.isenabled()
                gc.disable()  # no collection inside a timing, as timeit does
                try:
                    start = time.perf_counter()
                    ordering = fo_ssm(affixes)
                    times.append(time.perf_counter() - start)
                finally:
                    if enabled:
                        gc.enable()
            assert len(ordering) == 1 and len(ordering[0]) == 3 * length
            return min(times)

        assert _rescanning_fo_ssm(_cycles_through_a_trail(200)) == fo_ssm(_cycles_through_a_trail(200))
        small, large = best_time(2_500), best_time(20_000)
        assert large <= 2.5**3 * small, (small, large)  # three doublings; the rescanning loop grows 4x per doubling


def _pfs_of_the_split_tfs_output(inst):
    """PFS as built before it read `inst.chains` and keyed its trail graph by the affixes themselves.

    The blocks are the TFS output's, split at its separators, and each affix is replaced by its integer rank.
    """
    x = tfs_sanitize(inst)
    if "#" not in x:
        return x
    blocks = x.split("#")
    ell = inst.k - 1
    affixes = sorted({b[:ell] for b in blocks} | {b[len(b) - ell :] for b in blocks})
    rank = {a: r for r, a in enumerate(affixes, start=1)}
    return assemble(blocks, fo_ssm([(rank[b[:ell]], rank[b[len(b) - ell :]]) for b in blocks]), ell)


def _token_instance(rng, rate):
    """Random tokens over 300 letters, some of their runs repeated so that affixes recur; k is 1 to 5."""
    tokens = [str(rng.randrange(300)) for _ in range(rng.randint(6, 300))]
    words = [tokens[i : i + rng.randint(1, 5)] for i in range(rng.randint(1, 6))]
    tokens += [t for _ in range(rng.randint(0, 40)) for t in rng.choice(words)]
    alphabet = Alphabet.from_tokens(tokens)
    text = alphabet.encode(tokens)
    k = rng.randint(1, 5)
    windows = sorted({text[i : i + k] for i in range(len(text) - k + 1)})
    return build_instance(text, k, patterns=[w for w in windows if rng.random() < rate], alphabet=alphabet)


class TestPfsSanitize:
    def test_equals_the_construction_from_the_split_tfs_output(self):
        rng = random.Random(34)
        by_chains = Counter()
        for trial in range(3000):
            rate = rng.uniform(0.05, 0.5) if trial % 3 else float(trial % 2)  # a third have none or all sensitive
            inst = random_instance(rng, n_min=4, n_max=40, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5), sensitive_rate=rate)
            assert pfs_sanitize(inst) == _pfs_of_the_split_tfs_output(inst), (inst.text, inst.k, inst.sensitive_patterns)
            by_chains[min(len(inst.chains), 2)] += 1
        assert min(by_chains[0], by_chains[1], by_chains[2]) > 500, by_chains  # no chain, one chain, several

    def test_outputs_are_pinned(self):
        # Trail order, edge order and trail joins all show in the outputs; the digest was taken when the
        # trail graph's nodes were integer ranks of the affixes.
        rng = random.Random(36)
        digest = hashlib.sha256()
        seen = Counter()
        for trial in range(2000):
            rate = rng.uniform(0.05, 0.5) if trial % 3 else float(trial % 2)  # a third have none or all sensitive
            if trial % 4:
                inst = random_instance(rng, n_min=4, n_max=40, sigmas=(1, 2, 3, 4, 10), ks=(1, 2, 3, 4, 5), sensitive_rate=rate)
            else:
                inst = _token_instance(rng, rate)
            y = pfs_sanitize(inst)
            digest.update(repr(y).encode())
            seen[f"{min(len(inst.chains), 2)} chains"] += 1
            if len(inst.alphabet.tokens) >= 100:
                seen["100+ letters"] += 1
                seen["100+ letters, merged"] += y.count("#") < tfs_sanitize(inst).count("#")
        assert min(seen.values()) >= 50, seen
        assert digest.hexdigest() == "70b4d725e1f4980e2589be1f205180ee427d44c1b78b565104daa8e04ad6eec0"

    def test_example2_length_and_verifiers(self, example1):
        y = pfs_sanitize(example1)
        assert len(y) == 23
        assert y.count("#") == 1
        for lv in ("C1", "Pi1", "P2", "P3", "P4"):
            assert verify(y, example1, lv).ok

    def test_papers_alternative_is_co_optimal(self, example1):
        reference = "aaacbcbbba#aabaabbacaab"
        assert len(reference) == len(pfs_sanitize(example1))
        for lv in ("C1", "Pi1", "P2", "P3", "P4"):
            assert verify(reference, example1, lv).ok

    def test_identity_when_nothing_sensitive(self):
        inst = build_instance("abcabc", 3)
        assert pfs_sanitize(inst) == "abcabc"

    def test_no_overlap_means_no_shrink(self, example4):
        # order-3 de Bruijn blocks share no 3-overlap, so nothing merges
        x = tfs_sanitize(example4)
        y = pfs_sanitize(example4)
        assert len(y) == len(x) == 19

    def test_never_longer_and_length_formula(self):
        rng = random.Random(10)
        for _ in range(80):
            inst = random_instance(rng)
            x = tfs_sanitize(inst)
            y = pfs_sanitize(inst)
            assert len(y) <= len(x)
            merges = x.count("#") - y.count("#")
            assert len(y) == len(x) - merges * inst.k

    def test_random_instances_pass_verifiers(self):
        rng = random.Random(11)
        for _ in range(80):
            inst = random_instance(rng)
            y = pfs_sanitize(inst)
            for lv in ("C1", "Pi1", "P2", "P3", "P4"):
                res = verify(y, inst, lv)
                assert res.ok, f"{lv} failed on {inst.text!r} k={inst.k}: {res.detail}"

    def test_deterministic(self):
        rng = random.Random(12)
        for _ in range(10):
            inst = random_instance(rng)
            assert pfs_sanitize(inst) == pfs_sanitize(inst)


def test_assemble_merges_drop_prefix():
    blocks = ["aabaa", "aaacbcbbba", "baabbacaab"]
    ordering = [[0, 2], [1]]
    assert assemble(blocks, ordering, 3) == "aabaabbacaab#aaacbcbbba"
