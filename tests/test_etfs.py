import hashlib
import itertools
import random

import pytest

from seqsan import (
    approx_regex_match,
    build_instance,
    edit_distance,
    etfs_sanitize,
    tfs_sanitize,
    verify,
)
from seqsan.etfs import ANY, INF, STAY, _Matcher
from conftest import random_instance
from oracles import EdgeListAutomaton, matches, nonsensitive_starts


class TestBuildRegex:
    def test_example_structure(self, example_merge_chain):
        assert example_merge_chain.chains == ("aaabaccb", "cbbb")
        # k = 4 and W = 5 + 1 chain windows.  The start state, the leading filler
        # loop (k - 1) and the first window (k) take 2k states; each later window
        # 2k (its '#', its filler loop and its letters); the closing '#' and
        # filler k; the accept state 1: 2kW + k + 1.
        assert len(_Matcher(4, example_merge_chain.chains).cons_in) == 2 * 4 * 6 + 4 + 1

    def test_single_window(self):
        inst = build_instance("aab", 2, patterns=["ab"])
        assert inst.chains == ("aa",)

    def test_all_sensitive_is_the_filler_language(self, example_all_sensitive):
        # No chain: exactly the strings over a, b and '#' with no 4 letters in a row.
        assert example_all_sensitive.chains == ()
        assert len(_Matcher(4, ()).cons_in) == 2 * 4 + 1  # start, k-1 optional letters, '#', its loop's k-1, accept
        for n in range(9):
            for s in map("".join, itertools.product("ab#", repeat=n)):
                assert matches(4, "ab", (), s) == all(len(run) < 4 for run in s.split("#")), s

    def test_membership_of_known_strings(self, example_merge_chain):
        lang = (example_merge_chain.k, example_merge_chain.alphabet.chars, example_merge_chain.chains)
        assert matches(*lang, "aaab#aabaccb#cbbb")
        assert matches(*lang, "aaabaccb#cbbb")
        assert not matches(*lang, "aaabaccbcbbb")  # gap junction cannot fuse
        assert not matches(*lang, example_merge_chain.text)

    def test_shortest_member_is_the_tfs_output(self):
        rng = random.Random(17)
        for _ in range(200):
            inst = random_instance(rng, n_min=4, n_max=40)
            x = tfs_sanitize(inst)
            assert matches(inst.k, inst.alphabet.chars, inst.chains, x)
            assert _Matcher(inst.k, inst.chains).minrem[0] == len(x)  # no member is shorter

    def test_fallback_language(self):
        inst = build_instance("aaaaaab", 4, patterns=["aaaa", "aaab"])
        lang = (inst.k, inst.alphabet.chars, inst.chains)
        assert matches(*lang, "aaa#aab")
        assert matches(*lang, "")
        assert not matches(*lang, "aaaa")  # four straight letters form a window


class TestGadgetLanguage:
    def test_sampled_filler_never_runs_k_letters(self):
        # Filler is in the language with no k straight letters; a run of k is not.
        rng = random.Random(18)
        k = 4
        letters = "abc"
        for _ in range(200):
            # sample from the filler shape: # (up to k-1 letters #)*
            parts = ["#"]
            for _rep in range(rng.randint(0, 4)):
                run = "".join(rng.choice(letters) for _ in range(rng.randint(0, k - 1)))
                parts.append(run + "#")
            s = "".join(parts)
            assert matches(k, letters, (), s), s
            cut = rng.randint(0, len(s))
            spliced = s[:cut] + "".join(rng.choice(letters) for _ in range(k)) + s[cut:]
            assert not matches(k, letters, (), spliced), spliced


class TestApproxRegexMatch:
    def test_example_distance_and_witness(self, example_merge_chain):
        inst = example_merge_chain
        res = approx_regex_match(inst.text, inst.k, inst.chains)
        assert res.distance == 4
        assert matches(inst.k, inst.alphabet.chars, inst.chains, res.text)
        assert edit_distance(inst.text, res.text) == 4

    def test_zero_distance_when_source_matches(self):
        inst = build_instance("abcabc", 3)
        res = approx_regex_match(inst.text, inst.k, inst.chains)
        assert res.distance == 0
        assert res.text == inst.text

    def test_input_with_a_separator_is_refused(self, example_merge_chain):
        # The '#' bound assumes the input has none, as build_instance ensures.
        inst = example_merge_chain
        with pytest.raises(ValueError, match="reserved separator"):
            approx_regex_match(inst.text[:5] + "#" + inst.text[5:], inst.k, inst.chains)

    def test_trace_is_an_alignment(self, example_merge_chain):
        res = etfs_sanitize(example_merge_chain)
        consumed = sum(1 for op, _ch in res.trace if op in ("match", "substitute", "delete"))
        emitted = "".join(ch for op, ch in res.trace if op != "delete")
        cost = sum(1 for op, _ch in res.trace if op != "match")
        assert consumed == len(example_merge_chain.text)
        assert emitted == res.text
        assert cost == res.distance

    def test_one_sweep_reaches_the_fixpoint(self):
        # No in-column edge, the '#' back-edges included, can lower a settled
        # column.  The previous column's offers come from the edge-list automaton.
        rng = random.Random(22)
        for _ in range(40):
            inst = random_instance(rng, n_min=4, n_max=30)
            auto = EdgeListAutomaton(inst.k, inst.chains)
            matcher = _Matcher(inst.k, inst.chains)
            prev, cur = [INF] * auto.n_states, [0] + [INF] * (auto.n_states - 1)
            for j, oc in enumerate([ANY] + [ord(ch) for ch in inst.text]):  # column 0 reads no letter
                if j:
                    for src, dst, lab in auto.cons + [(x, x, None) for x in range(auto.n_states)]:  # and deletions
                        cur[dst] = min(cur[dst], prev[src] + (lab not in (ANY, oc)))
                todo = [x for x in range(auto.n_states) if cur[x] < INF]
                states, vals = matcher._column(cur, todo, INF, len(inst.text) - j)
                assert cur == [INF] * auto.n_states
                prev = [INF] * auto.n_states
                for x, v in zip(states, vals):
                    prev[x] = v
                assert all(prev[src] >= prev[dst] for src, dst in auto.eps)
                assert all(prev[src] + 1 >= prev[dst] for src, dst, _lab in auto.cons)

    def test_in_column_edges_match_the_sorted_build(self):
        # The reference: sort every edge of the edge-list automaton as (src,
        # cost, dst, edge index, label) and keep, per (dst, src) with src < dst,
        # the first one; the consuming in-edges come in creation order.
        rng = random.Random(26)
        for case in range(3000):
            inst = random_instance(rng, n_min=2, n_max=40, ks=(1, 2, 3, 4, 5))
            chains = () if case % 5 == 0 else inst.chains
            auto = EdgeListAutomaton(inst.k, chains)
            want = [[] for _ in range(auto.n_states)]
            in_edges = [(src, 0, dst, -1, ANY) for src, dst in auto.eps]
            in_edges += [(src, 1, dst, e, lab) for e, (src, dst, lab) in enumerate(auto.cons)]
            for src, w, dst, _e, lab in sorted(in_edges):
                if src < dst and all(s != src for s, _w, _lab in want[dst]):
                    want[dst].append((src, w, lab))
            matcher = _Matcher(inst.k, chains)
            assert matcher.col_in == want, (inst.text, inst.k)
            cons_in = [[] for _ in range(auto.n_states)]
            for src, dst, lab in auto.cons:
                cons_in[dst].append((src, lab))
            assert matcher.cons_in == cons_in, (inst.text, inst.k)
            assert matcher.accept == auto.accept
            # The out-edges are exactly the transpose of the in-edges, as
            # (dst - src, label) and (dst - src, cost) pairs; each state's
            # consuming ones start with STAY, its deletion.
            cons_out, col_out = [[] for _ in range(auto.n_states)], [[] for _ in range(auto.n_states)]
            for dst in range(auto.n_states):
                for src, lab in cons_in[dst]:
                    cons_out[src].append((dst - src, lab))
                for src, w, _lab in want[dst]:
                    col_out[src].append((dst - src, w))
            assert [out[:1] for out in matcher.cons_out] == [STAY] * auto.n_states
            assert [sorted(out[1:]) for out in matcher.cons_out] == [sorted(out) for out in cons_out]
            assert [sorted(out) for out in matcher.col_out] == [sorted(out) for out in col_out]

    def test_cut_off_does_not_change_the_result(self):
        # A bound at the optimum gives the unpruned result; a bound below it raises.
        rng = random.Random(23)
        positive = 0
        for _ in range(60):
            inst = random_instance(rng, n_min=4, n_max=50)
            matcher = _Matcher(inst.k, inst.chains)
            unbounded = matcher.match(inst.text, INF)
            assert etfs_sanitize(inst) == unbounded
            d = unbounded.distance
            if d:
                positive += 1
                assert matcher.match(inst.text, d) == unbounded
                with pytest.raises(ValueError):
                    matcher.match(inst.text, d - 1)
        assert positive >= 30


class TestLowerBound:
    def test_minrem_is_the_fewest_letters_left_to_emit(self):
        rng = random.Random(24)
        for case in range(300):
            inst = random_instance(rng, n_min=2, n_max=40, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5, 6))
            chains = () if case % 5 == 0 else inst.chains
            auto = EdgeListAutomaton(inst.k, chains)
            minrem = _Matcher(inst.k, chains).minrem
            assert minrem[auto.accept] == 0
            assert minrem[0] == len("#".join(chains))  # the shortest member
            # Consistent: no edge lowers it by more than the letters the edge emits.
            assert all(minrem[src] <= minrem[dst] + 1 for src, dst, _lab in auto.cons)
            assert all(minrem[src] <= minrem[dst] for src, dst in auto.eps)
            # Tight: every other state has an out-edge that attains it.
            best = [INF] * auto.n_states
            for src, dst, _lab in auto.cons:
                best[src] = min(best[src], minrem[dst] + 1)
            for src, dst in auto.eps:
                best[src] = min(best[src], minrem[dst])
            assert all(minrem[s] == best[s] for s in range(auto.n_states) if s != auto.accept)

    def test_minsep_is_the_fewest_separators_left_to_emit(self):
        rng = random.Random(28)
        sep = ord("#")
        for case in range(300):
            inst = random_instance(rng, n_min=2, n_max=40, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5, 6))
            chains = () if case % 5 == 0 else inst.chains
            auto = EdgeListAutomaton(inst.k, chains)
            minsep = _Matcher(inst.k, chains).minsep
            assert len(minsep) == auto.n_states and minsep[auto.accept] == 0
            assert minsep[0] == max(0, len(chains) - 1)  # the shortest member's '#'
            # Consistent: no edge lowers it by more than the '#' the edge emits.
            assert all(minsep[src] <= minsep[dst] + (lab == sep) for src, dst, lab in auto.cons)
            assert all(minsep[src] <= minsep[dst] for src, dst in auto.eps)
            # Tight: every other state has an out-edge that attains it.
            best = [INF] * auto.n_states
            for src, dst, lab in auto.cons:
                best[src] = min(best[src], minsep[dst] + (lab == sep))
            for src, dst in auto.eps:
                best[src] = min(best[src], minsep[dst])
            assert all(minsep[s] == best[s] for s in range(auto.n_states) if s != auto.accept)

    def test_one_pass_at_the_optimum_keeps_just_the_cells_within_it(self, monkeypatch):
        # A cell whose value plus its lower bound h equals the bound is kept, so
        # one pass at the optimum finds it; a column stores its kept cells only.
        rng = random.Random(26)
        for _ in range(300):
            rate = rng.choice((0.05, 0.35, 0.7))
            inst = random_instance(rng, 2, 30, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5, 6), sensitive_rate=rate)
            matcher = _Matcher(inst.k, inst.chains)
            reference = matcher.match(inst.text, INF)
            column, bounds = matcher._column, []

            def recording(cur, todo, bound, rem):
                bounds.append(bound)
                states, vals = column(cur, todo, bound, rem)
                h = [max(0, matcher.minrem[s] - rem, matcher.minsep[s]) for s in states]
                assert all(v + hs <= bound for hs, v in zip(h, vals))
                return states, vals

            monkeypatch.setattr(matcher, "_column", recording)
            assert matcher.match(inst.text, reference.distance) == reference
            assert bounds == [reference.distance] * (inst.n + 1)

    def test_pruned_engine_agrees_with_the_unpruned_one(self):
        # match(text, INF) keeps every cell; etfs_sanitize starts at the TFS
        # output's distance and drops the cells the lower bound rules out.
        rng = random.Random(25)
        seen = {"k=1": 0, "dense": 0, "sparse": 0, "fallback": 0, "long": 0}
        for case in range(2001):
            if case < 2000:
                rate = rng.choice((0.02, 0.1, 0.35, 0.6, 0.9))
                n_min, n_max = (65, 90) if case % 50 == 0 else (2, 30)
                inst = random_instance(rng, n_min, n_max, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5, 6), sensitive_rate=rate)
            else:  # one instance of 120-160 letters, at random_instance's default rate
                rate = 0.35
                inst = random_instance(random.Random(20), n_min=120, n_max=160, sigmas=(3,), ks=(4,))
            reference = _Matcher(inst.k, inst.chains).match(inst.text, INF)
            assert etfs_sanitize(inst) == reference, (inst.text, inst.k, inst.sensitive_patterns)
            seen["k=1"] += inst.k == 1
            seen["dense"] += rate >= 0.6
            seen["sparse"] += rate <= 0.1
            seen["fallback"] += not inst.chains
            seen["long"] += inst.n > 64
        assert min(seen.values()) >= 10, seen


class TestEtfsSanitize:
    def test_all_sensitive_golden(self, example_all_sensitive):
        res = etfs_sanitize(example_all_sensitive)
        assert res.text == "aaa#aab"
        assert res.distance == 1
        assert tfs_sanitize(example_all_sensitive) == ""
        assert edit_distance(example_all_sensitive.text, "") == 7

    def test_example_dominates_total_order_output(self, example_merge_chain):
        res = etfs_sanitize(example_merge_chain)
        x = tfs_sanitize(example_merge_chain)
        assert res.distance == 4
        assert edit_distance(example_merge_chain.text, x) == 5

    def test_identity_when_nothing_sensitive(self):
        inst = build_instance("bacabac", 3)
        res = etfs_sanitize(inst)
        assert res.text == inst.text
        assert res.distance == 0

    def test_random_instances_properties(self):
        rng = random.Random(19)
        for _ in range(60):
            inst = random_instance(rng, n_min=6, n_max=30)
            res = etfs_sanitize(inst)
            x = tfs_sanitize(inst)
            assert res.distance <= edit_distance(inst.text, x)
            assert edit_distance(inst.text, res.text) == res.distance
            for lv in ("C1", "P1", "P2"):
                chk = verify(res.text, inst, lv)
                assert chk.ok, f"{lv} failed on {inst.text!r} k={inst.k}: {chk.detail}"

    def test_witness_tie_order_is_pinned(self):
        # Of several co-optimal witnesses, the traceback returns the one its
        # fixed candidate order picks.  The digest was recorded with the
        # automaton built as two edge lists and then sorted into in-edges; it
        # fails if the order, and so a witness or its trace, changes.
        rng = random.Random(27)
        digest = hashlib.sha256()
        for case in range(300):
            rate = (0.05, 0.1, 0.35, 0.6, 0.9)[case % 5]
            inst = random_instance(rng, 2, 40, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5), sensitive_rate=rate)
            res = etfs_sanitize(inst)
            digest.update(repr((res.text, res.distance, res.trace)).encode())
        assert digest.hexdigest() == "6d235773f1bcff73fe001d24c69923da5f5a0a7a815bba5c020c47b7a653e8dd"

    def test_edre_with_the_reported_distance_agrees(self):
        # The instances of test_random_instances_properties.
        rng = random.Random(19)
        for _ in range(60):
            inst = random_instance(rng, n_min=6, n_max=30)
            res = etfs_sanitize(inst)
            # The two distances edre takes: the TFS output's, the cut-off's bound, and the optimum's.
            assert res.shortest_distance == edit_distance(inst.text, tfs_sanitize(inst))
            assert res.distance == edit_distance(inst.text, res.text)


class TestComplexityEnvelope:
    def test_a_column_settles_only_its_frontier(self, monkeypatch):
        # Work, not wall clock, on a sparse input: a column settles the states
        # the previous column's kept cells reach, and those its own kept cells
        # reach, about 2 per kept cell here.  A sweep over every state from a
        # column's first kept one to its last settles about 10 per kept cell.
        rng = random.Random(32)
        n = 2000
        text = "".join(rng.choice("abcdefghij") for _ in range(n))
        inst = build_instance(text, 5, positions=rng.sample(range(n - 4), n // 100))
        matcher = _Matcher(inst.k, inst.chains)
        column, work = matcher._column, {"settled": 0, "kept": 0}

        def counting(cur, todo, bound, rem):
            states, vals = column(cur, todo, bound, rem)
            work["settled"] += len(todo)  # the states it settled, in order
            work["kept"] += len(states)
            return states, vals

        monkeypatch.setattr(matcher, "_column", counting)
        matcher.match(inst.text, edit_distance(inst.text, "#".join(inst.chains)))
        assert work["kept"] == 71691  # the cells whose value plus h is within the bound, of the unpruned table
        assert work["kept"] <= work["settled"] <= 3 * work["kept"], work

    def test_state_count_is_exact(self):
        # 2kW + k + 1 states for W >= 1 chain windows (see test_example_structure), 2k + 1 with no chain.
        rng = random.Random(21)
        for _ in range(20):
            inst = random_instance(rng, n_min=10, n_max=80)
            n_states = len(_Matcher(inst.k, inst.chains).cons_in)
            windows = sum(len(chain) - inst.k + 1 for chain in inst.chains)
            assert n_states == (2 * inst.k * windows + inst.k + 1 if windows else 2 * inst.k + 1)
            n_anchors = len(nonsensitive_starts(inst))
            assert n_states <= (2 * inst.k + 4) * max(1, n_anchors) + 2 * inst.k + 4
