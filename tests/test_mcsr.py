import hashlib
import math
import random
import tracemalloc
from collections import Counter

import pytest

import seqsan.mcsr as mcsr_mod
from seqsan import (
    Alphabet,
    CostModel,
    Infeasible,
    MckElement,
    build_instance,
    candidate_ghosts,
    contains_sensitive,
    exposure_gains,
    implausible_set,
    kmer_counts,
    mcsr_sanitize,
    pfs_sanitize,
    separator_sites,
    solve_mck,
    tfs_sanitize,
    uniform_cost_model,
)
from conftest import random_instance
from oracles import context_string, oracle_mck, z_score

PAPER_Y = "aaacbcbbba#aabaabbacaab"


def _table(text, k, letters, forbidden=frozenset()):
    """The site table under unit weights and no capacity: every choice not exposing a forbidden window has weight 1."""
    return separator_sites(text, k, letters, uniform_cost_model(tau=1, theta=math.inf), frozenset(forbidden))


class TestContextString:
    def test_paper_y_letter_context(self):
        assert context_string(PAPER_Y, 1, "c", 4) == "bbacaab"

    def test_boundary_truncation(self):
        # separator as the second character: only one letter of left context
        assert context_string("a#bcdef", 1, "x", 4) == "axbcd"

    def test_deletion_context(self):
        ctx = context_string(PAPER_Y, 1, "", 4)
        assert ctx == "bbaaab"
        assert len(ctx) == 2 * 4 - 2

    def test_neighbour_separator_truncation(self):
        assert context_string("ab#cd#ef", 2, "x", 4) == "cdxef"


class TestCandidateGhosts:
    def test_no_separator_no_candidates(self):
        assert candidate_ghosts(exposure_gains(_table("abcabc", 3, "abc")), kmer_counts("abcabc", 3), 2) == {}

    def test_hand_counted_example(self):
        assert candidate_ghosts(exposure_gains(_table("aa#aa", 2, "a")), kmer_counts("aa#aa", 2), 4) == {"aa": (2, 4)}
        assert candidate_ghosts(exposure_gains(_table("aa#aa", 2, "a")), kmer_counts("aa#aa", 2), 2) == {}

    def test_tau_one_absent_but_creatable(self):
        cands = candidate_ghosts(exposure_gains(_table("ab#ba", 2, "ab")), kmer_counts("ab#ba", 2), 1)
        # every freshly creatable window is a candidate at tau=1
        assert "bb" in cands
        assert "ab" not in cands  # already occurs

    def test_single_separator_brute_force(self):
        rng = random.Random(13)
        letters = "ab"
        for _ in range(40):
            left = "".join(rng.choice(letters) for _ in range(rng.randint(2, 5)))
            right = "".join(rng.choice(letters) for _ in range(rng.randint(2, 5)))
            y = left + "#" + right
            k = 2
            tau = rng.randint(1, 3)
            cands = candidate_ghosts(exposure_gains(_table(y, k, letters)), kmer_counts(y, k), tau)
            base = kmer_counts(y, k)
            best = {}
            for ch in list(letters) + [""]:
                z = left + ch + right
                gained = kmer_counts(z, k)
                for pat in gained.keys() | base.keys():
                    extra = gained[pat] - base[pat]
                    if extra > best.get(pat, 0):
                        best[pat] = extra
            for pat in set(base) | set(best):
                reach = base[pat] + best.get(pat, 0)
                expect_in = base[pat] < tau <= reach
                assert (pat in cands) == expect_in, (y, pat, tau)


def _ghost_definition(text, k, tau, letters):
    """Over every pattern of the input or of some context: count in, and count in plus each separator's best gain."""
    base = Counter(text[i : i + k] for i in range(len(text) - k + 1) if "#" not in text[i : i + k])
    gains = Counter()
    for sep in range(1, text.count("#") + 1):
        best = Counter()
        for choice in list(letters) + [""]:
            ctx = context_string(text, sep, choice, k)
            for win, cnt in Counter(ctx[i : i + k] for i in range(len(ctx) - k + 1)).items():
                best[win] = max(best[win], cnt)
        gains.update(best)
    reach = {pat: (base[pat], base[pat] + gains[pat]) for pat in base.keys() | gains.keys()}
    return {pat: (low, top) for pat, (low, top) in reach.items() if low < tau <= top}


def _random_separated(rng, letters, n_max):
    """Letters with separators anywhere: leading, trailing, adjacent, around blocks shorter than k."""
    return "".join(rng.choice(letters + "##") for _ in range(rng.randint(0, n_max)))


def _separated_in_contract(rng, letters, k):
    """Letters with separators and at least k-1 letters, often exactly k-1, between any two.

    The outer blocks may be shorter, or empty.
    """
    word = lambda m: "".join(rng.choice(letters) for _ in range(m))
    blocks = [word(rng.randint(0, k + 1))]
    while rng.random() < 0.75 and len(blocks) < 8:
        blocks.append(word(k - 1 + rng.choice((0, 0, 1, 2, rng.randint(0, 5)))))
    blocks.append(word(rng.randint(0, k + 1)))
    return "#".join(blocks)


def _has_block_of_k_minus_1(y, k):
    return k > 1 and any(len(b) == k - 1 for b in y.split("#")[1:-1])


class TestCandidateGhostsDefinition:
    def test_entries_match_all_keys_definition(self):
        # The definition walks every choice, so choices without a weight still count.
        rng = random.Random(41)
        found = forbidden_found = 0
        for _ in range(400):
            letters = "abcd"[: rng.randint(1, 4)]
            text = _random_separated(rng, letters, 14)
            k = rng.randint(1, 4)
            tau = rng.randint(1, 4)
            want = _ghost_definition(text, k, tau, letters)
            every = {w for options in _table(text, k, letters) for _c, windows, _wt in options for w in windows}
            forbidden = {w for w in sorted(every) if rng.random() < 0.3}
            try:
                sites = _table(text, k, letters, forbidden)
            except Infeasible:
                sites = _table(text, k, letters)
            gains = exposure_gains(sites)
            # The gain table's keys are the exposed set: every choice's windows, with or without a weight.
            assert set(gains) == {w for options in sites for _c, windows, _wt in options for w in windows}, (text, k)
            got = candidate_ghosts(gains, kmer_counts(text, k), tau)
            assert got == want, (text, k, tau)
            found += bool(want)
            forbidden_found += bool(want) and any(wt is None for opts in sites for _c, _w, wt in opts)
        assert found > 100
        assert forbidden_found > 50


def _direct_weight(text, i, choice, k, cm, forbidden):
    """A choice's weight by definition: None if a context window is forbidden, else its table weight, None above theta."""
    ctx = context_string(text, i, choice, k)
    if any(ctx[t : t + k] in forbidden for t in range(len(ctx) - k + 1)):
        return None
    weight = cm.sub.get(choice, cm.sub_default)
    return None if weight > cm.theta else weight


_SUBS = (  # (sub, sub_default)
    ({}, 1),
    ({"": 0, "a": 5}, 1),  # a free deletion and a letter heavier than most capacities
    ({"b": 2, "c": 0, "": 3}, 1),
    ({"a": 1}, 4),  # every other choice above a small capacity
)


class TestSeparatorSites:
    def test_windows_are_those_of_context_string(self):
        # Each weight is `_direct_weight` too, and the first separator with none fails the walk.
        rng = random.Random(43)
        seen = Counter()
        for _ in range(600):
            letters = "abcd"[: rng.randint(1, 4)]
            choices = list(letters) + [""]
            text = _random_separated(rng, letters, 16)
            k = rng.randint(1, 4)
            cm = CostModel(1.0, *rng.choice(_SUBS), theta=float(rng.randint(0, 3)), tau=1)
            contexts = {context_string(text, i, c, k) for i in range(1, text.count("#") + 1) for c in choices}
            every = {ctx[t : t + k] for ctx in contexts for t in range(len(ctx) - k + 1)}
            forbidden = frozenset(w for w in sorted(every) if rng.random() < 0.1)
            seps = range(1, text.count("#") + 1)
            weights = [[_direct_weight(text, i, c, k, cm, forbidden) for c in choices] for i in seps]
            blocked = [i for i, ws in enumerate(weights, start=1) if all(w is None for w in ws)]
            if blocked:
                with pytest.raises(Infeasible, match=f"no admissible choice for separator {blocked[0]};"):
                    separator_sites(text, k, letters, cm, forbidden)
                seen["infeasible"] += 1
                continue
            sites = separator_sites(text, k, letters, cm, forbidden)
            assert len(sites) == len(seps), (text, k)
            for i, options in enumerate(sites, start=1):
                assert [choice for choice, _, _ in options] == choices
                assert [weight for _, _, weight in options] == weights[i - 1], (text, k, i)
                for choice, windows, _weight in options:
                    ctx = context_string(text, i, choice, k)
                    assert list(windows) == [ctx[t : t + k] for t in range(len(ctx) - k + 1)], (text, k, i, choice)
            blocks = text.split("#")
            seen["leading"] += text.startswith("#")
            seen["trailing"] += text.endswith("#")
            seen["adjacent"] += "##" in text
            seen["short block"] += len(blocks) > 1 and any(0 < len(b) < k for b in blocks)
            seen["k = 1"] += k == 1 and len(blocks) > 1
            seen["no weight"] += any(w is None for ws in weights for w in ws)
            unbounded = cm._replace(theta=math.inf)
            uncut = [[_direct_weight(text, i, c, k, unbounded, forbidden) for c in choices] for i in seps]
            seen["above theta"] += weights != uncut
        assert min(seen.values()) > 20, seen

    def test_infeasible_when_every_choice_unsafe(self):
        inst = build_instance("abab", 2, patterns=["ba"])
        with pytest.raises(Infeasible, match="no admissible choice for separator 1;"):
            separator_sites("ab#ab", 2, "ab", uniform_cost_model(tau=1, theta=1.0), inst.sensitive_patterns)

    def test_unresolved_capacity_is_refused(self):
        with pytest.raises(ValueError, match="capacity"):
            separator_sites("ab#ab", 2, "ab", uniform_cost_model(tau=1), frozenset())


class TestGhostPricing:
    def test_a_choice_costs_the_ghost_cost_times_its_candidate_windows(self):
        rng = random.Random(44)
        seen = Counter()
        for _ in range(400):
            letters = "abc"[: rng.randint(1, 3)]
            text = _random_separated(rng, letters, 16)
            k = rng.randint(1, 4)
            contexts = {context_string(text, i, c, k) for i in range(1, text.count("#") + 1) for c in list(letters) + [""]}
            every = {ctx[t : t + k] for ctx in contexts for t in range(len(ctx) - k + 1)}
            sensitive = frozenset(w for w in sorted(every) if rng.random() < 0.2)
            cands = {w: (0, 1) for w in sorted(every) if rng.random() < 0.6}
            cm = CostModel(rng.choice((1.0, 0.1, 0.3)), {}, 1, theta=100.0, tau=1)
            want = []
            for i in range(1, text.count("#") + 1):
                elements = []
                for choice in list(letters) + [""]:
                    ctx = context_string(text, i, choice, k)
                    windows = [ctx[t : t + k] for t in range(len(ctx) - k + 1)]
                    if sensitive.isdisjoint(windows):
                        created = [w for w in windows if w in cands]
                        elements.append(MckElement(choice, cm.ghost * len(created), 1))
                        seen["a candidate twice"] += len(created) > len(set(created))
                want.append(tuple(elements))
            try:
                got = mcsr_mod._price(separator_sites(text, k, letters, cm, sensitive), cands, cm)
            except Infeasible:
                assert not all(want), text
                continue
            assert got == tuple(want), (text, k)
            seen["costed"] += any(el.cost for cls in want for el in cls)
        assert min(seen.values()) > 20, seen

    def test_six_candidates_cost_one_product(self):
        # A left-to-right sum of six 0.1s is 0.6 before Python 3.12 and 0.6000000000000001 after; the product is the latter.
        cm = CostModel(0.1, {}, 1, theta=1.0, tau=1)
        sites = separator_sites("aaaaa#aaaaa", 6, "a", cm, frozenset())
        classes = mcsr_mod._price(sites, {"aaaaaa": (0, 1)}, cm)
        assert [el.cost for el in classes[0]] == [0.6000000000000001, 0.5]  # a, then deletion's five


class TestResultCounts:
    def test_counts_are_the_output_counts(self):
        rng = random.Random(42)
        seen = Counter()
        for _ in range(1500):
            inst = random_instance(rng, n_min=3, n_max=24, ks=(1, 2, 3, 4))
            k = inst.k
            kind = rng.choice(("tfs", "pfs", "random", "letters"))
            if kind == "tfs":
                y = tfs_sanitize(inst)
            elif kind == "pfs":
                y = pfs_sanitize(inst)
            elif kind == "random":
                y = _separated_in_contract(rng, inst.alphabet.chars, k)
            else:
                y = inst.text
            implausible = implausible_set(inst, -0.5) if k > 2 and rng.random() < 0.3 else None
            try:
                res = mcsr_sanitize(y, inst, uniform_cost_model(tau=rng.randint(1, 3)), implausible)
            except Infeasible:
                continue
            before, added = kmer_counts(y, k), Counter(win for _i, win in res.site_windows)
            assert kmer_counts(res.text, k) == before + added, (y, k, res.text)
            assert all(res.exposed_counts[pat] == before[pat] for pat in res.exposed_counts), (y, k)
            assert all(res.exposed_counts[pat] == before[pat] for pat in added), (y, k)  # a missing pattern reads 0
            first_seen = dict.fromkeys(y[i : i + k] for i in range(len(y) - k + 1))
            assert list(res.exposed_counts) == [pat for pat in first_seen if pat in res.exposed_counts], (y, k)
            changed = ({pat: before[pat] for pat in added}, {pat: before[pat] + cnt for pat, cnt in added.items()})
            assert tuple(map(dict, res.changed_counts())) == changed, (y, k)
            blocks = y.split("#")
            seen["no separator"] += len(blocks) == 1
            seen["leading"] += y.startswith("#")
            seen["trailing"] += y.endswith("#")
            seen["short outer block"] += len(blocks) > 1 and any(0 < len(b) < k - 1 for b in (blocks[0], blocks[-1]))
            seen["blocks of k-1"] += _has_block_of_k_minus_1(y, k)
            seen["k = 1"] += k == 1 and len(blocks) > 1
            seen["deletion"] += "" in res.choices
        assert min(seen.values()) > 20, seen
        assert seen["blocks of k-1"] >= 50, seen
        assert "counts" not in repr(res)

    def test_only_occurring_patterns_are_kept_at_a_large_alphabet(self):
        # 3,000 tokens over 500 letters and 5 separators: the choices expose about 2,000 patterns per
        # separator, nearly all absent from the input, and none of them may take an entry.
        rng = random.Random(1)
        tokens = [str(rng.randrange(500)) for _ in range(3000)]
        alphabet = Alphabet.from_tokens(tokens)
        inst = build_instance(alphabet.encode(tokens), 4, positions=[5, 700, 1400, 2100, 2900], alphabet=alphabet)
        y = pfs_sanitize(inst)
        res = mcsr_sanitize(y, inst, uniform_cost_model(tau=2))
        assert len(res.choices) == 5
        assert all(cnt > 0 for cnt in res.exposed_counts.values())
        assert len(res.exposed_counts) <= len(y) - inst.k + 1


def _junction_spans(parts, choices, k):
    """The string `choices` make of the blocks `parts`, and per junction the starts of the windows covering it.

    These are the windows holding the inserted letter, or both letters beside a deletion.
    """
    z, junctions = parts[0], []
    for choice, block in zip(choices, parts[1:]):
        junctions.append(len(z))
        z += choice + block
    last = len(z) - k
    return z, [range(max(0, pos - k + 1), min(last, pos if choice else pos - 1) + 1) for choice, pos in zip(choices, junctions)]


def _parent_mcsr(text, inst, cm, implausible, rounds):
    """The construction before admissibility was checked in the table walk, as the reference.

    Ghost candidates come from the all-keys definition; every round rebuilds
    every knapsack class from the windows of `context_string`, skipping the
    banned choices, and costs every admissible choice as a sum of the ghost
    cost over its candidate windows (exact for the binary-exact ghost costs
    the sweep uses); after each solve the windows of the output at every
    junction are re-checked, and a choice that made a sensitive or
    implausible one is banned.  Appends one entry to `rounds` per round.
    Returns the `McsrResult` fields in order, last the input's count of every
    window of every choice.
    """
    k, letters = inst.k, inst.alphabet.chars
    counts = kmer_counts(text, k)
    seps = text.count("#")
    if not seps:
        return text, (), 0.0, 0.0, (), {}
    if cm.theta is None:
        cm = cm._replace(theta=float(seps))
    sites = []
    for i in range(1, seps + 1):
        options = []
        for choice in list(letters) + [""]:
            ctx = context_string(text, i, choice, k)
            options.append((choice, [ctx[t : t + k] for t in range(len(ctx) - k + 1)]))
        sites.append(options)
    exposed = {win: counts[win] for options in sites for _choice, windows in options for win in windows}
    cands = _ghost_definition(text, k, cm.tau, letters)
    unsafe = set(inst.sensitive_patterns) | (implausible if implausible is not None else set())
    parts = text.split("#")
    banned = set()
    for _ in range(len(sites) * (len(letters) + 1) + 1):
        rounds.append(banned.copy())
        classes = []
        for i, options in enumerate(sites, start=1):
            elements = []
            for choice, windows in options:
                if (i, choice) in banned or unsafe.intersection(windows):
                    continue
                weight = cm.sub.get(choice, cm.sub_default)
                if weight > cm.theta:
                    continue
                cost = sum(cm.ghost for w in windows if w in cands)
                elements.append(MckElement(choice, cost, weight))
            if not elements:
                raise Infeasible(f"no admissible choice for separator {i}; Z cannot be constructed")
            classes.append(tuple(elements))
        selection = solve_mck(tuple(classes), cm.theta)
        choices = [el.choice for el in selection]
        z, spans = _junction_spans(parts, choices, k)
        site_windows, starts, violation = [], set(), None
        for idx, (choice, span) in enumerate(zip(choices, spans), start=1):
            starts.update(span)
            for s in span:
                site_windows.append((idx, z[s : s + k]))
                if z[s : s + k] in unsafe:
                    violation = (idx, choice)
            if violation:
                break
        if violation is None:
            ghost_cost, weight = sum(el.cost for el in selection), sum(el.weight for el in selection)
            return z, tuple(choices), ghost_cost, weight, tuple(site_windows), exposed
        banned.add(violation)
    raise Infeasible("separator rewriting failed to converge; Z cannot be constructed")


class TestAgainstTheParentConstruction:
    def test_results_equal_the_reference(self, monkeypatch):
        rounds = []
        solve = mcsr_mod.solve_mck
        monkeypatch.setattr(mcsr_mod, "solve_mck", lambda classes, capacity: rounds.append((classes, capacity)) or solve(classes, capacity))
        rng = random.Random(45)
        seen = Counter()
        for case in range(3_000):
            inst = random_instance(rng, n_min=3, n_max=36, ks=(1, 2, 3, 4, 5))
            k, letters = inst.k, inst.alphabet.chars
            kind = case % 3
            y = (tfs_sanitize(inst), pfs_sanitize(inst), _separated_in_contract(rng, letters, k))[kind]
            tau = rng.randint(1, 4)
            theta = float(rng.randint(y.count("#") // 2, 2 * y.count("#"))) if rng.random() < 0.4 else None
            sub, sub_default = rng.choice(_SUBS)
            cm = CostModel(rng.choice((1.0, 0.5, 2.0)), sub, sub_default, theta=theta, tau=tau)
            implausible = None
            if k > 2 and rng.random() < 0.6:
                implausible = implausible_set(inst, rng.choice((-0.3, -0.5, -1.0)))
            rounds.clear()
            parent_rounds = []
            try:
                want = _parent_mcsr(y, inst, cm, implausible, parent_rounds)
            except Infeasible as exc:
                with pytest.raises(Infeasible) as got:
                    mcsr_sanitize(y, inst, cm, implausible)
                assert str(got.value) == str(exc), (y, k)
                assert len(parent_rounds) == 1, (y, k)
                seen["infeasible"] += 1
                continue
            res = mcsr_sanitize(y, inst, cm, implausible)
            got = (res.text, res.choices, res.ghost_cost, res.total_weight, res.site_windows, dict(res.exposed_counts))
            *fields, exposed = want
            assert got == (*fields, {pat: cnt for pat, cnt in exposed.items() if cnt}), (y, k)  # zero counts are not kept
            seps = len(res.choices)
            # On these inputs the re-check never banned a choice, and the package solves once.
            assert len(parent_rounds) == len(rounds) == (1 if seps else 0), (y, k)
            seen["tau > 1"] += tau > 1 and seps > 0
            seen["theta binds"] += any(sum(max(el.weight for el in c) for c in classes) > capacity for classes, capacity in rounds)
            seen["implausible"] += bool(implausible) and seps > 0
            seen["weight above theta"] += seps > 0 and max(sub.values(), default=0) > (theta if theta is not None else seps)
            seen["blocks of k-1"] += _has_block_of_k_minus_1(y, k)
        assert min(seen.values()) > 50, seen

    def test_infeasible_input_fails_before_any_ghost_is_estimated(self, monkeypatch):
        def estimate(*args):
            raise AssertionError("ghost candidates estimated")

        monkeypatch.setattr(mcsr_mod, "exposure_gains", estimate)
        monkeypatch.setattr(mcsr_mod, "candidate_ghosts", estimate)
        inst = build_instance("abab", 2, patterns=["ba"])
        with pytest.raises(Infeasible) as exc:
            mcsr_sanitize("ab#ab", inst, uniform_cost_model(tau=1))
        assert str(exc.value) == "no admissible choice for separator 1; Z cannot be constructed"
        # Separators 1 and 2, between two a's, can take an a; every choice at 3, between two b's, makes ba or bb.
        with pytest.raises(Infeasible) as exc:
            mcsr_sanitize("a#a#ab#b", build_instance("abba", 2, patterns=["ba", "bb"]), uniform_cost_model(tau=1))
        assert str(exc.value) == "no admissible choice for separator 3; Z cannot be constructed"


class TestBuildMck:
    def test_forbidden_letters_dropped(self, example1):
        cm = uniform_cost_model(tau=1, theta=1.0)
        sites = separator_sites(PAPER_Y, 4, "abc", cm, example1.sensitive_patterns)
        cands = candidate_ghosts(exposure_gains(sites), kmer_counts(PAPER_Y, 4), 1)
        classes = mcsr_mod._price(sites, cands, cm)
        choices = {el.choice for el in classes[0]}
        assert "a" not in choices  # bba + a + aab recreates bbaa
        assert "" not in choices  # deleting joins bba|aab, recreating bbaa
        assert "c" in choices

    def test_zero_cost_when_no_candidates(self, example1):
        cm = uniform_cost_model(tau=1, theta=1.0)
        empty = candidate_ghosts(exposure_gains(_table("abcabc", 3, "abc")), kmer_counts("abcabc", 3), 1)  # no separators: empty
        classes = mcsr_mod._price(separator_sites(PAPER_Y, 4, "abc", cm, example1.sensitive_patterns), empty, cm)
        assert all(el.cost == 0 for cls in classes for el in cls)


class TestSolveMck:
    def test_single_class_capacity(self):
        classes = ((MckElement("a", 5, 1), MckElement("b", 2, 3)),)
        assert solve_mck(classes, 3)[0].choice == "b"
        assert solve_mck(classes, 2)[0].choice == "a"

    def test_infeasible_capacity(self):
        classes = ((MckElement("a", 1, 5),),)
        with pytest.raises(Infeasible):
            solve_mck(classes, 4)

    def test_rejects_fractional_weights(self):
        classes = ((MckElement("a", 1, 0.5),),)
        with pytest.raises(ValueError):
            solve_mck(classes, 4)

    def test_negative_infinite_capacity_is_infeasible(self):
        classes = ((MckElement("a", 1, 0),),)
        with pytest.raises(Infeasible, match="^negative capacity$"):
            solve_mck(classes, -math.inf)

    def test_table_tie_order_is_pinned(self):
        # Of several equal-cost selections the table returns the one its tie
        # rule and strict `<` pick.  The digest was recorded with a table that
        # kept an (element, residual) pair per cell; it fails if a binding
        # capacity's selection, and so a tie's winner, changes.
        rng = random.Random(23)
        digest = hashlib.sha256()
        binding = 0
        while binding < 2000:
            classes = []
            for _ in range(rng.randint(1, 6)):
                choices = [c for c in ("a", "b", "c", "d", "") if rng.random() < 0.7] or ["a"]
                classes.append(tuple(MckElement(c, float(rng.randint(0, 2)), rng.randint(0, 3)) for c in choices))
            worst = sum(max(el.weight for el in cls) for cls in classes)
            if worst == 0:
                continue
            binding += 1
            capacity = rng.randint(0, worst - 1) + rng.choice([0, 0.5])
            try:
                picked = solve_mck(tuple(classes), capacity)
            except Infeasible:
                picked = None
            digest.update(repr(picked).encode())
        assert digest.hexdigest() == "80a667fc558234c53b64efdbedf5b7e450f6f448f0433c1318889d8dccb33a91"

    def test_table_guard_fires_before_the_table_is_built(self):
        theta = mcsr_mod.MAX_TABLE_CELLS // 2
        classes = ((MckElement("a", 0, theta), MckElement("b", 1, 0)),) * 2  # 2 (theta + 1) cells, capacity binds
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                solve_mck(classes, theta)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # one row of the table alone takes 8 (theta + 1) bytes, 16 MB
        limit = mcsr_mod.MAX_TABLE_CELLS
        assert str(exc.value) == f"2 knapsack classes at theta {theta} exceed {limit} table cells"

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(14)
        for _ in range(120):
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
            cost, _ = oracle_mck(classes, theta)
            assert sum(el.cost for el in got) == cost
            assert sum(el.weight for el in got) <= theta


class TestZScore:
    def test_balanced_pattern_scores_zero(self):
        assert z_score("ababab", "aba") == 0.0

    def test_absent_with_zero_expectation(self):
        assert z_score("aaaa", "bcb") == 0.0

    def test_uniform_run(self):
        # freq(aaa)=2, expectation 3*3/4, variance floor max(sqrt(2.25), 1)
        assert z_score("aaaa", "aaa") == pytest.approx((2 - 2.25) / 1.5)

    def test_short_pattern_rejected(self):
        with pytest.raises(ValueError):
            z_score("abc", "ab")


class TestImplausibleSet:
    def test_very_negative_rho_empty(self):
        assert implausible_set(build_instance("abcabcabc", 3), -1e9) == frozenset()

    def test_agrees_with_direct_scores(self):
        rng = random.Random(15)
        for _ in range(25):
            text = "".join(rng.choice("ab") for _ in range(rng.randint(10, 30)))
            rho = -rng.random() * 2 - 0.01
            got = implausible_set(build_instance(text, 3), rho)
            want = set()
            for a in "ab":
                for b in "ab":
                    for c in "ab":
                        pat = a + b + c
                        if z_score(text, pat) < rho:
                            want.add(pat)
            assert got == want, (text, rho)

    def test_rho_zero_rejected(self):
        with pytest.raises(ValueError):
            implausible_set(build_instance("abcabc", 3), 0.0)
        with pytest.raises(ValueError, match="implausibility needs k > 2, got 2"):
            implausible_set(build_instance("abcabc", 2), -1.0)


class TestMcsrSanitize:
    def test_paper_worked_example(self, example1):
        res = mcsr_sanitize(PAPER_Y, example1, uniform_cost_model(tau=1))
        assert res.text == "aaacbcbbbacaabaabbacaab"
        assert res.choices == ("c",)

    def test_no_separator_identity(self, example1):
        res = mcsr_sanitize("abcabc", example1, uniform_cost_model(tau=1))
        assert res.text == "abcabc"

    def test_infeasible_instance(self):
        inst = build_instance("abab", 2, patterns=["ba"])
        y = tfs_sanitize(inst)
        assert y == "ab#ab"
        with pytest.raises(Infeasible):
            mcsr_sanitize(y, inst, uniform_cost_model(tau=1))

    def test_random_pipeline_safety(self):
        rng = random.Random(16)
        feasible = 0
        for _ in range(80):
            inst = random_instance(rng, sigmas=(2, 3, 4))
            y = pfs_sanitize(inst)
            try:
                res = mcsr_sanitize(y, inst, uniform_cost_model(tau=rng.choice([1, 2, 4])))
            except Infeasible:
                continue
            feasible += 1
            z = res.text
            assert "#" not in z
            assert not contains_sensitive(z, inst)
            assert res.total_weight <= len(y.split("#")) - 1
            # replacements only add occurrences
            before = kmer_counts(y, inst.k)
            after = kmer_counts(z, inst.k)
            for pat, cnt in before.items():
                assert after[pat] >= cnt
        assert feasible > 40  # the safety loop must not be starving the suite

    def test_implausible_windows_blocked(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(60):
            inst = random_instance(rng, n_min=20, n_max=60, sigmas=(3, 4), ks=(3, 4))
            imp = implausible_set(inst, -0.5)
            x = tfs_sanitize(inst)
            try:
                res = mcsr_sanitize(x, inst, uniform_cost_model(tau=2), implausible=imp)
            except Infeasible:
                continue
            checked += 1
            for _site, win in res.site_windows:
                assert win not in imp
        assert checked > 10

    def test_blocks_of_k_minus_1_letters_are_in_contract(self):
        # A block of k-1 = 2 letters between two separators: no window of length 3 holds both junctions.
        inst = build_instance("acbcab", 3, patterns=["cbc"])
        y = "ac#ab#ca"
        res = mcsr_sanitize(y, inst, uniform_cost_model(tau=1))
        assert "#" not in res.text
        assert not contains_sensitive(res.text, inst)

    @pytest.mark.parametrize(
        "text, k, y, block",
        [("abab", 2, "ab##ab", "block 1 ''"), ("abcdabcd", 4, "abcd#ab#cd#abcd", "block 1 'ab'")],
    )
    def test_blocks_shorter_than_k_minus_1_are_rejected(self, text, k, y, block):
        with pytest.raises(ValueError, match=block):
            mcsr_sanitize(y, build_instance(text, k), uniform_cost_model(tau=1))

    def test_site_windows_are_the_windows_at_each_junction(self):
        rng = random.Random(46)
        seen = Counter()
        for case in range(1_500):
            inst = random_instance(rng, n_min=3, n_max=36, ks=(1, 2, 3, 4, 5))
            k = inst.k
            y = (tfs_sanitize(inst), pfs_sanitize(inst), _separated_in_contract(rng, inst.alphabet.chars, k))[case % 3]
            implausible = implausible_set(inst, -0.5) if k > 2 and rng.random() < 0.5 else None
            try:
                res = mcsr_sanitize(y, inst, uniform_cost_model(tau=rng.randint(1, 3)), implausible)
            except Infeasible:
                continue
            z, spans = _junction_spans(y.split("#"), res.choices, k)
            assert z == res.text, (y, k)
            want = [(i, z[s : s + k]) for i, span in enumerate(spans, start=1) for s in span]
            assert list(res.site_windows) == want, (y, k)
            unsafe = inst.sensitive_patterns | (implausible if implausible is not None else frozenset())
            assert unsafe.isdisjoint(win for _i, win in want), (y, k)
            seen["sites"] += bool(spans)
            seen["blocks of k-1"] += _has_block_of_k_minus_1(y, k)
            seen["implausible"] += bool(implausible) and bool(spans)
        assert min(seen.values()) >= 50, seen
