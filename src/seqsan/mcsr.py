"""Replace or delete every separator under a distortion budget.

Separators reveal where sensitive material was removed, so each one is either
deleted or replaced by an alphabet letter.  A choice costs the ghost cost
times the spurious patterns it could push over the mining threshold tau
(worst-case additive estimate per separator), one exact product on every
Python, and weighs what the letter table of the `CostModel` says; the
choices are solved as a multiple-choice knapsack: one per separator, minimum
total cost, total weight at most theta.  Choices that would recreate a
sensitive pattern, or complete an implausible window when an implausible set
is supplied, are discarded outright.  Each choice is decided once, by
`separator_sites`, which reads each separator's context from the blocks on
either side of it: its table holds a (choice, windows, weight) triple per
letter and deletion, the weight None when the choice is out, and an
infeasible input fails before any ghost is estimated.  The input has at
least k-1 letters between any two separators, as every TFS and PFS output
has, so no window of the output reaches two junctions: the windows a choice
creates are the ones the table checked for it, and the knapsack is solved
once.

A rewrite changes the input only at its junctions, so the count of a pattern
that no choice exposes is the same before and after.  The exposed patterns
are built once, as the keys of the gain table (`exposure_gains`), and the
input is counted only on them, in one pass: `McsrResult.exposed_counts`,
which holds only the patterns that occur, in order of first occurrence.  The
pass builds every window of the input with core's C-level window kernel,
those through a separator too, which no exposed pattern matches, so no block
is split.  The ghost test reads the gains and those counts, and the output's
counts of those patterns are them plus the windows the rewrite added
(`McsrResult.changed_counts`).
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict, namedtuple

from .core import SEPARATOR, SanitizationInstance, _DerivedLast, _letter_windows, kmer_counts

EPSILON = ""  # deletion pseudo-letter
_NO_CHOICE = "no admissible choice for separator {}; Z cannot be constructed"
MAX_TABLE_CELLS = 4_000_000  # knapsack table cells; 400 classes of 11 choices at theta 9,999 took 2.4 s and 51 MB (Python 3.11.7, 2-vCPU Xeon VM)


class Infeasible(Exception):
    """No separator replacement satisfies the safety and capacity constraints."""


class CostModel(namedtuple("CostModel", "ghost sub sub_default theta tau")):
    """Ghost cost per created candidate window, substitution weights, capacity, threshold.

    `sub` maps a letter, or EPSILON for deletion, to its substitution weight;
    a choice it does not list weighs `sub_default`.  Weights are non-negative
    integers, the same at every separator.  A choice that creates n candidate
    windows, counted with multiplicity, costs `ghost * n`.  `theta=None`
    resolves to the separator count of the string being rewritten.
    """

    __slots__ = ()


def uniform_cost_model(tau: int, theta: float | None = None) -> CostModel:
    """Unit ghost cost, unit substitution weight, capacity defaulting to the separator count."""
    return CostModel(ghost=1.0, sub={}, sub_default=1, theta=theta, tau=tau)


class MckElement(namedtuple("MckElement", "choice cost weight")):
    # choice: an alphabet letter, or "" for deletion
    __slots__ = ()


class McsrResult(_DerivedLast, namedtuple("McsrResult", "text choices ghost_cost total_weight site_windows exposed_counts")):
    # site_windows: (separator index, realized window).  exposed_counts: the input's count of every pattern some
    # choice exposes; a pattern that does not occur has no entry and reads 0.  A function of the input, so equality,
    # hashing and the repr leave it out.
    __slots__ = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"McsrResult({shown})"

    def changed_counts(self) -> tuple[Counter[str], Counter[str]]:
        """The input's and the output's counts of every pattern the rewrite added; no other count differs."""
        after = Counter(win for _i, win in self.site_windows)
        before = Counter({pat: self.exposed_counts[pat] for pat in after})
        after.update(before)
        return before, after


Site = list[tuple[str, tuple[str, ...], int | None]]


def separator_sites(text: str, k: int, letters: str, cm: CostModel, forbidden: frozenset[str]) -> list[Site]:
    """Every separator's choices, the windows each would expose and its knapsack weight, decided once.

    One entry per separator, left to right: a (choice, windows, weight) triple
    per letter in order, then EPSILON.  The windows are the length-k windows
    of the choice between the last k-1 letters of the block before the
    separator and the first k-1 of the block after, fewer where a block is
    shorter: a window that crosses another separator or an end is no pattern.
    The weight is `cm.sub.get(choice, cm.sub_default)`, or None if a window
    is in `forbidden` or the weight is above `cm.theta`.  The first separator
    whose every weight is None raises Infeasible.
    """
    if cm.theta is None:
        raise ValueError("capacity must be resolved before the choices are weighed")
    # A weight above theta rules its choice out at every separator.
    weighed = [(c, w if (w := cm.sub.get(c, cm.sub_default)) <= cm.theta else None) for c in [*letters, EPSILON]]
    intern = sys.intern  # the table holds every window of every choice at once: interning keeps it small
    sites: list[Site] = []
    parts = text.split(SEPARATOR)
    for before, after in zip(parts, parts[1:]):
        left, right = before[max(0, len(before) - k + 1) :], after[: k - 1]
        options = []
        for c, weight in weighed:
            ctx = left + c + right
            windows = tuple([intern(ctx[t : t + k]) for t in range(len(ctx) - k + 1)])
            options.append((c, windows, weight if forbidden.isdisjoint(windows) else None))
        if all(weight is None for _c, _windows, weight in options):
            raise Infeasible(_NO_CHOICE.format(len(sites) + 1))
        sites.append(options)
    return sites


def exposure_gains(sites: list[Site]) -> Counter[str]:
    """Every window some choice of `sites` exposes -> the most occurrences of it one choice per separator adds.

    A pattern's gain sums, over the separators, the largest number of times
    any one choice there creates it, with or without a weight: the estimate
    is over every choice.  Its keys are therefore exactly the windows of the
    table, the only patterns whose count a rewrite can change.
    """
    gains: Counter[str] = Counter()
    for options in sites:
        if all(len(set(windows)) == len(windows) for _choice, windows, _weight in options):
            gains.update(set().union(*(windows for _choice, windows, _weight in options)))  # every gain is 1
            continue
        best: dict[str, int] = {}  # per window, its largest count over the choices
        for _choice, windows, _weight in options:
            for win in windows:
                cnt = windows.count(win)  # at most k windows, so a scan beats a Counter
                if cnt > best.get(win, 0):
                    best[win] = cnt
        gains.update(best)
    return gains


def candidate_ghosts(gains: Counter[str], counts: Counter[str], tau: int) -> dict[str, tuple[int, int]]:
    """Patterns below tau that some replacement could lift to tau: pattern -> (freq_in, max_freq_out).

    max_freq_out(U) is U's current frequency plus its gain in `gains`, from
    `exposure_gains`.  `counts` holds the input's count of every pattern
    `gains` holds that occurs; no other count is read.  Only a pattern some
    choice gains can reach tau from below, so only those are tested.
    """
    return {pat: (low, low + gain) for pat, gain in gains.items() if (low := counts.get(pat, 0)) < tau <= low + gain}


def _price(sites: list[Site], cands: dict[str, tuple[int, int]], cm: CostModel) -> tuple[tuple[MckElement, ...], ...]:
    """One knapsack class per separator of `sites`; its elements are the choices with a weight.

    A choice costs `cm.ghost` times the number of its windows in `cands`,
    counted with multiplicity: one correctly rounded product, the same on
    every Python.
    """
    is_cand = cands.__contains__
    return tuple(
        tuple(MckElement(c, cm.ghost * sum(map(is_cand, windows)), weight) for c, windows, weight in options if weight is not None)
        for options in sites
    )


def solve_mck(classes: tuple[tuple[MckElement, ...], ...], capacity: float) -> list[MckElement]:
    """Minimum-cost selection of one element per class within the capacity.

    Weights must be non-negative integers.  When the capacity cannot bind
    (every worst-case selection fits, as under an infinite capacity) each
    class is solved independently; otherwise an exact table over residual
    capacities is used, of at most MAX_TABLE_CELLS cells (else ValueError),
    each keeping the index of the element that reached it.  Equal-cost ties
    rotate the preferred letter with the class index (deletion last), so
    tied choices spread instead of piling occurrences onto one pattern.
    """
    for cls in classes:
        for el in cls:
            if not float(el.weight).is_integer() or el.weight < 0:
                raise ValueError(f"weights must be non-negative integers, got {el.weight}")
    if capacity < 0:
        raise Infeasible("negative capacity")

    def preference(cls_idx: int, size: int):
        def key(pair: tuple[int, MckElement]) -> tuple:
            j, el = pair
            return (el.cost, el.choice == EPSILON, (j - cls_idx) % size)

        return key

    if sum(max(int(el.weight) for el in cls) for cls in classes) <= capacity:
        return [
            min(enumerate(cls), key=preference(i, len(cls)))[1] for i, cls in enumerate(classes)
        ]

    theta = int(math.floor(capacity))
    if len(classes) * (theta + 1) > MAX_TABLE_CELLS:
        raise ValueError(f"{len(classes)} knapsack classes at theta {theta} exceed {MAX_TABLE_CELLS} table cells")
    INF = float("inf")
    dp = [INF] * (theta + 1)
    dp[0] = 0.0
    parents: list[list[int]] = []  # per class and residual weight, the index of the element that reached it
    for cls_idx, cls in enumerate(classes):
        ordered = [(j, int(el.weight), el.cost) for j, el in sorted(enumerate(cls), key=preference(cls_idx, len(cls)))]
        nxt = [INF] * (theta + 1)
        par = [-1] * (theta + 1)
        for w, cur in enumerate(dp):
            if cur == INF:
                continue
            for j, weight, cost in ordered:
                w2 = w + weight
                if w2 > theta:
                    continue
                cand = cur + cost
                if cand < nxt[w2]:
                    nxt[w2] = cand
                    par[w2] = j
        dp = nxt
        parents.append(par)
    best_w = min(range(theta + 1), key=lambda w: (dp[w], w))
    if dp[best_w] == INF:
        raise Infeasible("no selection satisfies the capacity; Z cannot be constructed")
    chosen_rev: list[MckElement] = []
    w = best_w
    for cls, par in zip(reversed(classes), reversed(parents)):
        el = cls[par[w]]
        chosen_rev.append(el)
        w -= int(el.weight)
    return list(reversed(chosen_rev))


def implausible_set(inst: SanitizationInstance, rho: float) -> frozenset[str]:
    """All length-k patterns scoring below rho against the source text of `inst`.

    Only patterns whose two length-(k-1) parts both occur in the text can
    score negatively, so enumeration composes observed parts instead of
    walking the full alphabet power.  The k-mer counts are the instance's
    own, `inst.counts`, and are not modified.
    """
    text, k = inst.text, inst.k
    if k <= 2:
        raise ValueError(f"implausibility needs k > 2, got {k}")
    if rho >= 0:
        raise ValueError(f"rho must be negative, got {rho}")
    counts_k = inst.counts
    counts_km1 = kmer_counts(text, k - 1)
    counts_km2 = kmer_counts(text, k - 2)

    lasts_of: dict[str, list[str]] = defaultdict(list)  # core -> the letters that follow it in a (k-1)-mer
    for part in counts_km1:
        lasts_of[part[:-1]].append(part[-1])

    found: set[str] = set()
    for left_part, left_freq in counts_km1.items():
        core = left_part[1:]
        mid = counts_km2[core]  # never 0: the core is the suffix of an occurring (k-1)-mer, so it occurs
        for b in lasts_of.get(core, ()):
            pattern = left_part + b
            expected = left_freq * counts_km1[core + b] / mid
            score = (counts_k.get(pattern, 0) - expected) / max(math.sqrt(expected), 1.0)
            if score < rho:
                found.add(pattern)
    return frozenset(found)


def mcsr_sanitize(
    text: str,
    inst: SanitizationInstance,
    cm: CostModel,
    implausible: frozenset[str] | None = None,
) -> McsrResult:
    """Rewrite every separator of `text` into an alphabet letter or a deletion.

    Every block between two separators must have at least k-1 letters, as
    every block of a TFS or PFS output does (else ValueError).  Then no window
    reaches two junctions, so the windows a choice creates are exactly those
    `separator_sites` listed and checked for it, and one knapsack solve is the
    answer.  The input is counted only on the windows the choices expose
    (`exposed_counts`), and only if it has a separator; the output's counts
    of those patterns are these plus the windows the rewrite added.
    """
    k = inst.k
    parts = text.split(SEPARATOR)
    for j, block in enumerate(parts[1:-1], start=1):
        if len(block) < k - 1:
            raise ValueError(f"block {j} {block!r} lies between separators and has fewer than k-1 = {k - 1} letters")
    if cm.theta is None:
        cm = cm._replace(theta=float(len(parts) - 1))
    forbidden = inst.sensitive_patterns if implausible is None else inst.sensitive_patterns | implausible
    sites = separator_sites(text, k, inst.alphabet.chars, cm, forbidden)
    if not sites:
        return McsrResult(text=text, choices=(), ghost_cost=0.0, total_weight=0.0, site_windows=(), exposed_counts=Counter())

    gains = exposure_gains(sites)
    counts = Counter(filter(gains.__contains__, map("".join, _letter_windows(text, k))))
    cands = candidate_ghosts(gains, counts, cm.tau)
    selection = solve_mck(_price(sites, cands, cm), cm.theta)
    choices = tuple(el.choice for el in selection)
    slot = {choice: j for j, (choice, _windows, _weight) in enumerate(sites[0])}  # every site lists the choices in one order
    picked = [options[slot[choice]][1] for options, choice in zip(sites, choices)]
    site_windows = tuple((i, win) for i, windows in enumerate(picked, start=1) for win in windows)
    return McsrResult(
        text=parts[0] + "".join(choice + block for choice, block in zip(choices, parts[1:])),
        choices=choices,
        ghost_cost=math.fsum(el.cost for el in selection),
        total_weight=sum(el.weight for el in selection),
        site_windows=site_windows,
        exposed_counts=counts,
    )
