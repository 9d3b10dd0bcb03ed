"""Baseline sanitizer, utility metrics, and the property verifiers.

The utility metrics take what the stages measured, not strings:
`frequency_changes` compares two k-mer counts and `edre` two edit distances.

The verifiers are the shared ground truth for tests and the CLI.  Levels:

  C1   no separator-free window equals a sensitive pattern
  P1   the left-to-right sequence of alphabet-only windows equals the
       sequence of non-sensitive windows of the source, element by element
  Pi1  every maximal overlap chain of the source occurs in the candidate at
       least as many times as it occurs as a chain (multiset containment of
       spelled chains)
  P2   alphabet-only window frequencies equal the source's non-sensitive
       window frequencies exactly (multiset equality)
  P3   separators are rare (at most floor((n-k+1)/2)) and isolated: the
       output neither starts nor ends with '#', and every block between
       separators has at least k letters
  P4   output length is at most ceil((n-k+1)/2)*k + floor((n-k+1)/2)

C1, P1, Pi1 and P2 are decided on the chain spelling of the two strings: the
source's overlap chains, and the candidate's blocks spelled into chains the
same way.  Spelling is a bijection between window sequences and chain lists,
so P1 is equality of the two lists; chains both sides spell cancel out of P2
and C1; and a block that equals a chain is an occurrence of it for Pi1.  A
chain that too few blocks equal is looked for only where its first window
starts in the candidate.  A level then costs about the part of the candidate
that differs from the source's chains.  A failing level words its counterexample from the direct
definition above.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import compress, zip_longest

from .core import (
    SEPARATOR,
    SanitizationInstance,
    _spell,
    _windows,
    contains_sensitive,
    kmer_counts,
)

VERIFY_LEVELS = ("C1", "P1", "Pi1", "P2", "P3", "P4")


class VerifyResult(namedtuple("VerifyResult", "level ok detail", defaults=(None,))):
    __slots__ = ()


def _leftover_chains(candidate: str, inst: SanitizationInstance) -> tuple[Counter[str], Counter[str]]:
    """The source's chains and the candidate's chains left after cancelling those both spell, as multisets."""
    want = Counter(inst.chains)
    got = Counter(_spell(candidate.split(SEPARATOR), inst.k))
    return want - got, got - want


def _window_starts(text: str, k: int, wanted: set[str]) -> dict[str, list[int]]:
    """Start positions in `text` of each length-k window that is in `wanted`, ascending."""
    starts: dict[str, list[int]] = defaultdict(list)
    for i in range(len(text) - k + 1):
        win = text[i : i + k]
        if win in wanted:
            starts[win].append(i)
    return starts


def verify(candidate: str, inst: SanitizationInstance, level: str) -> VerifyResult:
    """Check one property level, returning a counterexample on failure."""
    n, k = inst.n, inst.k

    if level == "C1":
        # The sensitive set is closed, so no source chain holds a sensitive window.
        _lost, extra = _leftover_chains(candidate, inst)
        if not contains_sensitive(SEPARATOR.join(extra), inst):
            return VerifyResult(level, True)
        # Windows come left to right, so the first occurrence of `win` is this one.
        win = next(win for win in _windows(candidate, k) if win in inst.sensitive_patterns)
        pos = candidate.find(win)
        offset = pos - candidate.rfind(SEPARATOR, 0, pos) - 1
        return VerifyResult(level, False, f"sensitive window {inst.alphabet.decode(win)!r} at block offset {offset}")

    if level == "P1":
        # Spelling is a bijection between window sequences and chain lists.
        if list(inst.chains) == _spell(candidate.split(SEPARATOR), k):
            return VerifyResult(level, True)
        # The chains' windows are the source's non-sensitive ones; a sequence that ends first reads None.
        pairs = zip_longest(_windows(SEPARATOR.join(inst.chains), k), _windows(candidate, k))
        bad = next(i for i, (a, b) in enumerate(pairs) if a != b)
        return VerifyResult(level, False, f"window order diverges at chain index {bad}")

    if level == "Pi1":
        need = Counter(inst.chains)
        blocks = Counter(candidate.split(SEPARATOR))
        short = [(chain, mult) for chain, mult in need.items() if blocks[chain] < mult]
        if short:
            # A chain can only start where its first window does.
            starts = _window_starts(candidate, k, {chain[:k] for chain, _mult in short})
        for chain, mult in short:
            found = 0
            for s in starts.get(chain[:k], ()):
                if candidate.startswith(chain, s):
                    found += 1
                    if found == mult:
                        break
            if found < mult:  # the loop ran to the end, so `found` counts every occurrence
                return VerifyResult(level, False, f"chain {inst.alphabet.decode(chain)!r} needed {mult}x, found {found}x")
        return VerifyResult(level, True)

    if level == "P2":
        lost, extra = _leftover_chains(candidate, inst)
        # Equal multisets have equal sizes, and a size costs one step per chain, not one per window.
        size = [sum((len(chain) - k + 1) * mult for chain, mult in side.items()) for side in (lost, extra)]
        if size[0] == size[1]:
            lost_windows, extra_windows = (kmer_counts(SEPARATOR.join(side.elements()), k) for side in (lost, extra))
            if lost_windows == extra_windows:
                return VerifyResult(level, True)
        # Closure makes every occurrence of a kept pattern non-sensitive, so these are its counts in source order.
        want = inst.preserved_counts()
        got = kmer_counts(candidate, k)
        diff = (want - got) + (got - want)
        pat = next(iter(diff))
        return VerifyResult(level, False, f"frequency of {inst.alphabet.decode(pat)!r}: expected {want[pat]}, got {got[pat]}")

    if level == "P3":
        seps = candidate.count(SEPARATOR)
        limit = (n - k + 1) // 2
        if seps > limit:
            return VerifyResult(level, False, f"{seps} separators exceed the bound {limit}")
        if seps:
            for idx, block in enumerate(candidate.split(SEPARATOR)):
                if len(block) < k:
                    return VerifyResult(level, False, f"block {idx} has length {len(block)} < k")
        return VerifyResult(level, True)

    if level == "P4":
        bound = ((n - k + 1 + 1) // 2) * k + (n - k + 1) // 2
        if not 0 <= len(candidate) <= bound:
            return VerifyResult(level, False, f"length {len(candidate)} outside 0..{bound}")
        return VerifyResult(level, True)

    raise ValueError(f"unknown verify level {level!r}; expected one of {VERIFY_LEVELS}")


def verify_levels(candidate: str, inst: SanitizationInstance, levels=VERIFY_LEVELS) -> list[VerifyResult]:
    return [verify(candidate, inst, lv) for lv in levels]


def ba_sanitize(inst: SanitizationInstance) -> str:
    """Greedy in-place baseline: rewrite one letter inside each sensitive occurrence.

    Visits the sensitive occurrences the closure recorded, left to right, and
    skips one that an earlier rewrite already broke.  In each other one the
    currently most-frequent letter (leftmost on ties) is replaced by the
    least-frequent alphabet letter outside the occurrence (smallest on ties)
    that puts no sensitive window through it, falling back to '#' when no
    letter is safe.  A rewrite makes no window sensitive, so no occurrence
    outside the recorded ones needs a visit.
    """
    k = inst.k
    seq = list(inst.text)
    freq = Counter(inst.text)
    letters = inst.alphabet.chars
    for i in compress(range(len(inst.mask)), inst.mask):
        window = "".join(seq[i : i + k])
        if window not in inst.sensitive_patterns:
            continue
        in_window = set(window)
        target = i + max(range(k), key=lambda off: (freq[seq[i + off]], -off))
        freq[seq[target]] -= 1
        for cand in sorted((c for c in letters if c not in in_window), key=lambda c: (freq[c], c)):
            seq[target] = cand
            # The windows through the target are those of this slice.
            if not contains_sensitive("".join(seq[max(0, target - k + 1) : target + k]), inst):
                freq[cand] += 1
                break
        else:
            seq[target] = SEPARATOR
    return "".join(seq)


def frequency_changes(
    source: Counter[str],
    output: Counter[str],
    tau: int,
    sensitive: frozenset[str] | set[str] = frozenset(),
) -> tuple[float, set[str], set[str]]:
    """Distortion, lost and ghost patterns between the k-mer counts of a source and of its sanitized output.

    Distortion is the sum of squared count changes; a lost pattern falls from
    at least tau to below it, a ghost rises from below tau to at least tau.
    Sensitive patterns are excluded: concealing them is the point, not a
    defect.  Only the patterns whose counts differ are walked, since a pattern
    with the same count in both adds no distortion and crosses no threshold.
    Neither count is modified.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    total = 0.0
    lost = set()
    ghost = set()
    for pat in {pat for pat, _count in source.items() ^ output.items()}:
        if pat in sensitive:
            continue
        before, after = source[pat], output[pat]
        total += (before - after) ** 2
        if before >= tau > after:
            lost.add(pat)
        elif before < tau <= after:
            ghost.add(pat)
    return total, lost, ghost


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert, delete, and substitute.

    Myers' bit-vector algorithm in Hyyrö's global form: a column's vertical
    deltas over the shorter string a are two nonnegative ints, which each
    letter of b updates in about 15 operations on len(a) bits.  The masks take
    len(a) bits per distinct letter of a: 125 MB for 1M letters of 1,000 tokens.
    """
    if len(a) > len(b):
        a, b = b, a
    m, rev = len(a), a[::-1]
    if not m:
        return len(b)
    zeros = dict.fromkeys(map(ord, a), "0")  # each mask in one pass over a, not one int operation per letter
    peq = {ch: int(rev.translate({**zeros, ord(ch): "1"}), 2) for ch in set(a)}  # bit i: a[i] == ch
    mask, last = (1 << m) - 1, m - 1  # x ^ mask for ~x, twice as fast; no bit above m reaches those below
    pv, mv, score = mask, 0, m  # column 0: every vertical delta is +1, and its last cell is m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        if ph >> last & 1:
            score += 1
        elif mh >> last & 1:
            score -= 1
        ph = ph << 1 | 1  # the top row's horizontal delta is +1: a global alignment
        pv = (mh << 1 | ((xv | ph) ^ mask)) & mask
        mv = ph & xv
    return score


def edre(heuristic: int, optimal: int) -> float:
    """Relative excess of a heuristic output's edit distance from the source over the optimal output's distance."""
    if optimal == 0:
        if heuristic == 0:
            return 0.0
        raise ValueError("optimal edit distance is zero but heuristic distance is not")
    return (heuristic - optimal) / optimal
