"""Sanitize at minimal edit distance from the input.

Instead of building one canonical output, this setting asks for the string
closest to the input among all strings that conceal the sensitive patterns
while preserving non-sensitive window order and frequency.  That family is
exactly a regular language, fixed by k and the source's maximal overlap
chains (`inst.chains`, whose '#'-join is the TFS output and the language's
shortest member): the chains' windows must appear in order,
consecutive windows of a chain may either fuse into one letter or be
separated by filler, successive chains are always separated by filler, and
filler is any separator-delimited string that never runs k alphabet letters
in a row.  The optimum is found by approximate regular-expression matching:
compile the language to an epsilon-automaton with symbolic any-letter edges
and run an edit-distance dynamic program over (input position, automaton
state), then trace back a witness.  The automaton is built once, straight
into the in-edge lists of each state that the sweep and the traceback read,
each list already in the order they try its edges.

Each column takes one sweep over the states in order: every in-column edge
but the filler loops' '#' back-edges runs forward, and those never lower a
value.  A column keeps a state only if its value plus a lower bound on the
rest of the alignment is at most a bound D: with r letters left to read, a
state from which the automaton must still emit m letters to accept costs at
least max(0, m - r) more (A* with a consistent heuristic, which drops no cell
of an alignment within D).  D is the distance to the TFS output (the
language's shortest member), as in Ukkonen's cut-off, so it is never below
the optimum.  Each column sweeps from its first kept state to its last and
stores only its kept states and their values; the traceback re-derives each
parent from those stored cells, since the consistent bound never lets a
dropped cell tie with a kept one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, replace

from .core import SEPARATOR, SanitizationInstance
from .metrics import edit_distance

ANY = -1  # consuming-edge label: any single alphabet letter


@dataclass(frozen=True)
class MatchResult:
    text: str
    distance: int
    trace: tuple[tuple[str, str], ...] | None = None
    # The starting bound, edit_distance(source, '#'.join(chains)): the distance
    # to the TFS output, the language's shortest member.  Equality ignores it.
    shortest_distance: int | None = field(default=None, compare=False)


INF = 1 << 60  # above every distance the DP can reach


def _value(column: tuple[array, array], x: int) -> int:
    """State x's value in a stored column (kept states, their values); INF if x was not kept."""
    states, vals = column
    i = bisect_left(states, x)
    return vals[i] if i < len(states) and states[i] == x else INF


class _Matcher:
    """Edit-distance DP over (input position, automaton state), pruned to a bound.

    A state's candidates come in one fixed order: delete the input letter,
    consume it on an edge into the state (edge order), then reach the state
    inside the column by an epsilon move (cost 0) or an inserted letter
    (cost 1) in (source, cost, edge) order.  Its parent is the first candidate
    with the least value, so the forward pass keeps values only and the
    traceback re-derives each parent from the stored cells.
    """

    def __init__(self, k: int, chains: tuple[str, ...]):
        sep = ord(SEPARATOR)
        # In-edges of each state, made once, in the order the sweep and the
        # traceback try them: cons_in (src, label) in creation order, col_in
        # (src, cost, label) by ascending source, one edge per source.
        cons_in: list[list[tuple[int, int]]] = [[]]
        col_in: list[list[tuple[int, int, int]]] = [[]]

        def chain(src: int, labels) -> int:
            """One new state per label after `src`; an ANY step may also be skipped."""
            for lab in labels:
                cons_in.append([(src, lab)])
                # The epsilon edge beside an ANY step costs less than inserting a letter on it, so it stands in.
                col_in.append([(src, 0, ANY) if lab == ANY else (src, 1, lab)])
                src = len(cons_in) - 1
            return src

        def loop(head: int) -> int:
            """Filler at `head`: up to k-1 letters, then '#' back to the head."""
            last = chain(head, [ANY] * (k - 1))
            # The only backward edge.  A value at `last` comes through `head`
            # or from the previous column at a loop state, where `last` is
            # epsilon-reachable and so no worse; consuming the letter as '#'
            # on this edge already offered `head` that value plus one.  So it
            # never lowers `head` inside a column, and one sweep in state
            # order reaches the fixpoint: it is not in col_in.
            cons_in[head].append((last, sep))
            return last

        # Kept states lo..hi feed the next column only from lo - behind to
        # hi + ahead: `ahead` is the longest forward jump of an edge.
        ahead = 1
        if not chains:
            cur = chain(0, [ANY] * (k - 1))
        else:
            loop(0)  # leading filler loops back to the start
            cur = chain(0, map(ord, chains[0][:k]))
            # Every later window, the one ending at spelled[i], follows filler;
            # after a chain's first window it may instead fuse on by spelled[i].
            for c, spelled in enumerate(chains):
                for i in range(k - 1 if c else k, len(spelled)):
                    h = chain(cur, [sep])
                    loop(h)
                    nxt = chain(h, map(ord, spelled[i - k + 1 : i + 1]))
                    if i >= k:  # the fused edge's source is below the chain edge's, nxt - 1
                        cons_in[nxt].append((cur, ord(spelled[i])))
                        col_in[nxt].insert(0, (cur, 1, ord(spelled[i])))
                        ahead = max(ahead, nxt - cur)
                    cur = nxt
        h = chain(cur, [sep])
        last = loop(h)
        self.accept = len(cons_in)
        cons_in.append([])
        col_in.append([(cur, 0, ANY), (last, 0, ANY)])
        self.cons_in, self.col_in = cons_in, col_in
        self.ahead, self.behind = max(ahead, self.accept - cur), k - 1  # a '#' back-edge jumps k-1 states back
        # minrem[s]: the fewest letters a path from s to accept emits, by a
        # backward 0-1 BFS (a consuming edge emits one letter, an epsilon none).
        self.minrem = minrem = [INF] * len(cons_in)
        minrem[self.accept] = 0
        queue = deque([self.accept])
        while queue:
            x = queue.popleft()
            for s, _lab in self.cons_in[x]:
                if minrem[x] + 1 < minrem[s]:
                    minrem[s] = minrem[x] + 1
                    queue.append(s)
            for s, w, _lab in self.col_in[x]:  # the epsilon edges, among others
                if w == 0 and minrem[x] < minrem[s]:
                    minrem[s] = minrem[x]
                    queue.appendleft(s)

    def _column(
        self, prev: list[int], cur: list[int], oc: int, x: int, limit: int, bound: int, rem: int
    ) -> tuple[array, array, int]:
        """Fill `cur` from `prev` for letter code `oc`, sweeping states from `x` in order.

        `rem` letters are left to read after this column.  State s is kept when
        its value plus h = max(0, minrem[s] - rem) is at most `bound`; h is
        consistent, so every cell on an alignment within the bound, and every
        tied parent of one, is kept.  The sweep ends past `limit`, which grows
        with each kept state.  Returns the kept states and their values, in
        state order, and the end of the filled range.
        """
        cons_in, col_in, minrem, ahead, last = self.cons_in, self.col_in, self.minrem, self.ahead, len(cur) - 1
        cap = bound + rem
        states, vals = array("i"), array("i")
        keep_state, keep_value = states.append, vals.append
        while x <= limit:
            v = cur[x]
            u = prev[x] + 1
            if u < v:
                v = u
            for s, lab in cons_in[x]:
                u = prev[s] if lab == ANY or lab == oc else prev[s] + 1
                if u < v:
                    v = u
            for s, w, _lab in col_in[x]:
                u = cur[s] + w
                if u < v:
                    v = u
            cur[x] = v
            if v <= bound and v + minrem[x] <= cap:
                keep_state(x)
                keep_value(v)
                if x + ahead > limit:
                    limit = min(x + ahead, last)
            x += 1
        return states, vals, x

    def match(self, text: str, bound: int) -> MatchResult:
        """Closest member to `text`, in one pass that keeps the cells within `bound`.

        `bound` must be at least the optimal distance; below it, the accept
        state is not kept and this raises ValueError.  At `bound` = INF no cell
        is dropped.
        """
        n, last = len(text), len(self.cons_in) - 1
        codes = [ord(ch) for ch in text]
        prev, cur = [INF] * (last + 1), [INF] * (last + 1)
        cur[0] = 0
        states, vals, end = self._column(prev, cur, ANY, 0, 0, bound, n)  # column 0 reads no letter
        columns = [(states, vals)]
        filled, stale = (0, end), (0, 0)
        for j, oc in enumerate(codes, start=1):
            if not states:
                break
            prev, cur = cur, prev
            cur[stale[0] : stale[1]] = [INF] * (stale[1] - stale[0])
            start = max(0, states[0] - self.behind)
            states, vals, end = self._column(prev, cur, oc, start, min(last, states[-1] + self.ahead), bound, n - j)
            columns.append((states, vals))
            filled, stale = (start, end), filled
        distance = _value(columns[-1], self.accept)  # INF after an empty column
        if distance == INF:
            raise ValueError(f"no alignment within bound {bound}; the bound must be at least the optimal distance")

        trace: list[tuple[str, str]] = []
        j, x = n, self.accept
        while j or x:
            cur = columns[j]
            v = _value(cur, x)
            if j:
                prev, ch, oc = columns[j - 1], text[j - 1], codes[j - 1]
                if _value(prev, x) + 1 == v:
                    trace.append(("delete", ch))
                    j -= 1
                    continue
                step = next((e for e in self.cons_in[x] if _value(prev, e[0]) + (e[1] not in (ANY, oc)) == v), None)
                if step is not None:
                    x, lab = step
                    out = ch if lab == ANY else chr(lab)
                    trace.append(("match" if out == ch else "substitute", out))
                    j -= 1
                    continue
            x, w, lab = next(e for e in self.col_in[x] if _value(cur, e[0]) + e[1] == v)
            if w:
                trace.append(("insert", chr(lab)))  # a cost-1 edge has a letter; ANY steps move by epsilon

        trace.reverse()
        witness = "".join(out for op, out in trace if op != "delete")
        return MatchResult(text=witness, distance=distance, trace=tuple(trace))


def approx_regex_match(text: str, k: int, chains: tuple[str, ...]) -> MatchResult:
    """Closest string to `text` in the language of k and the source's chains, with a witness."""
    bound = edit_distance(text, SEPARATOR.join(chains))
    return replace(_Matcher(k, chains).match(text, bound), shortest_distance=bound)


def etfs_sanitize(inst: SanitizationInstance) -> MatchResult:
    """Minimal-edit-distance sanitized string for the instance."""
    return approx_regex_match(inst.text, inst.k, inst.chains)
