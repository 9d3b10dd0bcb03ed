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
state), then trace back a witness.  The automaton is built once, as the
out-edges of each state, which the forward pass follows.

A column starts from the cells the previous column kept: each offers the
letter to the ends of its consuming out-edges, and a deleted letter to its
own state.  The column's states then settle in increasing order, each kept
one offering its value along its in-column out-edges, which all run forward:
the filler loops' '#' back-edges never lower a value inside a column.  A
state is kept only if its value plus a lower bound on the rest of the
alignment is at most a bound D: with r letters left to read, a state from
which the automaton must still emit m letters, s of them '#', costs at least
max(0, m - r, s) more, as the source has no '#'.  This is A* with a
consistent heuristic: no cell of an alignment within D is dropped, and no
dropped cell could have given a kept one its value.  D is the distance to the
TFS output (the language's shortest member), as in Ukkonen's cut-off, so it
is never below the optimum.  A column stores only its kept states and their
values; the traceback re-derives each parent from those stored cells' out-
edges, which run at most 2k states forward or k - 1 back.  It tries the
consuming edges into a state from the nearest source below down, then the '#'
back-edge, and the in-column ones by ascending source.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import namedtuple

from .core import SEPARATOR, SanitizationInstance, _DerivedLast
from .metrics import edit_distance

ANY = -1  # consuming-edge label: any single alphabet letter
STAY = ((0, -2),)  # each state's first consuming out-edge, to itself on a label no letter matches: a deletion
STEP = (((1, 0),), ((1, 1),))  # col_out of a state whose one out-edge steps to the next: by epsilon, by an insertion


class MatchResult(_DerivedLast, namedtuple("MatchResult", "text distance trace shortest_distance", defaults=(None, None))):
    # shortest_distance: the starting bound, edit_distance(source, '#'.join(chains)): the distance
    # to the TFS output, the language's shortest member.  Equality ignores it.
    __slots__ = ()


INF = 1 << 60  # above every distance the DP can reach


def _value(column: tuple[array, array], x: int) -> int:
    """State x's value in a stored column (kept states, their values); INF if x was not kept."""
    states, vals = column
    i = bisect_left(states, x)
    return vals[i] if i < len(states) and states[i] == x else INF


class _Shared(dict):
    """Out-edge tuples, one per key: (edges, d, label) gives edges + ((d, label),), a label STAY and a step on it."""

    def __missing__(self, key: tuple | int) -> tuple:
        self[key] = out = key[0] + (key[1:],) if isinstance(key, tuple) else STAY + ((1, key),)
        return out


class _Matcher:
    """Edit-distance DP over (input position, automaton state), pruned to a bound.

    A state's candidates come in one fixed order: delete the input letter,
    consume it on an edge into the state (in the order the edges were made:
    from the nearest source below, at most 2k below, down, then the '#'
    back-edge from at most k - 1 above), then reach the state inside the
    column by an epsilon move (cost 0) or an inserted letter (cost 1) by
    ascending source.  Its parent is the first candidate with the least value,
    so the forward pass keeps values only and the traceback re-derives each
    parent from the stored cells' out-edges.
    """

    def __init__(self, k: int, chains: tuple[str, ...]):
        sep, shared, self.k = ord(SEPARATOR), _Shared(), k
        # Each state's out-edges are shared tuples.  minsep[s], the fewest '#'
        # from s to accept, is the chain junctions still ahead, plus one in any
        # filler loop but the last; minrem[s], the fewest letters, follows the
        # shortest member, which fuses every window it can.
        self.cons_out = cons_out = [STAY]  # (dst - src, label) pairs
        self.col_out = col_out = [()]  # (dst - src, cost) pairs
        self.minsep = minsep = [max(0, len(chains) - 1)]
        self.minrem = minrem = [len(SEPARATOR.join(chains))]

        def chain(src: int, labels, owed: int, rem: int) -> int:
            """One new state per label after `src`, owing `owed` '#' and `rem` letters less its letter steps; ANY steps may be skipped."""
            for lab in labels:
                dst = len(cons_out)
                # The epsilon edge beside an ANY step costs less than inserting a letter on it, so it stands in.
                w = 0 if lab == ANY else 1
                step = dst == src + 1 and cons_out[src] is STAY  # src's first out-edge, to the state after it
                cons_out[src] = shared[lab] if step else shared[cons_out[src], dst - src, lab]
                col_out[src] = STEP[w] if step else shared[col_out[src], dst - src, w]
                cons_out.append(STAY)
                col_out.append(())
                minsep.append(owed)
                minrem.append(rem := rem - w)
                src = dst
            return src

        def loop(head: int, owed: int) -> int:
            """Filler at `head`: up to k-1 letters, then '#' back to the head, or in the last loop (owing no '#') on to accept."""
            last = chain(head, [ANY] * (k - 1), owed, minrem[head] + 1 if owed else 0)
            # The only backward edge.  A value at `last` comes through `head`
            # or from the previous column at a loop state, where `last` is
            # epsilon-reachable and so no worse; consuming the letter as '#'
            # on this edge already offered `head` that value plus one.  So it
            # never lowers `head` inside a column: it is not in col_out.
            cons_out[last] = shared[cons_out[last], head - last, sep]
            return last

        if not chains:
            cur = chain(0, [ANY] * (k - 1), 0, 0)
        else:
            loop(0, len(chains))  # leading filler loops back to the start
            cur = chain(0, map(ord, chains[0][:k]), len(chains) - 1, minrem[0])
            # Every later window, the one ending at spelled[i], follows filler;
            # after a chain's first window it may instead fuse on by spelled[i].
            for c, spelled in enumerate(chains):
                owed = len(chains) - 1 - c
                for i in range(k - 1 if c else k, len(spelled)):
                    # The letters owed after this window: a fused one spells
                    # one letter at cur, a chain's first one '#' and k letters.
                    ahead = minrem[cur] - (1 if i >= k else k + 1)
                    h = chain(cur, [sep], owed, ahead + k + 1)
                    loop(h, owed + 1)
                    nxt = chain(h, map(ord, spelled[i - k + 1 : i + 1]), owed, ahead + k)
                    if i >= k:  # the fused edge's source is below the chain edge's, nxt - 1
                        cons_out[cur] = shared[cons_out[cur], nxt - cur, ord(spelled[i])]
                        col_out[cur] = shared[col_out[cur], nxt - cur, 1]
                    cur = nxt
        last = loop(chain(cur, [sep], 0, 1), 0)
        self.accept = accept = chain(cur, [ANY], 0, 0)  # for its epsilon edge from cur; accept consumes nothing
        cons_out[cur] = cons_out[cur][:-1]
        col_out[last] = shared[col_out[last], accept - last, 0]

    def _letter_edges_into(self, column: tuple[array, array], x: int) -> list[tuple[int, int]]:
        """(i, label) of each consuming edge into x from the column's i-th kept cell, in candidate order."""
        states = column[0]
        lo, mid, hi = (bisect_left(states, s) for s in (x - 2 * self.k, x, x + self.k))
        near = [*range(mid - 1, lo - 1, -1), *range(mid, hi)]
        return [(i, lab) for i in near for d, lab in self.cons_out[states[i]][1:] if states[i] + d == x]  # [1:]: not STAY

    def _column_edges_into(self, column: tuple[array, array], x: int) -> list[tuple[int, int, int]]:
        """(i, cost, label) of each in-column edge into x from the column's i-th kept cell, by ascending source."""
        states, cons_out, col_out = column[0], self.cons_out, self.col_out
        near = range(bisect_left(states, x - 2 * self.k), bisect_left(states, x))
        # An inserted letter is the label of the consuming edge beside its edge; an epsilon edge's is ANY.
        return [(i, w, next(lab for e, lab in cons_out[states[i]] if e == d) if w else ANY)
                for i in near for d, w in col_out[states[i]] if states[i] + d == x]

    def _column(self, cur: list[int], todo: list[int], bound: int, rem: int) -> tuple[array, array]:
        """Settle the states in `todo`, whose values the previous column offered in `cur`, in increasing order.

        State s is kept when its value plus h = max(0, minrem[s] - rem,
        minsep[s]) is at most `bound`, with `rem` letters left to read; only a
        kept state offers its value along its in-column out-edges, which all
        run forward.  Resets `cur` to INF; returns the kept states and values.
        """
        col_out, minrem, minsep = self.col_out, self.minrem, self.minsep
        cap = bound + rem
        states, vals = array("i"), array("i")
        todo.sort()
        for x in todo:  # a state inserted below lands after x, so this loop reaches it
            v = cur[x]
            cur[x] = INF
            if v + minsep[x] <= bound and v + minrem[x] <= cap:
                states.append(x)
                vals.append(v)
                for d, w in col_out[x]:
                    z = x + d
                    if v + w < cur[z]:
                        if cur[z] == INF:
                            insort(todo, z)
                        cur[z] = v + w
        return states, vals

    def match(self, text: str, bound: int) -> MatchResult:
        """Closest member to `text`, in one pass that keeps the cells within `bound`.

        `bound` must be at least the optimal distance; below it, the accept
        state is not kept and this raises ValueError.  At `bound` = INF no cell
        is dropped.
        """
        if SEPARATOR in text:  # minsep's bound counts every '#' of a member as an edit
            raise ValueError("input sequence contains the reserved separator '#'")
        n, cons_out = len(text), self.cons_out
        codes = [ord(ch) for ch in text]
        cur = [0] + [INF] * (len(cons_out) - 1)  # column 0 starts at state 0 and reads no letter
        states, vals = self._column(cur, [0], bound, n)
        columns = [(states, vals)]
        for j, oc in enumerate(codes, start=1):
            if not states:
                break
            todo = []
            for y, v in zip(states, vals):
                for d, lab in cons_out[y]:  # the kept cells offer the letter; STAY deletes it
                    x, u = y + d, v if lab == ANY or lab == oc else v + 1
                    if u < cur[x]:
                        if cur[x] == INF:
                            todo.append(x)
                        cur[x] = u
            states, vals = self._column(cur, todo, bound, n - j)
            columns.append((states, vals))
        distance = _value(columns[-1], self.accept)  # INF after an empty column
        if distance == INF:
            raise ValueError(f"no alignment within bound {bound}; the bound must be at least the optimal distance")

        trace: list[tuple[str, str]] = []
        j, x, v = n, self.accept, distance
        while j or x:
            if j:
                prev, ch, oc = columns[j - 1], text[j - 1], codes[j - 1]
                if _value(prev, x) + 1 == v:
                    trace.append(("delete", ch))
                    j, v = j - 1, v - 1
                    continue
                step = next(((i, lab) for i, lab in self._letter_edges_into(prev, x) if prev[1][i] + (lab not in (ANY, oc)) == v), None)
                if step is not None:
                    i, lab = step
                    out = ch if lab == ANY else chr(lab)
                    trace.append(("match" if out == ch else "substitute", out))
                    j, x, v = j - 1, prev[0][i], prev[1][i]
                    continue
            cur = columns[j]
            i, w, lab = next(e for e in self._column_edges_into(cur, x) if cur[1][e[0]] + e[1] == v)
            if w:
                trace.append(("insert", chr(lab)))  # a cost-1 edge has a letter; ANY steps move by epsilon
            x, v = cur[0][i], cur[1][i]

        trace.reverse()
        witness = "".join(out for op, out in trace if op != "delete")
        return MatchResult(text=witness, distance=distance, trace=tuple(trace))


def approx_regex_match(text: str, k: int, chains: tuple[str, ...]) -> MatchResult:
    """Closest string to `text` in the language of k and the source's chains, with a witness."""
    bound = edit_distance(text, SEPARATOR.join(chains))
    return _Matcher(k, chains).match(text, bound)._replace(shortest_distance=bound)


def etfs_sanitize(inst: SanitizationInstance) -> MatchResult:
    """Minimal-edit-distance sanitized string for the instance."""
    return approx_regex_match(inst.text, inst.k, inst.chains)
