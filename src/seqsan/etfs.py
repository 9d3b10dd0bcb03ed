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
into the in-edges of each state, which the traceback tries in order, and the
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
values; the traceback re-derives each parent from those stored cells.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import deque, namedtuple

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
    consume it on an edge into the state (edge order), then reach the state
    inside the column by an epsilon move (cost 0) or an inserted letter
    (cost 1) in (source, cost, edge) order.  Its parent is the first candidate
    with the least value, so the forward pass keeps values only and the
    traceback re-derives each parent from the stored cells.
    """

    def __init__(self, k: int, chains: tuple[str, ...]):
        sep, shared = ord(SEPARATOR), _Shared()
        # In-edges of each state, in the order the traceback tries them:
        # cons_in (src, label) in creation order, col_in (src, cost, label) by
        # ascending source, one edge per source.  Its out-edges, for the sweep,
        # are shared tuples.  minsep[s], the fewest '#' from s to accept, is the
        # chain junctions still ahead, plus one in any filler loop but the last.
        cons_in: list[list[tuple[int, int]]] = [[]]
        col_in: list[list[tuple[int, int, int]]] = [[]]
        cons_out: list[tuple] = [STAY]  # (dst - src, label) pairs
        col_out: list[tuple] = [()]  # (dst - src, cost) pairs
        self.minsep = minsep = [max(0, len(chains) - 1)]

        def chain(src: int, labels, owed: int) -> int:
            """One new state per label after `src`, each owing `owed` '#'; an ANY step may also be skipped."""
            for lab in labels:
                dst = len(cons_in)
                # The epsilon edge beside an ANY step costs less than inserting a letter on it, so it stands in.
                w = 0 if lab == ANY else 1
                cons_in.append([(src, lab)])
                col_in.append([(src, w, lab)])
                step = dst == src + 1 and cons_out[src] is STAY  # src's first out-edge, to the state after it
                cons_out[src] = shared[lab] if step else shared[cons_out[src], dst - src, lab]
                col_out[src] = STEP[w] if step else shared[col_out[src], dst - src, w]
                cons_out.append(STAY)
                col_out.append(())
                minsep.append(owed)
                src = dst
            return src

        def loop(head: int, owed: int) -> int:
            """Filler at `head`: up to k-1 letters, then '#' back to the head."""
            last = chain(head, [ANY] * (k - 1), owed)
            # The only backward edge.  A value at `last` comes through `head`
            # or from the previous column at a loop state, where `last` is
            # epsilon-reachable and so no worse; consuming the letter as '#'
            # on this edge already offered `head` that value plus one.  So it
            # never lowers `head` inside a column: it is not in col_in.
            cons_in[head].append((last, sep))
            cons_out[last] = shared[cons_out[last], head - last, sep]
            return last

        if not chains:
            cur = chain(0, [ANY] * (k - 1), 0)
        else:
            loop(0, len(chains))  # leading filler loops back to the start
            cur = chain(0, map(ord, chains[0][:k]), len(chains) - 1)
            # Every later window, the one ending at spelled[i], follows filler;
            # after a chain's first window it may instead fuse on by spelled[i].
            for c, spelled in enumerate(chains):
                owed = len(chains) - 1 - c
                for i in range(k - 1 if c else k, len(spelled)):
                    h = chain(cur, [sep], owed)
                    loop(h, owed + 1)
                    nxt = chain(h, map(ord, spelled[i - k + 1 : i + 1]), owed)
                    if i >= k:  # the fused edge's source is below the chain edge's, nxt - 1
                        lab = ord(spelled[i])
                        cons_in[nxt].append((cur, lab))
                        col_in[nxt].insert(0, (cur, 1, lab))
                        cons_out[cur] = shared[cons_out[cur], nxt - cur, lab]
                        col_out[cur] = shared[col_out[cur], nxt - cur, 1]
                    cur = nxt
        last = loop(chain(cur, [sep], 0), 0)
        self.accept = accept = chain(cur, [ANY], 0)  # for its epsilon edge from cur; accept consumes nothing
        cons_in[accept], cons_out[cur] = [], cons_out[cur][:-1]
        col_in[accept].append((last, 0, ANY))
        col_out[last] = shared[col_out[last], accept - last, 0]
        self.cons_in, self.col_in, self.cons_out, self.col_out = cons_in, col_in, cons_out, col_out
        # minrem[s]: the fewest letters a path from s to accept emits, by a
        # backward 0-1 BFS (a consuming edge emits one letter, an epsilon none).
        self.minrem = minrem = [INF] * accept + [0]
        queue = deque([accept])
        while queue:
            x = queue.popleft()
            for s, _lab in cons_in[x]:
                if minrem[x] + 1 < minrem[s]:
                    minrem[s] = minrem[x] + 1
                    queue.append(s)
            for s, w, _lab in col_in[x]:  # the epsilon edges, among others
                if w == 0 and minrem[x] < minrem[s]:
                    minrem[s] = minrem[x]
                    queue.appendleft(s)

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
    return _Matcher(k, chains).match(text, bound)._replace(shortest_distance=bound)


def etfs_sanitize(inst: SanitizationInstance) -> MatchResult:
    """Minimal-edit-distance sanitized string for the instance."""
    return approx_regex_match(inst.text, inst.k, inst.chains)
