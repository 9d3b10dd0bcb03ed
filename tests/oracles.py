"""Exhaustive reference solvers for certifying the fast algorithms on small inputs.

These share no code with the implementations they certify: feasibility is
re-derived from first principles (a string is feasible iff its separator-free
windows spell exactly the non-sensitive window sequence of the source), and
optimality comes from enumeration, not cleverness.  Budgets abort oversized
requests instead of running unbounded.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from seqsan.core import SEPARATOR, SanitizationInstance
from seqsan.etfs import ANY
from seqsan.mcsr import Infeasible, MckElement


class BudgetExceeded(Exception):
    """A brute-force oracle was asked to search beyond its configured budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_n: int = 10
    max_sigma: int = 2
    max_len: int = 48
    max_candidates: int = 500_000
    etfs_slack: int = 2


def _guard(inst: SanitizationInstance, budget: OracleBudget) -> None:
    if inst.n > budget.max_n:
        raise BudgetExceeded(f"n={inst.n} exceeds oracle budget {budget.max_n}")
    if len(inst.alphabet.tokens) > budget.max_sigma:
        raise BudgetExceeded(f"sigma={len(inst.alphabet.tokens)} exceeds oracle budget {budget.max_sigma}")


def nonsensitive_starts(inst: SanitizationInstance) -> list[int]:
    """Start positions of the non-sensitive windows, ascending, read from `mask`."""
    return [i for i, flag in enumerate(inst.mask) if not flag]


def _targets(inst: SanitizationInstance) -> list[str]:
    return [inst.text[i : i + inst.k] for i in nonsensitive_starts(inst)]


def oracle_min_tfs(inst: SanitizationInstance, budget: OracleBudget = OracleBudget()) -> tuple[int, str]:
    """Minimal length of a feasible string, with the first witness found.

    Enumerates candidate strings in increasing length; within a length, the
    character order is alphabet rank first, separator last, so the witness is
    canonical.
    """
    _guard(inst, budget)
    targets = _targets(inst)
    k = inst.k
    letters = inst.alphabet.chars
    m_total = len(targets)
    upper = m_total * k + max(0, m_total - 1)  # windows joined by separators
    if upper > budget.max_len:
        raise BudgetExceeded(f"search length {upper} exceeds oracle budget {budget.max_len}")

    def extend(s: str, m: int, limit: int) -> str | None:
        if len(s) == limit:
            return s if m == m_total else None
        remaining = m_total - m
        if remaining:
            # Cheapest completion: reuse the longest separator-free suffix that
            # is a prefix of the next target window, then one letter per window.
            cut = s.rfind(SEPARATOR)
            run = s[cut + 1 :][-(k - 1) :] if k > 1 else ""
            overlap = 0
            for o in range(len(run), 0, -1):
                if run[len(run) - o :] == targets[m][:o]:
                    overlap = o
                    break
            need = (k - overlap) + remaining - 1
            if len(s) + need > limit:
                return None
        for ch in letters:
            tail = s[len(s) - k + 1 :] if k > 1 else ""
            if len(tail) == k - 1 and SEPARATOR not in tail:
                win = tail + ch
                if m < m_total and win == targets[m]:
                    found = extend(s + ch, m + 1, limit)
                    if found is not None:
                        return found
                continue  # a window would form but it is out of order or sensitive
            found = extend(s + ch, m, limit)
            if found is not None:
                return found
        found = extend(s + SEPARATOR, m, limit)
        return found

    for limit in range(upper + 1):
        witness = extend("", 0, limit)
        if witness is not None:
            return limit, witness
    raise RuntimeError("the separator-joined window sequence must be feasible")  # pragma: no cover


def oracle_min_etfs(inst: SanitizationInstance, budget: OracleBudget = OracleBudget()) -> tuple[int, str]:
    """Minimal edit distance from the source to any feasible string, with a witness."""
    _guard(inst, budget)
    targets = _targets(inst)
    text, k = inst.text, inst.k
    n = len(text)
    letters = inst.alphabet.chars
    m_total = len(targets)

    naive = SEPARATOR.join(targets)
    best = _levenshtein(text, naive)
    best_witness = naive
    cap = n + max(budget.etfs_slack, best)
    if cap > budget.max_len:
        raise BudgetExceeded(f"search length {cap} exceeds oracle budget {budget.max_len}")

    first_row = list(range(n + 1))

    def advance(row: list[int], ch: str, depth: int) -> list[int]:
        out = [depth]
        for j in range(1, n + 1):
            out.append(min(row[j] + 1, out[j - 1] + 1, row[j - 1] + (ch != text[j - 1])))
        return out

    def search(s: str, m: int, row: list[int]) -> None:
        nonlocal best, best_witness
        if min(row) >= best:
            return
        if m == m_total and row[n] < best:
            best = row[n]
            best_witness = s
        if len(s) >= cap:
            return
        depth = len(s) + 1
        for ch in letters:
            tail = s[len(s) - k + 1 :] if k > 1 else ""
            if len(tail) == k - 1 and SEPARATOR not in tail:
                win = tail + ch
                if m < m_total and win == targets[m]:
                    search(s + ch, m + 1, advance(row, ch, depth))
                continue
            search(s + ch, m, advance(row, ch, depth))
        search(s + SEPARATOR, m, advance(row, SEPARATOR, depth))

    search("", 0, first_row)
    return best, best_witness


def _levenshtein(a: str, b: str) -> int:
    # Local copy: the oracles deliberately avoid importing the metrics module.
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def oracle_mck(
    classes: tuple[tuple[MckElement, ...], ...], capacity: float, budget: OracleBudget = OracleBudget()
) -> tuple[float, list[MckElement]]:
    """Exhaustive product enumeration of one-element-per-class selections."""
    combos = 1
    for cls in classes:
        combos *= len(cls)
        if combos > budget.max_candidates:
            raise BudgetExceeded(f"{combos}+ selections exceed oracle budget {budget.max_candidates}")
    best: tuple[float, list[MckElement]] | None = None
    for pick in itertools.product(*classes):
        weight = sum(el.weight for el in pick)
        if weight > capacity:
            continue
        cost = sum(el.cost for el in pick)
        if best is None or cost < best[0]:
            best = (cost, list(pick))
    if best is None:
        raise Infeasible("no selection satisfies the capacity")
    return best


def oracle_fo_ssm(
    affixes: list[tuple],
    block_lengths: list[int],
    ell: int,
    budget: OracleBudget = OracleBudget(),
) -> int:
    """Minimal assembled length over all block permutations.

    Block i has the (prefix, suffix) pair `affixes[i]`.  Adjacent blocks merge
    (dropping ell letters and the separator) exactly when the left suffix
    equals the right prefix; other junctions cost one separator.
    """
    n_blocks = len(affixes)
    if n_blocks == 0:
        return 0
    combos = 1
    for i in range(2, n_blocks + 1):
        combos *= i
        if combos > budget.max_candidates:
            raise BudgetExceeded(f"{n_blocks}! permutations exceed oracle budget {budget.max_candidates}")
    base = sum(block_lengths)
    best = None
    for perm in itertools.permutations(affixes):
        length = base
        for (_, left_suffix), (right_prefix, _) in zip(perm, perm[1:]):
            if left_suffix == right_prefix:
                length -= ell
            else:
                length += 1
        if best is None or length < best:
            best = length
    return best


def context_string(text: str, sep_index: int, letter: str, k: int) -> str:
    """The letters a replacement of the `sep_index`-th separator (1-based) exposes: up to k-1 on each side.

    The context stops at the string's ends and at the neighbouring separators,
    since a window that crosses another separator is no pattern.
    """
    pos = [i for i, ch in enumerate(text) if ch == SEPARATOR][sep_index - 1]
    before = text[:pos].split(SEPARATOR)[-1]
    after = text[pos + 1 :].split(SEPARATOR)[0]
    return before[max(0, len(before) - k + 1) :] + letter + after[: k - 1]


def z_score(text: str, pattern: str) -> float:
    """Normalized over/under-representation of `pattern` in `text`, from overlapping occurrence counts.

    The expectation composes the frequencies of the two length-(|U|-1)
    sub-patterns over the frequency of their shared core; a negative score
    marks a pattern occurring less often than its parts predict.
    """
    if len(pattern) <= 2:
        raise ValueError("plausibility scores need patterns longer than 2")

    def freq(part: str) -> int:
        return sum(text.startswith(part, i) for i in range(len(text) - len(part) + 1))

    mid = freq(pattern[1:-1])
    expected = freq(pattern[:-1]) * freq(pattern[1:]) / mid if mid > 0 else 0.0
    return (freq(pattern) - expected) / max(math.sqrt(expected), 1.0)


def to_pattern(k: int, letters: str, chains: tuple[str, ...]) -> str:
    """An `re` pattern for the ETFS language of k and the chains over `letters`, for membership checks.

    Filler is any '#'-delimited string without k letters in a row.  Each
    chain's first window follows filler that ends in '#' (the first chain's
    may start the string); every later window either fuses on by its last
    letter or follows such filler.
    """
    run = f"(?:[{re.escape(letters)}]?){{{k - 1}}}" if k > 1 else ""
    if not chains:
        return f"{run}(?:#{run})*"
    plus = f"#(?:{run}#)*"
    parts = [f"(?:{run}#)*"]
    for c, chain in enumerate(chains):
        parts.append((plus if c else "") + re.escape(chain[:k]))
        for i in range(k, len(chain)):
            parts.append(f"(?:{re.escape(chain[i])}|{plus}{re.escape(chain[i - k + 1 : i + 1])})")
    parts.append(f"(?:#{run})*")
    return "".join(parts)


def matches(k: int, letters: str, chains: tuple[str, ...], text: str) -> bool:
    """Whether `text` is in the ETFS language of k and the chains over `letters`, by `re`."""
    return re.fullmatch(to_pattern(k, letters, chains), text) is not None


class EdgeListAutomaton:
    """The ETFS epsilon-automaton as two edge lists, for checking the matcher's edges and bounds.

    `cons` holds (src, dst, label) for the consuming edges, where a label is a
    letter's ord or ANY (any letter), and `eps` holds (src, dst) for the
    epsilon edges, each in creation order.  States are numbered as they are
    made; `accept` is the last.
    """

    def __init__(self, k: int, chains: tuple[str, ...]):
        sep = ord(SEPARATOR)
        self.n_states = 1
        self.cons: list[tuple[int, int, int]] = []
        self.eps: list[tuple[int, int]] = []

        def chain(src: int, labels) -> int:
            """One new state per label after `src`; an ANY step may also be skipped."""
            for lab in labels:
                self.n_states += 1
                self.cons.append((src, self.n_states - 1, lab))
                if lab == ANY:
                    self.eps.append((src, self.n_states - 1))
                src = self.n_states - 1
            return src

        def loop(head: int) -> int:
            """Filler at `head`: up to k-1 letters, then '#' back to the head."""
            last = chain(head, [ANY] * (k - 1))
            self.cons.append((last, head, sep))
            return last

        if not chains:
            cur = chain(0, [ANY] * (k - 1))
        else:
            loop(0)
            cur = None
            for chain_text in chains:
                # A chain starts after filler that ends in '#', the first one at the start.
                if cur is None:
                    cur = chain(0, map(ord, chain_text[:k]))
                else:
                    h = chain(cur, [sep])
                    loop(h)
                    cur = chain(h, map(ord, chain_text[:k]))
                # Every later window fuses on by its last letter or follows such filler.
                for i in range(k, len(chain_text)):
                    h = chain(cur, [sep])
                    loop(h)
                    nxt = chain(h, map(ord, chain_text[i - k + 1 : i + 1]))
                    self.cons.append((cur, nxt, ord(chain_text[i])))
                    cur = nxt
        h = chain(cur, [sep])
        last = loop(h)
        self.accept = self.n_states
        self.n_states += 1
        self.eps += [(cur, self.accept), (last, self.accept)]
