"""Shorter sanitized string: preserve overlap chains, not the total order.

The total-order output decomposes into blocks at its separators.  Blocks may
be reordered freely (their relative order was interrupted by sensitive
material anyway), and any block whose length-(k-1) prefix equals another
block's length-(k-1) suffix can absorb it, dropping one separator and k-1
duplicated letters.  Finding the arrangement with the most such absorptions
is a shortest-superstring question that stays tractable here because each
block is summarized by just two affix ranks: build the multigraph with one
edge per block from its prefix rank to its suffix rank, then decompose it
into the minimum number of edge-disjoint trails.  Every trail spells a run of
merged blocks; trails are joined with separators.

Tie-breaking (start node, edge choice, trail order) is deterministic so that
identical inputs give identical outputs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .core import SEPARATOR, SanitizationInstance
from .errors import BlockTooShort
from .tfs import tfs_sanitize


@dataclass(frozen=True)
class RankPair:
    """A block reduced to the lexicographic ranks of its two length-l affixes."""

    block_id: int
    prefix_rank: int
    suffix_rank: int


def split_blocks(text: str) -> list[str]:
    """Blocks of a sanitized string, in order; empty input has no blocks."""
    if not text:
        return []
    return text.split(SEPARATOR)


def rank_blocks(blocks: list[str], ell: int) -> list[RankPair]:
    """Rank every block's length-ell prefix and suffix over their sorted union.

    Ranks are 1-based; equal affixes share a rank, and rank order is
    lexicographic order.
    """
    for b in blocks:
        if len(b) <= ell:
            raise BlockTooShort(f"block {b!r} not longer than affix length {ell}")
    affixes = {b[:ell] for b in blocks} | {b[len(b) - ell :] for b in blocks}
    rank = {a: r for r, a in enumerate(sorted(affixes), start=1)}
    return [
        RankPair(block_id=i, prefix_rank=rank[b[:ell]], suffix_rank=rank[b[len(b) - ell :]])
        for i, b in enumerate(blocks)
    ]


def fo_ssm(pairs: list[RankPair]) -> list[list[int]]:
    """Minimum trail decomposition of the affix-rank multigraph.

    Returns lists of block ids.  Within a list, consecutive blocks satisfy
    suffix_rank(left) == prefix_rank(right) and are meant to be merged;
    separate lists are meant to be concatenated with a separator.  The number
    of lists is minimal, which makes the induced output length minimal.
    """
    if not pairs:
        return []

    out_edges: dict[int, deque[tuple[int, int]]] = defaultdict(deque)
    out_deg: dict[int, int] = defaultdict(int)
    in_deg: dict[int, int] = defaultdict(int)
    for pr in sorted(pairs, key=lambda p: (p.prefix_rank, p.suffix_rank, p.block_id)):
        out_edges[pr.prefix_rank].append((pr.suffix_rank, pr.block_id))
        out_deg[pr.prefix_rank] += 1
        in_deg[pr.suffix_rank] += 1
    nodes = sorted(set(out_deg) | set(in_deg))

    def walk(start: int) -> tuple[list[int], list[int]]:
        """Consume edges greedily from `start` until stuck; smallest edge first."""
        node_seq = [start]
        bid_seq: list[int] = []
        cur = start
        while out_deg[cur]:
            nxt, bid = out_edges[cur].popleft()
            out_deg[cur] -= 1
            in_deg[nxt] -= 1
            bid_seq.append(bid)
            node_seq.append(nxt)
            cur = nxt
        return node_seq, bid_seq

    trails: list[tuple[list[int], list[int]]] = []
    on_trails: set[int] = set()

    def add_trail(t_nodes: list[int], t_bids: list[int]) -> None:
        trails.append((t_nodes, t_bids))
        on_trails.update(t_nodes)

    # Unbalanced nodes each seed a trail; this pins the decomposition size.
    while True:
        start = next((v for v in nodes if out_deg[v] > in_deg[v]), None)
        if start is None:
            break
        add_trail(*walk(start))

    # What remains is a union of cycles.  Prefer cycles through a node some
    # trail already visits, so they splice in instead of opening new trails;
    # only a component disjoint from everything built so far starts one.
    while True:
        start = next((v for v in nodes if out_deg[v] > 0 and v in on_trails), None)
        if start is None:
            start = next((v for v in nodes if out_deg[v] > 0), None)
        if start is None:
            break
        cyc_nodes, cyc_bids = walk(start)
        cyc_set = set(cyc_nodes)
        spliced = False
        for t_nodes, t_bids in trails:
            hit = next((i for i, v in enumerate(t_nodes) if v in cyc_set), None)
            if hit is None:
                continue
            at = cyc_nodes.index(t_nodes[hit])
            rot_nodes = cyc_nodes[at:-1] + cyc_nodes[: at + 1]
            rot_bids = cyc_bids[at:] + cyc_bids[:at]
            t_nodes[hit : hit + 1] = rot_nodes
            t_bids[hit:hit] = rot_bids
            on_trails.update(cyc_nodes)
            spliced = True
            break
        if not spliced:
            add_trail(cyc_nodes, cyc_bids)

    # Order trails round-robin over their start ranks.  Any order is valid and
    # equally short; interleaving keeps equal junction contexts from clustering,
    # which would otherwise pile the separator-replacement stage's new windows
    # onto a handful of patterns.
    by_id = {p.block_id: p for p in pairs}
    groups: dict[int, deque[list[int]]] = defaultdict(deque)
    for bids in sorted((bids for _, bids in trails), key=min):
        groups[by_id[bids[0]].prefix_rank].append(bids)
    ranks = sorted(groups)
    ordering: list[list[int]] = []
    while any(groups[r] for r in ranks):
        for r in ranks:
            if groups[r]:
                ordering.append(groups[r].popleft())
    return ordering


def assemble(blocks: list[str], ordering: list[list[int]], ell: int) -> str:
    """Spell a trail decomposition back into a string over the alphabet plus '#'."""
    chunks = []
    for trail in ordering:
        pieces = [blocks[trail[0]]]
        pieces.extend(blocks[bid][ell:] for bid in trail[1:])
        chunks.append("".join(pieces))
    return SEPARATOR.join(chunks)


def pfs_sanitize(inst: SanitizationInstance, x: str | None = None) -> str:
    """Shortest chain- and frequency-preserving sanitized string; `x` is its TFS output if already built."""
    if x is None:
        x = tfs_sanitize(inst)
    if SEPARATOR not in x:
        return x
    blocks = split_blocks(x)
    ell = inst.k - 1
    pairs = rank_blocks(blocks, ell)
    ordering = fo_ssm(pairs)
    return assemble(blocks, ordering, ell)
