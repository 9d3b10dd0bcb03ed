"""Shorter sanitized string: preserve overlap chains, not the total order.

The total-order output's blocks, between its separators, are the source's
overlap chains, so the blocks are read from `inst.chains`.  Blocks may be
reordered freely (their relative order was interrupted by sensitive
material anyway), and any block whose length-(k-1) prefix equals another
block's length-(k-1) suffix can absorb it, dropping one separator and k-1
duplicated letters.  Finding the arrangement with the most such absorptions
is a shortest-superstring question that stays tractable here because each
block is summarized by just its two affixes: `fo_ssm` takes their list, block
i at position i, builds the multigraph whose nodes are the affixes, with one
edge per block from its prefix to its suffix, and decomposes it into the
minimum number of edge-disjoint trails of block ids.  Every trail spells a
run of merged blocks; trails are joined with separators.

Tie-breaking (start node, edge choice, trail order) is deterministic; apart
from sorting, the decomposition is linear in the blocks (Hierholzer 1873).
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from heapq import heappop, heappush

from .core import SEPARATOR, SanitizationInstance


def fo_ssm(affixes: list[tuple[str, str]]) -> list[list[int]]:
    """Minimum trail decomposition of the affix multigraph.

    `affixes` holds one (prefix, suffix) pair per block, and block i is
    position i: an edge from its prefix to its suffix.  The labels need only
    hash and sort as the affixes do.  Returns lists of block ids.  Within a
    list, consecutive blocks satisfy suffix(left) == prefix(right) and are
    meant to be merged; separate lists are meant to be concatenated with a
    separator.  The number of lists is minimal, which makes the induced output
    length minimal.
    """
    out_edges: dict[str, deque[tuple[str, int]]] = defaultdict(deque)  # unused edges, smallest first
    for bid, (prefix, suffix) in enumerate(affixes):
        out_edges[prefix].append((suffix, bid))
    out_edges.update({v: deque(sorted(edges)) for v, edges in out_edges.items()})
    surplus = Counter([prefix for prefix, _ in affixes])  # out- minus in-degree
    surplus.subtract([suffix for _, suffix in affixes])
    nodes = sorted(surplus)

    def walk(start: str) -> tuple[list[str], list[int]]:
        """Consume edges greedily from `start` until stuck; smallest edge first."""
        node_seq, bid_seq, edges = [start], [], out_edges[start]
        while edges:
            nxt, bid = edges.popleft()
            bid_seq.append(bid)
            node_seq.append(nxt)
            edges = out_edges[nxt]
        return node_seq, bid_seq

    trails: list[list[int]] = []  # block ids along each trail's own walk
    first: dict[str, tuple[int, ...]] = {}  # node -> its first visit on the first trail through it

    def add_trail(t_nodes: list[str], t_bids: list[int]) -> None:
        for i, v in enumerate(t_nodes):
            if v not in first:
                first[v] = (len(trails), i)
        trails.append(t_bids)

    # Unbalanced nodes seed the trails, which pins the decomposition size.  A
    # walk ends only at a node with no out-edges left, so it lifts no node's
    # surplus above zero: each node, in sorted order, seeds its surplus of trails.
    for v in nodes:
        for _ in range(surplus[v]):
            add_trail(*walk(v))

    # What remains is a union of cycles.  Prefer cycles through a node some
    # trail already visits, so they splice in instead of opening new trails;
    # only a component disjoint from everything built so far starts one.
    # Spliced trails become linked lists of visits, labelled (t, i) on trail
    # t's own walk and x + (-c, j) for the j-th visit of a cycle spliced in
    # after visit x, c the links made so far: labels sort in trail order.
    after: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    heap = sorted((v not in first, v) for v in nodes)  # a sorted list is a heap; on-trail nodes first
    while heap:
        start = heappop(heap)[1]
        if not out_edges[start]:
            continue
        cyc_nodes, cyc_bids = walk(start)
        for v in cyc_nodes:
            heappush(heap, (False, v))
        u = min((v for v in cyc_nodes if v in first), key=first.__getitem__, default=None)
        if u is None:
            add_trail(cyc_nodes, cyc_bids)
            continue
        at = cyc_nodes.index(u)
        rot_nodes = cyc_nodes[at:-1] + cyc_nodes[: at + 1]
        rot_bids = cyc_bids[at:] + cyc_bids[:at]
        hit = first[u]
        if (hit[0], 0) not in after:
            after.update(((hit[0], i), (bid, (hit[0], i + 1))) for i, bid in enumerate(trails[hit[0]]))
        visits = [hit] + [hit + (-len(after), j) for j in range(1, len(rot_nodes))]
        after[visits[-1]] = after[hit]  # a walk ends at a node with no edges left, or at its start
        after.update(zip(visits, zip(rot_bids, visits[1:])))
        first.update(zip(reversed(rot_nodes), reversed(visits)))  # each node's first visit wins
    for t in {visit[0] for visit in after}:
        trails[t], edge = [], after.get((t, 0))
        while edge is not None:
            trails[t].append(edge[0])
            edge = after.get(edge[1])

    # Order trails round-robin over their start nodes.  Any order is valid and
    # equally short; interleaving keeps equal junction contexts from clustering,
    # which would otherwise pile the separator-replacement stage's new windows
    # onto a handful of patterns.
    groups: dict[str, deque[list[int]]] = defaultdict(deque)
    for bids in sorted(trails, key=min):
        groups[affixes[bids[0]][0]].append(bids)
    starts = sorted(groups)
    ordering: list[list[int]] = []
    while starts:
        ordering.extend(groups[v].popleft() for v in starts)
        starts = [v for v in starts if groups[v]]
    return ordering


def assemble(blocks: list[str], ordering: list[list[int]], ell: int) -> str:
    """Spell a trail decomposition back into a string over the alphabet plus '#'."""
    chunks = []
    for trail in ordering:
        pieces = [blocks[trail[0]]]
        pieces.extend(blocks[bid][ell:] for bid in trail[1:])
        chunks.append("".join(pieces))
    return SEPARATOR.join(chunks)


def pfs_sanitize(inst: SanitizationInstance) -> str:
    """Shortest chain- and frequency-preserving sanitized string, built from the instance's overlap chains."""
    blocks = inst.chains
    ell = inst.k - 1
    return assemble(blocks, fo_ssm([(b[:ell], b[len(b) - ell :]) for b in blocks]), ell)
