"""Spans recorded from outside the package, and the per-layer figures made from them.

A span is one call into a public function of a `seqsan` module, named
`<layer>.<function>`, or one step of the runner's own (the import, reading a
candidate, the write).  It records its start, end, the span that was open
when it began (its parent) and the run it belongs to.  Spans are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

# The package's modules, in pipeline order; `oracles` runs only in tests.
LAYERS = ("cli", "core", "tfs", "pfs", "mcsr", "etfs", "metrics")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    run_id: str


class Recorder:
    """Collects spans with a stack of open spans; one recorder per run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.monotonic(), 0.0, parent, self.run_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.monotonic()
        self._open.pop()

    def wrap(self, name: str, fn: Callable, label: Callable | None = None, observe: Callable | None = None) -> Callable:
        """`fn` recording a span per call; `label` may extend the name from the arguments,
        and `observe(result, args)` sees every result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name + label(*args) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(result, args)
            return result

        return traced


def public_functions(module) -> dict[str, Callable]:
    """Functions defined in `module` whose names do not start with an underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def instrument(rec: Recorder, labels: dict[str, Callable], observers: dict[str, Callable]) -> None:
    """Replace every public function of every layer, wherever a `seqsan` module refers to it.

    Modules look their collaborators up in their own globals at call time, so a
    call from one module into another, or within a module, records a span too.
    """
    packages = [m for name, m in sys.modules.items() if name == "seqsan" or name.startswith("seqsan.")]
    for layer in LAYERS:
        module = sys.modules[f"seqsan.{layer}"]
        for fname, fn in public_functions(module).items():
            name = f"{layer}.{fname}"
            traced = rec.wrap(name, fn, labels.get(name), observers.get(name))
            for mod in packages:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's; calls are sequential, so children never overlap."""
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start
    return own


def coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of the interval [start, end] covered by top-level spans."""
    covered = sum(min(sp.end, end) - max(sp.start, start) for sp in spans if sp.parent is None)
    return covered / (end - start)


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for sp, own in zip(spans, self_times(spans)):
        row = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += sp.end - sp.start
        row["self_s"] += own
    return out


# Per-layer metrics: name -> (span name, field of `totals`).  A layer that a
# workload does not run reports 0.
TIMED = {
    "cli.parse_inputs_s": ("cli.parse_inputs", "total_s"),
    "cli.parse_self_s": ("cli.parse_inputs", "self_s"),
    "cli.write_s": ("cli.write", "total_s"),
    "core.build_instance_s": ("core.build_instance", "total_s"),
    "core.kmer_counts_s": ("core.kmer_counts", "total_s"),
    "core.kmer_counts_calls": ("core.kmer_counts", "calls"),
    "tfs.tfs_sanitize_s": ("tfs.tfs_sanitize", "total_s"),
    "tfs.tfs_sanitize_calls": ("tfs.tfs_sanitize", "calls"),
    "pfs.pfs_sanitize_s": ("pfs.pfs_sanitize", "total_s"),
    "pfs.split_blocks_s": ("pfs.split_blocks", "total_s"),
    "pfs.rank_blocks_s": ("pfs.rank_blocks", "total_s"),
    "pfs.fo_ssm_s": ("pfs.fo_ssm", "total_s"),
    "pfs.assemble_s": ("pfs.assemble", "total_s"),
    "mcsr.mcsr_sanitize_s": ("mcsr.mcsr_sanitize", "total_s"),
    "mcsr.candidate_ghosts_s": ("mcsr.candidate_ghosts", "total_s"),
    "mcsr.build_mck_s": ("mcsr.build_mck", "total_s"),
    "mcsr.solve_mck_s": ("mcsr.solve_mck", "total_s"),
    "mcsr.rounds": ("mcsr.solve_mck", "calls"),
    "etfs.etfs_sanitize_s": ("etfs.etfs_sanitize", "total_s"),
    "etfs.build_regex_s": ("etfs.build_regex", "total_s"),
    "etfs.approx_regex_match_s": ("etfs.approx_regex_match", "total_s"),
    "metrics.distortion_s": ("metrics.distortion", "total_s"),
    "metrics.lost_ghost_s": ("metrics.lost_ghost", "total_s"),
    "metrics.edre_s": ("metrics.edre", "total_s"),
    **{f"metrics.verify_{lv}_s": (f"metrics.verify_{lv}", "total_s") for lv in ("C1", "P1", "Pi1", "P2", "P3", "P4")},
}
COUNTED = (
    "core.sensitive_patterns",
    "core.sensitive_windows",
    "tfs.separators",
    "tfs.out_len",
    "pfs.blocks",
    "pfs.trails",
    "mcsr.ghost_candidates",
    "mcsr.knapsack_classes",
    "mcsr.knapsack_elements",
    "etfs.regex_size",
    "etfs.dp_cells",
    "etfs.distance",
    "etfs.distance_per_letter",
    "metrics.chains",
)


def layer_metrics(doc: dict) -> dict[str, float]:
    """The per-layer metrics of one traced command, from the document `child.py --trace` writes."""
    spans = [Span(**sp) for sp in doc["spans"]]
    rows = totals(spans)
    out = {name: rows.get(span, {}).get(field, 0) for name, (span, field) in TIMED.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for name, row in rows.items() if name.startswith(layer + "."))
    out.update({name: doc["counts"].get(name, 0) for name in COUNTED})
    out["trace.import_s"] = rows.get("run.import", {}).get("total_s", 0.0)
    out["trace.spans"] = len(spans)
    out["trace.coverage"] = coverage(spans, doc["start"], doc["end"])
    return out
