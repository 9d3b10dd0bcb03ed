"""Shortest sanitized string preserving the total order of non-sensitive windows.

The construction reads the input left to right and maintains two rules: when
the last letter of a sensitive window would be emitted, a separator '#' is
appended followed by the next non-sensitive window in full; when the k-1
letters after a separator would duplicate the k-1 letters before it, the
separator and the duplicate letters are elided and only the new last letter is
emitted.  The result conceals every sensitive pattern while keeping each
non-sensitive pattern at its original frequency and relative order, and no
shorter string does.

One exact state machine, `_intervals`, makes the construction; its overlap
test compares letters directly.  It has two renderings: `tfs_sanitize` joins
the source slices into the output string, and `tfs_compact` keeps them as
interval references into the input, so the output never has to exist in
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import SEPARATOR, SanitizationInstance
from .errors import OutOfBounds


@dataclass(frozen=True)
class Interval:
    """Inclusive reference to source positions start..end."""

    start: int
    end: int


@dataclass(frozen=True)
class Separator:
    """Marker segment standing for a single '#'."""


SEP_SEGMENT = Separator()

Segment = Interval | Separator


@dataclass(frozen=True)
class CompactTfs:
    """Sanitized output as segments over the source string."""

    segments: tuple[Segment, ...]

    def __len__(self) -> int:
        return len(self.segments)


def _intervals(inst: SanitizationInstance) -> Iterator[tuple[int, int] | None]:
    """The TFS state machine: inclusive source intervals of the output, None for '#'.

    Two intervals with no separator between them are never contiguous in the
    source: a letter that continues the open interval extends it instead.
    """
    text, k, mask = inst.text, inst.k, inst.mask
    n = len(text)

    j = mask.find(0)
    if j == -1 or j + k - 1 >= n:
        return
    start, end = j, j + k - 1
    j += k
    f = -1

    while j < n:
        p = j - k
        c = p + 1
        mp, mc = mask[p], mask[c]
        if mp == 0 and mc == 0:
            # Bulk-extend through the run of adjacent non-sensitive windows.
            nxt = mask.find(1, c)
            if nxt == -1:
                nxt = n
            end = min(nxt + k - 2, n - 1)
            j = nxt + k - 1
        elif mp == 0 and mc == 1:
            f = c
            j += 1
        elif mp == 1 and mc == 1:
            nxt = mask.find(0, c)
            if nxt == -1:
                j = n
            else:
                j = nxt + k - 1
        else:  # leaving a sensitive stretch at a non-sensitive window
            if text[c : c + k - 1] == text[f : f + k - 1]:
                # One letter joins the current block; it is only contiguous
                # with the open interval when no sensitive stretch intervened.
                if j != end + 1:
                    yield start, end
                    start = j
                end = j
            else:
                yield start, end
                yield None
                start, end = c, j
            j += 1

    yield start, end


def tfs_sanitize(inst: SanitizationInstance) -> str:
    """Construct the shortest order- and frequency-preserving sanitized string.

    Returns the empty string when every window is sensitive.
    """
    text = inst.text
    return "".join(SEPARATOR if iv is None else text[iv[0] : iv[1] + 1] for iv in _intervals(inst))


def tfs_compact(inst: SanitizationInstance) -> CompactTfs:
    """Interval-form construction; never materializes the output string."""
    return CompactTfs(segments=tuple(SEP_SEGMENT if iv is None else Interval(*iv) for iv in _intervals(inst)))


def expand(compact: CompactTfs, text: str) -> str:
    """Materialize a compact form against its source string."""
    n = len(text)
    parts: list[str] = []
    for seg in compact.segments:
        if isinstance(seg, Interval):
            if not (0 <= seg.start <= seg.end < n):
                raise OutOfBounds(f"interval {seg.start}..{seg.end} outside source of length {n}")
            parts.append(text[seg.start : seg.end + 1])
        else:
            parts.append(SEPARATOR)
    return "".join(parts)
