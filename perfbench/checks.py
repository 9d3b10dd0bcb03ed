"""Correctness checks on one command's output, independent of `seqsan.metrics`.

Each check returns a list of problems; an empty list means the output passed.
The checks use only the source sequence, the pattern file and the output, so
a defect in the package's own verifiers cannot hide a defect in its output.
"""

from __future__ import annotations

from collections import Counter

SEPARATOR = "#"
VERIFY_LEVELS = ("C1", "P1", "Pi1", "P2", "P3", "P4")


class Source:
    """The source's windows, split by sensitivity, computed once per run."""

    def __init__(self, text: str, patterns: list[str], k: int):
        self.text = text
        self.k = k
        self.patterns = frozenset(patterns)
        windows = [text[i : i + k] for i in range(len(text) - k + 1)]
        self.nonsensitive = [w for w in windows if w not in self.patterns]
        self.counts = Counter(windows)


def separator_free_windows(text: str, k: int) -> list[str]:
    """Length-k windows of `text` that contain no separator, left to right."""
    out: list[str] = []
    for block in text.split(SEPARATOR):
        out.extend(block[i : i + k] for i in range(len(block) - k + 1))
    return out


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, row by row."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def parse_report(report: str) -> dict[str, str]:
    """Scalar `key=value` lines of a report; repeated list keys are skipped."""
    out: dict[str, str] = {}
    for line in report.splitlines():
        key, _, value = line.partition("=")
        if key not in ("lost", "ghost", "note"):
            out[key] = value
    return out


def strip_runtimes(report: str) -> str:
    """A report without its `runtime_ms_*` lines, which differ between runs."""
    return "".join(ln for ln in report.splitlines(keepends=True) if not ln.startswith("runtime_ms_"))


def _sensitive_left(windows: list[str], src: Source) -> list[str]:
    found = [w for w in windows if w in src.patterns]
    return [f"sensitive window {found[0]!r} in output ({len(found)} in all)"] if found else []


def check_tpm(out: str, report: dict[str, str], src: Source, tau: int) -> list[str]:
    """No separator, no sensitive window, and no pattern lost at threshold tau."""
    problems = []
    if SEPARATOR in out:
        problems.append("separator left in a letters-only output")
    windows = separator_free_windows(out, src.k)
    problems += _sensitive_left(windows, src)
    got = Counter(windows)
    lost = [p for p, c in src.counts.items() if p not in src.patterns and c >= tau > got[p]]
    if lost:
        problems.append(f"{len(lost)} patterns lost at tau={tau}, e.g. {sorted(lost)[0]!r}")
    if report.get("lost_count") != "0":
        problems.append(f"report lost_count={report.get('lost_count')}, expected 0")
    return problems


def check_etfs(out: str, report: dict[str, str], src: Source) -> list[str]:
    """The non-sensitive window sequence kept in order; the reported distance is real."""
    problems = []
    if separator_free_windows(out, src.k) != src.nonsensitive:
        problems.append("separator-free windows differ from the source's non-sensitive windows in order")
    dist = levenshtein(out, src.text)
    if report.get("edit_distance") != str(dist):
        problems.append(f"report edit_distance={report.get('edit_distance')}, Levenshtein distance is {dist}")
    return problems


def check_verify(stdout: str) -> list[str]:
    """Exactly one `pass` line per verify level, in order."""
    want = [f"{level}: pass" for level in VERIFY_LEVELS]
    got = stdout.splitlines()
    return [] if got == want else [f"verify printed {got!r}, expected {want!r}"]
