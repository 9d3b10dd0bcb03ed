"""Benchmark of the `seqsan` command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload tpm-sparse --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The run writes the workload's
seeded inputs under `.perfbench/`, runs the CLI itself once as the reference
(this also compiles the bytecode), then for `--seconds` runs the command
again and again, each time in a fresh single-threaded Python process, one
at a time (a closed loop with one client).  Every output is checked.  Peak
memory and CPU time come from `os.wait4` on that one child.

Before each command it runs the reference job (`reference.py`), and it
reports `total_s` and `setup_s` in reference seconds: each command's wall
time times REFERENCE_S over the reference job's wall time just before it.
The raw wall times are printed beside them.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced commands and reports the per-layer metrics of
the traced ones.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import spans
from inputs import WORKLOADS, write_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.py")
# A fixed scale, near the reference job's wall time on the machine the bounds
# were set on (2-vCPU Xeon VM, Python 3.11.7: 0.30-0.41 s as its speed
# drifted).  Reference seconds are seconds on that machine at one fixed speed.
REFERENCE_S = 0.40
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says


@dataclass
class Sample:
    code: int
    total_s: float
    setup_s: float
    peak_rss_mb: float
    cpu_s: float
    output: str  # the published string, or the verify lines
    report: str  # the report without its runtime_ms_* lines
    reference_s: float = 0.0  # wall time of the reference job run just before
    trace: dict | None = None

    def adjusted(self, seconds: float) -> float:
        """`seconds` in reference seconds."""
        return seconds * REFERENCE_S / self.reference_s


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def spawn(argv: list[str], stdout_path: str, timeout: float) -> tuple[int, float, float, float, float]:
    """Run `argv`, returning exit code, spawn time, wall seconds, peak RSS (MB) and CPU seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    with open(stdout_path, "w", encoding="utf-8") as out:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, env=env, cwd=ROOT)
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, started, ended - started, usage.ru_maxrss / 1024.0, cpu


def read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


class Bench:
    """One workload and seed: its inputs, the reference CLI run, and the checked commands."""

    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload]
        self.work = os.path.join(ROOT, ".perfbench", f"{workload}-{seed}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.seq_path, self.pat_path = write_inputs(self.wl.shape, seed, self.work)
        self.begun = time.monotonic()
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.reference: Sample | None = None
        self.candidate_len = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cli_args(self, out: str, report: str) -> list[str]:
        io = ["--in", self.seq_path, "--patterns", self.pat_path]
        if self.wl.command == "verify":
            return ["verify", *self.wl.flags, *io, "--candidate", self.path("candidate.txt")]
        return ["sanitize", *self.wl.flags, *io, "--out", out, "--report", report]

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.begun)

    def run(self, argv: list[str], out: str, report: str, stamps: str | None = None, verify: bool = False) -> Sample:
        code, started, wall, rss, cpu = spawn(argv, self.path("stdout.txt"), self.remaining())
        stdout = read(self.path("stdout.txt"))
        setup = json.loads(read(stamps))["parsed"] - started if stamps and code == 0 else 0.0
        if verify:
            output, report_text = stdout, ""
        else:
            output, report_text = read(out).rstrip("\n"), checks.strip_runtimes(read(report))
        return Sample(code, wall, setup, rss, cpu, output, report_text)

    def prepare(self, source: checks.Source) -> bool:
        """Make the verify candidate, run the CLI once as the reference, and check it.

        Returns False when a command exited with an error, leaving nothing to compare with."""
        py = [sys.executable, "-m", "seqsan.cli"]
        if self.wl.command == "verify":
            cand = self.path("candidate.txt")
            args = ["sanitize", "--pipeline", "tfs", "--k", str(source.k), "--in", self.seq_path,
                    "--patterns", self.pat_path, "--out", cand]
            made = self.run(py + args, cand, self.path("candidate.report"))
            self.record(made, [] if made.code == 0 else [f"tfs candidate: exit {made.code}"])
            self.candidate_len = len(made.output)
            if made.code != 0:
                return False
        out, rep = self.path("ref.out"), self.path("ref.report")
        ref = self.run(py + self.cli_args(out, rep), out, rep, verify=self.wl.command == "verify")
        self.reference = ref
        self.record(ref, self.check_output(ref, source, read(rep)))
        return ref.code == 0

    def check_output(self, s: Sample, source: checks.Source, raw_report: str) -> list[str]:
        if s.code != 0:
            return [f"exit status {s.code}, expected 0"]
        report = checks.parse_report(raw_report)
        pipeline = self.wl.option("--pipeline") if self.wl.command == "sanitize" else "verify"
        if pipeline == "tpm":
            return checks.check_tpm(s.output, report, source, tau=int(self.wl.option("--tau")))
        if pipeline == "etfs":
            return checks.check_etfs(s.output, report, source)
        return checks.check_verify(s.output)

    def record(self, s: Sample, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def sample(self, index: int, traced: bool) -> Sample:
        """One timed command, compared with the reference output and report."""
        out, rep, stamps = self.path("out.txt"), self.path("report.txt"), self.path("stamps.json")
        trace_path = self.path(f"trace-{index}.json")
        ref_code, _, reference_s, _, _ = spawn([sys.executable, REFERENCE], self.path("stdout.txt"), self.remaining())
        if ref_code != 0:
            raise RuntimeError(f"the reference job exited with {ref_code}")
        argv = [sys.executable, CHILD, "--stamps", stamps]
        if traced:
            argv += ["--trace", trace_path]
        s = self.run(argv + ["--", *self.cli_args(out, rep)], out, rep, stamps, self.wl.command == "verify")
        s.reference_s = reference_s
        problems = [] if s.code == 0 else [f"exit status {s.code}, expected 0"]
        if s.code == 0:
            ref = self.reference
            if (s.output, s.report) != (ref.output, ref.report):
                problems.append(f"run {index}: output or report differs from the CLI's")
            if traced:
                s.trace = json.loads(read(trace_path))
                problems += s.trace["problems"]
        self.record(s, problems)
        return s


def pct_line(name: str, unit: str, values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    line = f"{name}: median {statistics.median(vals):.6g} {unit}"
    tail = int(100 * (n - 10) / n) if n > 10 else 0
    if tail > 50:
        line += f", p{tail} {vals[(tail * n + 99) // 100 - 1]:.6g} {unit}"  # nearest rank
    else:
        line += ", no percentile above the median has 10 samples beyond it"
    return line + f", {n} samples"


UTILITY = (("distortion", "squared count"), ("lost_count", "count"), ("ghost_count", "count"),
           ("edit_distance", "edits"), ("edre", "ratio"))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """One run: print the metrics by name and unit, and return the result, or None if nothing ran."""
    bench = Bench(workload, seed)
    wl = bench.wl
    source = checks.Source(read(bench.seq_path).strip(), read(bench.pat_path).split(), wl.shape.k)
    if not bench.prepare(source):
        print("error: the reference CLI run failed: " + "; ".join(bench.problems), file=sys.stderr)
        return None

    plain: list[Sample] = []
    traced: list[Sample] = []
    deadline = time.monotonic() + seconds
    index = 0
    while (time.monotonic() < deadline or not plain or (trace and not traced)) and bench.remaining() > 0:
        use_trace = trace and index % 2 == 1
        s = bench.sample(index, use_trace)
        index += 1
        if s.code == 0:
            (traced if use_trace else plain).append(s)
    if not plain or (trace and not traced):
        print("error: no command succeeded: " + "; ".join(bench.problems[:5]), file=sys.stderr)
        return None

    for problem in bench.problems[:10]:
        print(f"FAILED: {problem}")
    print(f"workload {wl.name} seed {seed}: {wl.shape}")
    print(f"fail_rate: {bench.failed / bench.attempted:.6g} ratio ({bench.failed} failed of {bench.attempted} attempted)")
    report = checks.parse_report(read(bench.path("ref.report")))
    for key, unit in UTILITY:
        print(f"{key}: {report[key]} {unit}" if key in report else f"{key}: not reported by this command")

    if trace:
        per_run = [spans.layer_metrics(s.trace) for s in traced]
        metrics = {name: {"value": statistics.median(r[name] for r in per_run), "unit": unit_of(name)}
                   for name in per_run[0]}
        overhead = (statistics.median(s.adjusted(s.total_s) for s in traced)
                    / statistics.median(s.adjusted(s.total_s) for s in plain))
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "total_s": [s.adjusted(s.total_s) for s in plain],
            "setup_s": [s.adjusted(s.setup_s) for s in plain],
            "peak_rss_mb": [s.peak_rss_mb for s in plain],
        }
        units = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        for name, vals in values.items():
            print(pct_line(name, units[name], vals))
        print("total_s samples: " + " ".join(f"{v:.4f}" for v in values["total_s"]))
        print(pct_line("wall total_s (not adjusted)", "s", [s.total_s for s in plain]))
        print(pct_line("wall setup_s (not adjusted)", "s", [s.setup_s for s in plain]))
        print(pct_line("reference job", "s", [s.reference_s for s in plain]))
        print(f"cpu_s: median {statistics.median(s.cpu_s for s in plain):.6g} s")
        metrics = {name: {"value": statistics.median(vals), "unit": units[name]} for name, vals in values.items()}
        # For verify, the published string under check is the tfs candidate.
        out_len = bench.candidate_len if wl.command == "verify" else len(bench.reference.output)
        metrics["out_len"] = {"value": out_len, "unit": "letters"}
        print(f"out_len: {out_len} letters")
    return {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace.coverage", "trace.overhead", "etfs.distance_per_letter"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                    help="'all' runs every workload in turn and prints one result line each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "seqsan", "cli.py")):
        print(f"error: no seqsan sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for name in sorted(WORKLOADS) if args.workload == "all" else [args.workload]:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
