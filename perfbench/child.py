"""One `seqsan sanitize` or `seqsan verify` command, run through the CLI's own `main`.

The command is `seqsan.cli.main(<seqsan args>)`, as the `seqsan` program runs
it.  From outside, `cli.parse_inputs` is wrapped to take a timestamp when it
returns (monotonic clock, shared with the parent process); the parent takes
set-up time from it.  The timestamps go to the `--stamps` file.

With `--trace`, every public function of every layer records a span, and the
spans and counts go to the `--trace` file when the command ends.  Two spans
of the runner's own cover the rest of `cli.main`: `cli.read_candidate`, from
the parse to the verifiers (verify only), and `cli.write`, from the end of the
last stage (`cli.run_pipeline` or `metrics.verify_levels`) to the return of
`cli.main`.

    python3 perfbench/child.py --stamps S.json [--trace T.json] -- sanitize <seqsan flags>
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

SEPARATOR = "#"


def _counters(counts: dict, problems: list):
    """Observers that take counts from results and check that the stage splits are exact."""
    last: dict = {}

    def setter(name, of=len):
        def observe(result, args):
            counts[name] = of(result)

        return observe

    def build_instance(inst, args):
        counts["core.sensitive_patterns"] = len(inst.sensitive_patterns)
        counts["core.sensitive_windows"] = len(inst.sensitive_positions)

    def tfs_sanitize(x, args):
        counts["tfs.separators"] = x.count(SEPARATOR)
        counts["tfs.out_len"] = len(x)
        last["tfs"] = x

    def assemble(y, args):
        last["assemble"] = y

    def pfs_sanitize(y, args):
        # pfs_sanitize = tfs_sanitize, then split_blocks, rank_blocks, fo_ssm and assemble.
        want = last.get("assemble") if SEPARATOR in last["tfs"] else last["tfs"]
        if y != want:
            problems.append("pfs_sanitize output differs from its stages' output")

    def build_mck(mck, args):
        counts["mcsr.knapsack_classes"] = len(mck.classes)
        counts["mcsr.knapsack_elements"] = sum(len(cls) for cls in mck.classes)

    def approx_regex_match(match, args):
        n = len(args[0])
        counts["etfs.distance"] = match.distance
        counts["etfs.distance_per_letter"] = match.distance / n
        counts["etfs.dp_cells"] = (n + 1) * counts.get("etfs.regex_size", 0)
        last["match"] = match

    def etfs_sanitize(match, args):
        # etfs_sanitize = build_regex, then approx_regex_match.
        if match != last.get("match"):
            problems.append("etfs_sanitize output differs from its stages' output")

    return {
        "core.build_instance": build_instance,
        "core.overlap_chains": setter("metrics.chains"),
        "tfs.tfs_sanitize": tfs_sanitize,
        "pfs.split_blocks": setter("pfs.blocks"),
        "pfs.fo_ssm": setter("pfs.trails"),
        "pfs.assemble": assemble,
        "pfs.pfs_sanitize": pfs_sanitize,
        "mcsr.candidate_ghosts": setter("mcsr.ghost_candidates"),
        "mcsr.build_mck": build_mck,
        "etfs.build_regex": setter("etfs.regex_size", lambda regex: regex.flattened_length()),
        "etfs.approx_regex_match": approx_regex_match,
        "etfs.etfs_sanitize": etfs_sanitize,
    }


def _hook(module, name: str, after, before=None) -> None:
    """Replace `module.name` with a wrapper that calls `before()` on entry and `after()` on return."""
    fn = getattr(module, name)

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        if before is not None:
            before()
        result = fn(*args, **kwargs)
        after()
        return result

    setattr(module, name, hooked)


def main() -> int:
    ap = argparse.ArgumentParser(description="run one seqsan command with boundary timestamps")
    ap.add_argument("--stamps", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args
    verify = cli_args[:1] == ["verify"]

    rec = None
    if opts.trace:
        import spans

        rec = spans.Recorder(run_id=opts.trace)
        span = rec.begin("run.import")
    from seqsan import cli
    from seqsan import metrics as mt

    # The entry point itself is not a span: the top-level spans are its steps.
    entry = cli.main
    open_spans: list[int] = []
    if rec:
        rec.end(span)
        counts: dict = {}
        problems: list = []
        spans.instrument(rec, {"metrics.verify": lambda cand, inst, level: "_" + level}, _counters(counts, problems))

    def close() -> None:
        while open_spans:
            rec.end(open_spans.pop())

    stamps = {}

    def parsed() -> None:
        stamps["parsed"] = time.monotonic()
        if rec and verify:
            open_spans.append(rec.begin("cli.read_candidate"))

    def staged() -> None:
        if rec:
            close()
            open_spans.append(rec.begin("cli.write"))

    _hook(cli, "parse_inputs", parsed)
    if verify:
        _hook(mt, "verify_levels", staged, before=close if rec else None)
    else:
        _hook(cli, "run_pipeline", staged)

    code = entry(cli_args)
    sys.stdout.flush()
    if rec:
        close()
        doc = {
            "start": T_START,
            "end": time.monotonic(),
            "spans": [vars(sp) for sp in rec.spans],
            "counts": counts,
            "problems": problems,
        }
        with open(opts.trace, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    with open(opts.stamps, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
