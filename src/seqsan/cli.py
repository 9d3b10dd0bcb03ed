"""Command-line front end: pipelines, dataset I/O and verification.

Inputs are a sequence file and a sensitive-patterns file.  In char mode the
sequence is one line of letters and each pattern is one line; in token mode
tokens are whitespace-separated.  Reports are flat `key=value` lines so runs
diff cleanly; apart from the runtime_ms_* lines, identical configurations
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import re
import sys
import time
from collections import Counter

from . import core, metrics as mt
from .core import SEPARATOR, Alphabet, SanitizationInstance, _warn, build_instance, kmer_counts
from .etfs import etfs_sanitize
from .mcsr import CostModel, Infeasible, implausible_set, mcsr_sanitize, uniform_cost_model
from .pfs import pfs_sanitize
from .tfs import tfs_sanitize

# The interpreter's final collections walk every object still alive at exit; frozen, those are skipped.  By then
# every file the CLI wrote is closed, and the interpreter flushes stdout itself.  Frozen at exit, not at import,
# so that collection stays unchanged in any process that imports this module or runs `main`.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT_ERROR = 3

# Each pipeline's stages in run order, and the verify levels its output passes.
PIPELINES = {
    "tpm": (("tfs", "pfs", "mcsr"), ("C1", "P3", "P4")),
    "tm": (("tfs", "mcsr"), ("C1", "P3", "P4")),
    "tmi": (("tfs", "implausible", "mcsr"), ("C1", "P3", "P4")),
    "etfs": (("tfs", "etfs"), ("C1", "P1", "P2")),
    "ba": (("ba",), ("C1",)),
    "tfs": (("tfs",), mt.VERIFY_LEVELS),
    "pfs": (("tfs", "pfs"), ("C1", "Pi1", "P2", "P3", "P4")),
}


class InputError(ValueError):
    """A malformed command line, or a file that failed to parse; the message names the flag or line/column."""


class MetricsReport:
    """Flat bundle of utility measurements for one pipeline run; the stages fill it in."""

    def __init__(self, pipeline: str, lengths: dict[str, int] | None = None) -> None:
        self.pipeline = pipeline
        self.lengths: dict[str, int] = {} if lengths is None else lengths
        self.distortion: float | None = None
        self.lost: list[str] = []  # lost and ghost: sorted encoded patterns, written in that order
        self.ghost: list[str] = []
        self.edre: float | None = None
        self.edit_distance: int | None = None
        self.implausible_pct: float | None = None
        self.runtimes_ms: dict[str, float] = {}

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def to_text(self, alphabet: Alphabet) -> str:
        """Key=value lines; list-valued metrics repeat their key per entry."""
        lines = [f"pipeline={self.pipeline}"]
        for name, value in sorted(self.lengths.items()):
            lines.append(f"length_{name}={value}")
        if self.distortion is not None:
            lines.append(f"distortion={self.distortion:.0f}")  # an exact sum of squared integers
        lines.append(f"lost_count={len(self.lost)}")
        lines.extend(f"lost={alphabet.decode(p)}" for p in self.lost)
        lines.append(f"ghost_count={len(self.ghost)}")
        lines.extend(f"ghost={alphabet.decode(p)}" for p in self.ghost)
        if self.edit_distance is not None:
            lines.append(f"edit_distance={self.edit_distance}")
        if self.edre is not None:
            lines.append(f"edre={self.edre:g}")
        if self.implausible_pct is not None:
            lines.append(f"implausible_pct={self.implausible_pct:g}")
        for name, value in sorted(self.runtimes_ms.items()):
            lines.append(f"runtime_ms_{name}={value:.3f}")
        return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    """The text of an input file; one that cannot be read is an input error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte offset {exc.start}: not UTF-8 ({exc.reason})") from None


def _char_line(path: str, raw: str) -> tuple[int, str]:
    """The number and text of the one non-empty line of a char-mode file, or (1, '') if none; a second one names its line."""
    lines = [(lineno, ln) for lineno, ln in enumerate(raw.splitlines(), start=1) if ln]
    if len(lines) > 1:
        raise InputError(f"{path}:{lines[1][0]}:1: char-mode input must be a single line")
    return lines[0] if lines else (1, "")


def _refuse(path: str, lineno: int, text: str, forbidden: str) -> None:
    """Raise an input error naming the line and column of the first `forbidden` character of `text`, if it has one."""
    bad = re.search(forbidden, text)
    if bad:
        what = "reserved separator '#' in input" if bad.group() == SEPARATOR else "whitespace inside char-mode sequence"
        raise InputError(f"{path}:{lineno}:{bad.start() + 1}: {what}")


def _read_sequence(path: str, mode: str) -> tuple[str, Alphabet]:
    raw = _read(path)
    if mode == "token":
        tokens = raw.split()
        if not tokens:
            raise InputError(f"{path}:1:1: empty token sequence")
        if SEPARATOR in tokens:
            col = tokens.index(SEPARATOR) + 1
            raise InputError(f"{path}:1:{col}: reserved separator '#' in input")
        alphabet = Alphabet.from_tokens(tokens)
        return alphabet.encode(tokens), alphabet
    lineno, text = _char_line(path, raw)
    # The sequence's few distinct letters are checked, and the line searched only to name the place of a bad one.
    letters = set(text)
    if SEPARATOR in letters or any(map(str.isspace, letters)):
        _refuse(path, lineno, text, r"[#\s]")  # `\s` matches exactly what str.isspace() accepts
    if not text:
        raise InputError(f"{path}:1:1: empty sequence")
    return text, Alphabet.from_text(letters)


def _read_patterns(path: str, mode: str, k: int, positions: bool, alphabet: Alphabet, n: int):
    raw = _read(path)
    pats: list[str] = []
    poss: list[int] = []
    known = set(alphabet.tokens)
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if positions:
            try:
                pos = int(line)
            except ValueError:
                raise InputError(f"{path}:{lineno}:1: expected an integer position, got {line!r}") from None
            if k < n and not 0 <= pos <= n - k:  # with k >= n, build_instance names k instead
                raise InputError(f"{path}:{lineno}:1: position {pos} outside valid range 0..{n - k}")
            poss.append(pos)
            continue
        tokens = line.split() if mode == "token" else list(line)
        if len(tokens) != k:
            raise InputError(f"{path}:{lineno}:1: pattern has {len(tokens)} letters, expected k={k}")
        unknown = [t for t in tokens if t not in known]
        if unknown:
            _warn(__name__, "%s:%d: pattern uses letters absent from the sequence; it cannot occur", path, lineno)
            continue
        pats.append(alphabet.encode(tokens))
    return pats, poss


def parse_inputs(args: argparse.Namespace) -> SanitizationInstance:
    """Read and encode the sequence (`--in`) and the sensitive patterns or positions (`--patterns`)."""
    text, alphabet = _read_sequence(args.in_path, args.mode)
    patterns, positions = _read_patterns(args.patterns, args.mode, args.k, args.positions, alphabet, len(text))
    return build_instance(text, args.k, patterns=patterns, positions=positions, alphabet=alphabet)


def _weight(name: str, value) -> int:
    """A substitution weight from a cost model file; `solve_mck` needs non-negative integers, and θ, a float, bounds them."""
    if type(value) in (int, float) and 0 <= value <= sys.float_info.max and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} is not a non-negative integer in float range: {value!r}")


def _json_int(text: str) -> int | float:
    """A JSON integer; one with too many digits for `int` is far beyond float range, and reads as ±inf, as 1e999 does."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _load_cost_model(args: argparse.Namespace, alphabet: Alphabet) -> CostModel:
    """'uniform', or the JSON file `--cost-model` names; a malformed file is an input error naming it and the field."""
    if args.cost_model == "uniform":
        return uniform_cost_model(tau=args.tau, theta=args.theta)
    import json  # only a cost-model file needs it; a command without one starts faster

    path = args.cost_model
    try:
        spec = json.loads(_read(path), parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON") from exc
    if not isinstance(spec, dict):
        raise InputError(f"{path}: expected a JSON object at the top level, got {type(spec).__name__}")
    ghost_default = spec.get("ghost_default", 1.0)
    weights = spec.get("sub", {})
    # JSON true and false are bools, not numbers; NaN and Infinity would make every cost compare false, and
    # an integer beyond float range is as infinite as JSON's 1e999, which parses to inf.
    if type(ghost_default) not in (int, float) or not abs(ghost_default) <= sys.float_info.max:
        raise InputError(f"{path}: ghost_default is not a finite number in float range: {ghost_default!r}")
    if ghost_default < 0:  # a negative cost would make MCSR seek ghosts
        raise InputError(f"{path}: ghost_default is negative: {ghost_default!r}")
    if not isinstance(weights, dict):
        raise InputError(f"{path}: sub is not an object of substitution weights: {weights!r}")
    if "" in weights and "epsilon" in weights:
        raise InputError(f"{path}: sub weighs deletion twice, as '' and as 'epsilon'")
    try:
        sub_default = _weight("sub_default", spec.get("sub_default", 1))
        table = {
            "" if key in ("", "epsilon") else alphabet.encode([key]): _weight(f"sub[{key!r}]", value)
            for key, value in weights.items()
        }
    except ValueError as exc:  # a bad weight, or a key that is not a letter of the input
        raise InputError(f"{path}: {exc}") from None
    return CostModel(ghost=float(ghost_default), sub=table, sub_default=sub_default, theta=args.theta, tau=args.tau)


def run_pipeline(args: argparse.Namespace, inst: SanitizationInstance) -> tuple[str, MetricsReport]:
    """Run the stages of the pipeline the command line names, in order, and assemble its metrics report."""
    stages, _levels = PIPELINES[args.pipeline]
    report = MetricsReport(pipeline=args.pipeline, lengths={"w": inst.n})
    # Read before any stage runs, so that a malformed file fails fast.
    cm = _load_cost_model(args, inst.alphabet) if "mcsr" in stages else None

    def timed(name: str, fn, *fn_args):
        start = time.perf_counter()
        value = fn(*fn_args)
        report.runtimes_ms[name] = (time.perf_counter() - start) * 1000.0
        return value

    # A TFS, PFS or ETFS output keeps every non-sensitive count of the source (P2), the only counts measured.
    before = after = Counter()
    implausible = avoided = None
    for stage in stages:
        if stage == "tfs":
            out = timed("tfs", tfs_sanitize, inst)
            report.lengths["x"] = len(out)
        elif stage == "pfs":
            out = timed("pfs", pfs_sanitize, inst)
            report.lengths["y"] = len(out)
        elif stage == "implausible":  # the windows the "mcsr" rewrite after it avoids
            implausible = avoided = timed("implausible", implausible_set, inst, args.rho)
        elif stage == "mcsr":
            if implausible is None and args.rho is not None:  # with no "implausible" stage, only measured
                implausible = timed("implausible", implausible_set, inst, args.rho)
            result = timed("mcsr", mcsr_sanitize, out, inst, cm, avoided)
            report.lengths["z"] = len(result.text)
            # The rewrite's input has the source's non-sensitive counts, so only the patterns it added changed.
            out, (before, after) = result.text, result.changed_counts()
            if implausible is not None:
                report.implausible_pct = _implausible_pct(result.site_windows, implausible)
        elif stage == "etfs":
            match = timed("etfs", etfs_sanitize, inst)
            report.lengths["xed"] = len(match.text)
            report.edit_distance = match.distance
            # The cut-off starts from the TFS output's distance, the heuristic one that edre compares with the optimum.
            # An optimum of 0 means no window is sensitive, so the TFS output is the source and edre is 0.
            report.edre = mt.edre(match.shortest_distance, match.distance)
            out = match.text
        elif stage == "ba":
            out = timed("ba", mt.ba_sanitize, inst)
            report.lengths["zba"] = len(out)
            before, after = inst.counts, kmer_counts(out, inst.k)

    report.lengths["output"] = len(out)
    report.distortion, lost, ghost = mt.frequency_changes(before, after, args.tau, inst.sensitive_patterns)
    report.lost = sorted(lost)
    report.ghost = sorted(ghost)
    return out, report


def _implausible_pct(site_windows, implausible: frozenset[str]) -> float:
    if not site_windows:
        return 0.0
    bad = sum(1 for _i, win in site_windows if win in implausible)
    return 100.0 * bad / len(site_windows)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    # Checks across flags; the parser has checked each flag on its own.
    stages, _levels = PIPELINES[args.pipeline]
    if "implausible" in stages and args.rho is None:
        raise InputError(f"pipeline {args.pipeline} requires --rho")
    if "mcsr" in stages and args.rho is not None and args.k <= 2:
        raise InputError(f"--rho needs --k > 2 to score implausible patterns, got --k {args.k}")
    if "mcsr" not in stages:  # only the mcsr stage reads these flags; a pipeline without it refuses them
        at_default = {"--theta": args.theta is None, "--cost-model": args.cost_model == "uniform", "--rho": args.rho is None}
        given = [flag for flag, default in at_default.items() if not default]
        if given:
            raise InputError(f"pipeline {args.pipeline} has no mcsr stage to read {', '.join(given)}")
    inst = parse_inputs(args)
    out, report = run_pipeline(args, inst)
    if args.out is None:
        print(inst.alphabet.decode(out))
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(inst.alphabet.decode(out) + "\n")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_text(inst.alphabet))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    import random
    import string

    if args.mode == "char" and args.sigma > 26:
        raise InputError("char mode supports sigma <= 26; use --mode token")
    rng = random.Random(args.seed)
    if args.mode == "char":
        letters = string.ascii_lowercase[: args.sigma]
        text = "".join(rng.choice(letters) for _ in range(args.n))
    else:
        text = " ".join(str(rng.randrange(args.sigma)) for _ in range(args.n))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_inputs(args)
    raw = _read(args.candidate)
    if args.mode == "token":
        tokens = raw.split()
        letters = dict(zip(inst.alphabet.tokens, inst.alphabet.chars))
        letters[SEPARATOR] = SEPARATOR
        for col, tok in enumerate(tokens, start=1):
            if tok not in letters:
                raise InputError(f"{args.candidate}:1:{col}: token {tok!r} is not in the alphabet")
        candidate = "".join(map(letters.__getitem__, tokens))
    else:
        # A candidate may hold '#', and may be empty: TFS outputs '' when every window is sensitive.
        lineno, candidate = _char_line(args.candidate, raw)
        _refuse(args.candidate, lineno, candidate, r"\s")
    ok = True
    for res in mt.verify_levels(candidate, inst, args.level):
        status = "pass" if res.ok else f"FAIL ({res.detail})"
        print(f"{res.level}: {status}")
        ok = ok and res.ok
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 3), where argparse would exit 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def _checked(convert, ok, expected: str):
    """An argparse `type=` that converts the text with `convert` and accepts the value only if `ok(value)`."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return check


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_negative = _checked(float, lambda v: v < 0, "a negative number")
# None = auto: the capacity is the separator count of the stage input.
_theta = _checked(
    lambda t: None if t == "auto" else float(t),
    lambda v: v is None or (v.is_integer() and v >= 0),
    "a non-negative integer or 'auto'",
)
_levels = _checked(
    lambda t: mt.VERIFY_LEVELS if t == "all" else tuple(t.split(",")),
    lambda levels: set(levels) <= set(mt.VERIFY_LEVELS),
    f"'all' or a comma-separated subset of {','.join(mt.VERIFY_LEVELS)}",
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqsan",
        description="Conceal sensitive length-k patterns in a sequence while preserving the rest.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{sanitize,gen,verify}")

    p_san = sub.add_parser("sanitize", help="run a sanitization pipeline")
    p_san.add_argument("--pipeline", choices=PIPELINES, required=True)
    p_san.add_argument("--k", type=_positive_int, required=True)
    p_san.add_argument("--tau", type=_positive_int, default=1)
    p_san.add_argument("--theta", type=_theta, default="auto", help="distortion capacity; integer or 'auto' (= separator count)")
    p_san.add_argument("--rho", type=_negative, default=None,
                       help="implausibility threshold (negative); needed by tmi, reported on by tpm and tm (implausible_pct)")
    p_san.add_argument("--mode", choices=("char", "token"), default="char")
    p_san.add_argument("--cost-model", default="uniform", help="'uniform' or a JSON file")
    p_san.add_argument("--in", dest="in_path", required=True)
    p_san.add_argument("--patterns", required=True)
    p_san.add_argument("--positions", action="store_true", help="patterns file lists positions instead")
    p_san.add_argument("--out", default=None)
    p_san.add_argument("--report", default=None)
    p_san.set_defaults(func=_cmd_sanitize)

    p_gen = sub.add_parser("gen", help="generate a seeded uniform random sequence")
    p_gen.add_argument("--n", type=_positive_int, required=True)
    p_gen.add_argument("--sigma", type=_positive_int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--mode", choices=("char", "token"), default="char")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_ver = sub.add_parser("verify", help="check a candidate output against an instance")
    p_ver.add_argument("--k", type=_positive_int, required=True)
    p_ver.add_argument("--mode", choices=("char", "token"), default="char")
    p_ver.add_argument("--in", dest="in_path", required=True)
    p_ver.add_argument("--patterns", required=True)
    p_ver.add_argument("--positions", action="store_true")
    p_ver.add_argument("--candidate", required=True)
    p_ver.add_argument("--level", type=_levels, default="all", help="comma-separated subset of C1,P1,Pi1,P2,P3,P4")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    core.LOG_FORMAT = "%(levelname)s %(message)s"
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
