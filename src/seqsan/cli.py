"""Command-line front end: pipelines, dataset I/O, verification, and oracles.

Pipelines compose the library stages:

  tfs    shortest output preserving window order and frequency (may contain '#')
  pfs    shorter output preserving overlap chains and frequency (may contain '#')
  tpm    tfs -> pfs -> separator replacement (output over the alphabet only)
  tm     tfs -> separator replacement
  tmi    tfs -> separator replacement avoiding implausible patterns (needs --rho)
  etfs   minimal-edit-distance output (may contain '#')
  ba     greedy in-place baseline

Inputs are a sequence file and a sensitive-patterns file.  In char mode the
sequence is one line of letters and each pattern is one line; in token mode
tokens are whitespace-separated.  Reports are flat `key=value` lines so runs
diff cleanly; apart from the runtime_ms_* lines, identical configurations
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import re
import string
import sys
import time

from . import metrics as mt
from .core import SEPARATOR, Alphabet, SanitizationInstance, build_instance
from .errors import Infeasible, SanitizationError
from .etfs import etfs_sanitize
from .mcsr import CostModel, ImplausibleSet, MckElement, MckInstance, implausible_set, mcsr_sanitize, uniform_cost_model
from .oracles import OracleBudget, oracle_fo_ssm, oracle_mck, oracle_min_etfs, oracle_min_tfs
from .pfs import RankPair, pfs_sanitize
from .tfs import tfs_sanitize

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT_ERROR = 3

PIPELINES = ("tpm", "tm", "tmi", "etfs", "ba", "tfs", "pfs")
_MCSR_PIPELINES = ("tpm", "tm", "tmi")  # the pipelines that end in separator replacement


class InputError(SanitizationError):
    """A malformed command line, or a file that failed to parse; the message names the flag or line/column."""


def _read_sequence(path: str, mode: str) -> tuple[str, Alphabet]:
    try:
        raw = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if mode == "token":
        tokens = raw.split()
        if not tokens:
            raise InputError(f"{path}:1:1: empty token sequence")
        if SEPARATOR in tokens:
            col = tokens.index(SEPARATOR) + 1
            raise InputError(f"{path}:1:{col}: reserved separator '#' in input")
        alphabet = Alphabet.from_tokens(tokens)
        return alphabet.encode(tokens), alphabet
    lines = [ln for ln in raw.splitlines() if ln]
    if not lines:
        raise InputError(f"{path}:1:1: empty sequence")
    if len(lines) > 1:
        raise InputError(f"{path}:2:1: char-mode input must be a single line")
    text = lines[0]
    bad = re.search(r"[#\s]", text)  # SEPARATOR or whitespace; `\s` matches exactly what str.isspace() accepts
    if bad:
        what = "reserved separator '#' in input" if bad.group() == SEPARATOR else "whitespace inside char-mode sequence"
        raise InputError(f"{path}:1:{bad.start() + 1}: {what}")
    return text, Alphabet.from_text(text)


def _read_patterns(path: str, mode: str, k: int, positions: bool, alphabet: Alphabet):
    try:
        raw = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    pats: list[str] = []
    poss: list[int] = []
    known = set(alphabet.tokens)
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if positions:
            try:
                poss.append(int(line))
            except ValueError:
                raise InputError(f"{path}:{lineno}:1: expected an integer position, got {line!r}") from None
            continue
        tokens = line.split() if mode == "token" else list(line)
        if len(tokens) != k:
            raise InputError(f"{path}:{lineno}:1: pattern has {len(tokens)} letters, expected k={k}")
        unknown = [t for t in tokens if t not in known]
        if unknown:
            logger.warning("%s:%d: pattern uses letters absent from the sequence; it cannot occur", path, lineno)
            continue
        pats.append(alphabet.encode(tokens))
    return pats, poss


def parse_inputs(args: argparse.Namespace) -> SanitizationInstance:
    """Read and encode the sequence (`--in`) and the sensitive patterns or positions (`--patterns`)."""
    text, alphabet = _read_sequence(args.in_path, args.mode)
    patterns, positions = _read_patterns(args.patterns, args.mode, args.k, args.positions, alphabet)
    return build_instance(text, args.k, patterns=patterns, positions=positions, alphabet=alphabet)


def _load_cost_model(args: argparse.Namespace, alphabet: Alphabet) -> CostModel:
    if args.cost_model == "uniform":
        return uniform_cost_model(tau=args.tau, theta=args.theta)
    try:
        spec = json.loads(open(args.cost_model, "r", encoding="utf-8").read())
    except OSError as exc:
        raise InputError(f"cannot read cost model {args.cost_model}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.cost_model}:{exc.lineno}:{exc.colno}: invalid JSON") from exc
    ghost_default = float(spec.get("ghost_default", 1.0))
    sub_default = spec.get("sub_default", 1)
    table: dict[str, float] = {}
    for key, value in spec.get("sub", {}).items():
        if not float(value).is_integer():
            raise InputError(f"{args.cost_model}: non-integer substitution weight for {key!r}")
        enc = "" if key in ("", "epsilon") else alphabet.encode([key])
        table[enc] = int(value)
    if not float(sub_default).is_integer():
        raise InputError(f"{args.cost_model}: non-integer default substitution weight")

    def sub(i: int, choice: str) -> float | None:
        return table.get(choice, int(sub_default))

    return CostModel(ghost=lambda pos, pat: ghost_default, sub=sub, theta=args.theta, tau=args.tau)


def run_pipeline(args: argparse.Namespace, inst: SanitizationInstance) -> tuple[str, mt.MetricsReport]:
    """Execute the pipeline the command line names and assemble its metrics report."""
    report = mt.MetricsReport(pipeline=args.pipeline)
    report.lengths["w"] = inst.n
    timings = report.runtimes_ms
    out = inst.text
    out_counts = None  # kmer_counts(out, k), when a stage has it already
    implausible: ImplausibleSet | None = None

    def timed(name: str, fn, *fn_args):
        start = time.perf_counter()
        value = fn(*fn_args)
        timings[name] = (time.perf_counter() - start) * 1000.0
        return value

    if args.pipeline in ("tfs", "pfs", "tpm", "tm", "tmi", "etfs"):
        x = timed("tfs", tfs_sanitize, inst)
        report.lengths["x"] = len(x)
        out = x
    if args.pipeline in ("pfs", "tpm"):
        y = timed("pfs", pfs_sanitize, inst, x)
        report.lengths["y"] = len(y)
        out = y
    if args.pipeline in _MCSR_PIPELINES:
        if args.pipeline == "tmi":
            implausible = timed("implausible", implausible_set, inst.text, inst.k, args.rho)
        cm = _load_cost_model(args, inst.alphabet)
        result = timed("mcsr", mcsr_sanitize, out, inst, cm, implausible)
        report.lengths["z"] = len(result.text)
        out, out_counts = result.text, result.counts
        if args.rho is not None:
            if implausible is None:
                implausible = implausible_set(inst.text, inst.k, args.rho)
            report.implausible_pct = _implausible_pct(result.site_windows, implausible)
    if args.pipeline == "etfs":
        match = timed("etfs", etfs_sanitize, inst)
        report.lengths["xed"] = len(match.text)
        report.edit_distance = match.distance
        try:
            report.edre = mt.edre(inst.text, out, match.text, optimal_distance=match.distance)
        except mt.UndefinedWhenZero:
            report.notes.append("edre undefined: optimal distance is zero")
        out = match.text
    if args.pipeline == "ba":
        out = timed("ba", mt.ba_sanitize, inst)
        report.lengths["zba"] = len(out)

    report.lengths["output"] = len(out)
    report.distortion, lost, ghost = mt.frequency_changes(
        inst.text, out, inst.k, args.tau, inst.sensitive_patterns, output_counts=out_counts
    )
    report.lost = sorted(lost)
    report.ghost = sorted(ghost)
    return out, report


def _implausible_pct(site_windows, implausible: ImplausibleSet) -> float:
    if not site_windows:
        return 0.0
    bad = sum(1 for _i, win in site_windows if win in implausible)
    return 100.0 * bad / len(site_windows)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    # Checks across flags; the parser has checked each flag on its own.
    if args.pipeline == "tmi" and args.rho is None:
        raise InputError("pipeline tmi requires --rho")
    if args.pipeline in _MCSR_PIPELINES and args.rho is not None and args.k <= 2:
        raise InputError(f"--rho needs --k > 2 to score implausible patterns, got --k {args.k}")
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
    raw = open(args.candidate, "r", encoding="utf-8").read()
    if args.mode == "token":
        tokens = raw.split()
        candidate = "".join(SEPARATOR if t == SEPARATOR else inst.alphabet.encode([t]) for t in tokens)
    else:
        candidate = raw.strip()
    ok = True
    for res in mt.verify_levels(candidate, inst, args.level):
        status = "pass" if res.ok else f"FAIL ({res.detail})"
        print(f"{res.level}: {status}")
        ok = ok and res.ok
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _cmd_oracle(args: argparse.Namespace) -> int:
    budget = OracleBudget(max_n=args.max_n, max_sigma=args.max_sigma)
    if args.what in ("tfs", "etfs"):
        if args.patterns is None:
            raise InputError(f"oracle --what {args.what} requires --patterns")
        inst = parse_inputs(args)
        if args.what == "tfs":
            length, witness = oracle_min_tfs(inst, budget)
            print(f"minimal_length={length}")
            print(f"witness={inst.alphabet.decode(witness)}")
        else:
            dist, witness = oracle_min_etfs(inst, budget)
            print(f"minimal_distance={dist}")
            print(f"witness={inst.alphabet.decode(witness)}")
        return EXIT_OK
    spec = json.loads(open(args.in_path, "r", encoding="utf-8").read())
    if not isinstance(spec, dict):
        raise InputError(f"{args.in_path}: expected a JSON object at the top level, got {type(spec).__name__}")
    try:
        if args.what == "mck":
            if not isinstance(spec["classes"], list):
                raise InputError(f"{args.in_path}: classes is not a list of classes: {spec['classes']!r}")
            for i, cls in enumerate(spec["classes"]):
                if not (isinstance(cls, list) and all(isinstance(el, dict) for el in cls)):
                    raise InputError(f"{args.in_path}: classes[{i}] is not a list of {{choice, cost, weight}} objects: {cls!r}")
                for j, el in enumerate(cls):
                    if not (isinstance(el["choice"], str) and _is_number(el["cost"]) and _is_number(el["weight"])):
                        raise InputError(f"{args.in_path}: classes[{i}][{j}] needs a string choice and a numeric cost and weight: {el!r}")
            if not _is_number(spec["capacity"]):
                raise InputError(f"{args.in_path}: capacity is not a number: {spec['capacity']!r}")
            classes = tuple(
                tuple(MckElement(choice=el["choice"], cost=el["cost"], weight=el["weight"]) for el in cls)
                for cls in spec["classes"]
            )
            mck = MckInstance(classes=classes, capacity=spec["capacity"])
        else:
            if not isinstance(spec["pairs"], list):
                raise InputError(f"{args.in_path}: pairs is not a list of pairs: {spec['pairs']!r}")
            pairs = []
            for i, pair in enumerate(spec["pairs"]):
                if not (isinstance(pair, list) and len(pair) == 2 and all(_is_int(r) for r in pair)):
                    raise InputError(f"{args.in_path}: pairs[{i}] is not a [prefix rank, suffix rank] pair: {pair!r}")
                pairs.append(RankPair(i, *pair))
            lengths, ell = spec["lengths"], spec["ell"]
            if not (isinstance(lengths, list) and all(_is_int(n) for n in lengths)):
                raise InputError(f"{args.in_path}: lengths is not a list of integers: {lengths!r}")
            if not _is_int(ell):
                raise InputError(f"{args.in_path}: ell is not an integer: {ell!r}")
    except KeyError as exc:
        raise InputError(f"{args.in_path}: missing key {exc}") from None
    if args.what == "mck":
        cost, picks = oracle_mck(mck, budget)
        print(f"minimal_cost={cost:g}")
        print("selection=" + ",".join(el.choice if el.choice else "<eps>" for el in picks))
    else:
        print(f"minimal_length={oracle_fo_ssm(pairs, lengths, ell, budget)}")
    return EXIT_OK


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
    # The oracle subcommand is registered but kept out of the advertised list.
    sub = parser.add_subparsers(dest="command", required=True, metavar="{sanitize,gen,verify}")

    p_san = sub.add_parser("sanitize", help="run a sanitization pipeline")
    p_san.add_argument("--pipeline", choices=PIPELINES, required=True)
    p_san.add_argument("--k", type=_positive_int, required=True)
    p_san.add_argument("--tau", type=_positive_int, default=1)
    p_san.add_argument("--theta", type=_theta, default="auto", help="distortion capacity; integer or 'auto' (= separator count)")
    p_san.add_argument("--rho", type=_negative, default=None, help="implausibility threshold (negative; tmi only)")
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

    p_orc = sub.add_parser("oracle", help=argparse.SUPPRESS)
    p_orc.add_argument("--what", choices=("tfs", "etfs", "mck", "fossm"), required=True)
    p_orc.add_argument("--k", type=_positive_int, default=2)
    p_orc.add_argument("--mode", choices=("char", "token"), default="char")
    p_orc.add_argument("--in", dest="in_path", required=True)
    p_orc.add_argument("--patterns", default=None)
    p_orc.add_argument("--positions", action="store_true")
    p_orc.add_argument("--max-n", type=int, default=10)
    p_orc.add_argument("--max-sigma", type=int, default=2)
    p_orc.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SanitizationError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
