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
import sys
import time
from dataclasses import dataclass, field

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


class InputError(SanitizationError):
    """A file failed to parse; the message names the offending line/column."""


@dataclass
class RunConfig:
    pipeline: str
    k: int
    tau: int = 1
    theta: float | None = None  # None = auto: the separator count of the stage input
    rho: float | None = None
    mode: str = "char"
    cost_model: str = "uniform"
    in_path: str = ""
    patterns_path: str = ""
    positions: bool = False
    out_path: str | None = None
    report_path: str | None = None


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
    for col, ch in enumerate(text, start=1):
        if ch == SEPARATOR:
            raise InputError(f"{path}:1:{col}: reserved separator '#' in input")
        if ch.isspace():
            raise InputError(f"{path}:1:{col}: whitespace inside char-mode sequence")
    alphabet = Alphabet.from_text(text)
    return text, alphabet


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


def parse_inputs(string_path: str, patterns_path: str, cfg: RunConfig) -> SanitizationInstance:
    """Read and encode the sequence and the sensitive patterns or positions."""
    text, alphabet = _read_sequence(string_path, cfg.mode)
    patterns, positions = _read_patterns(patterns_path, cfg.mode, cfg.k, cfg.positions, alphabet)
    return build_instance(text, cfg.k, patterns=patterns, positions=positions, alphabet=alphabet)


def _load_cost_model(cfg: RunConfig, alphabet: Alphabet) -> CostModel:
    if cfg.cost_model == "uniform":
        return uniform_cost_model(tau=cfg.tau, theta=cfg.theta)
    try:
        spec = json.loads(open(cfg.cost_model, "r", encoding="utf-8").read())
    except OSError as exc:
        raise InputError(f"cannot read cost model {cfg.cost_model}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{cfg.cost_model}:{exc.lineno}:{exc.colno}: invalid JSON") from exc
    ghost_default = float(spec.get("ghost_default", 1.0))
    sub_default = spec.get("sub_default", 1)
    table: dict[str, float] = {}
    for key, value in spec.get("sub", {}).items():
        if not float(value).is_integer():
            raise InputError(f"{cfg.cost_model}: non-integer substitution weight for {key!r}")
        enc = "" if key in ("", "epsilon") else alphabet.encode([key])
        table[enc] = int(value)
    if not float(sub_default).is_integer():
        raise InputError(f"{cfg.cost_model}: non-integer default substitution weight")

    def sub(i: int, choice: str) -> float | None:
        return table.get(choice, int(sub_default))

    return CostModel(ghost=lambda pos, pat: ghost_default, sub=sub, theta=cfg.theta, tau=cfg.tau)


def run_pipeline(cfg: RunConfig, inst: SanitizationInstance) -> tuple[str, mt.MetricsReport]:
    """Execute the configured pipeline and assemble its metrics report."""
    report = mt.MetricsReport(pipeline=cfg.pipeline)
    report.lengths["w"] = inst.n
    timings = report.runtimes_ms
    out = inst.text
    implausible: ImplausibleSet | None = None

    def timed(name: str, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        timings[name] = (time.perf_counter() - start) * 1000.0
        return value

    if cfg.pipeline in ("tfs", "pfs", "tpm", "tm", "tmi", "etfs"):
        x = timed("tfs", tfs_sanitize, inst)
        report.lengths["x"] = len(x)
        out = x
    if cfg.pipeline in ("pfs", "tpm"):
        y = timed("pfs", pfs_sanitize, inst, x)
        report.lengths["y"] = len(y)
        out = y
    if cfg.pipeline in ("tpm", "tm", "tmi"):
        if cfg.pipeline == "tmi":
            if cfg.rho is None:
                raise InputError("pipeline tmi requires --rho")
            implausible = timed("implausible", implausible_set, inst.text, inst.k, cfg.rho)
        cm = _load_cost_model(cfg, inst.alphabet)
        result = timed("mcsr", mcsr_sanitize, out, inst, cm, implausible)
        report.lengths["z"] = len(result.text)
        out = result.text
        if cfg.rho is not None:
            if implausible is None:
                implausible = implausible_set(inst.text, inst.k, cfg.rho)
            report.implausible_pct = _implausible_pct(result.site_windows, implausible)
    if cfg.pipeline == "etfs":
        match = timed("etfs", etfs_sanitize, inst)
        report.lengths["xed"] = len(match.text)
        report.edit_distance = match.distance
        try:
            report.edre = mt.edre(inst.text, out, match.text)
        except mt.UndefinedWhenZero:
            report.notes.append("edre undefined: optimal distance is zero")
        out = match.text
    if cfg.pipeline == "ba":
        out = timed("ba", mt.ba_sanitize, inst)
        report.lengths["zba"] = len(out)

    report.lengths["output"] = len(out)
    report.distortion, lost, ghost = mt.frequency_changes(inst.text, out, inst.k, cfg.tau, inst.sensitive_patterns)
    report.lost = sorted(lost)
    report.ghost = sorted(ghost)
    return out, report


def _implausible_pct(site_windows, implausible: ImplausibleSet) -> float:
    if not site_windows:
        return 0.0
    bad = sum(1 for _i, win in site_windows if win in implausible)
    return 100.0 * bad / len(site_windows)


def _write_output(path: str | None, text: str, alphabet: Alphabet) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(alphabet.decode(text))
        fh.write("\n")


def _cmd_sanitize(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        pipeline=args.pipeline,
        k=args.k,
        tau=args.tau,
        theta=None if args.theta in (None, "auto") else float(args.theta),
        rho=args.rho,
        mode=args.mode,
        cost_model=args.cost_model,
        in_path=args.in_path,
        patterns_path=args.patterns,
        positions=args.positions,
        out_path=args.out,
        report_path=args.report,
    )
    if cfg.tau < 1:
        raise InputError(f"--tau must be >= 1, got {cfg.tau}")
    if cfg.theta is not None and not float(cfg.theta).is_integer():
        raise InputError("--theta must be an integer or 'auto'")
    if cfg.theta is not None and cfg.theta < 0:
        raise InputError(f"--theta must be non-negative, got {cfg.theta:g}")
    if cfg.pipeline == "tmi" and cfg.rho is None:
        raise InputError("pipeline tmi requires --rho")
    inst = parse_inputs(cfg.in_path, cfg.patterns_path, cfg)
    out, report = run_pipeline(cfg, inst)
    _write_output(cfg.out_path, out, inst.alphabet)
    if cfg.report_path:
        with open(cfg.report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_text(inst.alphabet))
    if cfg.out_path is None:
        print(inst.alphabet.decode(out))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    import random

    if args.mode == "char":
        import string as _string

        if args.sigma > 26:
            raise InputError("char mode supports sigma <= 26; use --mode token")
        letters = _string.ascii_lowercase[: args.sigma]
        rng = random.Random(args.seed)
        text = "".join(rng.choice(letters) for _ in range(args.n))
    else:
        rng = random.Random(args.seed)
        text = " ".join(str(rng.randrange(args.sigma)) for _ in range(args.n))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        pipeline="tfs",
        k=args.k,
        mode=args.mode,
        in_path=args.in_path,
        patterns_path=args.patterns,
        positions=args.positions,
    )
    inst = parse_inputs(cfg.in_path, cfg.patterns_path, cfg)
    raw = open(args.candidate, "r", encoding="utf-8").read()
    if cfg.mode == "token":
        tokens = raw.split()
        candidate = "".join(
            SEPARATOR if t == SEPARATOR else inst.alphabet.encode([t]) for t in tokens
        )
    else:
        candidate = raw.strip()
    levels = mt.VERIFY_LEVELS if args.level == "all" else tuple(args.level.split(","))
    ok = True
    for res in mt.verify_levels(candidate, inst, levels):
        status = "pass" if res.ok else f"FAIL ({res.detail})"
        print(f"{res.level}: {status}")
        ok = ok and res.ok
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_oracle(args: argparse.Namespace) -> int:
    budget = OracleBudget(max_n=args.max_n, max_sigma=args.max_sigma)
    if args.what in ("tfs", "etfs"):
        cfg = RunConfig(
            pipeline="tfs",
            k=args.k,
            mode=args.mode,
            in_path=args.in_path,
            patterns_path=args.patterns,
            positions=args.positions,
        )
        inst = parse_inputs(cfg.in_path, cfg.patterns_path, cfg)
        if args.what == "tfs":
            length, witness = oracle_min_tfs(inst, budget)
            print(f"minimal_length={length}")
            print(f"witness={inst.alphabet.decode(witness)}")
        else:
            dist, witness = oracle_min_etfs(inst, budget)
            print(f"minimal_distance={dist}")
            print(f"witness={inst.alphabet.decode(witness)}")
        return EXIT_OK
    if args.what == "mck":
        spec = json.loads(open(args.in_path, "r", encoding="utf-8").read())
        classes = tuple(
            tuple(MckElement(choice=el["choice"], cost=el["cost"], weight=el["weight"]) for el in cls)
            for cls in spec["classes"]
        )
        cost, picks = oracle_mck(MckInstance(classes=classes, capacity=spec["capacity"]), budget)
        print(f"minimal_cost={cost:g}")
        print("selection=" + ",".join(el.choice if el.choice else "<eps>" for el in picks))
        return EXIT_OK
    spec = json.loads(open(args.in_path, "r", encoding="utf-8").read())
    pairs = [RankPair(i, p, s) for i, (p, s) in enumerate(spec["pairs"])]
    best = oracle_fo_ssm(pairs, spec["lengths"], spec["ell"], budget)
    print(f"minimal_length={best}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqsan",
        description="Conceal sensitive length-k patterns in a sequence while preserving the rest.",
    )
    # The oracle subcommand is registered but kept out of the advertised list.
    sub = parser.add_subparsers(dest="command", required=True, metavar="{sanitize,gen,verify}")

    p_san = sub.add_parser("sanitize", help="run a sanitization pipeline")
    p_san.add_argument("--pipeline", choices=PIPELINES, required=True)
    p_san.add_argument("--k", type=int, required=True)
    p_san.add_argument("--tau", type=int, default=1)
    p_san.add_argument("--theta", default="auto", help="distortion capacity; integer or 'auto' (= separator count)")
    p_san.add_argument("--rho", type=float, default=None, help="implausibility threshold (negative; tmi only)")
    p_san.add_argument("--mode", choices=("char", "token"), default="char")
    p_san.add_argument("--cost-model", default="uniform", help="'uniform' or a JSON file")
    p_san.add_argument("--in", dest="in_path", required=True)
    p_san.add_argument("--patterns", required=True)
    p_san.add_argument("--positions", action="store_true", help="patterns file lists positions instead")
    p_san.add_argument("--out", default=None)
    p_san.add_argument("--report", default=None)
    p_san.set_defaults(func=_cmd_sanitize)

    p_gen = sub.add_parser("gen", help="generate a seeded uniform random sequence")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--sigma", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--mode", choices=("char", "token"), default="char")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_ver = sub.add_parser("verify", help="check a candidate output against an instance")
    p_ver.add_argument("--k", type=int, required=True)
    p_ver.add_argument("--mode", choices=("char", "token"), default="char")
    p_ver.add_argument("--in", dest="in_path", required=True)
    p_ver.add_argument("--patterns", required=True)
    p_ver.add_argument("--positions", action="store_true")
    p_ver.add_argument("--candidate", required=True)
    p_ver.add_argument("--level", default="all", help="comma-separated subset of C1,P1,Pi1,P2,P3,P4")
    p_ver.set_defaults(func=_cmd_verify)

    p_orc = sub.add_parser("oracle", help=argparse.SUPPRESS)
    p_orc.add_argument("--what", choices=("tfs", "etfs", "mck", "fossm"), required=True)
    p_orc.add_argument("--k", type=int, default=2)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SanitizationError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
