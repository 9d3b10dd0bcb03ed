"""Tests of the benchmark itself: generator, output checks, span arithmetic, records.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from inputs import WORKLOADS, Shape, digest, generate, write_inputs  # noqa: E402

SMALL = Shape("test-small", n=5_000, sigma=10, k=4, positions=20)


def _records():
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_generator_is_deterministic_per_seed():
    assert generate(SMALL, 3) == generate(SMALL, 3)
    assert generate(SMALL, 3) != generate(SMALL, 4)


def test_generated_files_match_recorded_digests(tmp_path):
    for name, rec in _records()["workloads"].items():
        for seed, want in rec["sha256"].items():
            paths = write_inputs(WORKLOADS[name].shape, int(seed), str(tmp_path / f"{name}-{seed}"))
            assert {os.path.basename(p): digest(p) for p in paths} == want, (name, seed)


def test_records_cover_every_workload_and_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    records = _records()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS) == sorted(records["workloads"])
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(records["per_layer"])
    fake = {"spans": [], "counts": {}, "start": 0.0, "end": 1.0}
    assert set(spans.layer_metrics(fake)) | {"trace.overhead"} == set(records["per_layer"])


@pytest.fixture(scope="module")
def small():
    from seqsan.core import build_instance
    from seqsan.etfs import etfs_sanitize
    from seqsan.mcsr import mcsr_sanitize, uniform_cost_model
    from seqsan.pfs import pfs_sanitize

    text, patterns = generate(SMALL, 1)
    inst = build_instance(text, SMALL.k, patterns=patterns)
    z = mcsr_sanitize(pfs_sanitize(inst), inst, uniform_cost_model(tau=2)).text
    src = checks.Source(text, patterns, SMALL.k)
    etfs_text, etfs_patterns = text[:60], patterns
    etfs_inst = build_instance(etfs_text, SMALL.k, patterns=etfs_patterns)
    match = etfs_sanitize(etfs_inst)
    return {
        "src": src,
        "tpm": z,
        "etfs_src": checks.Source(etfs_text, etfs_patterns, SMALL.k),
        "etfs": match,
        "pattern": next(p for p in patterns if p in text),
    }


def _drop_window(text: str, k: int) -> str:
    """Delete the last letter of the first block long enough to hold a window."""
    blocks = text.split(checks.SEPARATOR)
    i = next(i for i, b in enumerate(blocks) if len(b) >= k)
    blocks[i] = blocks[i][:-1]
    return checks.SEPARATOR.join(blocks)


def test_checks_pass_the_programs_outputs(small):
    assert checks.check_tpm(small["tpm"], {"lost_count": "0"}, small["src"], tau=2) == []
    m = small["etfs"]
    assert checks.check_etfs(m.text, {"edit_distance": str(m.distance)}, small["etfs_src"]) == []


def test_checks_fail_a_spliced_in_sensitive_window(small):
    pat = small["pattern"]
    assert checks.check_tpm(small["tpm"] + pat, {"lost_count": "0"}, small["src"], tau=2)
    m = small["etfs"]
    assert checks.check_etfs(pat + m.text, {"edit_distance": str(m.distance + SMALL.k)}, small["etfs_src"])


def test_checks_fail_a_dropped_nonsensitive_window(small):
    m = small["etfs"]
    dropped = _drop_window(m.text, SMALL.k)
    dist = checks.levenshtein(dropped, small["etfs_src"].text)
    assert checks.check_etfs(dropped, {"edit_distance": str(dist)}, small["etfs_src"])


def test_check_tpm_fails_a_lost_pattern(small):
    src = small["src"]
    frequent = max((p for p in src.counts if p not in src.patterns), key=src.counts.__getitem__)
    gutted = small["tpm"].replace(frequent, frequent[:-1])
    assert any("lost" in p for p in checks.check_tpm(gutted, {"lost_count": "0"}, src, tau=2))


def test_check_verify_wants_six_pass_lines():
    good = "".join(f"{lv}: pass\n" for lv in checks.VERIFY_LEVELS)
    assert checks.check_verify(good) == []
    assert checks.check_verify(good.replace("P2: pass", "P2: FAIL (x)"))


def test_levenshtein():
    assert checks.levenshtein("kitten", "sitting") == 3
    assert checks.levenshtein("", "abc") == 3
    assert checks.levenshtein("same", "same") == 0


def test_self_time_on_a_hand_made_tree():
    tree = [
        spans.Span("cli.run_pipeline", 0.0, 10.0, None, "r"),
        spans.Span("pfs.pfs_sanitize", 1.0, 6.0, 0, "r"),
        spans.Span("tfs.tfs_sanitize", 1.5, 2.5, 1, "r"),
        spans.Span("pfs.fo_ssm", 3.0, 5.0, 1, "r"),
        spans.Span("metrics.distortion", 7.0, 9.0, 0, "r"),
        spans.Span("core.kmer_counts", 7.0, 8.5, 4, "r"),
        spans.Span("cli.write", 10.0, 10.5, None, "r"),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5, 0.5])
    assert spans.coverage(tree, 0.0, 11.0) == pytest.approx(10.5 / 11.0)
    rows = spans.totals(tree)
    assert rows["pfs.pfs_sanitize"] == pytest.approx({"calls": 1, "total_s": 5.0, "self_s": 2.0})


def test_recorder_nests_calls():
    rec = spans.Recorder("r")
    inner = rec.wrap("b", lambda x: x + 1)
    outer = rec.wrap("a", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in rec.spans] == [("a", None), ("b", 0)]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "etfs-sparse", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _child(tmp_path, cli_args):
    """Run `child.py --trace` on `cli_args`; return the process, its stamps and its trace."""
    stamps, trace = tmp_path / "stamps.json", tmp_path / "trace.json"
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--stamps", str(stamps), "--trace", str(trace), "--"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(argv + cli_args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return proc, json.loads(stamps.read_text()), json.loads(trace.read_text())


def test_child_runs_the_cli_and_stamps_the_end_of_parsing(tmp_path):
    from seqsan import cli

    seq, pat = write_inputs(SMALL, 1, str(tmp_path))
    io = ["sanitize", "--pipeline", "pfs", "--k", str(SMALL.k), "--in", seq, "--patterns", pat]
    ref = [str(tmp_path / "ref.out"), str(tmp_path / "ref.report")]
    got = [str(tmp_path / "out.txt"), str(tmp_path / "report.txt")]
    assert cli.main(io + ["--out", ref[0], "--report", ref[1]]) == 0
    proc, stamps, doc = _child(tmp_path, io + ["--out", got[0], "--report", got[1]])
    assert proc.returncode == 0, proc.stderr
    with open(ref[0]) as a, open(got[0]) as b:
        assert a.read() == b.read()
    with open(ref[1]) as a, open(got[1]) as b:
        assert checks.strip_runtimes(a.read()) == checks.strip_runtimes(b.read())
    top = [sp for sp in doc["spans"] if sp["parent"] is None]
    assert [sp["name"] for sp in top] == ["run.import", "cli.build_parser", "cli.parse_inputs", "cli.run_pipeline", "cli.write"]
    assert top[2]["end"] <= stamps["parsed"] <= top[3]["start"]
    assert doc["problems"] == []


def test_child_passes_on_the_cli_exit_status(tmp_path):
    seq, pat = write_inputs(SMALL, 1, str(tmp_path))
    # The source itself still holds its sensitive patterns, so verification fails.
    args = ["verify", "--k", str(SMALL.k), "--in", seq, "--patterns", pat, "--candidate", seq]
    proc, stamps, doc = _child(tmp_path, args)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    top = [sp["name"] for sp in doc["spans"] if sp["parent"] is None]
    assert top == ["run.import", "cli.build_parser", "cli.parse_inputs", "cli.read_candidate",
                   "metrics.verify_levels", "cli.write"]
