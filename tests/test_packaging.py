"""The runtime imports nothing outside the standard library, importing the command line loads the package's eight modules
and no stdlib module a clean run does not use, its warnings read `WARNING <message>`, and every exported name exists once.

A command-line process freezes what is alive when it exits, so the interpreter's last collections skip it; the library
alone freezes nothing, neither do runs of `main` inside a process, and a spawned run writes what an in-process one does."""

import ast
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqsan
from seqsan.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "seqsan").glob("*.py"))
# A fresh interpreter running the command line, as the installed `seqsan` program does: python -c RUN_CLI SRC <args>.
RUN_CLI = "import sys; sys.path.insert(0, sys.argv[1]); from seqsan.cli import main; sys.exit(main(sys.argv[2:]))"


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one file; relative imports stay in the package."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_only_stdlib():
    assert SOURCES
    for path in SOURCES:
        foreign = {m for m in imported_modules(path) if m != "seqsan" and m not in sys.stdlib_module_names}
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_cli_loads_only_the_package_modules_it_runs():
    code = "import sys, seqsan.cli; print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'seqsan'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split()
    stages = ["cli", "core", "etfs", "mcsr", "metrics", "pfs", "tfs"]
    assert loaded == ["seqsan"] + [f"seqsan.{name}" for name in stages]


def test_cli_import_loads_no_stdlib_module_a_clean_run_does_not_use():
    # -S keeps site hooks from preloading modules; what argparse and re load is the parser's own.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import argparse, re; before = set(sys.modules); "
        "import seqsan.cli; print(*sorted(set(sys.modules) - before))"
    )
    added = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True).stdout.split()
    assert not {"dataclasses", "inspect", "json", "logging", "typing", "random", "string"} & set(added), added


@pytest.mark.parametrize("module, frozen", [("seqsan.cli", True), ("seqsan", False)])
def test_only_the_cli_freezes_what_is_alive_at_exit(module, frozen):
    # atexit runs its callbacks last in, first out, so a probe registered before the import runs after the CLI's own.
    code = (
        "import atexit, gc, sys; sys.path.insert(0, sys.argv[1]); "
        "atexit.register(lambda: print(gc.get_freeze_count())); __import__(sys.argv[2])"
    )
    run = subprocess.run([sys.executable, "-c", code, str(SRC), module], capture_output=True, text=True, check=True)
    assert (int(run.stdout) > 0) is frozen, run.stdout


def test_cli_runs_freeze_nothing_while_the_process_lives(tmp_path):
    w = tmp_path / "w.txt"
    w.write_text("abcabcab\n", encoding="utf-8")
    (tmp_path / "p.txt").write_text("bca\n", encoding="utf-8")
    for _ in range(3):
        assert main(["sanitize", "--pipeline", "tpm", "--k", "3", "--in", str(w), "--patterns", str(tmp_path / "p.txt"),
                     "--out", str(tmp_path / "z.txt"), "--report", str(tmp_path / "r.txt")]) == 0
    assert gc.get_freeze_count() == 0


def test_spawned_cli_writes_what_an_in_process_run_writes(tmp_path):
    seq, pats = tmp_path / "w.txt", tmp_path / "p.txt"
    seq.write_text("abcbacbabcabacbcabcabbcacbabcacbabca\n", encoding="utf-8")
    pats.write_text("3\n17\n30\n", encoding="utf-8")

    def argv(name):
        return ["sanitize", "--pipeline", "tpm", "--k", "4", "--in", str(seq), "--patterns", str(pats), "--positions",
                "--out", str(tmp_path / f"{name}.txt"), "--report", str(tmp_path / f"{name}-report.txt")]

    assert main(argv("inside")) == 0
    spawned = subprocess.run([sys.executable, "-c", RUN_CLI, str(SRC), *argv("spawned")], capture_output=True)
    assert spawned.returncode == 0, spawned.stderr

    def report(name):
        lines = (tmp_path / f"{name}-report.txt").read_bytes().splitlines(keepends=True)
        return [line for line in lines if not line.startswith(b"runtime_ms_")]

    assert (tmp_path / "spawned.txt").read_bytes() == (tmp_path / "inside.txt").read_bytes()
    assert report("spawned") == report("inside")
    assert any(line.startswith(b"runtime_ms_mcsr=") for line in (tmp_path / "spawned-report.txt").read_bytes().splitlines())


def test_cli_warnings_read_level_then_message(tmp_path):
    # The first pattern has a letter absent from the sequence; the second never occurs.
    (tmp_path / "w.txt").write_text("abab\n", encoding="utf-8")
    patterns = tmp_path / "p.txt"
    patterns.write_text("aq\naa\n", encoding="utf-8")
    argv = ["sanitize", "--pipeline", "tfs", "--k", "2", "--in", str(tmp_path / "w.txt"), "--patterns", str(patterns)]
    run = subprocess.run([sys.executable, "-c", RUN_CLI, str(SRC), *argv, "--out", str(tmp_path / "x.txt")], capture_output=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr == (
        f"WARNING {patterns}:1: pattern uses letters absent from the sequence; it cannot occur\n"
        "WARNING sensitive pattern 'aa' does not occur in the input; nothing to conceal\n"
    ).encode()
    assert (tmp_path / "x.txt").read_text(encoding="utf-8") == "abab\n"


def test_every_exported_name_exists_once():
    missing = [name for name in seqsan.__all__ if not hasattr(seqsan, name)]
    assert not missing, f"seqsan.__all__ names {missing}, which the package does not define"
    assert len(set(seqsan.__all__)) == len(seqsan.__all__), sorted(n for n in set(seqsan.__all__) if seqsan.__all__.count(n) > 1)
