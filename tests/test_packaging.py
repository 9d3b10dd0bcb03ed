"""The runtime imports nothing outside the standard library, importing the command line loads the package's eight modules
and no stdlib module a clean run does not use, its warnings read `WARNING <message>`, and every exported name exists once."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import seqsan

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "seqsan").glob("*.py"))


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
    # -S keeps site hooks from preloading modules; what argparse, json and re load is the parser's own.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import argparse, json, re; before = set(sys.modules); "
        "import seqsan.cli; print(*sorted(set(sys.modules) - before))"
    )
    added = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True).stdout.split()
    assert not {"dataclasses", "inspect", "logging", "typing", "random", "string"} & set(added), added


def test_cli_warnings_read_level_then_message(tmp_path):
    # The first pattern has a letter absent from the sequence; the second never occurs.
    (tmp_path / "w.txt").write_text("abab\n", encoding="utf-8")
    patterns = tmp_path / "p.txt"
    patterns.write_text("aq\naa\n", encoding="utf-8")
    code = "import sys; sys.path.insert(0, sys.argv[1]); from seqsan.cli import main; sys.exit(main(sys.argv[2:]))"
    argv = ["sanitize", "--pipeline", "tfs", "--k", "2", "--in", str(tmp_path / "w.txt"), "--patterns", str(patterns)]
    run = subprocess.run([sys.executable, "-c", code, str(SRC), *argv, "--out", str(tmp_path / "x.txt")], capture_output=True)
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
