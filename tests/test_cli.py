import hashlib
import json
import random
import sys
from collections import Counter

import pytest

from seqsan import (
    Infeasible,
    cli,
    core,
    implausible_set,
    kmer_counts,
    mcsr_sanitize,
    metrics,
    pfs_sanitize,
    tfs_sanitize,
    uniform_cost_model,
)
from seqsan.metrics import frequency_changes
from seqsan.cli import EXIT_INFEASIBLE, EXIT_INPUT_ERROR, EXIT_OK, main
from conftest import random_instance


def write(path, content):
    path.write_text(content, encoding="utf-8")
    return str(path)


@pytest.fixture
def example1_files(tmp_path):
    w = write(tmp_path / "w.txt", "aabaaacbcbbbaabbacaab\n")
    p = write(tmp_path / "p.txt", "baaa\nbbaa\n")
    return w, p, tmp_path


def test_tfs_pipeline_writes_golden(example1_files):
    w, p, tmp = example1_files
    out = tmp / "x.txt"
    rep = tmp / "rep.txt"
    code = main(
        ["sanitize", "--pipeline", "tfs", "--k", "4", "--in", w, "--patterns", p,
         "--out", str(out), "--report", str(rep)]
    )
    assert code == EXIT_OK
    assert out.read_text().strip() == "aabaa#aaacbcbbba#baabbacaab"
    report = rep.read_text()
    assert "pipeline=tfs" in report
    assert "length_x=27" in report
    assert "distortion=0" in report


def test_tpm_pipeline_outputs_alphabet_only(example1_files):
    w, p, tmp = example1_files
    out = tmp / "z.txt"
    code = main(
        ["sanitize", "--pipeline", "tpm", "--k", "4", "--tau", "1", "--in", w,
         "--patterns", p, "--out", str(out)]
    )
    assert code == EXIT_OK
    z = out.read_text().strip()
    assert "#" not in z
    assert "baaa" not in z and "bbaa" not in z


def test_etfs_pipeline_reports_distance(tmp_path):
    w = write(tmp_path / "w.txt", "aaaaaab\n")
    p = write(tmp_path / "p.txt", "aaaa\naaab\n")
    out = tmp_path / "xed.txt"
    rep = tmp_path / "rep.txt"
    code = main(
        ["sanitize", "--pipeline", "etfs", "--k", "4", "--in", w, "--patterns", p,
         "--out", str(out), "--report", str(rep)]
    )
    assert code == EXIT_OK
    assert out.read_text().strip() == "aaa#aab"
    assert "edit_distance=1" in rep.read_text()


def test_etfs_with_nothing_sensitive_reports_zero_edre(tmp_path):
    # An optimum of 0 means no window is sensitive, so the TFS output is the source too.
    w = write(tmp_path / "w.txt", "bacabac\n")
    p = write(tmp_path / "p.txt", "")
    out = tmp_path / "xed.txt"
    rep = tmp_path / "rep.txt"
    code = main(
        ["sanitize", "--pipeline", "etfs", "--k", "3", "--in", w, "--patterns", p,
         "--out", str(out), "--report", str(rep)]
    )
    assert code == EXIT_OK
    assert out.read_text().strip() == "bacabac"
    lines = rep.read_text().splitlines()
    assert "edit_distance=0" in lines and "edre=0" in lines
    assert not any(line.startswith("note=") for line in lines)


@pytest.mark.parametrize("seed", [223, 244])  # k = 4 and k = 3; both feasible under tmi
def test_implausible_pct_counts_the_implausible_site_windows(tmp_path, seed):
    inst = random_instance(random.Random(seed), sigmas=(2, 3), ks=(3, 4))
    w = write(tmp_path / "w.txt", inst.text + "\n")
    p = write(tmp_path / "p.txt", "".join(pat + "\n" for pat in sorted(inst.sensitive_patterns)))
    # Counted directly: the share of MCSR's realized site windows that are implausible.
    site_windows = mcsr_sanitize(tfs_sanitize(inst), inst, uniform_cost_model(tau=1)).site_windows
    implausible = implausible_set(inst, -0.5)
    bad = sum(win in implausible for _i, win in site_windows)
    assert bad > 0
    # tm lets MCSR pick implausible windows and only measures them; tmi avoids them.
    for pipeline, pct in (("tm", 100.0 * bad / len(site_windows)), ("tmi", 0.0)):
        rep = tmp_path / f"{pipeline}.txt"
        argv = ["sanitize", "--pipeline", pipeline, "--k", str(inst.k), "--rho", "-0.5", "--in", w, "--patterns", p,
                "--out", str(tmp_path / f"{pipeline}-z.txt"), "--report", str(rep)]
        assert main(argv) == EXIT_OK
        assert f"implausible_pct={pct:g}" in rep.read_text().splitlines()


def test_infeasible_exit_code(tmp_path):
    w = write(tmp_path / "w.txt", "abab\n")
    p = write(tmp_path / "p.txt", "ba\n")
    code = main(["sanitize", "--pipeline", "tpm", "--k", "2", "--in", w, "--patterns", p])
    assert code == EXIT_INFEASIBLE


@pytest.mark.parametrize(
    "flag, value",
    [("--tau", "0"), ("--theta", "-1"), ("--k", "x"), ("--k", "0"), ("--pipeline", "nope"), ("--rho", "0.5")],
)
def test_bad_parameter_fails_before_reading_input(tmp_path, capsys, flag, value):
    missing = str(tmp_path / "absent.txt")
    code = main(["sanitize", "--pipeline", "tpm", "--k", "2", flag, value, "--in", missing, "--patterns", missing])
    assert code == EXIT_INPUT_ERROR
    # The usage line names every flag, so only the error line shows which one was refused.
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("error:") and flag in last


def test_separator_in_input_is_input_error(tmp_path):
    w = write(tmp_path / "w.txt", "ab#ab\n")
    p = write(tmp_path / "p.txt", "ab\n")
    code = main(["sanitize", "--pipeline", "tfs", "--k", "2", "--in", w, "--patterns", p])
    assert code == EXIT_INPUT_ERROR


def test_bad_pattern_length_is_input_error(tmp_path):
    w = write(tmp_path / "w.txt", "abab\n")
    p = write(tmp_path / "p.txt", "aba\n")
    code = main(["sanitize", "--pipeline", "tfs", "--k", "2", "--in", w, "--patterns", p])
    assert code == EXIT_INPUT_ERROR


@pytest.mark.parametrize(
    "k, patterns, flags, last",
    [
        ("9", "", [], "error: k must satisfy 0 < k < 8, got 9"),
        ("3", "0\n6\n", ["--positions"], "error: {p}:2:1: position 6 outside valid range 0..5"),
        ("3", "\n-1\n", ["--positions"], "error: {p}:2:1: position -1 outside valid range 0..5"),
        ("9", "0\n6\n", ["--positions"], "error: k must satisfy 0 < k < 8, got 9"),
    ],
    ids=["k of 9 on 8 letters", "position past n - k", "negative position", "k of 9 before its positions"],
)
def test_k_or_position_out_of_range_names_the_range(tmp_path, capsys, k, patterns, flags, last):
    w = write(tmp_path / "w.txt", "abcabcab\n")
    p = write(tmp_path / "p.txt", patterns)
    for command in (["sanitize", "--pipeline", "tfs"], ["verify", "--candidate", w]):
        assert main([*command, "--k", k, "--in", w, "--patterns", p, *flags]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.strip().splitlines()[-1] == last.format(p=p)


def test_token_mode_round_trip(tmp_path):
    w = write(tmp_path / "w.txt", "3 1 4 1 5 9 2 6\n")
    p = write(tmp_path / "p.txt", "1 5\n")
    out = tmp_path / "x.txt"
    code = main(
        ["sanitize", "--pipeline", "tfs", "--k", "2", "--mode", "token", "--in", w,
         "--patterns", p, "--out", str(out)]
    )
    assert code == EXIT_OK
    tokens = out.read_text().split()
    assert tokens == ["3", "1", "4", "1", "#", "5", "9", "2", "6"]


def test_token_report_lists_patterns_in_rank_order(tmp_path):
    # 'a' ranks before 'a\x01', but the decoded line 'a\x01 c' sorts before 'a a\x01', as '\x01' is below the space.
    w = write(tmp_path / "w.txt", "b a a a c a\x01\n")
    p = write(tmp_path / "p.txt", "3\n")
    report = tmp_path / "r.txt"
    code = main(["sanitize", "--pipeline", "tpm", "--k", "2", "--mode", "token", "--in", w, "--patterns", p, "--positions",
                 "--out", str(tmp_path / "z.txt"), "--report", str(report)])
    assert code == EXIT_OK
    ghosts = [line for line in report.read_text(encoding="utf-8").splitlines() if line.startswith("ghost=")]
    assert ghosts == ["ghost=a a\x01", "ghost=a\x01 c"]


def test_token_mode_absent_pattern_warning_names_the_tokens(tmp_path, caplog):
    w = write(tmp_path / "w.txt", "a b c a b c\n")
    p = write(tmp_path / "p.txt", "c c c\n")
    with caplog.at_level("WARNING", logger="seqsan.core"):
        assert main(["sanitize", "--pipeline", "tfs", "--k", "3", "--mode", "token", "--in", w, "--patterns", p]) == EXIT_OK
    assert [rec.getMessage() for rec in caplog.records] == [
        "sensitive pattern 'c c c' does not occur in the input; nothing to conceal"
    ]


def test_token_mode_verify_details_name_the_tokens(tmp_path, capsys):
    w = write(tmp_path / "w.txt", "a b c a b c\n")
    p = write(tmp_path / "p.txt", "a b\n")
    cand = write(tmp_path / "cand.txt", "c a b c\n")
    code = main(["verify", "--k", "2", "--mode", "token", "--in", w, "--patterns", p, "--candidate", cand, "--level", "C1,Pi1,P2"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "C1: FAIL (sensitive window 'a b' at block offset 1)",
        "Pi1: FAIL (chain 'b c a' needed 1x, found 0x)",
        "P2: FAIL (frequency of 'b c': expected 2, got 1)",
    ]


def test_token_alphabet_above_limit_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(core, "_MAX_TOKENS", 3)
    w = write(tmp_path / "w.txt", "3 1 4 1 5\n")
    p = write(tmp_path / "p.txt", "1 5\n")
    out = tmp_path / "x.txt"
    code = main(["sanitize", "--pipeline", "tfs", "--k", "2", "--mode", "token", "--in", w, "--patterns", p, "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.strip() == "error: token mode supports at most 3 distinct tokens, got 4"
    assert not out.exists()


def test_positions_flag(tmp_path):
    w = write(tmp_path / "w.txt", "abab\n")
    p = write(tmp_path / "p.txt", "1\n")
    out = tmp_path / "x.txt"
    code = main(
        ["sanitize", "--pipeline", "tfs", "--k", "2", "--in", w, "--patterns", p,
         "--positions", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert out.read_text().strip() == "ab#ab"


def test_determinism_byte_identical(example1_files):
    w, p, tmp = example1_files
    outs = []
    reps = []
    for tag in ("one", "two"):
        out = tmp / f"{tag}.txt"
        rep = tmp / f"{tag}.rep"
        main(
            ["sanitize", "--pipeline", "tpm", "--k", "4", "--tau", "1", "--in", w,
             "--patterns", p, "--out", str(out), "--report", str(rep)]
        )
        outs.append(out.read_bytes())
        reps.append(
            "\n".join(
                ln for ln in rep.read_text().splitlines() if not ln.startswith("runtime_ms_")
            )
        )
    assert outs[0] == outs[1]
    assert reps[0] == reps[1]


def test_gen_seeded_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["gen", "--n", "50", "--sigma", "4", "--seed", "9", "--out", str(a)]) == EXIT_OK
    assert main(["gen", "--n", "50", "--sigma", "4", "--seed", "9", "--out", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()
    text = a.read_text().strip()
    assert len(text) == 50
    assert set(text) <= set("abcd")


def test_gen_char_mode_above_26_letters_is_input_error(tmp_path, capsys):
    out = tmp_path / "w.txt"
    assert main(["gen", "--n", "10", "--sigma", "27", "--out", str(out)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.strip() == "error: char mode supports sigma <= 26; use --mode token"
    assert not out.exists()


def test_blank_pattern_line_is_read_as_absent(example1_files):
    w, p, tmp = example1_files
    blank = write(tmp / "p-blank.txt", "\nbaaa\n\n  \nbbaa\n")
    written = []
    for tag, patterns in (("plain", p), ("blank", blank)):
        out, rep = tmp / f"{tag}.txt", tmp / f"{tag}.rep"
        argv = ["sanitize", "--pipeline", "tpm", "--k", "4", "--in", w, "--patterns", patterns,
                "--out", str(out), "--report", str(rep)]
        assert main(argv) == EXIT_OK
        report = [ln for ln in rep.read_text().splitlines() if not ln.startswith("runtime_ms_")]
        written.append((out.read_text(), report))
    assert written[0] == written[1]


def test_gen_token_mode_large_sigma(tmp_path):
    out = tmp_path / "t.txt"
    assert main(["gen", "--n", "40", "--sigma", "100", "--seed", "1", "--mode", "token", "--out", str(out)]) == EXIT_OK
    tokens = out.read_text().split()
    assert len(tokens) == 40
    assert all(0 <= int(t) < 100 for t in tokens)


def test_verify_subcommand(example1_files, capsys):
    w, p, tmp = example1_files
    cand = write(tmp / "cand.txt", "aabaa#aaacbcbbba#baabbacaab\n")
    code = main(["verify", "--k", "4", "--in", w, "--patterns", p, "--candidate", cand])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"{lv}: pass" for lv in ("C1", "P1", "Pi1", "P2", "P3", "P4")]

    bad = write(tmp / "bad.txt", "aabaaacbcbbbaabbacaab\n")
    code = main(["verify", "--k", "4", "--in", w, "--patterns", p, "--candidate", bad])
    assert code == 1
    assert "C1: FAIL" in capsys.readouterr().out


def test_cost_model_file(tmp_path, example1_files):
    w, p, tmp = example1_files
    cm = write(tmp_path / "cm.json", json.dumps({"ghost_default": 1.0, "sub": {"c": 1, "epsilon": 1}, "sub_default": 1}))
    out = tmp_path / "z.txt"
    code = main(
        ["sanitize", "--pipeline", "tm", "--k", "4", "--tau", "1", "--cost-model", cm,
         "--in", w, "--patterns", p, "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "#" not in out.read_text().strip()

    bad = write(tmp_path / "bad.json", json.dumps({"sub": {"a": 0.5}}))
    code = main(
        ["sanitize", "--pipeline", "tm", "--k", "4", "--cost-model", bad, "--in", w, "--patterns", p]
    )
    assert code == EXIT_INPUT_ERROR


def test_fractional_ghost_cost_prices_each_choice_as_one_product(tmp_path):
    # A choice with six candidate windows at ghost cost 0.1 costs 0.1 * 6, on every Python.  A left-to-right
    # sum of six 0.1s rounds to 0.6 before Python 3.12 and to 0.1 * 6 after; here that flips two letters.
    w = tmp_path / "w.txt"
    assert main(["gen", "--n", "2000", "--sigma", "4", "--seed", "2", "--out", str(w)]) == EXIT_OK
    p = write(tmp_path / "p.txt", "".join(f"{i}\n" for i in sorted(random.Random(2).sample(range(2000 - 7 + 1), 25))))
    cm = write(tmp_path / "cm.json", json.dumps({"ghost_default": 0.1, "sub": {"a": 2, "b": 0, "epsilon": 1}, "sub_default": 1}))
    out = tmp_path / "z.txt"
    argv = ["sanitize", "--pipeline", "tm", "--k", "7", "--tau", "1", "--theta", "10", "--cost-model", cm,
            "--in", str(w), "--patterns", p, "--positions", "--out", str(out)]
    assert main(argv) == EXIT_OK
    z = out.read_text().strip()
    assert (len(z), z[275], z[1346]) == (2189, "c", "c")  # the sum gave "b" and "a" before Python 3.12
    assert hashlib.sha256(z.encode()).hexdigest() == "607910fc1effbd999e075cbae7aa00b000d3237988e414512e0a8efbacbe36e1"


@pytest.mark.parametrize(
    "spec, named",
    [
        ([1, 2], "expected a JSON object at the top level, got list"),
        ({"ghost_default": None}, "ghost_default is not a finite number"),
        ({"ghost_default": True}, "ghost_default is not a finite number"),
        ({"ghost_default": float("nan")}, "ghost_default is not a finite number"),
        ({"sub": [1]}, "sub is not an object"),
        ({"sub": {"c": None}}, "sub['c'] is not a non-negative integer"),
        ({"sub": {"c": "x"}}, "sub['c'] is not a non-negative integer"),
        ({"sub": {"c": -1}}, "sub['c'] is not a non-negative integer"),
        ({"sub_default": 0.5}, "sub_default is not a non-negative integer"),
        ({"sub": {"z": 1}}, "token 'z' is not in the alphabet"),
        ({"ghost_default": -5}, "ghost_default is negative: -5"),
        # Integers beyond any float, so beyond any capacity: theta is a float.
        ({"ghost_default": 10**400}, "ghost_default is not a finite number in float range: 1000"),
        ({"sub": {"a": 10**400}}, "sub['a'] is not a non-negative integer in float range: 1000"),
        ({"sub_default": 10**400}, "sub_default is not a non-negative integer in float range: 1000"),
        ({"sub": {"": 0, "epsilon": 5}}, "sub weighs deletion twice, as '' and as 'epsilon'"),
        # Integers too long for int(), given as file text: json.dumps cannot print them either.
        pytest.param('{"ghost_default": 1' + "0" * 5000 + "}", "ghost_default is not a finite number in float range: inf",
                     id="ghost_default of 5001 digits"),
        pytest.param('{"sub": {"a": 1' + "0" * 5000 + "}}", "sub['a'] is not a non-negative integer in float range: inf",
                     id="sub of 5001 digits"),
        pytest.param('{"sub_default": 1' + "0" * 5000 + "}", "sub_default is not a non-negative integer in float range: inf",
                     id="sub_default of 5001 digits"),
    ],
)
def test_malformed_cost_model_is_input_error_before_any_stage(tmp_path, example1_files, capsys, monkeypatch, spec, named):
    def no_stage_may_run(*args):
        raise AssertionError("a stage ran before the cost model was checked")

    monkeypatch.setattr(cli, "tfs_sanitize", no_stage_may_run)
    w, p, _tmp = example1_files
    cm = write(tmp_path / "cm.json", spec if isinstance(spec, str) else json.dumps(spec))
    for pipeline in ("tpm", "tm", "tmi"):
        argv = ["sanitize", "--pipeline", pipeline, "--k", "4", "--rho", "-1", "--cost-model", cm, "--in", w, "--patterns", p]
        assert main(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert "Traceback" not in err and last.startswith(f"error: {cm}: ") and named in last, (pipeline, last)


def test_tmi_requires_rho(example1_files):
    w, p, _tmp = example1_files
    code = main(["sanitize", "--pipeline", "tmi", "--k", "4", "--in", w, "--patterns", p])
    assert code == EXIT_INPUT_ERROR


ABSENT = "<absent>"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sanitize", "--pipeline", "tpm", "--k", "2", "--in", ABSENT], "--patterns"),
        ([], "{sanitize,gen,verify}"),
        (["verify", "--k", "2", "--in", ABSENT, "--patterns", ABSENT, "--candidate", ABSENT, "--level", "P9"], "--level"),
        (["gen", "--n", "5", "--sigma", "0", "--out", ABSENT], "--sigma"),
        (["oracle", "--what", "tfs", "--in", ABSENT], "oracle"),
        (["sanitize", "--pipeline", "tmi", "--k", "2", "--rho", "-1", "--in", ABSENT, "--patterns", ABSENT], "--k"),
    ],
    ids=["missing-patterns", "no-subcommand", "verify-level-P9", "gen-sigma-0", "oracle-is-unknown", "tmi-k-2"],
)
def test_bad_invocation_is_input_error_before_any_file_is_touched(tmp_path, capsys, argv, named):
    absent = tmp_path / "absent.txt"
    code = main([str(absent) if a == ABSENT else a for a in argv])
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("error:") and named in last
    assert not absent.exists()


@pytest.mark.parametrize("pipeline", ["tfs", "pfs", "etfs", "ba"])
@pytest.mark.parametrize(
    "flags, named",
    [
        (["--theta", "5"], "--theta"),
        (["--cost-model", ABSENT], "--cost-model"),
        (["--rho", "-1"], "--rho"),
        (["--rho", "-1", "--theta", "0", "--cost-model", ABSENT], "--theta, --cost-model, --rho"),
    ],
    ids=["theta", "cost-model", "rho", "all-three"],
)
def test_mcsr_flags_fail_fast_on_a_pipeline_without_mcsr(tmp_path, capsys, pipeline, flags, named):
    absent = str(tmp_path / "absent.txt")
    argv = ["sanitize", "--pipeline", pipeline, "--k", "3", *flags, "--in", absent, "--patterns", absent]
    assert main([absent if a == ABSENT else a for a in argv]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: pipeline {pipeline} has no mcsr stage to read {named}\n"


@pytest.mark.parametrize("pipeline", ["tfs", "pfs", "etfs", "ba"])
def test_mcsr_flag_defaults_are_accepted_by_every_pipeline(example1_files, pipeline):
    w, p, tmp = example1_files
    flags = ["--theta", "auto", "--cost-model", "uniform", "--in", w, "--patterns", p, "--out", str(tmp / f"{pipeline}.txt")]
    assert main(["sanitize", "--pipeline", pipeline, "--k", "4", *flags]) == EXIT_OK


@pytest.mark.parametrize("sub", [[], ["sanitize"], ["gen"], ["verify"]])
def test_help_exits_zero(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        main([*sub, "--help"])
    assert exc.value.code == 0
    assert "usage: seqsan" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, col, what",
    [("ab#ab", 3, "separator"), ("abc\tab", 4, "whitespace"), ("a\u2003b#", 2, "whitespace"), ("ab\x1fa", 3, "whitespace")],
)
def test_char_mode_names_first_bad_column(tmp_path, capsys, text, col, what):
    w = write(tmp_path / "w.txt", text + "\n")
    p = write(tmp_path / "p.txt", "ab\n")
    assert main(["sanitize", "--pipeline", "tfs", "--k", "2", "--in", w, "--patterns", p]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert f"w.txt:1:{col}: " in err and what in err


@pytest.mark.parametrize(
    "content, named",
    [
        ("aabaa#aaacbcbbba#baabbacaab\nb\n", "{cand}:2:1: char-mode input must be a single line"),
        ("aabaa#aaacbcbbba #baabbacaab\n", "{cand}:1:17: whitespace inside char-mode sequence"),
        (None, "cannot read {cand}: "),
    ],
    ids=["two-lines", "whitespace", "missing"],
)
def test_verify_checks_its_candidate_as_a_sequence(example1_files, capsys, content, named):
    w, p, tmp = example1_files
    cand = str(tmp / "cand.txt") if content is None else write(tmp / "cand.txt", content)
    assert main(["verify", "--k", "4", "--in", w, "--patterns", p, "--candidate", cand]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: " + named.format(cand=cand))


@pytest.mark.parametrize(
    "content, named",
    [
        ("\naabaaacbc bbba\n", "{path}:2:10: whitespace inside char-mode sequence"),
        ("aabaa\n\naaacbcbbba\n", "{path}:3:1: char-mode input must be a single line"),
    ],
    ids=["blank-line-first", "blank-line-between"],
)
@pytest.mark.parametrize("which", ["sequence", "candidate"])
def test_char_mode_names_the_real_line(example1_files, capsys, content, named, which):
    # Blank lines count: the place named is the one an editor shows.
    w, p, tmp = example1_files
    bad = write(tmp / "bad.txt", content)
    if which == "sequence":
        argv = ["sanitize", "--pipeline", "tfs", "--k", "4", "--in", bad, "--patterns", p]
    else:
        argv = ["verify", "--k", "4", "--in", w, "--patterns", p, "--candidate", bad]
    assert main(argv) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: " + named.format(path=bad) + "\n"


@pytest.mark.parametrize("which", ["sequence", "patterns", "cost-model", "candidate"])
def test_undecodable_file_names_itself_and_the_byte(example1_files, capsys, which):
    w, p, tmp = example1_files
    bad = str(tmp / "bad.txt")
    (tmp / "bad.txt").write_bytes(b"aab\xffa\n")
    argv = {
        "sequence": ["sanitize", "--pipeline", "tpm", "--k", "4", "--in", bad, "--patterns", p],
        "patterns": ["sanitize", "--pipeline", "tpm", "--k", "4", "--in", w, "--patterns", bad],
        "cost-model": ["sanitize", "--pipeline", "tpm", "--k", "4", "--cost-model", bad, "--in", w, "--patterns", p],
        "candidate": ["verify", "--k", "4", "--in", w, "--patterns", p, "--candidate", bad],
    }[which]
    assert main(argv) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {bad}: byte offset 3: not UTF-8 (invalid start byte)\n"


def test_token_candidate_with_a_foreign_token_names_its_place(tmp_path, capsys):
    w = write(tmp_path / "w.txt", "a a b a a\n")
    p = write(tmp_path / "p.txt", "a b\n")
    cand = write(tmp_path / "cand.txt", "a a # z a\n")
    assert main(["verify", "--k", "2", "--mode", "token", "--in", w, "--patterns", p, "--candidate", cand]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {cand}:1:4: token 'z' is not in the alphabet\n"


def test_verify_accepts_an_empty_candidate(tmp_path, capsys):
    # The TFS output is empty when every window is sensitive.
    w = write(tmp_path / "w.txt", "aaaaaab\n")
    p = write(tmp_path / "p.txt", "aaaa\naaab\n")
    cand = write(tmp_path / "cand.txt", "\n")
    assert main(["verify", "--k", "4", "--in", w, "--patterns", p, "--candidate", cand]) == EXIT_OK
    assert capsys.readouterr().out.split() == [word for lv in cli.mt.VERIFY_LEVELS for word in (f"{lv}:", "pass")]


def test_verify_level_subset(example1_files, capsys):
    w, p, tmp = example1_files
    cand = write(tmp / "cand.txt", "aabaa#aaacbcbbba#baabbacaab\n")
    code = main(["verify", "--k", "4", "--in", w, "--patterns", p, "--candidate", cand, "--level", "P4,C1"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.split() == ["P4:", "pass", "C1:", "pass"]


def _count_calls(monkeypatch, original=core.kmer_counts):
    """Record the arguments of every call of `original`, wherever a `seqsan` module refers to it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if (name == "seqsan" or name.startswith("seqsan.")) and getattr(mod, original.__name__, None) is original:
            monkeypatch.setattr(mod, original.__name__, counting)
    return calls


def _record_instances(monkeypatch):
    """Keep every instance the CLI parses."""
    built = []
    parse = cli.parse_inputs
    monkeypatch.setattr(cli, "parse_inputs", lambda args: built.append(parse(args)) or built[-1])
    return built


@pytest.mark.parametrize("pipeline", ["tpm", "tm", "tfs", "pfs", "etfs"])
def test_source_is_never_counted(example1_files, monkeypatch, pipeline):
    w, p, tmp = example1_files
    calls = _count_calls(monkeypatch)
    built = _record_instances(monkeypatch)
    argv = ["sanitize", "--pipeline", pipeline, "--k", "4", "--tau", "1", "--in", w, "--patterns", p,
            "--out", str(tmp / "z.txt"), "--report", str(tmp / "rep.txt")]
    assert main(argv) == EXIT_OK
    # A TFS, PFS or ETFS output keeps the source's non-sensitive counts; MCSR counts its input only on what it can expose.
    assert calls == []
    assert len(built) == 1 and "counts" not in built[0].__dict__


def test_infeasible_input_fails_before_any_count(tmp_path, monkeypatch):
    w = write(tmp_path / "w.txt", "abab\n")
    p = write(tmp_path / "p.txt", "ba\n")
    calls = _count_calls(monkeypatch)
    built = _record_instances(monkeypatch)
    assert main(["sanitize", "--pipeline", "tpm", "--k", "2", "--in", w, "--patterns", p]) == EXIT_INFEASIBLE
    assert calls == []
    assert len(built) == 1 and "counts" not in built[0].__dict__


def test_separator_pipeline_reports_equal_the_recount(tmp_path):
    # A report measures the MCSR stage on the patterns it added; a recount of the whole output must agree.
    cost = write(tmp_path / "cost.json", '{"sub": {"epsilon": 0}, "sub_default": 1}')
    parser = cli.build_parser()
    rng = random.Random(63)
    seen = Counter()
    for case in range(4_500):
        pipeline = ("tpm", "tm", "tmi")[case % 3]
        ks = (3, 4, 5) if pipeline == "tmi" else (1, 2, 3, 4, 5)
        inst = random_instance(rng, n_min=4, n_max=40, ks=ks, sensitive_rate=0.2)
        tau = rng.randint(1, 3)
        argv = ["sanitize", "--pipeline", pipeline, "--k", str(inst.k), "--tau", str(tau), "--in", "-", "--patterns", "-"]
        rho = None
        if pipeline == "tmi" or (inst.k > 2 and rng.random() < 0.3):
            rho = rng.choice((-0.3, -0.5, -1.0))
            argv += ["--rho", str(rho)]
        theta = None
        if rng.random() < 0.4:  # deletions are free, so a capacity below the separator count binds
            theta = rng.randint(0, 3)
            argv += ["--cost-model", cost, "--theta", str(theta)]
        try:
            out, report = cli.run_pipeline(parser.parse_args(argv), inst)
        except Infeasible:
            seen["infeasible"] += 1
            continue
        want = frequency_changes(inst.counts, kmer_counts(out, inst.k), tau, inst.sensitive_patterns)
        assert (report.distortion, set(report.lost), set(report.ghost)) == want, (pipeline, inst.text, inst.k, argv)
        seen["measured"] += 1
        y = pfs_sanitize(inst) if pipeline == "tpm" else tfs_sanitize(inst)
        seen[f"tau {tau}"] += "#" in y
        seen["theta binds"] += theta is not None and theta < y.count("#")
        seen["tmi avoids"] += pipeline == "tmi" and "#" in y and bool(implausible_set(inst, rho))
        seen["ghost"] += bool(report.ghost)
    assert seen["measured"] >= 3_000 and min(seen.values()) > 50, seen


def test_etfs_reports_equal_the_recount():
    # An ETFS output passes P2, so its report measures no count; a recount of the whole output must agree.
    parser = cli.build_parser()
    rng = random.Random(64)
    seen = Counter()
    for case in range(300):
        inst = random_instance(rng, n_min=4, n_max=40, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5), sensitive_rate=0.3)
        tau = rng.randint(1, 3)
        argv = ["sanitize", "--pipeline", "etfs", "--k", str(inst.k), "--tau", str(tau), "--in", "-", "--patterns", "-"]
        out, report = cli.run_pipeline(parser.parse_args(argv), inst)
        want = frequency_changes(inst.counts, kmer_counts(out, inst.k), tau, inst.sensitive_patterns)
        assert (report.distortion, set(report.lost), set(report.ghost)) == want, (inst.text, inst.k, tau)
        seen["edited"] += report.edit_distance > 0
        seen["separated"] += "#" in out
        seen["edited without '#'"] += report.edit_distance > 0 and "#" not in out
        seen[f"tau {tau}"] += 1
    assert min(seen.values()) > 10, seen


@pytest.mark.parametrize("pipeline", ["tmi", "tpm", "tm"])
def test_implausible_set_reuses_the_source_counts(example1_files, monkeypatch, pipeline):
    w, p, tmp = example1_files
    calls = _count_calls(monkeypatch)
    argv = ["sanitize", "--pipeline", pipeline, "--k", "4", "--tau", "1", "--rho", "-3", "--in", w, "--patterns", p,
            "--out", str(tmp / "z.txt"), "--report", str(tmp / "rep.txt")]
    assert main(argv) == EXIT_OK
    text = "aabaaacbcbbbaabbacaab"
    assert calls == [(text, 4), (text, 3), (text, 2)]
    # The set is built once, before the knapsack, and timed.
    assert sum(line.startswith("runtime_ms_implausible=") for line in (tmp / "rep.txt").read_text().splitlines()) == 1


def test_etfs_measures_the_tfs_output_once(example1_files, monkeypatch):
    w, p, tmp = example1_files
    calls = _count_calls(monkeypatch, metrics.edit_distance)
    argv = ["sanitize", "--pipeline", "etfs", "--k", "4", "--in", w, "--patterns", p,
            "--out", str(tmp / "z.txt"), "--report", str(tmp / "rep.txt")]
    assert main(argv) == EXIT_OK
    # The cut-off's starting bound is the distance edre needs for the TFS output.
    assert calls == [("aabaaacbcbbbaabbacaab", "aabaa#aaacbcbbba#baabbacaab")]
    assert "edre=" in (tmp / "rep.txt").read_text()


@pytest.mark.parametrize("pipeline", ["tpm", "tm", "tmi", "etfs", "ba"])
def test_run_pipeline_leaves_the_shared_counts_alone(example1, pipeline):
    args = cli.build_parser().parse_args(
        ["sanitize", "--pipeline", pipeline, "--k", "4", "--tau", "1", "--rho", "-1", "--in", "-", "--patterns", "-"]
    )
    before = dict(example1.counts)
    order = list(example1.counts)
    cli.run_pipeline(args, example1)
    assert dict(example1.counts) == before and list(example1.counts) == order


@pytest.mark.parametrize("pipeline", list(cli.PIPELINES))
def test_each_pipeline_passes_the_levels_the_table_promises(pipeline):
    # The table's levels are what a pipeline's output guarantees, so seeded runs must pass every one of them.
    stages, levels = cli.PIPELINES[pipeline]
    parser = cli.build_parser()
    rng = random.Random(32)
    seen = Counter()
    for _ in range(300):
        ks = (3, 4, 5) if "implausible" in stages else (1, 2, 3, 4, 5)
        inst = random_instance(rng, n_min=4, n_max=40, ks=ks, sensitive_rate=0.2)
        argv = ["sanitize", "--pipeline", pipeline, "--k", str(inst.k), "--tau", str(rng.randint(1, 3)),
                "--in", "-", "--patterns", "-"]
        if "implausible" in stages or ("mcsr" in stages and inst.k > 2 and rng.random() < 0.3):
            argv += ["--rho", str(rng.choice((-0.3, -0.5, -1.0)))]
            seen["rho"] += 1
        try:
            out, _report = cli.run_pipeline(parser.parse_args(argv), inst)
        except Infeasible:
            seen["infeasible"] += 1
            continue
        failed = [(res.level, res.detail) for res in metrics.verify_levels(out, inst, levels) if not res.ok]
        assert not failed, (inst.text, inst.k, argv, failed)
        seen["verified"] += 1
        seen["changed"] += out != inst.text
    assert seen["verified"] >= 150 and seen["changed"] >= 100, seen


_FUZZ_COST_MODELS = (
    '{"sub": {"a": 2, "epsilon": 0}, "sub_default": 1}',
    '{"ghost_default": 0.5, "sub_default": 1}',
    '{"sub": {"b": 0}, "sub_default": 3}',
)
_FUZZ_BAD_COST_MODELS = ("{", "[1]", '{"sub": {"q": 1}}', '{"ghost_default": -1}', '{"sub_default": 0.5}',
                         '{"sub": {"": 0, "epsilon": 1}}')
_FUZZ_BAD_VALUES = {
    "--k": ("0", "-1", "x", "2.5", "99"),
    "--tau": ("0", "-2", "y"),
    "--theta": ("-1", "x", "1.5"),
    "--rho": ("0.5", "0", "x"),
    "--pipeline": ("nope",),
    "--level": ("P9", "C1,P0"),
}


def _fuzz_argv(rng: random.Random, tmp_path, run: int) -> list[str]:
    """One random command line over small random files; at most one flag, file or candidate is malformed."""

    def file(name: str, content: str) -> str:
        return write(tmp_path / f"{run}-{name}", content)

    fault = rng.choice((None,) * 10 + (*_FUZZ_BAD_VALUES, "text", "pattern", "cost", "candidate"))
    mode = "token" if rng.random() < 0.25 else "char"
    k = rng.randint(1, 5)
    seq = [rng.choice(("a", "b", "c")[: rng.randint(1, 3)]) for _ in range(rng.randint(k + 1, 24))]
    sep = " " if mode == "token" else ""
    text = sep.join(seq)
    if fault == "text":  # a separator, whitespace in char mode, or nothing
        at = rng.randint(0, len(text))
        text = rng.choice((text[:at] + sep + "#" + sep + text[at:], text[:at] + "\t" + text[at:], ""))
    positions = rng.random() < 0.2
    if positions:
        lines = [str(rng.randint(0, len(seq) - k)) for _ in range(rng.randint(0, 3))]
        if fault == "pattern":
            lines.append(rng.choice(("x", "-1", str(len(seq)))))
    else:
        windows = sorted({tuple(seq[i : i + k]) for i in range(len(seq) - k + 1)})
        rate = rng.choice((0.1, 0.4, 0.8))  # dense patterns leave separators with few admissible choices
        lines = [sep.join(win) for win in windows if rng.random() < rate]
        if fault == "pattern":
            lines.append(sep.join("a" * (k + 1)))
        elif rng.random() < 0.1:  # a letter absent from the sequence: a warning, not an error
            lines.append(sep.join("q" * k))
    flags = ["--k", str(k), "--in", file("w.txt", text + "\n"), "--patterns", file("p.txt", "".join(ln + "\n" for ln in lines))]
    flags += ["--mode", mode] + (["--positions"] if positions else [])
    if rng.random() < 0.25:
        cand = sep.join(seq)
        if rng.random() < 0.7:  # mangled: a letter dropped, a separator added, or a foreign letter
            at = rng.randint(0, len(cand))
            cand = rng.choice((cand[:at] + cand[at + 1 :], cand[:at] + sep + "#" + sep + cand[at:], cand[:at] + "q" + cand[at:]))
        if fault == "candidate":  # a second line in char mode, a foreign token in token mode
            cand += "\n" + cand + "q"
        flags += ["--candidate", file("cand.txt", cand + "\n"), "--level", rng.choice(("all", "C1", "P1,Pi1", "P2,P3,P4"))]
        cmd = "verify"
    else:
        pipeline = rng.choice(("tpm", "tpm", "tm", "tm", "tmi", "etfs", "ba", "tfs", "pfs"))
        flags += ["--pipeline", pipeline, "--tau", rng.choice(("1", "1", "2", "3"))]
        if rng.random() < 0.6:
            # Unit weights at theta 0 admit no choice; at a theta below the separator count they bind the knapsack.
            flags += ["--theta", rng.choice(("0", "0", "1", "1", "2", "auto"))]
        if pipeline == "tmi" or (k > 2 and rng.random() < 0.2):
            flags += ["--rho", rng.choice(("-1", "-0.5"))]
        if fault == "cost":
            absent = str(tmp_path / f"{run}-absent.json")
            flags += ["--cost-model", rng.choice((file("cost.json", rng.choice(_FUZZ_BAD_COST_MODELS)), absent))]
        elif rng.random() < 0.3:
            flags += ["--cost-model", file("cost.json", rng.choice(_FUZZ_COST_MODELS))]
        if rng.random() < 0.3:
            flags += ["--report", str(tmp_path / f"{run}-report.txt")]
        flags += ["--out", str(tmp_path / f"{run}-out.txt")]
        cmd = "sanitize"
    if fault in _FUZZ_BAD_VALUES:
        # A repeated flag's last value counts; a flag of the other command is an unrecognized argument.
        flags += [fault, rng.choice(_FUZZ_BAD_VALUES[fault])]
    return [cmd, *flags]


def test_seeded_fuzz_of_main_exits_with_a_code_and_a_message(tmp_path, capsys):
    # Random small inputs and flags, many malformed: main returns one of its four codes, raises nothing,
    # and on exit 2 or 3 its last line on stderr says which.
    rng = random.Random(30)
    seen = Counter()
    for run in range(800):
        argv = _fuzz_argv(rng, tmp_path, run)
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure under test
            pytest.fail(f"{argv}: uncaught {exc!r}")
        err = capsys.readouterr().err
        assert code in (EXIT_OK, cli.EXIT_VERIFY_FAILED, EXIT_INFEASIBLE, EXIT_INPUT_ERROR), argv
        assert "Traceback" not in err, argv
        last = err.strip().splitlines()[-1] if err.strip() else ""
        if code == EXIT_INPUT_ERROR:
            assert last.startswith("error: "), (argv, err)
        elif code == EXIT_INFEASIBLE:
            assert last.startswith("infeasible: "), (argv, err)
        seen[code] += 1
    assert all(seen[code] >= 20 for code in range(4)), seen
