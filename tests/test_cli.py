"""Command line behaviour: exit codes, determinism, output files, and the
README's examples."""

import shlex
import sys
from pathlib import Path

import pytest

from eslc import corpus, harness
from eslc.cli import main
from eslc.harness import run_corpus_diff, run_signature_diff
from eslc.kaleid import Aborted, interp_kaleid
from eslc.loader import load_sources

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_kompile_writes_output(tmp_path, capsys):
    src = _write(tmp_path, "log2.esl", corpus.LOG2)
    out = tmp_path / "log2.k"
    code = main(["kompile", src, "--entry", "log2", "--backend", "kaleid",
                 "--base", "n<1+n,_<_", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "def log2" in text and "assert (x_2 < x_1)" in text


def test_kompile_stdout_and_determinism(tmp_path, capsys):
    src = _write(tmp_path, "ack.esl", corpus.ACK)
    outs = []
    for _ in range(2):
        assert main(["kompile", src, "--entry", "ack",
                     "--backend", "kaleid"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_unknown_entry_is_user_error(tmp_path, capsys):
    src = _write(tmp_path, "ack.esl", corpus.ACK)
    assert main(["kompile", src, "--entry", "nosuch",
                 "--backend", "kaleid"]) == 1


def test_syntax_error_is_user_error(tmp_path, capsys):
    src = _write(tmp_path, "bad.esl", "f : Nat -> Nat\nf x =\n")
    assert main(["kompile", src, "--entry", "f", "--backend", "kaleid"]) == 1


def test_no_assert_strips(tmp_path, capsys):
    src = _write(tmp_path, "ex.esl", corpus.EX7)
    assert main(["kompile", src, "--entry", "exlt", "--backend", "kaleid",
                 "--no-assert"]) == 0
    assert "assert" not in capsys.readouterr().out


def test_sac_kompile_from_prelude(tmp_path, capsys):
    assert main(["kompile", "--entry", "avgpool", "--backend", "sac"]) == 0
    out = capsys.readouterr().out
    assert "#define p(__x)" in out


def test_diff_reports_tsv_and_is_seed_deterministic(tmp_path, capsys):
    reports = []
    for _ in range(2):
        code = main(["diff", "--entry", "avgpool", "--backend", "sac",
                     "--samples", "20", "--seed", "7"])
        assert code == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    header, row = reports[0].strip().splitlines()
    assert header.split("\t") == ["function", "samples", "mismatches",
                                  "inconclusive", "max_err"]
    assert row.split("\t")[1:4] == ["20", "0", "0"]


def test_no_code_raises_the_recursion_limit(monkeypatch, capsys):
    limit, calls = sys.getrecursionlimit(), []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    assert interp_kaleid("def f (x_1):\n  x_1\n", "f", [1]) == 1
    row = run_corpus_diff(corpus.CORPUS["ack"], 5, 1)
    assert row.mismatches == 0 and not row.inconclusive
    assert main(["diff", "--entry", "ack", "--backend", "kaleid",
                 "--samples", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t")[2:4] == \
        ["0", "0"]
    assert calls == [] and sys.getrecursionlimit() == limit


def test_diff_adhoc_scalar_entry(tmp_path, capsys):
    src = _write(tmp_path, "sq.esl",
                 "sq : Nat -> Nat\nsq 0 = 0\nsq (suc x) = sq x + 2 * x + 1\n")
    code = main(["diff", src, "--entry", "sq", "--backend", "kaleid",
                 "--samples", "50"])
    assert code == 0


def test_diff_of_a_decision(tmp_path, capsys):
    src = _write(tmp_path, "dec.esl",
                 "w : (a b : Nat) -> Dec (a ≡ b)\nw a b = a ≟ b\n")
    assert main(["diff", src, "--entry", "w", "--backend", "kaleid",
                 "--samples", "50"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    assert row[:4] == ["w", "50", "0", "0"]


def test_diff_takes_no_kompile_flags(capsys):
    argv = ["diff", "--entry", "log2", "--backend", "kaleid", "--samples", "5"]
    for flag in (["--skip", "log2"], ["--trials", "0"], ["--dump-ir"]):
        with pytest.raises(SystemExit) as ex:
            main(argv + flag)
        assert ex.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # a corpus entry carries its own base list
    assert main(argv + ["--base", "_<_"]) == 1
    assert "own base list" in capsys.readouterr().err


def test_trials_flag_rejects_broken_rules(tmp_path, capsys):
    # five variables put the falsehood beyond the decider's counterexample
    # search, so TRUST defers it and only randomized checking catches it
    bad = """
{-# TRUST wrong #-}

wrong : (a b c d e : Nat) -> a + b + c + d + e ≡ a + b + c + d + e + 1
wrong a b c d e = prf

{-# REWRITE wrong #-}

f : Nat -> Nat
f x = x
"""
    src = _write(tmp_path, "bad.esl", bad)
    code = main(["kompile", src, "--entry", "f", "--backend", "kaleid",
                 "--trials", "50"])
    assert code == 1
    assert main(["kompile", src, "--entry", "f", "--backend", "kaleid",
                 "--trials", "0"]) == 0


def _readme_commands() -> list[list[str]]:
    """The eslc lines of the README's "Command line" block, as argv lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("eslc ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    commands = _readme_commands()
    assert len(commands) == 5
    for argv in commands:
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        assert main(argv) == 0, argv


def test_example_sources_are_the_corpus_texts():
    assert (ROOT / "examples/esl/log2.esl").read_text("utf-8") == corpus.LOG2
    assert (ROOT / "examples/esl/ack.esl").read_text("utf-8") == corpus.ACK


def test_diff_out_of_stack_is_inconclusive(capsys):
    # signature sampling draws ack 5 23 and ack 21 9 third and fourth with
    # seed 2, and ack 19 8 and ack 23 11 with seed 5, all too deep for the
    # source evaluator; the run reports them and goes on, and fails when it
    # compared no sample
    for samples, seed, code, row, deep in [
            ("4", "2", 0, "ack 4 0 2 0", ["5 23", "21 9"]),
            ("2", "5", 1, "ack 2 0 2 0", ["19 8", "23 11"])]:
        assert main(["diff", str(ROOT / "examples/esl/ack.esl"),
                     "--entry", "ack", "--backend", "kaleid",
                     "--samples", samples, "--seed", seed]) == code
        out, err = capsys.readouterr()
        assert out.splitlines()[1].split("\t") == row.split()
        assert err.splitlines() == [
            f"eslc: ack {args}: inconclusive, recursion depth"
            for args in deep] + ["eslc: ack: no sample compared"] * code


def test_target_out_of_stack_is_inconclusive(monkeypatch):
    elab = load_sources([("sq", "sq : Nat -> Nat\nsq x = x * x\n")])
    for reason, counts in [("recursion depth", (0, 3)),
                           ("division by zero", (3, 0))]:
        monkeypatch.setattr(harness, "interp_kaleid",
                            lambda *args: Aborted(reason))
        row = run_signature_diff(elab, "sq", 3, 0)
        assert (row.mismatches, len(row.inconclusive)) == counts, reason
