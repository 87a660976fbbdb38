"""Command line behaviour: exit codes, determinism, output files, and the
README's examples."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eslc import cli, corpus, harness
from eslc.cli import main
from eslc.harness import run_corpus_diff, run_signature_diff
from eslc.ir import EslError
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


def _loaded(code: str) -> set[str]:
    """The numpy and eslc modules that a fresh interpreter holds after it
    runs `code`."""
    src = str(Path(main.__code__.co_filename).parents[1])
    script = (f"import sys\nsys.path.insert(0, {src!r})\n{code}\n"
              "print(*(m for m in sys.modules if m == 'numpy' or m.startswith('eslc')))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    assert not _loaded("import eslc.cli") & {
        "eslc.sac", "eslc.sacinterp", "eslc.kaleid", "eslc.pycode",
        "eslc.evaluate", "eslc.harness", "eslc.corpus", "numpy"}
    log2 = str(ROOT / "examples/esl/log2.esl")
    for argv, unused in [
            ([log2, "--entry", "log2", "--backend", "kaleid", "--base", "n<1+n,_<_"],
             {"numpy", "eslc.sac", "eslc.harness", "eslc.corpus", "eslc.evaluate"}),
            (["--entry", "avgpool", "--backend", "sac"],
             {"eslc.kaleid", "eslc.sacinterp", "eslc.harness", "eslc.corpus",
              "eslc.evaluate"})]:
        argv = ["kompile", *argv, "--out", str(tmp_path / "out")]
        loaded = _loaded(f"from eslc.cli import main\nassert main({argv!r}) == 0")
        assert "eslc.extract" in loaded and not loaded & unused, argv


def test_extraction_and_evaluation_import_without_the_decider():
    # a primitive's obligation is a proposition, which only the elaborator
    # hands to the decider
    assert "eslc.shapes" not in _loaded("import eslc.extract, eslc.evaluate")


# each obligated primitive: its obligation's description, a definition
# whose obligation is false on literals, and one the decider cannot settle
# (`sq k` is opaque to it)
OBLIGATIONS = [
    ("_/_", "nonzero divisor in _/_",
     "w : Nat\nw = 7 / 0\n",
     "w : Nat -> Nat\nw k = 7 / sq k\n"),
    ("_%_", "nonzero divisor in _%_",
     "w : Nat\nw = 7 % 0\n",
     "w : Nat -> Nat\nw k = 7 % sq k\n"),
    ("vidx", "vector index in bounds",
     "w : Vec Nat 2 -> Nat\nw v = vidx 2 v\n",
     "w : Nat -> Vec Nat 2 -> Nat\nw k v = vidx (sq k) v\n"),
    ("vtake", "vector prefix within the length",
     "w : Vec Nat 2 -> Vec Nat 3\nw v = vtake 3 v\n",
     "w : (k : Nat) -> Vec Nat 2 -> Vec Nat (sq k)\nw k v = vtake (sq k) v\n"),
    ("reshape", "reshape preserves the element count",
     "w : Ar Nat 1 (4 ∷ []) -> Ar Nat 1 (5 ∷ [])\nw a = reshape (5 ∷ []) a\n",
     "w : (k : Nat) -> Ar Nat 1 (4 ∷ []) -> Ar Nat 1 (sq k ∷ [])\n"
     "w k a = reshape (sq k ∷ []) a\n"),
    ("ixc", "index component within the rank",
     "w : Ar Nat 2 (3 ∷ 4 ∷ []) -> Ar Nat 2 (3 ∷ 4 ∷ [])\n"
     "w a = imap (\\iv -> ixc 2 iv)\n",
     "w : Nat -> Ar Nat 2 (3 ∷ 4 ∷ []) -> Ar Nat 2 (3 ∷ 4 ∷ [])\n"
     "w k a = imap (\\iv -> ixc (sq k) iv)\n"),
]


@pytest.mark.parametrize("prim, what, false, open_", OBLIGATIONS,
                         ids=[o[0] for o in OBLIGATIONS])
def test_each_primitive_owes_its_obligation(tmp_path, capsys, prim, what, false, open_):
    # the counterexample search reads no product of a vector, so a
    # reshape's false count is left open, not refuted
    why = f"cannot discharge obligation {what};" if prim == "reshape" else \
        f"obligation {what} is false\n"
    src = _write(tmp_path, "false.esl", false)
    for backend in ("kaleid", "sac"):
        assert main(["kompile", src, "--entry", "w", "--backend", backend]) == 1
        assert capsys.readouterr().err.startswith(f"eslc: {why}")
    sq = "sq : Nat -> Nat\nsq k = k * k\n"
    with pytest.raises(EslError, match=f"cannot discharge obligation {re.escape(what)};"):
        load_sources([("open.esl", sq + open_)])
    e = load_sources([("open.esl", sq + "{-# TRUST w #-}\n" + open_)])
    assert e.def_meta["w"].trusted_obligations == [what]


def test_a_sac_kompile_runs_without_numpy(tmp_path):
    # numpy is the SaC interpreter's, which only `eslc diff` runs
    argv = ["kompile", "--entry", "logistic", "--backend", "sac",
            "--out", str(tmp_path / "out")]
    loaded = _loaded(f"from eslc.cli import main\nassert main({argv!r}) == 0")
    assert "eslc.sac" in loaded and "numpy" not in loaded


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
                                  "inconclusive"]
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


SPIN = "spin : Nat -> Nat\nspin 0 = 0\nspin (suc n) = spin (n + 1)\n"


def test_diff_with_no_sample_compared_fails(tmp_path, capsys):
    # README: a sample on which either side runs out of stack is named and
    # counted as inconclusive; a run in which no sample compared fails
    src = _write(tmp_path, "spin.esl", SPIN)
    assert main(["diff", src, "--entry", "spin", "--backend", "kaleid",
                 "--samples", "3"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split("\t") == ["spin", "3", "0", "3"]
    lines = err.splitlines()
    assert len(lines) == 4 and lines[-1] == "eslc: spin: no sample compared"
    assert all(re.fullmatch(r"eslc: spin \d+: inconclusive, recursion depth", x)
               for x in lines[:3]), lines
    assert main(["diff", src, "--entry", "spin", "--backend", "kaleid",
                 "--samples", "0"]) == 1
    assert capsys.readouterr().err == "eslc: spin: no sample compared\n"


def test_dump_ir_prints_each_clause_body_and_leaves_stdout(tmp_path, capsys):
    src = _write(tmp_path, "ex.esl", corpus.EX7 + SPIN)
    for entry, bodies in [("spin", 2), ("ex11", 0)]:
        argv = ["kompile", src, "--entry", entry, "--backend", "kaleid"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--dump-ir"]) == 0
        out, err = capsys.readouterr()
        assert out == plain.out and plain.err == ""
        assert len(err.splitlines()) == bodies
        assert all(x.startswith("(") for x in err.splitlines())


def test_diff_samples_fin_and_refuses_what_it_cannot_sample(tmp_path, capsys):
    src = _write(tmp_path, "fin.esl", corpus.EX7 + """
g : (a b : Nat) -> a ≡ b -> Nat
g a b p = a
""")
    argv = ["diff", src, "--backend", "kaleid", "--samples", "20", "--entry"]
    # seed 1 draws n = 0 three times; Fin 0 is empty, so it draws again
    assert main(argv + ["exfin", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t") == \
        ["exfin", "20", "0", "0"]
    # the messages end in core IR, which may change; their starts do not
    assert main(argv + ["g"]) == 1
    assert capsys.readouterr().err.startswith(
        "eslc: cannot sample an argument of type ")
    assert main(argv + ["ex11"]) == 1
    assert capsys.readouterr().err == \
        "eslc: could not satisfy the preconditions of ex11\n"


RULES = """
hd : List Nat -> Nat
hd [] = 0
hd (x ∷ xs) = x

vfst : Vec Nat 2 -> Nat
vfst (x ∷ xs) = x

{-# TRUST hd-cons #-}
{-# TRUST fsub0 #-}
{-# TRUST fsub00 #-}
{-# TRUST vfst-0 #-}
{-# TRUST sub-0 #-}
{-# TRUST sub-self #-}

hd-cons : (x : Nat) -> (xs : List Nat) -> hd (x ∷ xs) ≡ x
hd-cons x xs = prf

vfst-0 : (v : Vec Nat 2) -> vfst v + 0 ≡ vfst v
vfst-0 v = prf

fsub0 : (x : Float) -> x -f 0.0 ≡ x
fsub0 x = prf

fsub00 : 0.0 -f 0.0 ≡ 0.0
fsub00 = prf

sub-0 : (n : Nat) -> n - 0 ≡ n
sub-0 n = prf

sub-self : (n : Nat) -> n - n ≡ 0
sub-self n = prf

{-# REWRITE hd-cons #-}
{-# REWRITE vfst-0 #-}
{-# REWRITE fsub0 #-}
{-# REWRITE fsub00 #-}
{-# REWRITE sub-self #-}
{-# REWRITE sub-0 #-}

f : Nat -> Nat
f x = x - 0
"""


def test_kompile_checks_rules_on_lists_vectors_and_floats(tmp_path, capsys):
    # a rule over a function (map-comp) cannot be sampled and is skipped;
    # overlapping left-hand sides warn
    from eslc.normalize import ConfluenceWarning
    src = _write(tmp_path, "rules.esl", corpus.REWRITES + RULES)
    with pytest.warns(ConfluenceWarning) as caught:
        assert main(["kompile", src, "--entry", "f", "--backend", "kaleid"]) == 0
    assert sorted((w.message.rule, w.message.clashes_with) for w in caught) == \
        [("fsub00", "fsub0"), ("sub-0", "sub-self"), ("vfst-0", "plus-0")]
    assert "let __ret = x\n" in capsys.readouterr().out


def test_fixity_declarations_extend_the_operators(tmp_path, capsys):
    src = _write(tmp_path, "plus.esl", """infixl 6 _plus_

_plus_ : Nat -> Nat -> Nat
_plus_ x y = x + y

f : Nat -> Nat
f x = x plus 2 plus 3
""")
    assert main(["kompile", src, "--entry", "f", "--backend", "kaleid"]) == 0
    assert "x + 2 + 3" in capsys.readouterr().out
    assert main(["diff", src, "--entry", "f", "--backend", "kaleid",
                 "--samples", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t") == \
        ["f", "20", "0", "0"]


def test_diff_of_a_decision(tmp_path, capsys):
    src = _write(tmp_path, "dec.esl",
                 "w : (a b : Nat) -> Dec (a ≡ b)\nw a b = a ≟ b\n")
    assert main(["diff", src, "--entry", "w", "--backend", "kaleid",
                 "--samples", "50"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    assert row[:4] == ["w", "50", "0", "0"]


POINT_FREE = """f : Nat -> Nat
f = suc

pl : Nat -> Nat -> Nat
pl = _+_

m : Nat -> Nat -> Nat
m x = _*_ x
"""


def test_point_free_definitions_agree_three_ways(tmp_path, capsys):
    # a bare suc is \x -> suc x, and a clause takes the binders it has no
    # pattern for as variables, so f is f x = suc x, pl is pl x y = x + y
    # and m is m x y = x * y
    from eslc.evaluate import call
    from eslc.extract import kompile
    from eslc.sac import SacBackend
    from eslc.sacinterp import interp_sac
    src = _write(tmp_path, "pf.esl", POINT_FREE)
    for entry in ("f", "pl", "m"):
        for backend in ("kaleid", "sac"):
            assert main(["kompile", src, "--entry", entry,
                         "--backend", backend]) == 0
        capsys.readouterr()
        assert main(["diff", src, "--entry", entry, "--backend", "kaleid",
                     "--samples", "20"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[:4] == \
            [entry, "20", "0", "0"]
    e = load_sources([("pf.esl", POINT_FREE)])
    f = kompile("f", [], [], SacBackend(), e.env, e.rules)
    pl = kompile("pl", [], [], SacBackend(), e.env, e.rules)
    for n in (0, 1, 41):
        assert call(e.env, "f", [n]) == interp_sac(f, "f", [n]) == n + 1
        assert call(e.env, "pl", [n, 2]) == interp_sac(pl, "pl", [n, 2]) == n + 2


BARE_NAMES = """lg : {d : Nat} -> {s : Vec Nat d} -> Ar Float d s -> Ar Float d s
lg = logistic

rd : {X : Set} -> {n : Nat} -> (X -> X -> X) -> X -> Ar X 1 (n ∷ []) -> X
rd = reduce

sum1 : {n : Nat} -> Ar Float 1 (n ∷ []) -> Float
sum1 a = rd _+f_ 0.0 a

sum2 : {n : Nat} -> Ar Float 1 (n ∷ []) -> Float
sum2 a = reduce _+f_ 0.0 a
"""


def test_a_bare_name_takes_its_hidden_arguments():
    # `lg = logistic` is `lg {d} {s} x = logistic {d} {s} x`: the hidden
    # arguments of a bare name are inferred against a type without them
    import random
    import numpy as np
    from eslc.corpus import _s_logistic, oracle_logistic
    from eslc.evaluate import call, varr
    from eslc.extract import kompile
    from eslc.ir import Def, Var, hid, vis
    from eslc.sac import SacBackend
    from eslc.sacinterp import interp_sac
    e = load_sources([("bare.esl", BARE_NAMES)])
    (cl,) = e.env.lookup("lg").payload.clauses
    assert cl.body == Def("logistic", (hid(Var(2)), hid(Var(1)), vis(Var(0))))
    (cl,) = e.env.lookup("rd").payload.clauses
    assert cl.body == Def("reduce", tuple(
        (hid if k < 2 else vis)(Var(4 - k)) for k in range(5)))
    lg = kompile("lg", [], [], SacBackend(), e.env, e.rules)
    sums = [kompile(f, [], [], SacBackend(), e.env, e.rules)
            for f in ("sum1", "sum2")]
    rng = random.Random(5)
    for _ in range(5):
        args = _s_logistic(rng)
        want = oracle_logistic(harness.to_target(args[2]))
        for got in (call(e.env, "lg", args),
                    interp_sac(lg, "lg", [harness.to_target(a) for a in args]),
                    call(e.env, "logistic", args)):
            # the oracle's np.exp is not the targets' expf
            assert np.allclose(harness.to_target(got), want, rtol=1e-9, atol=1e-9)
        # the evaluator and SaC fold in one order
        flat = args[2][2]
        n, a1 = len(flat), varr((len(flat),), flat)
        s1, s2 = (call(e.env, f, [n, a1]) for f in ("sum1", "sum2"))
        t1, t2 = (interp_sac(text, f, [n, harness.to_target(a1)])
                  for text, f in zip(sums, ("sum1", "sum2")))
        assert s1 == s2 and t1 == t2 and s1 == t1
    assert sums[0] == sums[1].replace("sum2", "sum1")


def test_a_bare_nil_or_fzero_owes_its_indices(tmp_path, capsys):
    bad = [("v", "v : Vec Nat 2\nv = vnil\n", "shorter than its type"),
           ("g", "g : (n : Nat) -> Fin n\ng n = fzero\n",
            "is false \\(counterexample {'n#0': 0}\\)")]
    for entry, text, why in bad:
        src = _write(tmp_path, f"{entry}.esl", text)
        for backend in ("kaleid", "sac"):
            assert main(["kompile", src, "--entry", entry,
                         "--backend", backend]) == 1
            assert re.search(why, capsys.readouterr().err), entry
    src = _write(tmp_path, "ok.esl", "v0 : Vec Nat 0\nv0 = vnil\n"
                 "h : (n : Nat) -> Fin (suc n)\nh n = fzero\n")
    assert main(["kompile", src, "--entry", "v0", "--backend", "sac"]) == 0
    assert main(["kompile", src, "--entry", "h", "--backend", "kaleid"]) == 0
    assert main(["diff", src, "--entry", "h", "--backend", "kaleid",
                 "--samples", "10"]) == 0


BIG = """sq : Nat -> Nat -> Nat
sq 0 x = x
sq (suc k) x = sq k (x * x)

big : Nat -> Nat
big n = sq 10 (n + 2)
"""


def test_exact_compare_of_naturals_too_large_for_a_float():
    n = 2 ** 1024
    assert harness.compare(n, n)
    assert not harness.compare(n, n + 1)
    assert harness.compare(True, 1)


def test_floats_compare_bit_for_bit():
    nan = float("nan")
    assert harness.compare(nan, nan)
    assert harness.compare((1.5, nan), np.array([1.5, nan]))
    assert not harness.compare(0.0, -0.0)
    assert not harness.compare(np.array([0.0, 1.0]), np.array([-0.0, 1.0]))


def test_an_internal_error_exits_2(monkeypatch, capsys):
    def fail(args):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "cmd_kompile", fail)
    assert main(["kompile", "--entry", "log2", "--backend", "kaleid"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "eslc: internal error: RuntimeError: broken invariant\n"


def test_diff_of_naturals_too_large_for_a_float(tmp_path, capsys):
    # big 0 is 2 ** 1024, past the largest float
    src = _write(tmp_path, "big.esl", BIG)
    assert main(["diff", src, "--entry", "big", "--backend", "kaleid",
                 "--samples", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t")[:4] == \
        ["big", "3", "0", "0"]


def test_diff_takes_no_kompile_flags(capsys):
    argv = ["diff", "--entry", "log2", "--backend", "kaleid", "--samples", "5"]
    for flag in (["--skip", "log2"], ["--trials", "0"], ["--dump-ir"]):
        with pytest.raises(SystemExit) as ex:
            main(argv + flag)
        assert ex.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    # a corpus entry carries its own base list
    assert main(argv + ["--base", "_<_"]) == 1
    assert "own base list" in capsys.readouterr().err


def test_a_bad_command_line_is_a_user_error(capsys):
    # exit code 2 is kept for internal errors
    for argv in (["diff", "--entry", "log2", "--backend", "kaleid", "--dump-ir"],
                 ["kompile", "--entry", "log2"],
                 ["kompile", "--entry", "log2", "--backend", "c"],
                 ["nosuch"]):
        with pytest.raises(SystemExit) as ex:
            main(argv)
        assert ex.value.code == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "error: " in err and "usage: eslc" in err, argv
    with pytest.raises(SystemExit) as ex:
        main(["diff", "--help"])
    assert ex.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eslc diff")


def test_a_count_out_of_range_is_a_user_error(capsys):
    kompile = ["kompile", "--entry", "log2", "--backend", "kaleid"]
    diff = ["diff", "--entry", "log2", "--backend", "kaleid"]
    for argv, why in [(kompile + ["--fuel", "0"], "--fuel: 0 is less than 1"),
                      (kompile + ["--fuel", "-3"], "--fuel: -3 is less than 1"),
                      (diff + ["--fuel", "0"], "--fuel: 0 is less than 1"),
                      (kompile + ["--trials", "-1"], "--trials: -1 is less than 0"),
                      (diff + ["--samples", "-2"], "--samples: -2 is less than 0"),
                      (diff + ["--samples", "two"], "invalid integer value")]:
        with pytest.raises(SystemExit) as ex:
            main(argv)
        assert ex.value.code == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and why in err, argv


def test_a_refused_diff_writes_nothing_to_stdout(tmp_path, capsys):
    src = _write(tmp_path, "ack.esl", corpus.ACK)
    vec = _write(tmp_path, "v.esl", "v : Vec Nat 2 -> Nat\nv (x ∷ xs) = x\n")
    for argv, why in [
            (["--entry", "log2", "--backend", "sac"], "log2 extracts to kaleid"),
            (["--entry", "log2", "--backend", "kaleid", "--base", "_<_"],
             "own base list"),
            ([vec, "--entry", "v", "--backend", "sac"],
             "cannot sample an argument of type "),
            ([src, "--entry", "nosuch", "--backend", "kaleid"],
             "unknown entry nosuch")]:
        assert main(["diff", *argv]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and why in err, argv


def test_a_signature_must_be_a_type(tmp_path, capsys):
    # each was accepted as a signature; the first crashed on both backends
    for entry, text, why in [
            ("f", "f : Ar Float 1\nf = imap (\\iv -> 1.0)\n",
             "line 1: signature of f: (Ar Float 1) is not a type"),
            ("g", "g : Vec Nat -> Nat\ng x = 0\n",
             "line 1: signature of g: (Vec Nat) is not a type"),
            ("h", "\nh : Nat -> 3\nh x = 0\n",
             "line 2: signature of h: 3 is not a type")]:
        src = _write(tmp_path, "sig.esl", text)
        for backend in ("kaleid", "sac"):
            assert main(["kompile", src, "--entry", entry,
                         "--backend", backend]) == 1
            assert capsys.readouterr().err == f"eslc: {why}\n"


def test_a_user_error_shows_source_text(tmp_path, capsys):
    # each printed the parser's Python repr, or an operator by its name
    for entry, text, why in [
            ("f", "f : Nat -> Nat\nf x = (\\y -> y) x\n", "cannot apply (\\y -> y)"),
            ("f", "f : Nat -> Nat\nf x = (let g = x in g) x\n",
             "cannot apply (let g = x in g)"),
            ("g", "g : Vec (Nat -> Nat) 2 -> Nat\ng v = 0\n",
             "line 1: signature of g: cannot elaborate (Nat -> Nat)"),
            ("f", "f : (a b : Nat) -> Dec (Dec (a < b)) -> Nat\nf a b d = a\n",
             "line 1: signature of f: (Dec (Dec (a < b))) decides no "
             "proposition (_<_ or _≡_)"),
            ("f", "{-# BUILTIN NAT ℕ #-}\nf : Nat -> Nat\nf x = x\n",
             "1:0: unknown pragma ['BUILTIN']")]:
        src = _write(tmp_path, "bad.esl", text)
        assert main(["kompile", src, "--entry", entry, "--backend", "kaleid"]) == 1
        err = capsys.readouterr().err
        assert err == f"eslc: {why}\n"
        assert "(binder=" not in err and "SName(" not in err


def test_an_entry_in_its_own_base_or_skip_list_is_a_user_error(capsys):
    why = "eslc: the entry {} is in the base or skip list\n"
    for flag in ("--base", "--skip"):
        assert main(["kompile", "--entry", "avgpool", "--backend", "sac",
                     flag, "avgpool"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == why.format("avgpool")
    assert main(["diff", str(ROOT / "examples/esl/log2.esl"), "--entry", "log2",
                 "--backend", "kaleid", "--base", "log2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == why.format("log2")


def test_a_file_that_cannot_be_read_or_written_is_a_user_error(tmp_path, capsys):
    # exit code 2 is kept for internal errors
    bad = tmp_path / "bad.esl"
    bad.write_bytes(b"\xff\xfe")
    missing = tmp_path / "missing.esl"
    src = _write(tmp_path, "ack.esl", corpus.ACK)
    out = tmp_path / "nonexistent" / "x.k"
    entry = ["--entry", "ack", "--backend", "kaleid"]
    cases = [([str(missing)], f"cannot read {missing}: No such file or directory"),
             ([str(tmp_path)], f"cannot read {tmp_path}: Is a directory"),
             ([str(bad)], f"cannot read {bad}: 'utf-8' codec can't decode")]
    cases = [(cmd, argv, why) for argv, why in cases for cmd in ("kompile", "diff")]
    cases.append(("kompile", [src, "--out", str(out)],
                  f"cannot write {out}: No such file or directory"))
    for cmd, argv, why in cases:
        assert main([cmd, *argv, *entry]) == 1, argv
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"eslc: {why}"), err


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
    assert len(commands) == 8
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
            ("4", "2", 0, "ack 4 0 2", ["5 23", "21 9"]),
            ("2", "5", 1, "ack 2 0 2", ["19 8", "23 11"])]:
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
