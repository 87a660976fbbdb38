"""Kaleidoscope backend: the rendering of signature checks, term
translation, printing, parsing, and the interpreter."""

import random

import pytest

from eslc import corpus
from eslc.builtins import seed_env
from eslc.evaluate import call
from eslc.extract import (ExtractError, ExtractState, checks, erase,
                          kompile, subjects)
from eslc.harness import run_corpus_diff, run_signature_diff
from eslc.ir import Con, Def, Lit, PVar, Var, hid, vis
from eslc.kaleid import (Aborted, KaleidBackend, KBin, KCall, KFun, KIf, KLet,
                         KNat, KParseError, KVar, interp_kaleid, kompile_check,
                         kompile_term, parse_kaleid, print_kaleid)
from eslc.loader import load_sources

from conftest import mk_pi

ENV = seed_env()


def _st():
    return ExtractState(frozenset(), frozenset())


def _nat():
    return Def("Nat")


# -- kompile_check -------------------------------------------------------------


def _asserts(sig):
    """Each check of a signature's plan: its subject and its condition."""
    names = [n for n, _ in subjects(sig)]
    return [(names[c.subject], kompile_check(c, names, _st(), ENV))
            for c in checks(sig)]


def test_fin_argument_assertion():
    sig = mk_pi([("n", _nat(), False), ("i", Def("Fin", (vis(Var(0)),)), False)],
                _nat())
    assert _asserts(sig) == [("x_2", KBin("Lt", KVar("x_2"), KVar("x_1")))]


def test_lt_argument_assertion():
    sig = mk_pi([("m", _nat(), True), ("n", _nat(), False),
                 ("p", Def("_<_", (vis(Var(0)), vis(Var(1)))), False)], _nat())
    assert _asserts(sig) == [("x_3", KBin("Lt", KVar("x_2"), KVar("x_1")))]


def test_return_fin_assertion():
    n_sq = Def("_*_", (vis(Var(0)), vis(Var(0))))
    sig = mk_pi([("n", _nat(), False)],
                Def("Fin", (vis(Def("_+_", (vis(Lit(1)), vis(n_sq)))),)))
    out = _asserts(sig)
    assert [v for v, _ in out] == ["__ret"]


def test_dec_argument_assertion():
    sig = mk_pi([("a", _nat(), False), ("b", _nat(), False),
                 ("d", Def("Dec", (vis(Def("_<_", (vis(Var(1)), vis(Var(0))))),)),
                  False)], _nat())
    assert _asserts(sig) == [("x_3", KBin("Eq", KVar("x_3"),
                                          KBin("Lt", KVar("x_1"), KVar("x_2"))))]


# -- kompile_term ----------------------------------------------------------------


def test_plus_translates_to_binop():
    t = Def("_+_", (vis(Var(0)), vis(Var(1))))
    out = kompile_term(t, ["a", "b"], _st(), ENV)
    assert out == KBin("Plus", KVar("a"), KVar("b"))


def test_from_bound_takes_hidden_witness():
    # the erasure step, not the backend, reads a Fin as its natural
    t = Def("fromN<", (hid(Def("_*_", (vis(Var(0)), vis(Var(0))))),
                       hid(Lit(5)), vis(Con("prf"))))
    erased = erase(t, 1, ENV)
    assert erased == Def("_*_", (vis(Var(0)), vis(Var(0))))
    assert kompile_term(erased, ["n"], _st(), ENV) == \
        KBin("Times", KVar("n"), KVar("n"))


def test_div_helper_inline_formula():
    # the erasure step, not the backend, lowers the helper to its closed form
    t = Def("div-helper", (vis(Lit(0)), vis(Lit(1)), vis(Var(0)), vis(Lit(0))))
    out = kompile_term(erase(t, 1, ENV), ["x"], _st(), ENV)
    assert print_kaleid([KFun("t", ("x",), out)]).splitlines()[1].strip() \
        == "0 + (x + 1 - 0) / (1 + 1)"


def test_mod_is_one_expression():
    # a - (a / b) * b: no call per unit of the dividend, whether the
    # divisor is a variable or a literal
    src = "w : (a b : Nat) -> 0 < b -> Nat\nw a b p = a % b\n"
    _, text = _extract([("w", src)], "w")
    assert "mod_helper" not in text
    assert interp_kaleid(text, "w", [100000, 3, 1]) == 1
    _, text = _extract([("w", "w : Nat -> Nat\nw a = a % 3\n")], "w")
    assert "let __ret = a - a / 3 * 3" in text
    assert interp_kaleid(text, "w", [100000]) == 1


def test_lets_inside_expressions_print_parse_and_run():
    # each non-variable operand of % is let-bound once, inside the sum
    src = ("w : (a b c : Nat) -> 0 < c -> Nat\n"
           "w a b c p = ((a + b) % c) + (let x = a + 1 in x * x)\n")
    e, text = _extract([("w", src)], "w")
    assert "(let " in text
    assert print_kaleid(parse_kaleid(text)) == text
    for a, b, c in [(0, 0, 1), (17, 5, 4), (3, 9, 12)]:
        assert interp_kaleid(text, "w", [a, b, c, 1]) == \
            call(e.env, "w", [a, b, c, 1]) == (a + b) % c + (a + 1) ** 2


def test_general_call_pushes_pending():
    st = _st()
    env = seed_env()
    from eslc.ir import Clause, Definition, Function
    env.add(Definition("helper", mk_pi([("x", _nat(), False)], _nat()),
                       Function([Clause((("x", vis(_nat())),), (vis(PVar(0)),),
                                        Var(0))])))
    out = kompile_term(Def("helper", (vis(Lit(3)),)), [], st, env)
    assert out == KCall("helper", (KNat(3),))
    assert list(st.pending) == ["helper"]


def test_proof_returning_calls_erase_to_one():
    e = load_sources([("t", "lem : (n : Nat) -> n < 1 + n\nlem n = prf\n"
                            "use : Nat -> Nat\nuse x = toN (fromN< (lem x))\n")])
    out = kompile("use", [], [], KaleidBackend(), e.env, e.rules)
    assert "lem" not in out  # erased, never traversed
    assert interp_kaleid(out, "use", [9]) == 9


# -- printer and parser -------------------------------------------------------------


def test_print_golden_constant_function():
    f = KFun("f", ("x_1",), KLet("__ret", KNat(0), KVar("__ret")))
    assert print_kaleid([f]) == "def f (x_1):\n  let __ret = 0\n  __ret\n"


def test_print_assert_zero():
    from eslc.kaleid import KAssert
    f = KFun("f", (), KAssert(KNat(0)))
    assert "assert (0)" in print_kaleid([f])


def test_parse_roundtrip_of_emitted_programs():
    for c in corpus.CORPUS.values():
        if c.backend == "kaleid":
            e = load_sources(c.sources)
            text = kompile(c.entry, c.base, [], KaleidBackend(), e.env, e.rules)
            assert print_kaleid(parse_kaleid(text)) == text, c.name


def test_truncated_text_is_a_parse_error():
    for text in ("def f (x_1):\n", "def f"):
        with pytest.raises(KParseError):
            parse_kaleid(text)


@pytest.mark.parametrize("program, why", [
    ("def 1 (x):\n  x\n", "expected a name, found '1'"),
    ("def f (x): x\n  x\n", "unexpected 'x' at the end of a line"),
    ("def f (x):\n  let __ret = if (x == 0):\n    1\n  __ret\n",
     "conditional lacks an else branch"),
])
def test_each_malformed_program_is_a_parse_error(program, why):
    with pytest.raises(KParseError, match=f"^{why}$"):
        interp_kaleid(program, "f", [1])


def test_text_too_deep_to_read_is_a_parse_error():
    with pytest.raises(KParseError):
        parse_kaleid(f"def f ():\n  {'(' * 3000}1{')' * 3000}\n")


# (source, entry) of names that are or start with a keyword
KEYWORD_CASES = {
    "function assert": ("assert : Nat -> Nat\nassert 0 = 5\n"
                        "assert (suc n) = assert n\n", "assert"),
    "variable if": ("h : Nat -> Nat\nh if = if * 2\n", "h"),
    "variable iffy": ("g : Nat -> Nat -> Nat\ng iffy 0 = iffy\n"
                      "g iffy (suc k) = iffy + k\n", "g"),
}


@pytest.mark.parametrize("case", list(KEYWORD_CASES))
def test_keyword_names_diff_clean(case):
    src, entry = KEYWORD_CASES[case]
    row = run_signature_diff(load_sources([("w", src)]), entry, 20, 1)
    assert (row.mismatches, row.inconclusive) == (0, [])


# (source, entry, an input) whose binders are named like the ones the
# backend binds
CLASH_CASES = {
    "let shadows a pattern variable": (
        "w : Nat -> Nat -> Nat\nw a_1 a = let a = a + 1 in a * a + a_1\n", "w",
        [10, 3]),
    "let renamed onto a parameter": (
        "w : Nat -> Nat -> Nat\n"
        "w t_1 b = let t = b + 1 in let t = t * t in t * t + t_1\n", "w",
        [10, 3]),
    "% operand let": ("w : (mod_1 b : Nat) -> 0 < b -> Nat\n"
                      "w mod_1 b p = (mod_1 + 1) % (b + mod_1)\n", "w",
                      [20, 1, 1]),
}


@pytest.mark.parametrize("case", list(CLASH_CASES))
def test_clashing_names_diff_clean(case):
    src, entry, args = CLASH_CASES[case]
    e, text = _extract([("w", src)], entry)
    assert interp_kaleid(text, entry, args) == call(e.env, entry, args)
    row = run_signature_diff(e, entry, 20, 1)
    assert (row.mismatches, row.inconclusive) == (0, [])


# -- interpreter ----------------------------------------------------------------------


def _extract(sources, entry, base=()):
    e = load_sources(sources)
    return e, kompile(entry, list(base), [], KaleidBackend(), e.env, e.rules)


def test_interp_ack():
    _, text = _extract([("ack", corpus.ACK)], "ack")
    assert interp_kaleid(text, "ack", [2, 3]) == 9
    assert interp_kaleid(text, "ack", [3, 3]) == 61


def test_interp_log2():
    _, text = _extract([("log2", corpus.LOG2)], "log2", ["n<1+n", "_<_"])
    assert interp_kaleid(text, "log2", [8]) == 3


def test_interp_absurd_aborts():
    _, text = _extract([("ex", corpus.EX7)], "ex11")
    assert isinstance(interp_kaleid(text, "ex11", [5, 1]), Aborted)


def test_divide_by_zero_aborts():
    out = interp_kaleid("def f (x_1):\n  let __ret = 1 / x_1\n  __ret\n",
                        "f", [0])
    assert isinstance(out, Aborted)


def test_and_short_circuits():
    text = ("def f (x_1):\n"
            "  let __ret = if ((x_1 > 0) && (1 / x_1 == 1)):\n"
            "    1\n"
            "  else:\n"
            "    0\n"
            "  __ret\n")
    assert interp_kaleid(text, "f", [0]) == 0  # no division attempted


def _run(body: str, *args: int):
    """Interpret `def f (x_1):` with the given body lines."""
    text = "def f (x_1):\n" + "".join(f"  {l}\n" for l in body.splitlines())
    return interp_kaleid(text, "f", list(args))


def test_subtraction_truncates_at_zero():
    assert _run("let __ret = 2 - 5\n__ret", 0) == 0
    assert _run("let __ret = x_1 - 2\n__ret", 7) == 5


def test_division_floors():
    assert _run("let __ret = 7 / 2\n__ret", 0) == 3
    assert _run("let __ret = x_1 / 3\n__ret", 8) == 2


def test_division_evaluates_divisor_first():
    # the dividend would abort too, but a zero divisor is seen first
    assert _run("let __ret = assert (0) / 0\n__ret", 0) == \
        Aborted("division by zero")
    assert _run("let __ret = assert (x_1) / 0\n__ret", 0) == \
        Aborted("division by zero")


def test_assert_returns_one_or_aborts_with_its_reason():
    assert _run("let __ret = assert (x_1)\n__ret", 4) == 1
    assert _run("let __ret = assert (x_1 < 3)\n__ret", 4) == \
        Aborted("assertion failed")
    assert _run("let __ret = assert (0)\n__ret", 4) == Aborted("assert (0)")


def test_comparisons_give_c_booleans():
    assert _run("let __ret = (x_1 > 2) + (x_1 == 3) + (x_1 != 3) + (x_1 < 2)\n"
                "__ret", 3) == 2


def test_bad_calls_abort():
    text = ("def g (a, b):\n  a\n\n"
            "def f (x_1):\n  let __ret = g (x_1)\n  __ret\n")
    assert interp_kaleid(text, "f", [1]) == Aborted("arity mismatch calling g")
    assert _run("let __ret = h (x_1)\n__ret", 1) == Aborted("unknown function h")


def test_let_in_a_branch_writes_the_call_environment():
    body = ("let r = if (x_1 > 0):\n"
            "  let y = x_1 * 2\n"
            "  y\n"
            "else:\n"
            "  0\n"
            "let __ret = r + y\n"
            "__ret")
    assert _run(body, 3) == 12
    # an expression-level let binds only its body
    assert interp_kaleid("def f ():\n  (let y = 2 in y) + y\n", "f", []) == \
        Aborted("unbound variable y")


def test_an_expression_let_is_lexical():
    assert _run("let a = 1\nlet __ret = (let a = 2 in a) + a\n__ret", 0) == 3
    nested = ("let a = x_1\n"
              "let __ret = (let a = (let a = a + 1 in a * 10) + a in a + 1) + a\n"
              "__ret")
    assert _run(nested, 1) == 23


def test_let_bound_on_the_untaken_branch_aborts():
    body = ("let r = if (x_1 > 0):\n"
            "  let y = 2\n"
            "  y\n"
            "else:\n"
            "  0\n"
            "let __ret = r + y\n"
            "__ret")
    assert _run(body, 3) == 4
    assert _run(body, 0) == Aborted("unbound variable y")


def test_lets_are_local_to_their_call():
    text = ("def g (a):\n  let y = 100\n  a\n\n"
            "def f (x_1):\n  let y = 1\n  let z = g (x_1)\n  y + z\n")
    assert interp_kaleid(text, "f", [5]) == 6


def test_bad_entry_or_argument_count_is_an_error():
    with pytest.raises(ExtractError, match="unknown entry g"):
        interp_kaleid("def f (x_1):\n  x_1\n", "g", [1])
    with pytest.raises(ExtractError, match="f expects 1 arguments"):
        interp_kaleid("def f (x_1):\n  x_1\n", "f", [1, 2])


def test_unbounded_recursion_aborts():
    out = _run("let __ret = f (x_1 + 1)\n__ret", 0)
    assert out == Aborted("recursion depth")


def test_deep_nesting_stages_and_runs():
    minus = KVar("x_1")
    for _ in range(300):
        minus = KBin("Minus", minus, KNat(1))
    chain = KNat(7)
    for i in range(300):
        chain = KIf(KBin("Eq", KVar("x_1"), KNat(i)), KNat(2 * i), chain)
    # a let deep inside an expression binds only its body, as a shallow
    # one does, also where the subexpression is staged as a nested function
    sums = KLet("z", KNat(5), KBin("Plus", KVar("z"), KVar("z")))
    for _ in range(300):
        sums = KBin("Plus", KNat(1), sums)
    let = KLet("z", KNat(1), KLet("r", sums, KBin("Plus", KVar("r"), KVar("z"))))
    program = print_kaleid([KFun("f", ("x_1",), minus),
                            KFun("g", ("x_1",), chain), KFun("h", (), let)])
    assert interp_kaleid(program, "f", [1000]) == 700
    assert interp_kaleid(program, "f", [5]) == 0
    assert [interp_kaleid(program, "g", [x]) for x in (5, 299, 300)] == \
        [10, 598, 7]
    assert interp_kaleid(program, "h", []) == 311


def test_too_deep_nesting_is_a_parse_error():
    # the reader takes a left-deep chain in a loop; staging it recurses
    text = "def f (x_1):\n  x_1" + " - 1" * 5000 + "\n"
    with pytest.raises(KParseError, match="^program too deeply nested to stage"):
        interp_kaleid(text, "f", [1])


def test_fin_encoding_sound_and_complete():
    e = load_sources([("t", "idFin : (n : Nat) -> Fin n -> Fin n\n"
                            "idFin n i = i\n")])
    text = kompile("idFin", [], [], KaleidBackend(), e.env, e.rules)
    for n in range(65):
        for v in range(n + 9):
            out = interp_kaleid(text, "idFin", [n, v])
            if v < n:
                assert out == v, (n, v)
            else:
                assert isinstance(out, Aborted), (n, v)


def test_clause_order_of_disjoint_clauses_is_immaterial():
    swapped = """
ack : Nat -> Nat -> Nat
ack 0 n = 1 + n
ack (suc m) (suc n) = ack m (ack (suc m) n)
ack (suc m) 0 = ack m 1
"""
    _, t1 = _extract([("a", corpus.ACK)], "ack")
    _, t2 = _extract([("b", swapped)], "ack")
    for m in range(4):
        for n in range(6):
            assert interp_kaleid(t1, "ack", [m, n]) == \
                interp_kaleid(t2, "ack", [m, n])


def test_proof_positions_extract_to_one():
    _, text = _extract([("log2", corpus.LOG2)], "log2", ["n<1+n", "_<_"])
    fns = {f.name: f for f in parse_kaleid(text)}

    calls = []

    def scan(e):
        match e:
            case KCall("log2'", args):
                calls.append(args)
                [scan(a) for a in args]
            case KBin(_, l, r):
                scan(l), scan(r)
            case KLet(_, b, body):
                scan(b), scan(body)
            case _ if hasattr(e, "cond"):
                scan(e.cond), scan(e.then), scan(e.other)
            case _ if hasattr(e, "arg"):
                scan(e.arg)
            case _:
                pass

    scan(fns["log2'"].body)
    scan(fns["log2"].body)
    assert calls and all(args[2] == KNat(1) for args in calls)


def test_no_assert_strips_assertions():
    e = load_sources([("ex", corpus.EX7)])
    from eslc.extract import ExtractOptions
    text = kompile("exlt", [], [], KaleidBackend(), e.env, e.rules,
                   ExtractOptions(no_assert=True))
    assert "assert" not in text


def test_no_assert_keeps_the_clause_fallback():
    e = load_sources([("f", "f : Nat -> Nat\nf 0 = 1\n")])
    from eslc.extract import ExtractOptions
    text = kompile("f", [], [], KaleidBackend(), e.env, e.rules,
                   ExtractOptions(no_assert=True))
    assert interp_kaleid(text, "f", [0]) == 1
    assert interp_kaleid(text, "f", [3]) == Aborted("assert (0)")


def test_differential_against_evaluator():
    row = run_corpus_diff(corpus.CORPUS["ack"], 200, 3)
    assert row.mismatches == 0 and not row.inconclusive
    row = run_corpus_diff(corpus.CORPUS["log2"], 200, 4)
    assert row.mismatches == 0 and not row.inconclusive
    row = run_corpus_diff(corpus.CORPUS["fib"], 100, 5)
    assert row.mismatches == 0 and not row.inconclusive


def test_violating_inputs_abort_before_use():
    e = load_sources([("ex", corpus.EX7)])
    text = kompile("exlt", [], [], KaleidBackend(), e.env, e.rules)
    rng = random.Random(9)
    for _ in range(100):
        a = rng.randrange(0, 30)
        b = rng.randrange(0, a + 1)  # violates a < b
        out = interp_kaleid(text, "exlt", [a, b, 1])
        assert isinstance(out, Aborted)


def test_mixed_absurd_and_regular_clauses():
    src = """
guarded : (x : Nat) -> 0 < x -> Nat
guarded 1 () 
guarded x p = x
"""
    # a deliberately unreachable first clause keeps its guard and aborts
    src = src.replace("() \n", "()\n")
    e = load_sources([("g", src)])
    text = kompile("guarded", [], [], KaleidBackend(), e.env, e.rules)
    assert "assert (0)" in text
    assert isinstance(interp_kaleid(text, "guarded", [1, 1]), Aborted)
    assert interp_kaleid(text, "guarded", [2, 1]) == 2


def test_mutual_recursion_emits_each_once():
    src = """
odd : Nat -> Nat

even : Nat -> Nat
even 0 = 1
even (suc n) = odd n

odd 0 = 0
odd (suc n) = even n
"""
    e = load_sources([("m", src)])
    text = kompile("even", [], [], KaleidBackend(), e.env, e.rules)
    assert text.count("def even") == 1 and text.count("def odd") == 1
    assert [interp_kaleid(text, "even", [k]) for k in range(5)] == [1, 0, 1, 0, 1]


def test_higher_order_entry_is_rejected():
    e = load_sources([("t", "twice : (Nat -> Nat) -> Nat -> Nat\n"
                            "twice f x = f (f x)\n")])
    from eslc.extract import ExtractError
    with pytest.raises(ExtractError):
        kompile("twice", [], [], KaleidBackend(), e.env, e.rules)


def test_empty_clause_list_is_an_error():
    from eslc.ir import Definition, Function
    sig = mk_pi([("x", _nat(), False)], _nat())
    with pytest.raises(ExtractError, match="without clauses"):
        KaleidBackend().kompile_fun("f", Definition("f", sig, Function([])),
                                    [], _st(), ENV)
