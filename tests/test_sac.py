"""SaC backend: flattening, with-loop emission, shape assertions, the
printer/parser pair, and the interpreter."""

import dataclasses
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eslc import corpus
from eslc.cli import main
from eslc.evaluate import call, varr
from eslc.extract import ExtractError, ExtractOptions, kompile
from eslc.harness import compare, run_corpus_diff, target_args, to_target
from eslc.ir import Aborted, Con, Def, Lit, Var, vis
from eslc.kaleid import KaleidBackend, interp_kaleid
from eslc.loader import load_prelude, load_sources
from eslc.sac import (Inhomogeneous, SacAborted, SacBackend, SacParseError,
                      SFlt, _flatten, parse_sac, render_expr, render_type)
from eslc.sacinterp import interp_sac


def _vec(*xs):
    out = Con("vnil")
    for x in reversed(xs):
        out = Con("vcons", (vis(x), vis(out)))
    return out


def _ar(x, d, s):
    return Def("Ar", (vis(x), vis(d), vis(s)))


def test_flatten_nested_static_vectors():
    inner = _ar(Def("Nat"), Lit(1), _vec(Lit(5)))
    outer = _ar(inner, Lit(1), _vec(Lit(6)))
    assert render_type(outer) == "int[6,5]"
    assert _flatten(outer, outermost=True) == ("int", [6, 5], True)


def test_flatten_symbolic_shape_degrades_to_dots():
    assert render_type(_ar(Def("Nat"), Lit(2), _vec(Var(0), Var(1)))) == "int[.,.]"


def test_flatten_dynamic_rank():
    assert render_type(_ar(Def("Float"), Var(0), Var(1))) == "float[*]"


def test_flatten_list_of_vectors_ok_and_nested_list_rejected():
    lv = Def("List", (vis(Def("Vec", (vis(Def("Nat")), vis(Lit(3))))),))
    assert render_type(lv) == "int[.,.]"
    ll = Def("List", (vis(Def("List", (vis(Def("Nat")),))),))
    with pytest.raises(Inhomogeneous):
        render_type(ll)


def test_static_vec_argument_keeps_strongest_attribute():
    e = load_prelude()
    out = kompile("avgpool", [], [], SacBackend(), e.env, e.rules)
    assert "int[2] x_1" in out  # not weakened to int[.]


def test_avgpool_golden_structure():
    e = load_prelude()
    out = kompile("avgpool", [], [], SacBackend(), e.env, e.rules)
    assert "assert (shape (x_1)[0] == 2)" in out
    assert "assert (take (2, shape (x_2)) == cons (x_1[0] $* 2, " \
           "cons (x_1[1] $* 2, [])))" in out
    assert "#define p(__x) (x_2)[__x]" in out
    assert "(. <= iv_1 <= .)" in out
    assert out.count("p(cons") == 4
    assert "$/ 4.0f" in out
    assert "genarray (s, zero_float ([]))" in out
    assert "assert (take (2, shape (__ret)) == x_1)" in out


def test_avgpool_against_block_mean_oracle():
    e = load_prelude()
    prog = kompile("avgpool", [], [], SacBackend(), e.env, e.rules)
    rng = random.Random(3)
    shapes = [(2, 2), (4, 6), (32, 32)] + \
        [(2 * rng.randrange(1, 17), 2 * rng.randrange(1, 17)) for _ in range(9)]
    for h, w in shapes:
        data = np.array([rng.uniform(-9, 9) for _ in range(h * w)]).reshape(h, w)
        out = interp_sac(prog, "avgpool", [np.array([h // 2, w // 2]), data])
        expect = corpus.oracle_avgpool(data)
        assert np.max(np.abs(out - expect) / np.maximum(np.abs(expect), 1.0)) < 1e-9


def test_backavgpool_shape_assert_doubles_input():
    e = load_prelude()
    out = kompile("backavgpool", [], [], SacBackend(), e.env, e.rules)
    assert "assert (take (2, shape (__ret)) == cons (x_1[0] $* 2, " \
           "cons (x_1[1] $* 2, [])))" in out


def test_meansqerr_emits_fold_over_ravel_space():
    e = load_prelude()
    out = kompile("meansqerr", [], [], SacBackend(), e.env, e.rules)
    assert "fold (+, 0.0f)" in out
    assert "genarray" not in out
    r = interp_sac(out, "meansqerr",
                   [1, np.array([2]), np.array([3.0, 1.0]), np.array([1.0, 1.0])])
    assert abs(r - 2.0) < 1e-12


def test_matmul_genarray_contains_fold():
    e = load_prelude()
    out = kompile("matmul", [], [], SacBackend(), e.env, e.rules)
    body = out[out.index("genarray"):]
    assert out.count("genarray") == 1 and out.count("fold") == 1
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5, 6], [7, 8]])
    r = interp_sac(out, "matmul", [2, 2, 2, a, b])
    assert np.array_equal(r, a @ b)


def test_matmul_of_large_naturals_agrees_on_every_evaluator():
    # 2**40 * 2**40 wraps in int64: an array element is a Python int, as
    # a scalar is.  Kaleidoscope has no arrays, so it runs the scalar product
    e = load_prelude()
    args = [1, 1, 1, varr((1, 1), [2**40]), varr((1, 1), [2**40])]
    want = call(e.env, "matmul", args)
    assert want == varr((1, 1), [2**80])
    out = kompile("matmul", [], [], SacBackend(), e.env, e.rules)
    got = interp_sac(out, "matmul", target_args(e.env, "matmul", "sac")(args))
    assert compare(want, got) and got.tolist() == [[2**80]]
    w = load_sources([("w", "w : Nat -> Nat -> Nat\nw a b = a * b\n")])
    assert call(w.env, "w", [2**40, 2**40]) == 2**80
    for backend, interp in ((SacBackend, interp_sac), (KaleidBackend, interp_kaleid)):
        text = kompile("w", [], [], backend(), w.env, w.rules)
        assert interp(text, "w", [2**40, 2**40]) == 2**80


def test_a_product_of_large_naturals_agrees_on_both_evaluators():
    # prodv of an argument vector: to_target makes it an int64 array, whose
    # product wraps unless it is taken over Python ints
    e = load_sources([("q", "q : Vec Nat 2 -> Nat\nq s = prodv s\n")])
    args = [(2**40, 2**40)]
    out = kompile("q", [], [], SacBackend(), e.env, e.rules)
    assert "prod (s)" in out
    got = interp_sac(out, "q", target_args(e.env, "q", "sac")(args))
    assert call(e.env, "q", args) == got == 2**80


def test_fusion_single_genarray():
    e = load_sources([("f", corpus.FUSION)])
    out = kompile("fuse2", [], [], SacBackend(), e.env, e.rules)
    assert out.count("with {") == 1 and out.count("genarray") == 1


def test_partial_selection_through_library_wrapper():
    src = """
prow : {m n : Nat} -> (k : Nat) -> k < m -> Ar (Ar Float 1 (n ∷ [])) 1 (m ∷ []) -> Ar Float 1 (n ∷ [])
prow k p a = sel a (k ∷ [])
"""
    e = load_sources([("p", src)])
    out = kompile("prow", [], [], SacBackend(), e.env, e.rules)
    assert "sel (" in out and "float[*] sel (int[.] idx, float[*] a)" in out
    arr = np.arange(30.0).reshape(5, 6)
    row = interp_sac(out, "prow", [5, 6, 2, arr])
    assert np.allclose(row, arr[2])
    assert interp_sac(out, "prow", [5, 6, 9, arr]) == Aborted("assertion failed")
    # without the checks the selection itself aborts, as the source's does
    bare = kompile("prow", [], [], SacBackend(), e.env, e.rules,
                   ExtractOptions(no_assert=True))
    assert interp_sac(bare, "prow", [5, 6, 9, arr]) == \
        Aborted("index (9, 0) out of bounds")
    rows = varr((5,), [varr((6,), list(r)) for r in arr])
    assert call(e.env, "prow", [5, 6, 9, 1, rows]) == \
        Aborted("index (9,) out of bounds")


@pytest.mark.parametrize("op, why", [("/", "division by zero"),
                                     ("%", "mod by zero")])
def test_a_zero_divisor_aborts_on_both_sides(op, why):
    e = load_sources([("d", f"dv : (x y : Nat) -> 0 < y -> Nat\ndv x y p = x {op} y\n")])
    out = kompile("dv", [], [], SacBackend(), e.env, e.rules,
                  ExtractOptions(no_assert=True))
    assert interp_sac(out, "dv", [7, 2]) == call(e.env, "dv", [7, 2, 1]) == \
        (3 if op == "/" else 1)
    assert interp_sac(out, "dv", [7, 0]) == Aborted(why)
    assert call(e.env, "dv", [7, 0, 1]) == Aborted(why)


def test_a_selection_from_a_scalar_aborts():
    # an unchecked logistic given a scalar where its array goes
    e = load_prelude()
    out = kompile("logistic", [], [], SacBackend(), e.env, e.rules,
                  ExtractOptions(no_assert=True))
    assert interp_sac(out, "logistic", [1, np.array([2]), 2.5]) == \
        Aborted("selection (0,) from an array of rank 0")
    prog = """
float f(float a) {
  float __ret;
  __ret = a[[]];
  return __ret;
}

float g(float a) {
  float __ret;
  __ret = a[0];
  return __ret;
}
"""
    # the empty selection is the scalar itself
    assert interp_sac(prog, "f", [2.5]) == \
        interp_sac(prog, "f", [to_target(varr((), [2.5]))]) == 2.5
    assert interp_sac(prog, "g", [2.5]) == \
        Aborted("selection 0 from an array of rank 0")


WITH_LOOP_ABORTS = """
tr : (m n : Nat) -> Ar Float 2 (n ∷ m ∷ []) -> Ar Float 2 (m ∷ n ∷ [])
tr m n a = imap (\\(i ∷ j ∷ []) -> sel a (j ∷ i ∷ []))

{-# TRUST q #-}
q : (n : Nat) -> Ar Nat 1 (n ∷ []) -> Nat
q n a = reduce {Nat} {n} _+_ 0 (imap (\\(i ∷ []) -> 12 / sel a (i ∷ [])))
"""


def test_an_element_that_aborts_aborts_its_with_loop():
    e = load_sources([("w", WITH_LOOP_ABORTS)])
    tr, q = (kompile(f, [], [], SacBackend(), e.env, e.rules,
                     ExtractOptions(no_assert=True)) for f in ("tr", "q"))
    # the 2 x 3 transpose of a 2 x 1 array reads out of bounds at (0, 2)
    # and from (1, 0) on: a genarray meets (0, 2) first, in row-major order
    assert interp_sac(tr, "tr", [2, 3, np.array([[1.0], [2.0]])]) == \
        Aborted("index (2, 0) out of bounds")
    assert call(e.env, "tr", [2, 3, varr((2, 1), [1.0, 2.0])]) == \
        Aborted("index (2, 0) out of bounds")
    # a zero divisor at one element of a fold
    assert interp_sac(q, "q", [3, np.array([4, 0, 6])]) == Aborted("division by zero")
    assert call(e.env, "q", [3, varr((3,), [4, 0, 6])]) == \
        Aborted("division by zero")
    # a fold meets its last element first, which reads out of bounds here;
    # the source evaluator builds the whole imap first, from index 0
    assert interp_sac(q, "q", [4, np.array([0, 4, 6])]) == \
        Aborted("index (3,) out of bounds")
    assert call(e.env, "q", [4, varr((3,), [0, 4, 6])]) == \
        Aborted("division by zero")


ABORTS_ALIKE = """
fd : Float -> Float -> Float
fd a b = a /f b

s0 : Ar Float 1 (1 ∷ []) -> Float
s0 a = sel a (0 ∷ [])

{-# TRUST rs #-}
rs : (n : Nat) -> Ar Nat 1 (n ∷ []) -> Ar Nat 1 (3 ∷ [])
rs n a = reshape (3 ∷ []) a
"""


@pytest.mark.parametrize("f, args, why", [
    ("fd", [1.5, 0.0], "division by zero"),
    ("s0", [varr((0,), [])], "index (0,) out of bounds"),
    # a scalar where an array goes is an array of rank 0 to both
    ("s0", [2.5], "selection (0,) from an array of rank 0"),
    # the trusted count is wrong, and its assertion is stripped
    ("rs", [4, varr((4,), [1, 2, 3, 4])], "reshape changes the number of elements"),
])
def test_the_source_evaluator_and_sac_abort_for_the_same_reason(f, args, why):
    e = load_sources([("w", ABORTS_ALIKE)])
    text = kompile(f, [], [], SacBackend(), e.env, e.rules,
                   ExtractOptions(no_assert=True))
    assert interp_sac(text, f, [to_target(a) for a in args]) == Aborted(why)
    assert call(e.env, f, args) == Aborted(why)


def test_a_malformed_program_is_a_parse_error():
    prog = """
int f(int x) {
  int __ret;
  __ret = y $+ x;
  return __ret;
}
"""
    with pytest.raises(SacParseError, match="^unbound variable y$"):
        interp_sac(prog, "f", [1])


@pytest.mark.parametrize("text, why", [
    ("int f(int x) { return x @ 1; }", "stray '@'"),
    ("int f(int x) {\n  #define p(__x) (__x)\n  return p(1, 2);\n}",
     "macro p takes one argument"),
    ("int f(int x) { return with { (. <= iv <= .) : 1; } : modarray (x); }",
     "unknown with-loop kind modarray"),
    ("int f(int x) { return g (x); }", "unknown function g"),
    ("int f(int x) { return f (x, x); }", "f expects 1 arguments"),
    ("int g(int x) { return x; }", "unknown function f"),
    ("int f() { return 1; }", "f expects 0 arguments"),
    ("int f(int x) { int y; }", "f has no return statement"),
    ("int f(int x) { if (x > 0) { return x; } return 0; }", "expected 'else', found 'return'"),
    ("int f(int x) { int y; if (x > 0) { } else { y = 1; } return y; }",
     "a declared variable is read unassigned"),
    ("int f(int x) { return with { ([0] <= iv < [3]) : 1; } : fold (-, 0); }",
     "unknown fold operator -"),
    # the backend writes one partition per with-loop
    ("int f(int x) { return with { ([0] <= iv < [1]) : 1; ([1] <= iv < [3]) : 2; }"
     " : fold (+, 0); }", "a with-loop has one partition"),
    ("int f(int x) { return with { (. <= iv <= .) : 1; (. <= jv <= .) : 2; }"
     " : genarray ([3], 0); }", "a with-loop has one partition"),
])
def test_each_malformed_text_is_a_parse_error(text, why):
    with pytest.raises(SacParseError, match=f"^{why}$"):
        interp_sac(text, "f", [1])


def test_an_if_statement_assigns_a_declared_name_in_its_branches():
    # y is assigned, not declared, so the branch's y is its own; && reads
    # its right operand only if the left holds, so 1 divides by no zero
    prog = """
int f(int x) {
  int r;
  y = 5;
  if (x == 0) {
    r = 1;
  } else if (x > 1 && 2 $/ (x $- 1) == 2) {
    y = 7;
    r = y;
  } else {
    if (x > 2) { r = 0 / 0; } else { r = x $+ 10; }
  }
  return r $* 100 $+ y;
}
"""
    assert [interp_sac(prog, "f", [x]) for x in (0, 1, 2)] == [105, 1105, 705]
    assert interp_sac(prog, "f", [3]) == Aborted("division by zero")


def test_a_macro_argument_is_substituted_throughout_its_body():
    prog = """
int f(int x) {
  #define p(__x) prod (cons (__x, [__x])) $+ [__x, 2][1]
  return p(x);
}
"""
    assert interp_sac(prog, "f", [3]) == 11
    sel = "int f(int[.] a) { return a[5]; }"
    assert interp_sac(sel, "f", [np.array([1, 2, 3])]) == \
        Aborted("index 5 out of bounds")


def test_full_selection_is_direct():
    src = """
pick : {m n : Nat} -> (i j : Nat) -> i < m -> j < n -> Ar Float 2 (m ∷ n ∷ []) -> Float
pick i j p q a = sel a (i ∷ j ∷ [])
"""
    e = load_sources([("p", src)])
    out = kompile("pick", [], [], SacBackend(), e.env, e.rules)
    assert "a[cons (i, cons (j, []))]" in out
    arr = np.arange(6.0).reshape(2, 3)
    assert interp_sac(out, "pick", [2, 3, 1, 2, arr]) == 5.0


def test_interp_cons_take_drop():
    prog = """
int[.] f(int x, int[.] v) {
  int[.] __ret;
  __ret = cons (x, v);
  return __ret;
}

int[.] g(int[.] v) {
  int[.] __ret;
  __ret = take (2, drop (1, v));
  return __ret;
}
"""
    assert list(interp_sac(prog, "f", [7, np.array([1, 2])])) == [7, 1, 2]
    assert list(interp_sac(prog, "g", [np.array([1, 2, 3, 4])])) == [2, 3]


def test_fold_over_empty_space_is_neutral():
    prog = """
float f(int[.] s, float[*] a) {
  float __ret;
  __ret = with {
    (0 * s <= iv_1 < s) : a[iv_1];
  }: fold (+, 0.0f);
  return __ret;
}
"""
    out = interp_sac(prog, "f", [np.array([0]), np.array([])])
    assert out == 0.0


def test_rotation_inverse_through_target():
    e = load_sources([("r", corpus.ROTATE)])
    prog = kompile("rot-there-and-back", [], [], SacBackend(), e.env, e.rules)
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(1, 9)
        x = rng.randrange(0, 15)
        a = np.array([rng.uniform(-5, 5) for _ in range(n)])
        out = interp_sac(prog, "rot_there_and_back", [n, x, a])
        # a rotation moves floats and never rounds them
        assert np.array_equal(out, a)


def test_differential_corpus_entries():
    # every sample agrees bit for bit: no float tolerance
    for name in ["logistic", "meansqerr", "backavgpool", "avgpool", "fuse2",
                 "matmul", "rotate"]:
        for seed in (11, 12, 13):
            row = run_corpus_diff(corpus.CORPUS[name], 20, seed)
            assert row.mismatches == 0 and not row.inconclusive, (name, seed)


FOLD_ORDER = """sum : {n : Nat} -> Ar Float 1 (n ∷ []) -> Float
sum a = reduce _+f_ 0.0 a

sum2 : {m n : Nat} -> Ar Float 2 (m ∷ n ∷ []) -> Float
sum2 a = reduce _+f_ 0.0 (ravel a)
"""


def test_a_fold_runs_in_the_source_order():
    # reduce is f (sel a 0) (reduce f e (behead a)): 1.0 + (1e16 + (-1e16
    # + 0.0)) is 1.0, where a left fold's (1.0 + 1e16) - 1e16 is 0.0
    e = load_sources([("s", FOLD_ORDER)])
    text = kompile("sum", [], [], SacBackend(), e.env, e.rules)
    xs = [1.0, 1e16, -1e16]
    assert call(e.env, "sum", [3, varr((3,), xs)]) == 1.0
    assert interp_sac(text, "sum", [3, np.array(xs)]) == 1.0
    # over two axes the fold runs from the last row's last element back,
    # (1, 1), (1, 0), (0, 1), (0, 0); either axis forwards gives 0.0
    text = kompile("sum2", [], [], SacBackend(), e.env, e.rules)
    xs = [1.0, 1e16, -1e16, 0.0]
    assert call(e.env, "sum2", [2, 2, varr((2, 2), xs)]) == 1.0
    assert interp_sac(text, "sum2", [2, 2, np.array(xs).reshape(2, 2)]) == 1.0


def test_flattening_law_on_corpus_signatures():
    e = load_prelude()
    prog = kompile("backavgpool", [], [], SacBackend(), e.env, e.rules)
    rng = random.Random(23)
    for _ in range(10):
        h, w = rng.randrange(1, 6), rng.randrange(1, 6)
        a = np.zeros((h, w))
        out = interp_sac(prog, "backavgpool", [np.array([h, w]), a])
        assert out.shape == (2 * h, 2 * w)


def test_constant_imap_emits_constant_genarray():
    src = """
zeros : {d : Nat} -> {s : Vec Nat d} -> Ar Nat d s
zeros = imap (\\iv -> 0)
"""
    e = load_sources([("z", src)])
    out = kompile("zeros", [], [], SacBackend(), e.env, e.rules)
    assert "(. <= iv_1 <= .) : 0;" in out
    assert "genarray (s, zero_int ([]))" in out
    r = interp_sac(out, "zeros", [2, np.array([2, 3])])
    assert r.shape == (2, 3) and not r.any()


def test_imap_over_matched_function_uses_macro():
    src = """
copy : {s : Vec Nat 2} -> Ar Float 2 s -> Ar Float 2 s
copy (imap p) = imap p
"""
    e = load_sources([("c", src)])
    out = kompile("copy", [], [], SacBackend(), e.env, e.rules)
    assert "#define p(__x) (x_2)[__x]" in out
    assert "p(iv_1)" in out
    a = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(interp_sac(out, "copy", [np.array([2, 2]), a]), a)


# (source, entry): a selection macro whose pattern variable is named like
# a SaC builtin the text calls, or like a function of the program; a
# #define holds for the rest of the text, so either would capture calls
MACRO_CLASHES = {
    "builtin": ("w : Ar Float 1 (3 ∷ []) -> Ar Float 1 (3 ∷ [])\n"
                "w (imap cons) = imap (\\(i ∷ []) -> cons (i ∷ []) +f 1.0)\n"),
    "function": ("k : Ar Float 1 (3 ∷ []) -> Ar Float 1 (3 ∷ [])\n"
                 "k (imap q) = imap (\\(i ∷ []) -> q (i ∷ []) *f 2.0)\n"
                 "h : Ar Float 1 (3 ∷ []) -> Ar Float 1 (3 ∷ [])\n"
                 "h (imap k) = imap (\\(i ∷ []) -> k (i ∷ []) +f 1.0)\n"
                 "w : Ar Float 1 (3 ∷ []) -> Ar Float 1 (3 ∷ [])\n"
                 "w a = h (k a)\n"),
}


@pytest.mark.parametrize("case", list(MACRO_CLASHES))
def test_macro_names_stay_apart_from_called_names(case):
    e = load_sources([("w", MACRO_CLASHES[case])])
    out = kompile("w", [], [], SacBackend(), e.env, e.rules)
    macros = [line.split()[1].split("(")[0] for line in out.splitlines()
              if line.strip().startswith("#define")]
    assert macros and not {"cons", "k"} & set(macros)
    x = np.array([1.0, 2.0, 3.0])
    want = call(e.env, "w", [varr((3,), list(x))])
    assert compare(interp_sac(out, "w", [x]), want)


def test_nested_element_type_gets_shaped_default():
    src = """
rows : {m n : Nat} -> Ar Float 2 (m ∷ n ∷ []) -> Ar (Ar Float 1 (n ∷ [])) 1 (m ∷ [])
rows a = imap (\\(i ∷ []) -> imap (\\(j ∷ []) -> sel a (i ∷ j ∷ [])))
"""
    e = load_sources([("r", src)])
    out = kompile("rows", [], [], SacBackend(), e.env, e.rules)
    assert "zero_float (cons (n, []))" in out
    arr = np.arange(6.0).reshape(2, 3)
    got = interp_sac(out, "rows", [2, 3, arr])
    assert np.array_equal(got, arr)  # flattened nesting is the same array


def test_unknown_fold_neutral_is_an_error():
    src = """
badfold : {n : Nat} -> Ar Float 1 (n ∷ []) -> Float
badfold a = reduce _-f_ 0.0 a
"""
    e = load_sources([("b", src)])
    from eslc.extract import ExtractError
    with pytest.raises(ExtractError):
        kompile("badfold", [], [], SacBackend(), e.env, e.rules)


def test_negative_float_literals_round_trip():
    prog = """
float f(float x) {
  float __ret;
  __ret = x $+ -0.5f;
  return __ret;
}
"""
    assert interp_sac(prog, "f", [2.0]) == 1.5


def test_base_call_survives_with_filtered_arguments():
    e = load_prelude()
    out = kompile("backavgpool", ["repc"], [], SacBackend(), e.env, e.rules)
    assert "repc (" in out          # fixed-translation style call remains
    assert "float[.,.] repc" not in out  # and its body is not emitted


def test_empty_index_selects_the_whole_array():
    src = """
whole : {s : Vec Nat 2} -> Ar (Ar Float 2 s) 0 [] -> Ar Float 2 s
whole a = sel a []
"""
    e = load_sources([("w", src)])
    out = kompile("whole", [], [], SacBackend(), e.env, e.rules)
    assert "sel ([], a)" in out
    m = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(interp_sac(out, "whole", [np.array([2, 2]), m]), m)


def test_mod_by_zero_aborts():
    prog = """
int f(int x, int y) {
  int __ret;
  __ret = x $% y;
  return __ret;
}
"""
    for zero in (0, np.int64(0)):
        assert interp_sac(prog, "f", [7, zero]) == Aborted("mod by zero")
    assert interp_sac(prog, "f", [7, np.int64(3)]) == 1


def test_zero_rank_operands_are_scalars():
    # arrays of rank 0 arrive as 0-d arrays; `$/` and `$%` treat them as
    # the scalars they hold
    div = "int f(int x, int y) { return x $/ y; }"
    mod = "int f(int x, int y) { return x $% y; }"
    fdiv = "double f(double x, double y) { return x $/ y; }"

    def rank0(*xs):
        return [to_target(varr((), [x])) for x in xs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert interp_sac(div, "f", [7, 2]) == 3
        q = interp_sac(div, "f", rank0(7, 2))
        assert q == 3 and isinstance(q, (int, np.integer))
        assert interp_sac(mod, "f", rank0(7, 3)) == 1
        assert interp_sac(fdiv, "f", rank0(7.0, 2.0)) == 3.5
        assert interp_sac(div, "f", rank0(7, 0)) == Aborted("division by zero")
        assert interp_sac(mod, "f", rank0(7, 0)) == Aborted("mod by zero")
        assert interp_sac(fdiv, "f", rank0(7.0, 0.0)) == Aborted("division by zero")


def test_unbounded_recursion_aborts():
    prog = "int f(int x) { return f (x $+ 1); }"
    assert interp_sac(prog, "f", [0]) == Aborted("recursion depth")
    assert SacAborted is Aborted  # the benchmark's tracer counts by the alias


SCALE = ("g : Nat -> Vec Nat 2\ng k = (1 ∷ 2 ∷ []) *v k\n"
         "f : {d : Nat} -> Vec Nat d -> Vec Nat d\nf v = v *v 3\n")


@pytest.mark.parametrize("entry, base, line, args, want", [
    # a closed spine, which only a base `_*v_` keeps from the normalizer
    ("g", ["_*v_"], "__ret = cons (1 $* k, cons (2 $* k, []));", [3], [3, 6]),
    # a vector of symbolic length scales as a whole
    ("f", [], "__ret = v * 3;", [3, (1, 2, 3)], [3, 6, 9]),
])
def test_scaling_a_vector_agrees_with_the_source(entry, base, line, args, want):
    e = load_sources([("w", SCALE)])
    text = kompile(entry, base, [], SacBackend(), e.env, e.rules)
    assert f"  {line}" in text.splitlines()
    got = interp_sac(text, entry, [to_target(a) for a in args])
    assert compare(call(e.env, entry, args), got) and got.tolist() == want


def test_nat_subtraction_truncates_at_zero():
    e = load_sources([("s", "sub : Nat -> Nat -> Nat\nsub a b = a - b\n")])
    out = kompile("sub", [], [], SacBackend(), e.env, e.rules)
    assert "max (a $- b, 0)" in out
    assert interp_sac(out, "sub", [3, 5]) == 0
    assert interp_sac(out, "sub", [5, 3]) == 2
    # taking back what was just added cannot go below zero
    e = load_sources([("s", "sub : Nat -> Nat -> Nat\nsub a b = (a + b) - b\n"
                            "bus : Nat -> Nat -> Nat\nbus a b = (a + b) - a\n")])
    out = kompile("sub", [], [], SacBackend(), e.env, e.rules)
    assert "__ret = a $+ b $- b;" in out
    assert interp_sac(out, "sub", [3, 5]) == 3
    assert "max (a $+ b $- a, 0)" in kompile("bus", [], [], SacBackend(), e.env, e.rules)


def test_max_of_scalars_and_arrays():
    prog = "int[.] f(int[.] x, int y) { return max (x, y); }"
    out = interp_sac(prog, "f", [np.array([-1, 4]), 0])
    assert np.array_equal(out, np.array([0, 4]))
    assert interp_sac("int f(int x, int y) { return max (x, y); }",
                      "f", [-2, 0]) == 0


def test_expf_overflows_to_infinity():
    prog = "float f(float x) { return expf (x); }"
    assert interp_sac(prog, "f", [1000.0]) == float("inf")
    assert interp_sac(prog, "f", [0.0]) == 1.0


def test_an_index_component_past_the_rank_is_refused(tmp_path, capsys):
    # `ixc k iv` owes `k < d`: past the rank, the source evaluator and SaC
    # would abort on every index, so nothing extracts
    sig = "f : Ar Nat 2 (3 ∷ 4 ∷ []) -> Ar Nat 2 (3 ∷ 4 ∷ [])\n"
    bad = tmp_path / "bad.esl"
    bad.write_text(sig + "f a = imap (\\iv -> ixc 5 iv)\n", encoding="utf-8")
    assert main(["kompile", str(bad), "--entry", "f", "--backend", "sac"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "eslc: obligation index component within the rank is false\n"
    e = load_sources([("ok", sig + "f a = imap (\\iv -> ixc 1 iv)\n")])
    text = kompile("f", [], [], SacBackend(), e.env, e.rules)
    assert "iv_1[1]" in text
    args = [varr((3, 4), list(range(12)))]
    want = call(e.env, "f", args)
    assert want == varr((3, 4), [0, 1, 2, 3] * 3)
    assert compare(want, interp_sac(text, "f", target_args(e.env, "f", "sac")(args)))


def test_reshape_to_another_element_count_aborts():
    src = ("{-# TRUST rs #-}\n"
           "rs : (n : Nat) -> Ar Float 1 (n ∷ []) -> Ar Float 2 (2 ∷ 3 ∷ [])\n"
           "rs n a = reshape (2 ∷ 3 ∷ []) a\n")
    e = load_sources([("rs", src)])
    text = kompile("rs", [], [], SacBackend(), e.env, e.rules)
    assert interp_sac(text, "rs", [5, np.arange(5.0)]) == \
        Aborted("reshape changes the number of elements")
    assert np.array_equal(interp_sac(text, "rs", [6, np.arange(6.0)]),
                          np.arange(6.0).reshape(2, 3))


@settings(deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1e-05)
@example(1e+17)
def test_every_printed_float_reads_back(v):
    prog = f"float f() {{ return {render_expr(SFlt(v))}; }}"
    assert interp_sac(prog, "f", []) == v


def test_unterminated_comment_is_a_parse_error():
    with pytest.raises(SacParseError):
        parse_sac("/* x")


def test_long_blocks_and_with_loops_in_bounds_and_bodies_run():
    # a block's assignments are statements of the body's def, so a long
    # block nests no deeper
    block = " ".join(f"x{k} = x{k - 1} $+ 1;" for k in range(1, 2000))
    text = ("int[.] f() { return with { (. <= iv <= .) { x0 = iv[0]; "
            + block + " } : x1999; }: genarray ([2], 0); }")
    assert list(interp_sac(text, "f", [])) == [1999, 2000]
    # the sum over k < n of the sum over j < k of j
    nested = """
int f(int n) {
  return with {
    ([0] <= iv < [with { ([0] <= j < [n]) : 1; }: fold (+, 0)]) { k = iv[0]; }
      : with { ([0] <= jv < [k]) : jv[0]; }: fold (+, 0);
  }: fold (+, 0);
}
"""
    assert [interp_sac(nested, "f", [n]) for n in range(6)] == [0, 0, 0, 1, 4, 10]


def test_text_too_deep_to_read_is_a_parse_error():
    with pytest.raises(SacParseError):
        interp_sac(f"int f() {{ return {'(' * 3000}1{')' * 3000}; }}", "f", [])
    # the reader takes a left-deep chain in a loop; staging it recurses
    deep = "x" + " $+ 1" * 5000
    with pytest.raises(SacParseError, match="^program too deeply nested to stage"):
        interp_sac(f"int f(int x) {{ return {deep}; }}", "f", [1])


DBL = """
dbl : {n : Nat} -> Ar Float 1 (n ∷ []) -> Ar Float 1 (n ∷ [])
dbl a = imap (\\(i ∷ []) -> 1.0 +f (let x = sel a (i ∷ []) in x +f x))
"""

# (source, entry, source evaluator arguments)
AGREEMENT = {
    "small float": ("w : Float -> Float\nw x = x *f 0.00001\n", "w", [2.5]),
    "large float": ("w : Float -> Float\nw x = x +f 100000000000000000.0\n",
                    "w", [3.0]),
    "keyword variable": ("k : Float -> Float\nk return = return +f 1.0\n",
                         "k", [2.0]),
    "let in a loop body": (DBL, "dbl", [3, varr((3,), [1.0, 2.5, -4.0])]),
    # binders named like the ones the backend binds
    "pattern variables named as parameters": (
        "w : Float -> Float -> Float\nw x_2 x_1 = x_2 -f x_1\n", "w",
        [5.0, 1.0]),
    "argument named as a loop index": (
        "w : Float -> Ar Float 1 (3 ∷ [])\n"
        "w iv_1 = imap (\\(i ∷ []) -> iv_1 +f 1.0)\n", "w", [2.0]),
    "let shadows a pattern variable": (
        "w : Nat -> Nat -> Nat\nw a_1 a = let a = a + 1 in a * a + a_1\n",
        "w", [10, 3]),
    "let renamed onto a parameter": (
        "w : Nat -> Nat -> Nat\n"
        "w t_1 b = let t = b + 1 in let t = t * t in t * t + t_1\n", "w",
        [10, 3]),
    # a bare ravel, which the corpus fuses into a fold, is a library call
    "ravel": ("rv : Ar Float 2 (2 ∷ 3 ∷ []) -> Ar Float 1 (6 ∷ [])\nrv a = ravel a\n",
              "rv", [varr((2, 3), [1.0, 2.0, 3.0, 4.0, 5.0, 6.5])]),
    "ravel of a symbolic shape": (
        "rv : (m n : Nat) -> Ar Float 2 (m ∷ n ∷ []) -> Ar Float 1 (m * n ∷ [])\n"
        "rv m n a = ravel a\n", "rv", [3, 1, varr((3, 1), [1.0, -2.0, 0.5])]),
    # an int array's element is a numpy integer on the SaC side
    "natural selected from an array": (
        "w : Ar Nat 1 (3 ∷ []) -> Nat\nw a = sel a (1 ∷ [])\n", "w",
        [varr((3,), [4, 5, 6])]),
    "a vector's tail": ("w : Vec Nat 3 -> Nat\nw (x ∷ xs) = x + vhd xs\n", "w",
                        [(1, 2, 3)]),
    "% operand named as a let": (
        "w : (mod_1 b : Nat) -> 0 < b -> Nat\n"
        "w mod_1 b p = (mod_1 + 1) % (b + mod_1)\n", "w", [20, 1, 1]),
}


@pytest.mark.parametrize("case", list(AGREEMENT))
def test_target_agrees_with_the_source(case):
    src, entry, args = AGREEMENT[case]
    e = load_sources([("w", src)])
    text = kompile(entry, [], [], SacBackend(), e.env, e.rules)
    got = interp_sac(text, entry, target_args(e.env, entry, "sac")(args))
    assert compare(call(e.env, entry, args), got)


@pytest.mark.parametrize("name", ["log2", "ack", "fib", "ex7"])
def test_the_scalar_corpus_agrees_on_sac_too(name):
    # log2', ack and fibstep are clause chains
    row = run_corpus_diff(dataclasses.replace(corpus.CORPUS[name], backend="sac"),
                          100, 1)
    assert (row.mismatches, row.inconclusive) == (0, [])


def test_the_clause_fall_through_aborts():
    # an absurd clause, and the end of a chain whose last clause is guarded
    src = "ab : (n : Nat) -> n < 0 -> Float\nab n ()\n\ng : Nat -> Nat\ng (suc n) = n\n"
    e = load_sources([("w", src)])
    for entry, arg in [("ab", 3), ("g", 0)]:
        text = kompile(entry, [], [], SacBackend(), e.env, e.rules,
                       ExtractOptions(no_assert=True))
        assert "assert (0);" in text
        assert interp_sac(text, entry, [arg]) == Aborted("assert (0)")
    assert interp_sac(text, "g", [4]) == 3


LISTS = """
g : List Nat -> Nat
g [] = 0

len : List Nat -> Nat
len [] = 0
len (x ∷ xs) = suc (len xs)

h : List Nat -> Nat -> Nat
h (x ∷ y ∷ []) zero = x
h (x ∷ y ∷ []) (suc k) = y
"""


def test_a_list_pattern_tests_the_list_length():
    e = load_sources([("w", LISTS)])
    text = {f: kompile(f, [], [], SacBackend(), e.env, e.rules)
            for f in ("g", "len", "h")}
    assert "if (shape (x_1)[0] == 0) {" in text["g"]
    assert "} else if (shape (x_1)[0] > 0) {" in text["len"]
    # the fall-through aborts as `assert (0)`, as in Kaleidoscope
    assert interp_sac(text["g"], "g", [np.array([1, 2])]) == \
        Aborted("assert (0)")

    def source(f, args):
        out = call(e.env, f, args)
        if isinstance(out, Aborted):
            assert out.reason.startswith(f"{f}: no clause matches"), out
            return Aborted("assert (0)")
        return out

    for xs in ([], [1], [1, 2], [4, 5, 6]):
        for f, rest in [("g", []), ("len", []), ("h", [0]), ("h", [3])]:
            args = [tuple(xs), *rest]
            assert interp_sac(text[f], f, [to_target(a) for a in args]) == \
                source(f, args), (f, xs, rest)


def test_lets_follow_the_macros_they_use():
    src = ("w : Ar Float 1 (3 ∷ []) -> Float\n"
           "w (imap p) = let y = p (1 ∷ []) in 1.0 +f (y +f y)\n")
    e = load_sources([("w", src)])
    text = kompile("w", [], [], SacBackend(), e.env, e.rules)
    assert text.index("#define p") < text.index("y = ")
    assert interp_sac(text, "w", [np.array([1.0, 2.0, 3.0])]) == 5.0
