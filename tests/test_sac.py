"""SaC backend: flattening, with-loop emission, shape assertions, the
printer/parser pair, and the interpreter."""

import random
import warnings

import numpy as np
import pytest

from eslc import corpus
from eslc.extract import kompile
from eslc.harness import run_corpus_diff
from eslc.ir import Aborted, Con, Def, Lit, Var, vis
from eslc.loader import load_prelude, load_sources
from eslc.sac import (Inhomogeneous, SacAborted, SacBackend, attr_le,
                      flatten_type, interp_sac, parse_sac)


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
    ft = flatten_type(outer)
    assert ft.result.render() == "int[6,5]"
    assert ft.prefix == (6, 5)


def test_flatten_symbolic_shape_degrades_to_dots():
    ft = flatten_type(_ar(Def("Nat"), Lit(2), _vec(Var(0), Var(1))))
    assert ft.result.render() == "int[.,.]"


def test_flatten_dynamic_rank():
    ft = flatten_type(_ar(Def("Float"), Var(0), Var(1)))
    assert ft.result.render() == "float[*]"


def test_flatten_list_of_vectors_ok_and_nested_list_rejected():
    lv = Def("List", (vis(Def("Vec", (vis(Def("Nat")), vis(Lit(3))))),))
    assert flatten_type(lv).result.render() == "int[.,.]"
    ll = Def("List", (vis(Def("List", (vis(Def("Nat")),))),))
    with pytest.raises(Inhomogeneous):
        flatten_type(ll)


def test_attribute_ladder():
    static = ("static", (2, 2))
    rank = ("rank", 2)
    assert attr_le(static, rank)
    assert attr_le(rank, ("plus",))
    assert attr_le(("plus",), ("any",))
    assert attr_le(static, ("any",))
    assert not attr_le(rank, static)
    assert not attr_le(("rank", 1), ("rank", 2))
    assert not attr_le(("any",), ("plus",))


def test_static_vec_argument_keeps_strongest_attribute():
    e = load_prelude()
    out = kompile("avgpool", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
    assert "int[2] x_1" in out  # not weakened to int[.]


def test_avgpool_golden_structure():
    e = load_prelude()
    out = kompile("avgpool", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
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
    prog = parse_sac(kompile("avgpool", [], [], SacBackend(), e.env, e.rules,
                             def_meta=e.def_meta))
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
    out = kompile("backavgpool", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
    assert "assert (take (2, shape (__ret)) == cons (x_1[0] $* 2, " \
           "cons (x_1[1] $* 2, [])))" in out


def test_meansqerr_emits_fold_over_ravel_space():
    e = load_prelude()
    out = kompile("meansqerr", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
    assert "fold (+, 0.0f)" in out
    assert "genarray" not in out
    prog = parse_sac(out)
    r = interp_sac(prog, "meansqerr",
                   [1, np.array([2]), np.array([3.0, 1.0]), np.array([1.0, 1.0])])
    assert abs(r - 2.0) < 1e-12


def test_matmul_genarray_contains_fold():
    e = load_prelude()
    out = kompile("matmul", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
    body = out[out.index("genarray"):]
    assert out.count("genarray") == 1 and out.count("fold") == 1
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5, 6], [7, 8]])
    r = interp_sac(out, "matmul", [2, 2, 2, a, b])
    assert np.array_equal(r, a @ b)


def test_fusion_single_genarray():
    e = load_sources([("f", corpus.FUSION)])
    out = kompile("fuse2", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
    assert out.count("with {") == 1 and out.count("genarray") == 1


def test_partial_selection_through_library_wrapper():
    src = """
prow : {m n : Nat} -> (k : Nat) -> k < m -> Ar (Ar Float 1 (n ∷ [])) 1 (m ∷ []) -> Ar Float 1 (n ∷ [])
prow k p a = sel a (k ∷ [])
"""
    e = load_sources([("p", src)])
    out = kompile("prow", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
    assert "sel (" in out and "float[*] sel (int[.] idx, float[*] a)" in out
    arr = np.arange(30.0).reshape(5, 6)
    row = interp_sac(out, "prow", [5, 6, 2, arr])
    assert np.allclose(row, arr[2])
    assert isinstance(interp_sac(out, "prow", [5, 6, 9, arr]), SacAborted)


def test_full_selection_is_direct():
    src = """
pick : {m n : Nat} -> (i j : Nat) -> i < m -> j < n -> Ar Float 2 (m ∷ n ∷ []) -> Float
pick i j p q a = sel a (i ∷ j ∷ [])
"""
    e = load_sources([("p", src)])
    out = kompile("pick", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
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
    prog = parse_sac(kompile("rot-there-and-back", [], [], SacBackend(),
                             e.env, e.rules, def_meta=e.def_meta))
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(1, 9)
        x = rng.randrange(0, 15)
        a = np.array([rng.uniform(-5, 5) for _ in range(n)])
        out = interp_sac(prog, "rot_there_and_back", [n, x, a])
        assert np.allclose(out, a)


def test_differential_corpus_entries():
    for name in ["logistic", "meansqerr", "backavgpool", "avgpool", "fuse2",
                 "matmul"]:
        row = run_corpus_diff(corpus.CORPUS[name], 50, 11)
        assert row.mismatches == 0 and not row.inconclusive, name
        assert row.max_err < 1e-9, name


def test_flattening_law_on_corpus_signatures():
    e = load_prelude()
    prog = parse_sac(kompile("backavgpool", [], [], SacBackend(), e.env,
                             e.rules, def_meta=e.def_meta))
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
    out = kompile("zeros", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
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
    out = kompile("copy", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
    assert "#define p(__x) (x_2)[__x]" in out
    assert "p(iv_1)" in out
    a = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(interp_sac(out, "copy", [np.array([2, 2]), a]), a)


def test_nested_element_type_gets_shaped_default():
    src = """
rows : {m n : Nat} -> Ar Float 2 (m ∷ n ∷ []) -> Ar (Ar Float 1 (n ∷ [])) 1 (m ∷ [])
rows a = imap (\\(i ∷ []) -> imap (\\(j ∷ []) -> sel a (i ∷ j ∷ [])))
"""
    e = load_sources([("r", src)])
    out = kompile("rows", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
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
        kompile("badfold", [], [], SacBackend(), e.env, e.rules,
                def_meta=e.def_meta)


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
    out = kompile("backavgpool", ["repc"], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
    assert "repc (" in out          # fixed-translation style call remains
    assert "float[.,.] repc" not in out  # and its body is not emitted


def test_empty_index_selects_the_whole_array():
    src = """
whole : {s : Vec Nat 2} -> Ar (Ar Float 2 s) 0 [] -> Ar Float 2 s
whole a = sel a []
"""
    e = load_sources([("w", src)])
    out = kompile("whole", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
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
        assert interp_sac(prog, "f", [7, zero]) == SacAborted("mod by zero")
    assert interp_sac(prog, "f", [7, np.int64(3)]) == 1


def test_zero_rank_operands_are_scalars():
    # ((), [x]) arguments arrive as 0-d arrays; `$/` and `$%` treat them
    # as the scalars they hold
    div = "int f(int x, int y) { return x $/ y; }"
    mod = "int f(int x, int y) { return x $% y; }"
    fdiv = "double f(double x, double y) { return x $/ y; }"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert interp_sac(div, "f", [7, 2]) == 3
        q = interp_sac(div, "f", [((), [7]), ((), [2])])
        assert q == 3 and isinstance(q, (int, np.integer))
        assert interp_sac(mod, "f", [((), [7]), ((), [3])]) == 1
        assert interp_sac(fdiv, "f", [((), [7.0]), ((), [2.0])]) == 3.5
        assert interp_sac(div, "f", [((), [7]), ((), [0])]) == SacAborted("division by zero")
        assert interp_sac(mod, "f", [((), [7]), ((), [0])]) == SacAborted("mod by zero")
        assert interp_sac(fdiv, "f", [((), [7.0]), ((), [0.0])]) == SacAborted("division by zero")


def test_unbounded_recursion_aborts():
    prog = "int f(int x) { return f (x $+ 1); }"
    assert interp_sac(prog, "f", [0]) == Aborted("recursion depth")
    assert SacAborted is Aborted


def test_nat_subtraction_truncates_at_zero():
    e = load_sources([("s", "sub : Nat -> Nat -> Nat\nsub a b = a - b\n")])
    out = kompile("sub", [], [], SacBackend(), e.env, e.rules,
                  def_meta=e.def_meta)
    assert "max (a $- b, 0)" in out
    assert interp_sac(out, "sub", [3, 5]) == 0
    assert interp_sac(out, "sub", [5, 3]) == 2


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
