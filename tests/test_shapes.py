"""Decider tests: the yes/no answers the rest of the toolkit leans on."""

import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eslc import shapes as sh
from eslc.elaborate import Hole, Meta
from eslc.ir import Abs, Def, Lam, Var, print_term, vis
from eslc.shapes import (SAdd, SDiv, SLit, SMod, SMonus, SMul, SVar, VCons,
                         VNil, VScale, VVar, decide, eq, lt, veq)


def v(k):
    return SVar(k)


def test_n_lt_1_plus_n():
    assert decide(lt(v("x"), SAdd(SLit(1), v("x"))), []) == "yes"


def test_x_lt_y_has_counterexample():
    assert decide(lt(v("x"), v("y")), []) == "no"
    cx = sh.find_counterexample(lt(v("x"), v("y")), [])
    assert cx is not None and not (cx["x"] < cx["y"])


def test_div_lemma_suc_x_half_below_m():
    goal = lt(SDiv(SAdd(v("x"), SLit(1)), 2), v("m"))
    assert decide(goal, [lt(v("x"), v("m"))]) == "yes"


def test_square_below_one_plus_square():
    sq = SMul(v("n"), v("n"))
    assert decide(lt(sq, SAdd(SLit(1), sq)), []) == "yes"


def test_block_index_bounds():
    hyp = [lt(v("i"), v("s"))]
    assert decide(lt(SMul(v("i"), SLit(2)), SMul(v("s"), SLit(2))), hyp) == "yes"
    assert decide(lt(SAdd(SMul(v("i"), SLit(2)), SLit(1)),
                     SMul(v("s"), SLit(2))), hyp) == "yes"


def test_halved_index_bound():
    assert decide(lt(SDiv(v("j"), 2), v("b")),
                  [lt(v("j"), SMul(v("b"), SLit(2)))]) == "yes"


def test_mod_below_modulus_needs_positivity():
    goal = lt(SMod(SAdd(v("i"), v("k")), v("n")), v("n"))
    assert decide(goal, [lt(v("i"), v("n"))]) == "yes"
    assert decide(goal, []) != "yes"  # n could be 0


def test_monus_cases():
    # x - y <= x unconditionally
    assert decide(lt(SMonus(v("x"), v("y")), SAdd(v("x"), SLit(1))), []) == "yes"
    # x - 0 == x
    assert decide(eq(SMonus(v("x"), SLit(0)), v("x")), []) == "yes"
    # rotation offset: n - (k % n) <= n
    inner = SMonus(v("n"), SMod(v("k"), v("n")))
    assert decide(lt(inner, SAdd(v("n"), SLit(1))), [lt(SLit(0), v("n"))]) == "yes"


def test_vector_scale_normalizes_componentwise():
    s = VCons(v("a"), VCons(v("b"), VNil()))
    goal = veq(VScale(s, SLit(2)),
               VCons(SMul(v("a"), SLit(2)), VCons(SMul(v("b"), SLit(2)), VNil())))
    assert decide(goal, []) == "yes"


def test_vector_reverse_involution():
    s = VVar("s")
    assert sh.norm_vec(sh.VReverse(sh.VReverse(s))) == s


def test_ground_false_goal_is_no():
    assert sh.decide(sh.lt(SLit(5), SLit(3)), []) == "no"
    assert sh.decide(sh.eq(SLit(2), SLit(3)), []) == "no"


def test_nonzero():
    # a nonzero divisor is asked as `0 < e`
    assert decide(lt(SLit(0), SAdd(v("x"), SLit(1))), []) == "yes"
    assert decide(lt(SLit(0), v("x")), []) == "no"


def _random_exprs(rng, names, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return SVar(rng.choice(names))
        return SLit(rng.randrange(4))
    a = _random_exprs(rng, names, depth - 1)
    b = _random_exprs(rng, names, depth - 1)
    pick = rng.randrange(5)
    if pick == 0:
        return SAdd(a, b)
    if pick == 1:
        return SMul(a, b)
    if pick == 2:
        return SMonus(a, b)
    if pick == 3:
        return SDiv(a, rng.randrange(1, 4))
    return SMod(a, SAdd(b, SLit(1)))


def test_soundness_against_exhaustive_evaluation():
    """Every yes/no on <=3 variables agrees with brute force over 0..8."""
    import random

    rng = random.Random(7)
    names = ["x", "y", "z"]
    checked = 0
    for _ in range(300):
        lhs = _random_exprs(rng, names, 2)
        rhs = _random_exprs(rng, names, 2)
        goal = lt(lhs, rhs) if rng.random() < 0.7 else eq(lhs, rhs)
        hyps = []
        if rng.random() < 0.5:
            hyps.append(lt(SVar(rng.choice(names)), SVar(rng.choice(names))))
        verdict = decide(goal, hyps)
        if verdict == "unknown":
            continue
        checked += 1
        for vals in itertools.product(range(9), repeat=3):
            env = dict(zip(names, vals))
            if all(sh._eval_constraint(h, env) for h in hyps):
                holds = sh._eval_constraint(goal, env)
                if verdict == "yes":
                    assert holds, (goal, hyps, env)
        if verdict == "no":
            cx = sh.find_counterexample(goal, hyps)
            assert cx is not None
            assert all(sh._eval_constraint(h, cx) for h in hyps)
            assert not sh._eval_constraint(goal, cx)
    assert checked > 50


# Exactness: each "yes" below rests on a margin of 1 between products of
# about 10**24, which float64 rows (53-bit mantissa) would round away.

A, B = 10**12 + 39, 10**12 + 61


def test_exact_lt_with_large_coefficients():
    # B*P - A*Q == 1, so A*x >= P forces B*x >= Q + 1/A, hence B*x > Q
    p = pow(B, -1, A)
    q = (B * p - 1) // A
    hyp = [lt(SLit(p - 1), SMul(SLit(A), v("x")))]
    assert decide(lt(SLit(q), SMul(SLit(B), v("x"))), hyp) == "yes"
    assert decide(lt(SLit(q + 1), SMul(SLit(B), v("x"))), hyp) != "yes"


def test_exact_eq_with_large_coefficients():
    # A*x == p puts B*x at B*p/A == q + (A-1)/A: within 1 of q, not of q-1
    p = (-pow(B, -1, A)) % A
    q = B * p // A
    assert B * p - A * q == A - 1
    hyp = [eq(SMul(SLit(A), v("x")), SLit(p))]
    assert decide(eq(SMul(SLit(B), v("x")), SLit(q)), hyp) == "yes"
    assert decide(eq(SMul(SLit(B), v("x")), SLit(q - 1)), hyp) != "yes"


def test_exact_div_and_mod_atoms_with_large_operands():
    k = 10**6 + 3
    goal = lt(SDiv(v("x"), A), SLit(k))
    assert decide(goal, [lt(v("x"), SLit(A * k))]) == "yes"
    assert decide(goal, [lt(v("x"), SLit(A * k + 1))]) != "yes"
    m = 10**16 + 1
    assert decide(lt(SMod(v("x"), SLit(m)), SLit(m)), []) == "yes"
    assert decide(lt(SMod(v("x"), SLit(m)), SLit(m - 1)), []) != "yes"


# --------------------------------------------------------------------------
# the implied-goal fast path


def _corpus_questions():
    """Every (goal, hypotheses) the corpus asks while it is elaborated,
    repeats included."""
    from eslc import corpus, loader
    from eslc.elaborate import Elaborator

    asked, decide_ = [], Elaborator.decide

    def logged(self, goal, hyps):
        asked.append((goal, list(hyps)))
        return decide_(self, goal, hyps)

    Elaborator.decide = logged
    try:
        for entry in corpus.CORPUS.values():
            elab = Elaborator()
            for module in loader.PRELUDE_MODULES:
                elab.load_source(loader.prelude_text(module), f"prelude/{module}")
            for path, text in entry.sources:
                elab.load_source(text, path)
    finally:
        Elaborator.decide = decide_
    return asked


def _decide_by_elimination(goal, hyps):
    """The verdict with no shortcut: Fourier-Motzkin, then a
    counterexample search."""
    if goal.kind == "veq":
        return sh._decide_veq(goal, hyps)
    if goal.kind == "eq":
        le = [sh._decide_ineq(sh.Constraint("le", a, b), hyps)
              for a, b in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs))]
        proved = le == ["yes", "yes"]
    else:
        proved = sh._decide_ineq(goal, hyps) == "yes"
    if proved:
        return "yes"
    return "no" if sh.find_counterexample(goal, hyps) is not None else "unknown"


def test_fast_path_agrees_with_elimination_on_every_corpus_question():
    asked = _corpus_questions()
    assert len(asked) > 300
    shortcut = 0
    for goal, hyps in asked:
        shortcut += sh._implied(goal, hyps)
        assert decide(goal, hyps) == _decide_by_elimination(goal, hyps), (goal, hyps)
    assert shortcut > 100  # the path is taken, not only agreed with


def test_goal_among_hypotheses_skips_elimination(monkeypatch):
    calls = []
    fm = sh._fm_infeasible
    monkeypatch.setattr(sh, "_fm_infeasible", lambda rows: calls.append(1) or fm(rows))
    goal = lt(SMod(SAdd(v("i"), v("k")), v("n")), v("n"))
    hyps = [lt(v("i"), v("n")), goal]
    assert decide(goal, hyps) == "yes"
    assert calls == []
    assert decide(lt(v("i"), SAdd(v("n"), SLit(1))), hyps) == "yes"
    assert calls  # the same hypotheses without the goal among them do eliminate


def test_opaque_keys_rename_variables_under_binders():
    # under the lambda: the bound variable, a free one, one past the names
    # (keyed by its raw index), and a hole's argument
    m = Meta("?m1@0", 0)
    body = Def("f", (vis(Var(0)), vis(Var(2)), vis(Var(7)),
                     vis(Hole(m.name, (vis(Var(1)),), m))))
    t = Def("g", (vis(Lam(Abs("y", body))), vis(Var(0)), vis(Var(5))))
    key = Def("g", (vis(Lam(Abs("y", Def("f", (
        vis(Def("%?b")), vis(Def("%m")), vis(Def("%?v7")),
        vis(Def(m.name, (vis(Def("%n")),)))))))),
        vis(Def("%n")), vis(Def("%?v5"))))
    assert sh.term_to_scalar(t, ["n", "m"]) == sh.SOpaque(print_term(key))


# signatures whose obligations read vector primitives in a shape or a
# proposition: (source, a variant the decider must refuse, its message)
VECTOR_PRIMS = {
    "vidx": ("h : (v : Vec Nat 2) -> vidx 0 v < 5 -> Nat\nh v p = 1\n"
             "k : (v : Vec Nat 2) -> vidx {} v < 5 -> Nat\nk v p = h v p\n",
             ("0", "1"), "type mismatch"),
    "prodv": ("m : (s : Vec Nat 2) -> prodv s < 7 -> Nat\nm s p = 1\n"
              "k : (s : Vec Nat 2) -> prodv s < {} -> Nat\nk s p = m s p\n",
              ("7", "8"), "type mismatch"),
    # s's extent is unknown, so the bound 0 < s[0] is trusted, not false
    "vappend": ("{}\n"
                "f : (s : Vec Nat 1) -> Ar Float 2 (vappend s (4 ∷ [])) -> Float\n"
                "f s a = sel a (0 ∷ 3 ∷ [])\n", ("{-# TRUST f #-}", ""),
                "cannot discharge obligation"),
    "vappend of a spine": (
        "{{-# TRUST f #-}}\n"
        "f : (t : Vec Nat 1) -> Ar Float 2 (vappend (3 ∷ []) t) -> Float\n"
        "f t a = sel a ({} ∷ 0 ∷ [])\n", ("2", "3"), "is false"),
    "vreverse of a scaled vector": (
        "{{-# TRUST f #-}}\n"
        "f : (s : Vec Nat 2) -> Ar Float 2 (vreverse (s *v {})) -> Float\n"
        "f s a = sel a (0 ∷ 1 ∷ [])\n", ("2", "0"), "is false"),
    "vappend in a type": (
        "g : (s t : Vec Nat 1) -> Ar Float 2 (vappend s t) -> Ar Float 2 (vappend s t)\n"
        "g s t a = a\n"
        "h : (s t : Vec Nat 1) -> Ar Float 2 (vappend s t) -> Ar Float 2 (vappend {} t)\n"
        "h s t a = g s t a\n", ("s", "t"), "type mismatch"),
}


@pytest.mark.parametrize("name", list(VECTOR_PRIMS))
def test_obligations_read_vector_primitives(name):
    from eslc.ir import EslError
    from eslc.loader import load_sources
    src, (good, bad), why = VECTOR_PRIMS[name]
    load_sources([("t", src.format(good))])
    with pytest.raises(EslError, match=why):
        load_sources([("t", src.format(bad))])


# a small scalar: a variable or a literal, under at most two of `+` and monus
_small = st.recursive(
    st.one_of(st.sampled_from([v("a"), v("b")]), st.integers(0, 3).map(SLit)),
    lambda inner: st.one_of(st.builds(SAdd, inner, inner),
                            st.builds(SMonus, inner, inner)),
    max_leaves=3)


def _monus_nodes(s, acc: set) -> None:
    if isinstance(s, SMonus):
        acc.add(s)
    for f in s.__match_args__:
        if isinstance(getattr(s, f), sh.ShapeExpr):
            _monus_nodes(getattr(s, f), acc)


@settings(max_examples=300, deadline=None, database=None)
@given(_small, _small, st.lists(st.builds(lt, _small, _small), max_size=2))
@example(v("i"), v("n"), [lt(v("i"), v("n"))])
@example(v("i"), v("n"), [])
def test_a_remainder_below_its_divisor_is_decided_as_elimination_decides_it(e, d, hyps):
    # `decide` answers `e % d < d` as `0 < d`; the full elimination, with
    # the mod atom's defining rows, must give the same verdict wherever it
    # splits every monus atom of the question (at most four)
    goal = lt(SMod(e, d), d)
    monus = set()
    for c in [goal, *hyps]:
        _monus_nodes(c.lhs, monus), _monus_nodes(c.rhs, monus)
    assume(len(monus) <= 4)
    assert decide(goal, hyps) == _decide_by_elimination(goal, hyps)


def test_a_remainder_below_its_divisor_past_the_monus_cap():
    # a side effect of the cap, not a rule: past four monus atoms the
    # elimination splits only the first four it meets, the remainder's own
    # first, and drops the hypothesis's `a - b`; `0 < b` has no atom of
    # `e` to split, so it splits `a - b` and finds the hypothesis false.
    # The two answers differ only by the cap, and `yes` is sound
    e = v("c")
    for k in (1, 2, 3, 4):
        e = SMonus(e, SLit(k))
    goal, hyps = lt(SMod(e, v("b")), v("b")), [lt(v("a"), SMonus(v("a"), v("b")))]
    assert _decide_by_elimination(goal, hyps) == "unknown"
    assert decide(goal, hyps) == "yes"
