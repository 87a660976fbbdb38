"""De Bruijn algebra, the term printer, and environment behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eslc import ir
from eslc.builtins import seed_env
from eslc.elaborate import Hole, Meta, VVar, _eval, _fill, _quote, _Unsolved
from eslc.ir import (Abs, Arg, Con, Def, Lam, Let, Lit, Pi, Sort, Unknown,
                     UnknownName, Var, hid, print_term, shift, subst, vis)


def test_shift_basics():
    assert shift(Var(0), 1, 0) == Var(1)
    assert shift(Var(0), 1, 1) == Var(0)
    assert shift(Lam(Abs("x", Var(0))), 3, 0) == Lam(Abs("x", Var(0)))
    assert shift(Lam(Abs("x", Var(1))), 3, 0) == Lam(Abs("x", Var(4)))


def test_shift_zero_is_identity():
    t = Def("_+_", (vis(Var(2)), vis(Lam(Abs("x", Var(0))))))
    assert shift(t, 0) == t


def test_subst_basics():
    assert subst(Var(0), 0, Lit(5)) == Lit(5)
    assert subst(Var(1), 0, Lit(5)) == Var(0)
    t = Def("_+_", (vis(Var(0)), vis(Var(0))))
    assert subst(t, 0, Lit(2)) == Def("_+_", (vis(Lit(2)), vis(Lit(2))))


def test_subst_applies_lambdas():
    # (Var 0) x with Var 0 := λy. y  reduces on the spot
    t = Var(0, (vis(Lit(7)),))
    assert subst(t, 0, Lam(Abs("y", Var(0)))) == Lit(7)


def test_shift_shares_a_closed_term():
    t = Lam(Abs("x", Def("_+_", (vis(Var(0)), vis(Con("suc", (vis(Lit(1)),)))))))
    assert shift(t, 1) is t
    # only the changed spine is rebuilt; the unchanged argument is shared
    u = Def("_+_", (vis(Var(0)), vis(t)))
    assert shift(u, 1).args[1] is u.args[1]


def test_subst_shares_a_term_without_the_variable():
    t = Pi(vis(Def("Nat")), Abs("n", Def("Vec", (vis(Def("Nat")), vis(Var(0))))))
    assert subst(t, 0, Lit(3)) is t
    # free variables below the substituted index are left alone too
    u = Lam(Abs("y", Var(0, (vis(Var(1)),))))
    assert subst(u, 1, Lit(3)) is u


def test_a_hole_reads_its_meta_once_solved():
    m = Meta("?m1@0", 0)
    t = Def("_+_", (vis(Hole(m.name, (), m)), vis(Lam(Abs("x", Var(0))))))
    # unsolved, the hole quotes back as itself, and strictly not at all
    assert _quote(_eval(t, ()), 0) == t
    with pytest.raises(_Unsolved):
        _quote(_eval(t, ()), 0, strict=True)
    m.solution = VVar(0)
    # a solution is scoped by level, so it reads right under any binders
    assert _quote(_eval(t, ()), 1, strict=True) == \
        Def("_+_", (vis(Var(0)), vis(Lam(Abs("x", Var(0))))))
    assert _quote(_eval(Lam(Abs("y", t)), ()), 1) == \
        Lam(Abs("y", Def("_+_", (vis(Var(1)), vis(Lam(Abs("x", Var(0))))))))
    # filling the term itself gives the same, and shares what has no hole
    filled = _fill(Lam(Abs("y", t)), 1)
    assert filled == _quote(_eval(Lam(Abs("y", t)), ()), 1)
    assert filled.scope.body.args[1] is t.args[1]


# random term generator (free variables allowed)


def _terms(applied: bool):
    def compound(sub):
        forms = [
            st.tuples(sub, sub).map(lambda ab: Def("_+_", (vis(ab[0]), vis(ab[1])))),
            sub.map(lambda b: Lam(Abs("x", b))),
            st.tuples(sub, sub).map(lambda ab: Let(ab[0], Abs("y", ab[1]))),
            st.tuples(sub, sub).map(lambda ab: Pi(vis(ab[0]), Abs("z", ab[1]))),
        ]
        if applied:
            forms.append(st.tuples(st.integers(0, 3), sub)
                         .map(lambda ib: Var(ib[0], (vis(ib[1]),))))
        return st.one_of(*forms)

    leaves = st.one_of(st.integers(0, 3).map(Var), st.integers(0, 9).map(Lit),
                       st.just(Con("zero")))
    return st.recursive(leaves, compound, max_leaves=24)


_term_st = _terms(applied=True)
# what may stand in an applied variable's place: a variable, or a lambda
# that reduces on the spot to a term that applies nothing
_value_st = st.one_of(st.integers(0, 3).map(Var),
                      _terms(applied=False).map(lambda b: Lam(Abs("y", b))))


@settings(max_examples=250, deadline=None)
@given(_term_st, st.integers(0, 3), st.integers(0, 3))
def test_shift_composes(t, a, b):
    assert shift(shift(t, a, 1), b, 1) == shift(t, a + b, 1)


@settings(max_examples=250, deadline=None)
@given(_term_st, st.integers(0, 6))
def test_subst_after_shift_is_identity(t, n):
    assert subst(shift(t, 1, 1), 1, Var(n)) == t


@settings(max_examples=250, deadline=None)
@given(_term_st, st.integers(0, 2), st.lists(_value_st, min_size=1, max_size=3))
def test_block_subst_is_iterated_single_subst(t, idx, vals):
    # one at a time from the last: the block variables still in place sit
    # below the rest, so each value is shifted past them
    want = t
    for i in reversed(range(len(vals))):
        want = subst(want, idx + i, shift(vals[i], i, idx))
    assert subst(t, idx, *vals) == want


@settings(max_examples=250, deadline=None)
@given(_term_st, st.lists(_value_st, min_size=1, max_size=3))
def test_block_subst_shares_a_term_without_the_variables(t, vals):
    # the generated terms have no free variable above 3
    assert subst(t, 4, *vals) is t


def test_print_term_covers_all_forms():
    t = Pi(Arg(Def("Nat"), True),
           Abs("n", Let(Lit(1.5), Abs("x", Con("suc", (vis(Var(0)),))))))
    assert print_term(t) == \
        '(pi h "n" (def "Nat") (let "x" (flit 1.5) (con "suc" (v (var 0)))))'
    f = Lam(Abs("f", Var(0, (hid(Lit(2)), vis(Def('q"\\'))))), True)
    assert print_term(f) == r'(lam h "f" (var 0 (h (lit 2)) (v (def "q\"\\"))))'
    assert print_term(Lam(Abs("y", Sort()))) == '(lam v "y" (sort))'
    assert print_term(Unknown()) == "(unknown)"


def test_map_subterms_visits_each_immediate_subterm_at_its_depth():
    a, b = Lit(1), Lit(2)
    cases = [(Var(3, (vis(a), hid(b))), [(a, 5), (b, 5)]),
             (Con("c", (vis(a),)), [(a, 5)]),
             (Def("d", (hid(a), vis(b))), [(a, 5), (b, 5)]),
             (Lam(Abs("x", a), True), [(a, 6)]),
             (Let(a, Abs("x", b)), [(b, 6), (a, 5)]),  # body before bound
             (Pi(hid(a), Abs("x", b)), [(b, 6), (a, 5)]),
             (Lit(3), []), (Sort(), []), (Unknown(), [])]
    for t, want in cases:
        seen = []
        assert ir.map_subterms(t, lambda u, d, r: seen.append((u, d, r)) or u,
                               5, "r") is t
        assert seen == [(u, d, "r") for u, d in want], t
    pi = ir.map_subterms(Pi(hid(a), Abs("x", b)), lambda u, d: Lit(d), 0)
    assert pi == Pi(hid(Lit(0)), Abs("x", Lit(1)))


def test_env_lookup():
    env = seed_env()
    assert env.lookup("suc").payload.of == "Nat"
    with pytest.raises(UnknownName):
        env.lookup("nosuch")


def test_negative_shift_raises():
    with pytest.raises(ir.NegativeIndex):
        shift(Var(0), -1, 0)


def _identity_env(depth):
    return tuple(VVar(depth - 1 - i) for i in range(depth))


@settings(max_examples=250, deadline=None)
@given(_term_st)
def test_quote_of_eval_is_the_identity(t):
    # the generated terms have no free variable above 3
    assert _quote(_eval(t, _identity_env(4)), 4) == t


@settings(max_examples=250, deadline=None)
@given(_term_st, _value_st)
def test_eval_then_quote_is_substitution(t, val):
    # Var 0 := val; val and the result are scoped over 4 variables
    env = (_eval(val, _identity_env(4)),) + _identity_env(4)
    assert _quote(_eval(t, env), 4) == subst(t, 0, val)
