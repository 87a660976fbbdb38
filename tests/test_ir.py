"""De Bruijn algebra, printer round-trips, and environment behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eslc import ir
from eslc.builtins import seed_env
from eslc.elaborate import _Metas
from eslc.ir import (Abs, Arg, Con, Def, Lam, Let, Lit, Pi, Sort, Unknown,
                     UnknownName, Var, parse_term, print_term, shift, subst,
                     vis)


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


def test_zonk_without_solved_metas_returns_its_input():
    metas = _Metas()
    t = Def("_+_", (vis(metas.fresh(0)), vis(Lam(Abs("x", Var(0))))))
    assert metas.zonk(t, 0) is t
    # once a meta is solved, subterms without one are still shared
    metas.sol[t.args[0].value.name] = (Lit(2), 0)
    z = metas.zonk(t, 0)
    assert z.args[0].value == Lit(2) and z.args[1] is t.args[1]
    assert not metas.has_unsolved(z)


# random term generator (free variables allowed)

_term_st = st.recursive(
    st.one_of(
        st.integers(0, 3).map(Var),
        st.integers(0, 9).map(Lit),
        st.just(Con("zero")),
    ),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda ab: Def("_+_", (vis(ab[0]), vis(ab[1])))),
        sub.map(lambda b: Lam(Abs("x", b))),
        st.tuples(sub, sub).map(lambda ab: Let(ab[0], Abs("y", ab[1]))),
    ),
    max_leaves=24,
)


@settings(max_examples=250, deadline=None)
@given(_term_st, st.integers(0, 3), st.integers(0, 3))
def test_shift_composes(t, a, b):
    assert shift(shift(t, a, 1), b, 1) == shift(t, a + b, 1)


@settings(max_examples=250, deadline=None)
@given(_term_st, st.integers(0, 6))
def test_subst_after_shift_is_identity(t, n):
    assert subst(shift(t, 1, 1), 1, Var(n)) == t


@settings(max_examples=250, deadline=None)
@given(_term_st)
def test_print_parse_roundtrip(t):
    assert parse_term(print_term(t)) == t


def test_print_parse_covers_all_forms():
    t = Pi(Arg(Def("Nat"), True),
           Abs("n", Let(Lit(1.5), Abs("x", Con("suc", (vis(Var(0)),))))))
    assert parse_term(print_term(t)) == t
    assert parse_term(print_term(Sort())) == Sort()
    assert parse_term(print_term(Unknown())) == Unknown()


def test_env_lookup():
    env = seed_env()
    assert env.lookup("suc").payload.of == "Nat"
    with pytest.raises(UnknownName):
        env.lookup("nosuch")


def test_negative_shift_raises():
    with pytest.raises(ir.NegativeIndex):
        shift(Var(0), -1, 0)
