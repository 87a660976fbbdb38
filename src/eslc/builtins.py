"""The seeded definition environment and the table of primitives.

Each primitive is declared once, in PRIMS: its signature, its clauses if
it has any, its meaning as a Python function of all its parameters,
hidden ones included, and the obligation a call of it owes if it takes
no proof argument.  The function is total: it returns a value or raises
EvalError.  The evaluator calls it; the normalizer computes with it the
entries marked `folds` once their arguments are closed; the elaborator
discharges the obligation at each saturated call.

Arithmetic on naturals also has ordinary clauses (zero/suc matching), so
the normalizer can reduce it on symbolic arguments like any user
function; division and mod go through the usual accumulator helpers so
symbolic divisions leave the residual the backends expect.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

from . import shapes
from .ir import (Abs, Arg, Builtin, Clause, Con, Constructor, Datatype, Def,
                 Definition, Env, EvalError, Function, Lit, PCon, Pi, PVar,
                 Sort, Term, Var, hid, pi_spine, vis)

NAT = "Nat"
FLOAT = "Float"

PROP_HEADS = ("_<_", "_≡_")


@dataclass(frozen=True)
class Prim:
    """One primitive; its arity is the number of its signature's binders."""
    name: str
    sig: Term
    fn: Callable  # called with exactly `arity` arguments
    clauses: tuple[Clause, ...] | None = None  # None: a Builtin
    # the normalizer computes it once every visible argument is closed: a
    # literal, or a vcons/icons spine of terms
    folds: bool = False
    # a use-site obligation: how it is described, and its constraint as a
    # function of the shape keys and of all the call's arguments
    owes: tuple[str, Callable] | None = None
    # False if fn never reads its hidden parameters: the evaluator then
    # need not compute a hidden argument whose computation cannot fail
    reads_hidden: bool = True

    @property
    def arity(self) -> int:
        return len(pi_spine(self.sig)[0])


def mk_pi(binders: list[tuple[str, Term, bool]], ret: Term) -> Term:
    out = ret
    for name, ty, hidden in reversed(binders):
        out = Pi(Arg(ty, hidden), Abs(name, out))
    return out


def _nat() -> Term:
    return Def(NAT)


def _float() -> Term:
    return Def(FLOAT)


def _vec(x: Term, n: Term) -> Term:
    return Def("Vec", (vis(x), vis(n)))


def _setty() -> Term:
    return Sort()


# --------------------------------------------------------------------------
# the meaning of each primitive: a Python function of all its parameters


def arr_index(arr, ix):
    _, shape, flat = arr
    comps = ix[1]
    if len(comps) != len(shape):
        raise EvalError("partial selection must go through sel")
    pos = 0
    for c, n in zip(comps, shape):
        if not 0 <= c < n:
            raise EvalError(f"index {comps} out of bounds for shape {shape}")
        pos = pos * n + c
    return flat[pos]


def _monus(a, b):
    return max(a - b, 0)


def _div(a, b):
    if b == 0:
        raise EvalError("division by zero")
    return a // b


def _mod(a, b):
    if b == 0:
        raise EvalError("mod by zero")
    return a % b


def _div_helper(k, m, n, j):
    # the clauses' value: n + m - j is below zero only when n runs out
    # before j does, and then the value is k
    return k + max(n + m - j, 0) // (1 + m)


def _mod_helper(k, m, n, j):
    # accumulator semantics of the standard helper
    while True:
        if n == 0:
            return k
        if j == 0:
            k, n, j = 0, n - 1, m
        else:
            k, n, j = k + 1, n - 1, j - 1


def _float_op(op):
    def h(x, y):
        if not isinstance(x, float) or not isinstance(y, float):
            raise EvalError("float operation on non-float")
        return op(x, y)
    return h


def _fdiv(a, b):
    if b == 0.0:
        raise EvalError("float division by zero")
    return a / b


def _expf(a):
    try:
        return math.exp(a)
    except OverflowError:  # as C's expf: too large a result is infinity
        return math.inf


def _vidx(X, n, i, v):
    if not 0 <= i < len(v[1]):
        raise EvalError(f"vector index {i} out of bounds")
    return v[1][i]


def _vhd(X, n, v):
    if not v[1]:
        raise EvalError("vhd of an empty vector")
    return v[1][0]


def _vtl(X, n, v):
    if not v[1]:
        raise EvalError("vtl of an empty vector")
    return ("vec", v[1][1:])


def _vtake(X, n, k, v):
    if k > len(v[1]):
        raise EvalError(f"vtake {k} of a vector of length {len(v[1])}")
    return ("vec", v[1][:k])


def _ixc(d, s, k, i):
    try:  # in range, this costs no more than the bare subscript
        return i[1][k]
    except IndexError:
        raise EvalError(f"index component {k} past rank {len(i[1])}") from None


def _ravel(X, d, s, arr):
    return ("arr", (math.prod(arr[1]),), list(arr[2]))


def _reshape(X, d, s, e, t, arr):
    shape = tuple(t[1])
    if math.prod(shape) != len(arr[2]):
        raise EvalError("reshape changes the number of elements")
    return ("arr", shape, list(arr[2]))


# --------------------------------------------------------------------------
# the table


def _prims() -> list[Prim]:
    out: list[Prim] = []

    def prim(name: str, sig: Term, fn: Callable, clauses=None,
             folds: bool = False, owes=None, reads_hidden: bool = True):
        out.append(Prim(name, sig, fn, None if clauses is None
                        else tuple(clauses), folds, owes, reads_hidden))

    def nonzero_divisor(name):
        return (f"nonzero divisor in {name}", lambda names, a, b:
                shapes.nonzero(shapes.term_to_scalar(b, names)))

    nat2 = mk_pi([("a", _nat(), False), ("b", _nat(), False)], _nat())

    # _+_ : zero + n = n ; suc m + n = suc (m + n)
    prim("_+_", nat2, operator.add, folds=True, clauses=[
        Clause((("n", vis(_nat())),),
               (vis(PCon("zero")), vis(PVar(0))),
               Var(0)),
        Clause((("m", vis(_nat())), ("n", vis(_nat()))),
               (vis(PCon("suc", (vis(PVar(1)),))), vis(PVar(0))),
               Con("suc", (vis(Def("_+_", (vis(Var(1)), vis(Var(0))))),))),
    ])

    # _*_ : zero * n = zero ; suc m * n = n + m * n
    prim("_*_", nat2, operator.mul, folds=True, clauses=[
        Clause((("n", vis(_nat())),),
               (vis(PCon("zero")), vis(PVar(0))),
               Con("zero")),
        Clause((("m", vis(_nat())), ("n", vis(_nat()))),
               (vis(PCon("suc", (vis(PVar(1)),))), vis(PVar(0))),
               Def("_+_", (vis(Var(0)),
                           vis(Def("_*_", (vis(Var(1)), vis(Var(0)))))))),
    ])

    # monus
    prim("_-_", nat2, _monus, folds=True, clauses=[
        Clause((("n", vis(_nat())),),
               (vis(PVar(0)), vis(PCon("zero"))),
               Var(0)),
        Clause((("m", vis(_nat())),),
               (vis(PCon("zero")), vis(PCon("suc", (vis(PVar(0)),)))),
               Con("zero")),
        Clause((("n", vis(_nat())), ("m", vis(_nat()))),
               (vis(PCon("suc", (vis(PVar(1)),))), vis(PCon("suc", (vis(PVar(0)),)))),
               Def("_-_", (vis(Var(1)), vis(Var(0))))),
    ])

    nat4 = mk_pi([("k", _nat(), False), ("m", _nat(), False),
                  ("n", _nat(), False), ("j", _nat(), False)], _nat())

    def dh(k, m, n, j):
        return Def("div-helper", (vis(k), vis(m), vis(n), vis(j)))

    prim("div-helper", nat4, _div_helper, clauses=[
        Clause((("k", vis(_nat())), ("m", vis(_nat())), ("j", vis(_nat()))),
               (vis(PVar(2)), vis(PVar(1)), vis(PCon("zero")), vis(PVar(0))),
               Var(2)),
        Clause((("k", vis(_nat())), ("m", vis(_nat())), ("n", vis(_nat()))),
               (vis(PVar(2)), vis(PVar(1)),
                vis(PCon("suc", (vis(PVar(0)),))), vis(PCon("zero"))),
               dh(Con("suc", (vis(Var(2)),)), Var(1), Var(0), Var(1))),
        Clause((("k", vis(_nat())), ("m", vis(_nat())),
                ("n", vis(_nat())), ("j", vis(_nat()))),
               (vis(PVar(3)), vis(PVar(2)),
                vis(PCon("suc", (vis(PVar(1)),))), vis(PCon("suc", (vis(PVar(0)),)))),
               dh(Var(3), Var(2), Var(1), Var(0))),
    ])

    def mh(k, m, n, j):
        return Def("mod-helper", (vis(k), vis(m), vis(n), vis(j)))

    prim("mod-helper", nat4, _mod_helper, clauses=[
        Clause((("k", vis(_nat())), ("m", vis(_nat())), ("j", vis(_nat()))),
               (vis(PVar(2)), vis(PVar(1)), vis(PCon("zero")), vis(PVar(0))),
               Var(2)),
        Clause((("k", vis(_nat())), ("m", vis(_nat())), ("n", vis(_nat()))),
               (vis(PVar(2)), vis(PVar(1)),
                vis(PCon("suc", (vis(PVar(0)),))), vis(PCon("zero"))),
               mh(Lit(0), Var(1), Var(0), Var(1))),
        Clause((("k", vis(_nat())), ("m", vis(_nat())),
                ("n", vis(_nat())), ("j", vis(_nat()))),
               (vis(PVar(3)), vis(PVar(2)),
                vis(PCon("suc", (vis(PVar(1)),))), vis(PCon("suc", (vis(PVar(0)),)))),
               mh(Con("suc", (vis(Var(3)),)), Var(2), Var(1), Var(0))),
    ])

    # a / (suc m) = div-helper 0 m a m ; use sites owe a NonZero obligation
    prim("_/_", nat2, _div, owes=nonzero_divisor("_/_"), clauses=[
        Clause((("a", vis(_nat())), ("m", vis(_nat()))),
               (vis(PVar(1)), vis(PCon("suc", (vis(PVar(0)),)))),
               dh(Lit(0), Var(0), Var(1), Var(0))),
    ])
    prim("_%_", nat2, _mod, owes=nonzero_divisor("_%_"), clauses=[
        Clause((("a", vis(_nat())), ("m", vis(_nat()))),
               (vis(PVar(1)), vis(PCon("suc", (vis(PVar(0)),)))),
               mh(Lit(0), Var(0), Var(1), Var(0))),
    ])

    # a Fin is encoded by the bound's left endpoint, its first argument
    prim("fromN<",
         mk_pi([("m", _nat(), True), ("n", _nat(), True),
                ("p", Def("_<_", (vis(Var(1)), vis(Var(0)))), False)],
               Def("Fin", (vis(Var(1)),))),
         lambda m, n, p: m)
    prim("toN",
         mk_pi([("n", _nat(), True), ("i", Def("Fin", (vis(Var(0)),)), False)],
               _nat()),
         lambda n, i: i)

    prim("_≟_",
         mk_pi([("a", _nat(), False), ("b", _nat(), False)],
               Def("Dec", (vis(Def("_≡_", (hid(_nat()), vis(Var(1)), vis(Var(0))))),))),
         lambda a, b: ("dec", a == b), folds=True)
    prim("_<?_",
         mk_pi([("a", _nat(), False), ("b", _nat(), False)],
               Def("Dec", (vis(Def("_<_", (vis(Var(1)), vis(Var(0))))),))),
         lambda a, b: ("dec", a < b), folds=True)

    fl2 = mk_pi([("a", _float(), False), ("b", _float(), False)], _float())
    for name, fn in [("_+f_", _float_op(operator.add)),
                     ("_-f_", _float_op(operator.sub)),
                     ("_*f_", _float_op(operator.mul)), ("_/f_", _fdiv)]:
        prim(name, fl2, fn, folds=True)
    prim("expf", mk_pi([("a", _float(), False)], _float()), _expf, folds=True)

    # array/vector primitives
    vecXn = [("X", _setty(), True), ("n", _nat(), True)]
    prim("vidx",
         mk_pi(vecXn + [("i", _nat(), False), ("v", _vec(Var(2), Var(1)), False)],
               Var(3)),
         _vidx, folds=True,
         owes=("vector index in bounds", lambda names, X, n, i, v: shapes.lt(
             shapes.term_to_scalar(i, names), shapes.term_to_scalar(n, names))))
    prim("vreverse",
         mk_pi(vecXn + [("v", _vec(Var(1), Var(0)), False)], _vec(Var(2), Var(1))),
         lambda X, n, v: ("vec", tuple(reversed(v[1]))), folds=True)
    prim("vhd",
         mk_pi(vecXn + [("v", _vec(Var(1), Con("suc", (vis(Var(0)),))), False)],
               Var(2)),
         _vhd, folds=True)
    prim("vtl",
         mk_pi(vecXn + [("v", _vec(Var(1), Con("suc", (vis(Var(0)),))), False)],
               _vec(Var(2), Var(1))),
         _vtl, folds=True)
    prim("vtake",
         mk_pi(vecXn + [("k", _nat(), False), ("v", _vec(Var(2), Var(1)), False)],
               _vec(Var(3), Var(1))),
         _vtake, folds=True,
         owes=("vector prefix within the length", lambda names, X, n, k, v:
               shapes.lt(shapes.term_to_scalar(k, names), shapes.SAdd(
                   shapes.term_to_scalar(n, names), shapes.SLit(1)))))
    prim("vdrop",
         mk_pi(vecXn + [("k", _nat(), False), ("v", _vec(Var(2), Var(1)), False)],
               _vec(Var(3), Def("_-_", (vis(Var(2)), vis(Var(1)))))),
         lambda X, n, k, v: ("vec", v[1][k:]), folds=True)
    prim("vappend",
         mk_pi([("X", _setty(), True), ("m", _nat(), True), ("n", _nat(), True),
                ("a", _vec(Var(2), Var(1)), False), ("b", _vec(Var(3), Var(1)), False)],
               _vec(Var(4), Def("_+_", (vis(Var(3)), vis(Var(2)))))),
         lambda X, m, n, a, b: ("vec", a[1] + b[1]), folds=True)
    prim("_*v_",
         mk_pi([("d", _nat(), True), ("v", _vec(_nat(), Var(0)), False),
                ("k", _nat(), False)],
               _vec(_nat(), Var(2))),
         lambda d, v, k: ("vec", tuple(x * k for x in v[1])))
    prim("prodv",
         mk_pi([("d", _nat(), True), ("v", _vec(_nat(), Var(0)), False)], _nat()),
         lambda d, v: math.prod(v[1]))

    arXds = [("X", _setty(), True), ("d", _nat(), True),
             ("s", _vec(_nat(), Var(0)), True)]

    def ar(x, d, s):
        return Def("Ar", (vis(x), vis(d), vis(s)))

    def ix(d, s):
        return Def("Ix", (vis(d), vis(s)))

    prim("sel",
         mk_pi(arXds + [("a", ar(Var(2), Var(1), Var(0)), False),
                        ("i", ix(Var(2), Var(1)), False)],
               Var(4)),
         lambda X, d, s, a, i: arr_index(a, i), reads_hidden=False)
    prim("ravel",
         mk_pi(arXds + [("a", ar(Var(2), Var(1), Var(0)), False)],
               ar(Var(3), Lit(1),
                  Con("vcons", (vis(Def("prodv", (hid(Var(2)), vis(Var(1))))),
                                vis(Con("vnil")))))),
         _ravel)
    prim("reshape",
         mk_pi(arXds + [("e", _nat(), True), ("t", _vec(_nat(), Var(0)), False),
                        ("a", ar(Var(4), Var(3), Var(2)), False)],
               ar(Var(5), Var(2), Var(1))),
         _reshape,
         owes=("reshape preserves the element count",
               lambda names, X, d, s, e, t, a: shapes.eq(
                   shapes.SProd(shapes.term_to_vec(t, names)),
                   shapes.SProd(shapes.term_to_vec(s, names)))))
    prim("ixc",
         mk_pi([("d", _nat(), True), ("s", _vec(_nat(), Var(0)), True),
                ("k", _nat(), False), ("i", ix(Var(2), Var(1)), False)],
               _nat()),
         _ixc, folds=True, reads_hidden=False)
    prim("ixReverse",
         mk_pi([("d", _nat(), True), ("s", _vec(_nat(), Var(0)), True),
                ("i", ix(Var(1), Var(0)), False)],
               ix(Var(2), Def("vreverse", (hid(_nat()), hid(Var(2)), vis(Var(1)))))),
         lambda d, s, i: ("ix", tuple(reversed(i[1]))), folds=True)

    return out


PRIMS: dict[str, Prim] = {p.name: p for p in _prims()}


def seed_env() -> Env:
    env = Env()

    def data(name: str, sig: Term, cons: list[str]):
        env.add(Definition(name, sig, Datatype(cons)))

    def con(name: str, of: str, sig: Term, hidden: tuple[bool, ...]):
        env.add(Definition(name, sig, Constructor(of, hidden)))

    data(NAT, _setty(), ["zero", "suc"])
    con("zero", NAT, _nat(), ())
    con("suc", NAT, mk_pi([("n", _nat(), False)], _nat()), (False,))

    data(FLOAT, _setty(), [])

    data("Fin", mk_pi([("n", _nat(), False)], _setty()), ["fzero", "fsuc"])
    con("fzero", "Fin",
        mk_pi([("n", _nat(), True)], Def("Fin", (vis(Con("suc", (vis(Var(0)),))),))),
        (True,))
    con("fsuc", "Fin",
        mk_pi([("n", _nat(), True), ("i", Def("Fin", (vis(Var(0)),)), False)],
              Def("Fin", (vis(Con("suc", (vis(Var(1)),))),))),
        (True, False))

    data("Vec", mk_pi([("X", _setty(), False), ("n", _nat(), False)], _setty()),
         ["vnil", "vcons"])
    con("vnil", "Vec", _setty(), ())
    con("vcons", "Vec", _setty(), (False, False))

    data("List", mk_pi([("X", _setty(), False)], _setty()), ["lnil", "lcons"])
    con("lnil", "List", _setty(), ())
    con("lcons", "List", _setty(), (False, False))

    data("Ix", mk_pi([("d", _nat(), False), ("s", _vec(_nat(), Var(0)), False)],
                     _setty()), ["inil", "icons"])
    con("inil", "Ix", _setty(), ())
    con("icons", "Ix", _setty(), (False, False))

    data("Ar", mk_pi([("X", _setty(), False), ("d", _nat(), False),
                      ("s", _vec(_nat(), Var(0)), False)], _setty()), ["imap"])
    con("imap", "Ar", _setty(), (True, True, True, False))

    data("_<_", mk_pi([("a", _nat(), False), ("b", _nat(), False)], _setty()), [])
    data("_≡_", mk_pi([("X", _setty(), True), ("a", Var(0), False),
                       ("b", Var(1), False)], _setty()), [])
    data("Dec", mk_pi([("P", _setty(), False)], _setty()), ["yes", "no"])
    con("yes", "Dec", _setty(), ())
    con("no", "Dec", _setty(), ())
    con("prf", "Prop", _setty(), ())  # the erased witness of any proposition

    for p in PRIMS.values():
        payload = Builtin() if p.clauses is None else Function(list(p.clauses))
        env.add(Definition(p.name, p.sig, payload))
    return env


def is_prop_type(t: Term) -> bool:
    return isinstance(t, Def) and t.name in PROP_HEADS
