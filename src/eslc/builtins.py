"""Seeded definition environment: datatypes, constructors and the small
set of computational builtins everything else is defined on top of.

Arithmetic on naturals is given by ordinary clauses (zero/suc matching) so
the normalizer can reduce it like any user function; division and mod go
through the usual accumulator helpers so symbolic divisions leave the
residual the backends expect.
"""

from __future__ import annotations

from .ir import (Abs, Arg, Builtin, Clause, Con, Constructor, Datatype, Def,
                 Definition, Env, Function, Lit, PCon, Pi, PVar, Sort, Term,
                 Var, hid, vis)

NAT = "Nat"
FLOAT = "Float"

PROP_HEADS = ("_<_", "_≡_")


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


def seed_env() -> Env:
    env = Env()

    def data(name: str, sig: Term, cons: list[str]):
        env.add(Definition(name, sig, Datatype(cons)))

    def con(name: str, of: str, sig: Term, hidden: tuple[bool, ...]):
        env.add(Definition(name, sig, Constructor(of, hidden)))

    def fun(name: str, sig: Term, clauses: list[Clause]):
        env.add(Definition(name, sig, Function(clauses)))

    def builtin(name: str, sig: Term, tag: str):
        env.add(Definition(name, sig, Builtin(tag)))

    data(NAT, _setty(), ["zero", "suc"])
    con("zero", NAT, _nat(), ())
    con("suc", NAT, mk_pi([("n", _nat(), False)], _nat()), (False,))

    data(FLOAT, _setty(), [])
    data("String", _setty(), [])  # recognised, never supported

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

    nat2 = mk_pi([("a", _nat(), False), ("b", _nat(), False)], _nat())

    # _+_ : zero + n = n ; suc m + n = suc (m + n)
    fun("_+_", nat2, [
        Clause((("n", vis(_nat())),),
               (vis(PCon("zero")), vis(PVar(0))),
               Var(0)),
        Clause((("m", vis(_nat())), ("n", vis(_nat()))),
               (vis(PCon("suc", (vis(PVar(1)),))), vis(PVar(0))),
               Con("suc", (vis(Def("_+_", (vis(Var(1)), vis(Var(0))))),))),
    ])

    # _*_ : zero * n = zero ; suc m * n = n + m * n
    fun("_*_", nat2, [
        Clause((("n", vis(_nat())),),
               (vis(PCon("zero")), vis(PVar(0))),
               Con("zero")),
        Clause((("m", vis(_nat())), ("n", vis(_nat()))),
               (vis(PCon("suc", (vis(PVar(1)),))), vis(PVar(0))),
               Def("_+_", (vis(Var(0)),
                           vis(Def("_*_", (vis(Var(1)), vis(Var(0)))))))),
    ])

    # monus
    fun("_-_", nat2, [
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

    fun("div-helper", nat4, [
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

    fun("mod-helper", nat4, [
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
    fun("_/_", nat2, [
        Clause((("a", vis(_nat())), ("m", vis(_nat()))),
               (vis(PVar(1)), vis(PCon("suc", (vis(PVar(0)),)))),
               dh(Lit(0), Var(0), Var(1), Var(0))),
    ])
    fun("_%_", nat2, [
        Clause((("a", vis(_nat())), ("m", vis(_nat()))),
               (vis(PVar(1)), vis(PCon("suc", (vis(PVar(0)),)))),
               mh(Lit(0), Var(0), Var(1), Var(0))),
    ])

    builtin("fromN<",
            mk_pi([("m", _nat(), True), ("n", _nat(), True),
                   ("p", Def("_<_", (vis(Var(1)), vis(Var(0)))), False)],
                  Def("Fin", (vis(Var(1)),))),
            "fin-from-bound")
    builtin("toN",
            mk_pi([("n", _nat(), True), ("i", Def("Fin", (vis(Var(0)),)), False)],
                  _nat()),
            "fin-to-nat")

    builtin("_≟_",
            mk_pi([("a", _nat(), False), ("b", _nat(), False)],
                  Def("Dec", (vis(Def("_≡_", (hid(_nat()), vis(Var(1)), vis(Var(0))))),))),
            "nat-eq-dec")
    builtin("_<?_",
            mk_pi([("a", _nat(), False), ("b", _nat(), False)],
                  Def("Dec", (vis(Def("_<_", (vis(Var(1)), vis(Var(0))))),))),
            "nat-lt-dec")

    fl2 = mk_pi([("a", _float(), False), ("b", _float(), False)], _float())
    for name, tag in [("_+f_", "fadd"), ("_-f_", "fsub"), ("_*f_", "fmul"),
                      ("_/f_", "fdiv")]:
        builtin(name, fl2, tag)
    builtin("expf", mk_pi([("a", _float(), False)], _float()), "fexp")

    # array/vector primitives
    vecXn = [("X", _setty(), True), ("n", _nat(), True)]
    builtin("vidx",
            mk_pi(vecXn + [("i", _nat(), False), ("v", _vec(Var(2), Var(1)), False)],
                  Var(3)),
            "vec-index")
    builtin("vreverse",
            mk_pi(vecXn + [("v", _vec(Var(1), Var(0)), False)], _vec(Var(2), Var(1))),
            "vec-reverse")
    builtin("vhd",
            mk_pi(vecXn + [("v", _vec(Var(1), Con("suc", (vis(Var(0)),))), False)],
                  Var(2)),
            "vec-head")
    builtin("vtl",
            mk_pi(vecXn + [("v", _vec(Var(1), Con("suc", (vis(Var(0)),))), False)],
                  _vec(Var(2), Var(1))),
            "vec-tail")
    builtin("vtake",
            mk_pi(vecXn + [("k", _nat(), False), ("v", _vec(Var(2), Var(1)), False)],
                  _vec(Var(3), Var(1))),
            "vec-take")
    builtin("vdrop",
            mk_pi(vecXn + [("k", _nat(), False), ("v", _vec(Var(2), Var(1)), False)],
                  _vec(Var(3), Def("_-_", (vis(Var(2)), vis(Var(1)))))),
            "vec-drop")
    builtin("vappend",
            mk_pi([("X", _setty(), True), ("m", _nat(), True), ("n", _nat(), True),
                   ("a", _vec(Var(2), Var(1)), False), ("b", _vec(Var(3), Var(1)), False)],
                  _vec(Var(4), Def("_+_", (vis(Var(3)), vis(Var(2)))))),
            "vec-append")
    builtin("_*v_",
            mk_pi([("d", _nat(), True), ("v", _vec(_nat(), Var(0)), False),
                   ("k", _nat(), False)],
                  _vec(_nat(), Var(2))),
            "vec-scale")
    builtin("prodv",
            mk_pi([("d", _nat(), True), ("v", _vec(_nat(), Var(0)), False)], _nat()),
            "vec-product")

    arXds = [("X", _setty(), True), ("d", _nat(), True),
             ("s", _vec(_nat(), Var(0)), True)]

    def ar(x, d, s):
        return Def("Ar", (vis(x), vis(d), vis(s)))

    def ix(d, s):
        return Def("Ix", (vis(d), vis(s)))

    builtin("sel",
            mk_pi(arXds + [("a", ar(Var(2), Var(1), Var(0)), False),
                           ("i", ix(Var(2), Var(1)), False)],
                  Var(4)),
            "array-select")
    builtin("ravel",
            mk_pi(arXds + [("a", ar(Var(2), Var(1), Var(0)), False)],
                  ar(Var(3), Lit(1),
                     Con("vcons", (vis(Def("prodv", (hid(Var(2)), vis(Var(1))))),
                                   vis(Con("vnil")))))),
            "array-ravel")
    builtin("reshape",
            mk_pi(arXds + [("e", _nat(), True), ("t", _vec(_nat(), Var(0)), False),
                           ("a", ar(Var(4), Var(3), Var(2)), False)],
                  ar(Var(5), Var(2), Var(1))),
            "array-reshape")
    builtin("ixc",
            mk_pi([("d", _nat(), True), ("s", _vec(_nat(), Var(0)), True),
                   ("k", _nat(), False), ("i", ix(Var(2), Var(1)), False)],
                  _nat()),
            "index-component")
    builtin("ixReverse",
            mk_pi([("d", _nat(), True), ("s", _vec(_nat(), Var(0)), True),
                   ("i", ix(Var(1), Var(0)), False)],
                  ix(Var(2), Def("vreverse", (hid(_nat()), hid(Var(2)), vis(Var(1)))))),
            "index-reverse")

    return env


def is_prop_type(t: Term) -> bool:
    return isinstance(t, Def) and t.name in PROP_HEADS
