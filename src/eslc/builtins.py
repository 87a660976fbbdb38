"""The seeded definition environment and the table of primitives.

Each primitive is declared once: its signature and its clauses, if it
has any, as ESL text in `_PRIM_TEXT`, and its meaning in `_MEANING`: a
Python function of all its parameters, hidden ones included, and the
obligation a call of it owes if it takes no proof argument, a
proposition over the call's arguments.  The function is total: it
returns a value or raises ir.Abort.  It reads and returns the source
evaluator's values: an int for a natural, a Fin, a proof or a decision
(1 or 0), a float, a tuple of items for a vector, an index or a list,
("arr", shape, flat) for an array, and None for a type or an unread
hidden argument.  The source evaluator calls it, and
returns such an abort as an Aborted value; the normalizer computes with
it the entries marked `folds` once their arguments are closed, and
leaves a call that aborts unfolded; the elaborator discharges the
obligation at each saturated call.

Arithmetic on naturals also has ordinary clauses (zero/suc matching), so
the normalizer can reduce it on symbolic arguments like any user
function, and so do `prodv` and `sel`.  Division by a successor goes
through the accumulator helper `div-helper`, which `extract.erase`
lowers to its closed form; `_%_` has no clauses, so a mod the normalizer
cannot compute reaches the backends as the target's own operator.

That text and the seed datatypes' signatures, `_SEED_TEXT`, are read
once, at import, by `_read`: not by the elaborator, which imports the
normalizer and the evaluator, and they read PRIMS at import.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, replace

from .ir import (Abort, Abs, Arg, Builtin, Clause, Con, Constructor, Datatype,
                 Def, Definition, Env, EslError, Function, Lit, PCon, Pi, PVar,
                 Sort, Term, Var, hid, index_patterns, pi_spine, vis)
from .parser import SApp, SClause, SName, SNum, SPat, SPi, SSignature, parse

NAT = "Nat"
FLOAT = "Float"


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
    # a use-site obligation: how it is described, and its proposition (a
    # `_<_` or `_≡_`) as a function of all the call's arguments
    owes: tuple[str, Callable] | None = None
    # False if fn never reads its hidden parameters: the evaluator then
    # need not compute a hidden argument whose computation cannot fail
    reads_hidden: bool = True

    @property
    def arity(self) -> int:
        return len(pi_spine(self.sig)[0])


# --------------------------------------------------------------------------
# the text

_SEED_TEXT = """
Nat : Set
zero : Nat
suc : (n : Nat) -> Nat
Float : Set
Fin : (n : Nat) -> Set
fzero : {n : Nat} -> Fin (suc n)
fsuc : {n : Nat} -> (i : Fin n) -> Fin (suc n)
Vec : (X : Set) -> (n : Nat) -> Set
List : (X : Set) -> Set
Ix : (d : Nat) -> (s : Vec Nat d) -> Set
Ar : (X : Set) -> (d : Nat) -> (s : Vec Nat d) -> Set
_<_ : (a b : Nat) -> Set
_≡_ : {X : Set} -> (a b : X) -> Set
Dec : (P : Set) -> Set
"""

_PRIM_TEXT = """
_+_ : (a b : Nat) -> Nat
_+_ zero n = n
_+_ (suc m) n = suc (m + n)

_*_ : (a b : Nat) -> Nat
_*_ zero n = zero
_*_ (suc m) n = n + m * n

-- monus
_-_ : (a b : Nat) -> Nat
_-_ n zero = n
_-_ zero (suc m) = zero
_-_ (suc n) (suc m) = n - m

div-helper : (k m n j : Nat) -> Nat
div-helper k m zero j = k
div-helper k m (suc n) zero = div-helper (suc k) m n m
div-helper k m (suc n) (suc j) = div-helper k m n j

-- use sites owe a NonZero obligation
_/_ : (a b : Nat) -> Nat
_/_ a (suc m) = div-helper 0 m a m
_%_ : (a b : Nat) -> Nat

-- a Fin is encoded by the bound's left endpoint, its first argument
fromN< : {m n : Nat} -> (p : m < n) -> Fin n
toN : {n : Nat} -> (i : Fin n) -> Nat

_≟_ : (a b : Nat) -> Dec (_≡_ {Nat} a b)
_<?_ : (a b : Nat) -> Dec (a < b)

_+f_ : (a b : Float) -> Float
_-f_ : (a b : Float) -> Float
_*f_ : (a b : Float) -> Float
_/f_ : (a b : Float) -> Float
expf : (a : Float) -> Float

vidx : {X : Set} -> {n : Nat} -> (i : Nat) -> (v : Vec X n) -> X
vreverse : {X : Set} -> {n : Nat} -> (v : Vec X n) -> Vec X n
vhd : {X : Set} -> {n : Nat} -> (v : Vec X (suc n)) -> X
vtl : {X : Set} -> {n : Nat} -> (v : Vec X (suc n)) -> Vec X n
vtake : {X : Set} -> {n : Nat} -> (k : Nat) -> (v : Vec X n) -> Vec X k
vdrop : {X : Set} -> {n : Nat} -> (k : Nat) -> (v : Vec X n) -> Vec X (n - k)
vappend : {X : Set} -> {m n : Nat} -> (a : Vec X m) -> (b : Vec X n) -> Vec X (m + n)
_*v_ : {d : Nat} -> (v : Vec Nat d) -> (k : Nat) -> Vec Nat d
prodv : {d : Nat} -> (v : Vec Nat d) -> Nat
prodv {d} [] = 1
prodv {d} (x ∷ []) = x
prodv {d} (x ∷ y ∷ v) = prodv {d - 1} ((x * y) ∷ v)

sel : {X : Set} -> {d : Nat} -> {s : Vec Nat d} -> (a : Ar X d s) -> (i : Ix d s) -> X
sel {X} {d} {s} (imap f) i = f i
ravel : {X : Set} -> {d : Nat} -> {s : Vec Nat d} -> (a : Ar X d s)
    -> Ar X 1 (prodv {d} s ∷ [])
reshape : {X : Set} -> {d : Nat} -> {s : Vec Nat d} -> {e : Nat} -> (t : Vec Nat e)
    -> (a : Ar X d s) -> Ar X e t
ixc : {d : Nat} -> {s : Vec Nat d} -> (k : Nat) -> (i : Ix d s) -> Nat
ixReverse : {d : Nat} -> {s : Vec Nat d} -> (i : Ix d s) -> Ix d (vreverse {Nat} {d} s)
"""

# the constructors the elaborator types itself, by datatype, with which of
# their arguments are hidden; their signature is a placeholder Set
_PLACEHOLDERS = {
    "Vec": {"vnil": (), "vcons": (False, False)},
    "List": {"lnil": (), "lcons": (False, False)},
    "Ix": {"inil": (), "icons": (False, False)},
    "Ar": {"imap": (True, True, True, False)},
    "Dec": {"yes": (), "no": ()},
}

# the constructors the text names
_TEXT_CONS = {"zero": "zero", "suc": "suc", "_∷_": "vcons", "[]": "vnil",
              "imap": "imap"}


def _term(s, scope: list[str]) -> Term:
    """The term of the text's expression `s` under the names `scope`
    binds, innermost last: a bound name is a Var, `Set` the Sort, a
    numeral a Lit, a name of _TEXT_CONS a Con and any other name a Def.
    An argument is hidden only where written in braces.  Nothing else of
    ESL is read: no lambda, let or float."""
    match s:
        case SName(name):
            if name in scope:
                return Var(scope[::-1].index(name))
            if name == "Set":
                return Sort()
            return Con(_TEXT_CONS[name]) if name in _TEXT_CONS else Def(name)
        case SApp(fn, args):
            head = _term(fn, scope)
            if type(head) in (Con, Def, Var):
                return replace(head, args=head.args + tuple(
                    Arg(_term(a, scope), hidden) for a, hidden in args))
        case SPi(binder, hidden, dom, cod):
            return Pi(Arg(_term(dom, scope), hidden),
                      Abs(binder, _term(cod, [*scope, binder])))
        case SNum(value):
            return Lit(value)
    raise EslError(f"builtins: cannot read {s}")


def _pattern(p: SPat, tel: list[str]):
    """The pattern of `p`, each variable appended to `tel` and its PVar its position there."""
    if p.kind == "var" and p.name not in _TEXT_CONS:
        tel.append(p.name)
        return PVar(len(tel) - 1)
    if p.kind not in ("var", "con") or p.name not in _TEXT_CONS:
        raise EslError(f"builtins: cannot read {p}")
    return PCon(_TEXT_CONS[p.name], tuple(Arg(_pattern(a, tel), hidden)
                                          for a, hidden in p.args))


def _clause(c: SClause) -> Clause:
    """A clause of the text.  Its pattern variables, in order of
    appearance, make its telescope, each a visible Nat."""
    tel: list[str] = []
    pats = [Arg(_pattern(p, tel), hidden) for p, hidden in c.pats]
    return Clause(tuple((v, vis(Def(NAT))) for v in tel),
                  index_patterns(pats, len(tel)), _term(c.body, tel))


def _read(text: str) -> dict[str, tuple[Term, list[Clause]]]:
    """Each signature of the text, in order, with its clauses."""
    out: dict[str, tuple[Term, list[Clause]]] = {}
    for d in parse(text, "eslc.builtins").decls:
        if isinstance(d, SSignature) and d.name not in out:
            out[d.name] = (_term(d.type, []), [])
        elif isinstance(d, SClause) and d.name in out:
            out[d.name][1].append(_clause(d))
        else:
            raise EslError(f"builtins: cannot read {d}")
    return out


# --------------------------------------------------------------------------
# the meaning of each primitive: a Python function of all its parameters


def arr_index(arr, ix):
    try:  # an array; this costs no more than the bare unpack
        _, shape, flat = arr
    except TypeError:  # a scalar is an array of rank 0
        shape, flat = (), (arr,)
    if len(ix) != len(shape):
        raise Abort(f"selection {ix} from an array of rank {len(shape)}")
    pos = 0
    for c, n in zip(ix, shape):
        if not 0 <= c < n:
            raise Abort(f"index {ix} out of bounds")
        pos = pos * n + c
    return flat[pos]


def _monus(a, b):
    return max(a - b, 0)


def _by_nonzero(op, why):
    def h(a, b):
        if b == 0:
            raise Abort(why)
        return op(a, b)
    return h


def _div_helper(k, m, n, j):
    # the clauses' value: n + m - j is below zero only when n runs out
    # before j does, and then the value is k
    return k + max(n + m - j, 0) // (1 + m)


def _expf(a):
    try:
        return math.exp(a)
    except OverflowError:  # as C's expf: too large a result is infinity
        return math.inf


def _vidx(X, n, i, v):
    if not 0 <= i < len(v):
        raise Abort(f"vector index {i} out of bounds")
    return v[i]


def _vhd(X, n, v):
    if not v:
        raise Abort("vhd of an empty vector")
    return v[0]


def _vtl(X, n, v):
    if not v:
        raise Abort("vtl of an empty vector")
    return v[1:]


def _vtake(X, n, k, v):
    if k > len(v):
        raise Abort(f"vtake {k} of a vector of length {len(v)}")
    return v[:k]


def _ixc(d, s, k, i):
    try:  # in range, this costs no more than the bare subscript
        return i[k]
    except IndexError:
        raise Abort(f"index component {k} past rank {len(i)}") from None


def _ravel(X, d, s, arr):
    return ("arr", (math.prod(arr[1]),), list(arr[2]))


def _reshape(X, d, s, e, t, arr):
    if math.prod(t) != len(arr[2]):
        raise Abort("reshape changes the number of elements")
    return ("arr", t, list(arr[2]))


def _lt(a, b):
    """The proposition `a < b` of two argument values."""
    return Def("_<_", (vis(a), vis(b)))


# each primitive's meaning, by name; PRIMS takes its order from the text
_MEANING: dict[str, dict] = {
    "_+_": dict(fn=operator.add, folds=True),
    "_*_": dict(fn=operator.mul, folds=True),
    "_-_": dict(fn=_monus, folds=True),
    "div-helper": dict(fn=_div_helper),
    "_/_": dict(fn=_by_nonzero(operator.floordiv, "division by zero"),
                owes=("nonzero divisor in _/_", lambda a, b: _lt(Lit(0), b))),
    "_%_": dict(fn=_by_nonzero(operator.mod, "mod by zero"), folds=True,
                owes=("nonzero divisor in _%_", lambda a, b: _lt(Lit(0), b))),
    "fromN<": dict(fn=lambda m, n, p: m),
    "toN": dict(fn=lambda n, i: i),
    "_≟_": dict(fn=lambda a, b: int(a == b), folds=True),
    "_<?_": dict(fn=lambda a, b: int(a < b), folds=True),
    "_+f_": dict(fn=operator.add, folds=True),
    "_-f_": dict(fn=operator.sub, folds=True),
    "_*f_": dict(fn=operator.mul, folds=True),
    "_/f_": dict(fn=_by_nonzero(operator.truediv, "division by zero"), folds=True),
    "expf": dict(fn=_expf, folds=True),
    "vidx": dict(fn=_vidx, folds=True, owes=(
        "vector index in bounds", lambda X, n, i, v: _lt(i, n))),
    "vreverse": dict(fn=lambda X, n, v: v[::-1], folds=True),
    "vhd": dict(fn=_vhd, folds=True),
    "vtl": dict(fn=_vtl, folds=True),
    # `n + 1`, not `suc n`: the decider reads `suc 3` as the literal 4
    "vtake": dict(fn=_vtake, folds=True, owes=(
        "vector prefix within the length", lambda X, n, k, v: _lt(
            k, Def("_+_", (vis(n), vis(Lit(1))))))),
    "vdrop": dict(fn=lambda X, n, k, v: v[k:], folds=True),
    "vappend": dict(fn=lambda X, m, n, a, b: a + b, folds=True),
    "_*v_": dict(fn=lambda d, v, k: tuple(x * k for x in v)),
    "prodv": dict(fn=lambda d, v: math.prod(v)),
    "sel": dict(fn=lambda X, d, s, a, i: arr_index(a, i), reads_hidden=False),
    "ravel": dict(fn=_ravel),
    "reshape": dict(fn=_reshape, owes=(
        "reshape preserves the element count", lambda X, d, s, e, t, a: Def(
            "_≡_", (hid(Def(NAT)), vis(Def("prodv", (hid(e), vis(t)))),
                    vis(Def("prodv", (hid(d), vis(s)))))))),
    "ixc": dict(fn=_ixc, folds=True, reads_hidden=False, owes=(
        "index component within the rank", lambda d, s, k, i: _lt(k, d))),
    "ixReverse": dict(fn=lambda d, s, i: i[::-1], folds=True),
}


# --------------------------------------------------------------------------
# the table


def _prims() -> dict[str, Prim]:
    text = _read(_PRIM_TEXT)
    if text.keys() != _MEANING.keys():
        raise EslError(f"builtins: text and meaning differ on "
                       f"{sorted(text.keys() ^ _MEANING.keys())}")
    return {name: Prim(name, sig, clauses=tuple(clauses) or None, **_MEANING[name])
            for name, (sig, clauses) in text.items()}


PRIMS: dict[str, Prim] = _prims()
_SEED: dict[str, Term] = {name: sig for name, (sig, _) in _read(_SEED_TEXT).items()}
# the type formers: the seed entries whose type ends in a Sort, each a
# Datatype (no other definition is one)
TYPE_FORMERS = frozenset(name for name, sig in _SEED.items()
                         if type(pi_spine(sig)[1]) is Sort)


def seed_env() -> Env:
    env = Env()
    for name, sig in _SEED.items():
        tel, ret = pi_spine(sig)
        if type(ret) is not Sort:  # a constructor of the datatype it returns
            env.lookup(ret.name).payload.constructors.append(name)
            env.add(Definition(name, sig, Constructor(
                ret.name, tuple(a.hidden for _, a in tel))))
            continue
        placeholders = _PLACEHOLDERS.get(name, {})
        env.add(Definition(name, sig, Datatype(list(placeholders))))
        for con, hidden in placeholders.items():
            env.add(Definition(con, Sort(), Constructor(name, hidden)))
    # the erased witness of any proposition
    env.add(Definition("prf", Sort(), Constructor("Prop", ())))
    for p in PRIMS.values():
        payload = Builtin() if p.clauses is None else Function(list(p.clauses))
        env.add(Definition(p.name, p.sig, payload))
    return env


def is_prop_type(t: Term) -> bool:
    return isinstance(t, Def) and t.name in ("_<_", "_≡_")
