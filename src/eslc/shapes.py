"""Symbolic shape arithmetic over naturals and the constraint decider.

Scalar expressions cover +, *, monus, floor division by a literal, and mod;
vector expressions cover literal spines, cons, reverse, append and
elementwise scaling.  The decider answers yes/no/unknown and is sound:
`yes` means the constraint holds for every assignment of naturals, `no`
comes with a concrete counterexample.

Validity is checked by refuting the negated goal with Fourier-Motzkin
elimination after compiling floor-division and mod into linear side
constraints and case-splitting monus.  Every row has integer
coefficients and each elimination step combines two rows with integer
multipliers, so the arithmetic is exact on plain ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import ir
from .ir import Term

# --------------------------------------------------------------------------
# expression forms


@dataclass(slots=True, eq=False, repr=False)
class _Node:
    """A node is never changed once built, so its hash and its order key
    are each computed on first use and kept on it.  The order key is the
    node's repr, which sorts monomials and Fourier-Motzkin variables.
    Nodes follow the convention of `eslc.ir` (plain slotted dataclasses,
    not frozen ones), and set only the fields kept here after building."""
    _hash: int | None = field(default=None, init=False, compare=False)
    _key: str | None = field(default=None, init=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__,
                               *(getattr(self, f) for f in self.__match_args__)))
        return self._hash

    def __repr__(self) -> str:
        if self._key is None:
            fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
            self._key = f"{type(self).__name__}({fields})"
        return self._key


def _node(cls):
    """A node class, equal by its fields and hashed by `_Node`."""
    cls = dataclass(slots=True, repr=False)(cls)
    cls.__hash__ = _Node.__hash__
    return cls


@dataclass(slots=True, eq=False, repr=False)
class ShapeExpr(_Node):
    # the expression's polynomial, kept by `_poly`
    _poly: dict | None = field(default=None, init=False, compare=False)


@_node
class SVar(ShapeExpr):
    key: str


@_node
class SLit(ShapeExpr):
    value: int


@_node
class SAdd(ShapeExpr):
    lhs: ShapeExpr
    rhs: ShapeExpr


@_node
class SMul(ShapeExpr):
    lhs: ShapeExpr
    rhs: ShapeExpr


@_node
class SMonus(ShapeExpr):
    lhs: ShapeExpr
    rhs: ShapeExpr


@_node
class SDiv(ShapeExpr):
    num: ShapeExpr
    den: int  # literal > 0


@_node
class SMod(ShapeExpr):
    num: ShapeExpr
    den: "ShapeExpr"


@_node
class SIdx(ShapeExpr):
    pos: int
    vec: "VecExpr"


@_node
class SProd(ShapeExpr):
    vec: "VecExpr"


@_node
class SOpaque(ShapeExpr):
    key: str  # canonical print of an unsupported subterm


@dataclass(slots=True, eq=False, repr=False)
class VecExpr(_Node):
    # the vector's normal form, kept by `norm_vec`
    _norm: "VecExpr | None" = field(default=None, init=False, compare=False)


@_node
class VNil(VecExpr):
    pass


@_node
class VCons(VecExpr):
    head: ShapeExpr
    tail: VecExpr


@_node
class VVar(VecExpr):
    key: str


@_node
class VScale(VecExpr):
    vec: VecExpr
    factor: ShapeExpr


@_node
class VReverse(VecExpr):
    vec: VecExpr


@_node
class VAppend(VecExpr):
    lhs: VecExpr
    rhs: VecExpr


@dataclass(slots=True, unsafe_hash=True)
class Constraint:
    kind: str  # "lt" | "eq" | "veq", and "le" inside `decide`
    lhs: ShapeExpr | VecExpr
    rhs: ShapeExpr | VecExpr


def lt(a, b) -> Constraint:
    return Constraint("lt", a, b)


def eq(a, b) -> Constraint:
    return Constraint("eq", a, b)


def veq(a, b) -> Constraint:
    return Constraint("veq", a, b)


# --------------------------------------------------------------------------
# structural normalization


def norm_vec(v: VecExpr) -> VecExpr:
    if v._norm is None:
        v._norm = _norm_vec(v)
    return v._norm


def _norm_vec(v: VecExpr) -> VecExpr:
    match v:
        case VCons(h, t):
            return VCons(norm_scalar(h), norm_vec(t))
        case VScale(inner, f):
            inner, f = norm_vec(inner), norm_scalar(f)
            if isinstance(inner, (VCons, VNil)):
                return _map_spine(inner, lambda s: norm_scalar(SMul(s, f)))
            return VScale(inner, f)
        case VReverse(inner):
            inner = norm_vec(inner)
            if isinstance(inner, VReverse):
                return inner.vec
            items = spine_items(inner)
            if items is not None:
                return spine_of(list(reversed(items)))
            if isinstance(inner, VScale):
                return norm_vec(VScale(VReverse(inner.vec), inner.factor))
            return VReverse(inner)
        case VAppend(a, b):
            a, b = norm_vec(a), norm_vec(b)
            ia = spine_items(a)
            if ia is not None:
                ib = spine_items(b)
                if ib is not None:
                    return spine_of(list(ia) + list(ib))
                out: VecExpr = b
                for s in reversed(ia):
                    out = VCons(s, out)
                return out
            return VAppend(a, b)
        case _:
            return v


def _map_spine(v: VecExpr, f) -> VecExpr:
    if isinstance(v, VNil):
        return v
    assert isinstance(v, VCons)
    return VCons(f(v.head), _map_spine(v.tail, f))


def spine_items(v: VecExpr) -> list[ShapeExpr] | None:
    items = []
    while isinstance(v, VCons):
        items.append(v.head)
        v = v.tail
    return items if isinstance(v, VNil) else None


def spine_of(items: list[ShapeExpr]) -> VecExpr:
    out: VecExpr = VNil()
    for s in reversed(items):
        out = VCons(s, out)
    return out


def vec_component(v: VecExpr, k: int) -> ShapeExpr:
    """k-th extent of a vector expression, symbolically."""
    v = norm_vec(v)
    i = k
    while isinstance(v, VCons):
        if i == 0:
            return v.head
        i, v = i - 1, v.tail
    if isinstance(v, VScale):
        return norm_scalar(SMul(vec_component(v.vec, i), v.factor))
    return SIdx(i, v)


def norm_scalar(s: ShapeExpr) -> ShapeExpr:
    poly = _poly(s)
    return _poly_to_expr(poly)


# polynomials: dict[monomial -> coeff], monomial = sorted tuple of atom keys
Atom = ShapeExpr  # SVar / SDiv / SMod / SIdx / SProd / SOpaque after inner norm
Poly = dict[tuple, int]


def _poly(s: ShapeExpr) -> Poly:
    """s's polynomial, kept on s: callers must not change it."""
    if s._poly is None:
        s._poly = _make_poly(s)
    return s._poly


def _make_poly(s: ShapeExpr) -> Poly:
    match s:
        case SLit(v):
            return {(): v} if v else {}
        case SAdd(a, b):
            return _poly_add(_poly(a), _poly(b))
        case SMul(a, b):
            return _poly_mul(_poly(a), _poly(b))
        case SMonus(a, b):
            pa, pb = _poly(a), _poly(b)
            diff = _poly_add(pa, {m: -c for m, c in pb.items()})
            if all(c >= 0 for c in diff.values()):
                # b is a syntactic summand of a: monus is exact
                return diff
            if not pa:  # 0 - b
                return {}
            return {(SMonus(_poly_to_expr(pa), _poly_to_expr(pb)),): 1}
        case SDiv(n, d):
            pn = _poly(n)
            if list(pn) in ([], [()]):
                return {(): pn.get((), 0) // d}
            return {(SDiv(_poly_to_expr(pn), d),): 1}
        case SMod(n, d):
            pn, pd = _poly(n), _poly(d)
            if list(pn) in ([], [()]) and list(pd) == [()] and pd[()] > 0:
                return {(): pn.get((), 0) % pd[()]}
            return {(SMod(_poly_to_expr(pn), _poly_to_expr(pd)),): 1}
        case SIdx(k, v):
            comp = vec_component(v, k)
            if isinstance(comp, SIdx) and comp.pos == k and comp.vec == v:
                return {(comp,): 1}
            return _poly(comp)
        case SProd(v):
            items = spine_items(norm_vec(v))
            if items is not None:
                out = {(): 1}
                for it in items:
                    out = _poly_mul(out, _poly(it))
                return out
            return {(SProd(norm_vec(v)),): 1}
        case _:
            return {(s,): 1}


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
        if out[m] == 0:
            del out[m]
    return out


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    """The product of two monomials: their atoms, sorted by repr."""
    if not m1:
        return m2
    if not m2:
        return m1
    return tuple(sorted(m1 + m2, key=repr))


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
            if out[m] == 0:
                del out[m]
    return out


def _poly_to_expr(p: Poly) -> ShapeExpr:
    if not p:
        return SLit(0)
    terms = []
    for m, c in sorted(p.items(), key=lambda kv: repr(kv[0])):
        t: ShapeExpr | None = SLit(c) if c != 1 or not m else None
        for a in m:
            t = a if t is None else SMul(t, a)
        terms.append(t if t is not None else SLit(c))
    out = terms[0]
    for t in terms[1:]:
        out = SAdd(out, t)
    return out


# --------------------------------------------------------------------------
# the decider


def decide(goal: Constraint, hyps: list[Constraint]) -> str:
    """Return "yes", "no" or "unknown"."""
    if _implied(goal, hyps):
        return "yes"
    if goal.kind == "veq":
        return _decide_veq(goal, hyps)
    if goal.kind == "eq":
        proved = _poly(goal.lhs) == _poly(goal.rhs) or all(
            _decide_ineq(Constraint("le", x, y), hyps) == "yes"
            for x, y in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs)))
    else:
        # over the naturals `a % d < d` holds exactly where `0 < d` does
        proved = type(goal.lhs) is SMod and goal.lhs.den == goal.rhs \
            and _decide_ineq(lt(SLit(0), goal.rhs), hyps) == "yes" \
            or _decide_ineq(goal, hyps) == "yes"
    if proved:
        return "yes"
    return "no" if find_counterexample(goal, hyps) is not None else "unknown"


def _implied(goal: Constraint, hyps: list[Constraint]) -> bool:
    """The goals that hold as they stand, answered before any elimination:
    a vector equation of equal sides, `a < b` of literals that holds, or a
    scalar goal that is one of the hypotheses.  A vector goal is not looked
    up among the hypotheses, so it is still split into its components."""
    if goal.kind == "veq":
        return goal.lhs == goal.rhs
    if goal.kind == "lt" and type(goal.lhs) is SLit and type(goal.rhs) is SLit:
        return goal.lhs.value < goal.rhs.value
    return goal in hyps


def _decide_veq(goal: Constraint, hyps: list[Constraint]) -> str:
    a, b = norm_vec(goal.lhs), norm_vec(goal.rhs)
    if a == b:
        return "yes"
    ia, ib = spine_items(a), spine_items(b)
    if ia is not None and ib is not None:
        if len(ia) != len(ib):
            return "no"
        results = [decide(eq(x, y), hyps) for x, y in zip(ia, ib)]
        if all(r == "yes" for r in results):
            return "yes"
        if any(r == "no" for r in results):
            return "no"
    return "unknown"


def _decide_ineq(goal: Constraint, hyps: list[Constraint]) -> str:
    """Try to refute hyps & not(goal) by Fourier-Motzkin; "yes" on success.
    The hypotheses are `lt`s and `eq`s, and the goal an `lt` or `le`
    (`decide` splits an `eq` goal into two `le`s), so not(goal) is one
    row."""
    for split in _monus_splits([goal] + hyps):
        rows, atoms = [], {}
        for h in hyps:
            rows.extend(_constraint_rows(h, split, atoms))
        (held,) = _constraint_rows(goal, split, atoms)
        rows.extend(_split_condition_rows(split, atoms))
        if not _fm_infeasible(rows + [_neg_row(held)] + _atom_rows(atoms, split, rows)):
            return "unknown"
    return "yes"


def _split_condition_rows(split: dict, atoms: dict) -> list[dict]:
    """Each monus branch carries its guard: lhs >= rhs or lhs < rhs."""
    rows = []
    for a, ge in split.items():
        l = _poly_split(a.lhs, split)
        r = _poly_split(a.rhs, split)
        _collect_atoms(l, atoms), _collect_atoms(r, atoms)
        if ge:
            rows.append(_row_sub(l, r))
        else:
            rows.append(_row_sub(r, _row_add1(l)))
    return rows


# linear rows: dict[monomial-or-(): int], meaning sum >= 0; a polynomial
# is read as a row as it stands


def _row_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
        if out[k] == 0 and k != ():
            del out[k]
    return out


def _constraint_rows(c: Constraint, split, atoms) -> list[dict]:
    """The rows that say c holds: one, or two for an `eq`."""
    def poly_of(side):
        p = _poly_split(side, split)
        _collect_atoms(p, atoms)
        return p

    l, r = poly_of(c.lhs), poly_of(c.rhs)
    if c.kind == "lt":
        return [_row_sub(r, _row_add1(l))]  # r - (l+1) >= 0
    if c.kind == "le":
        return [_row_sub(r, l)]
    return [_row_sub(r, l), _row_sub(l, r)]


def _row_add1(row: dict) -> dict:
    out = dict(row)
    out[()] = out.get((), 0) + 1
    return out


def _neg_row(row: dict) -> dict:
    # not(e >= 0)  <=>  e <= -1  <=>  -e - 1 >= 0   (integer-valued e)
    out = {k: -v for k, v in row.items()}
    out[()] = out.get((), 0) - 1
    return out


def _poly_split(s: ShapeExpr, split: dict) -> Poly:
    """Polynomial translation applying the monus case split."""
    p = _poly(s)
    if not split:
        return p
    out: Poly = {}
    for m, c in p.items():
        acc: Poly = {(): c}
        for a in m:
            acc = _poly_mul(acc, _atom_poly(a, split))
        out = _poly_add(out, acc)
    return out


def _atom_poly(a: Atom, split: dict) -> Poly:
    if isinstance(a, SMonus) and a in split:
        if split[a]:  # lhs >= rhs: value is the true difference
            return _poly_add(_poly_split(a.lhs, split),
                             {m: -c for m, c in _poly_split(a.rhs, split).items()})
        return {}  # truncated to zero
    return {(a,): 1}


def _collect_atoms(p: Poly, atoms: dict) -> None:
    for m in p:
        for a in m:
            if a not in atoms:
                atoms[a] = True
                if isinstance(a, (SDiv, SMod)):
                    _collect_atoms(_poly(a.num), atoms)
                    if isinstance(a, SMod):
                        _collect_atoms(_poly(a.den), atoms)


def _atom_rows(atoms: dict, split, base_rows) -> list[dict]:
    """Defining constraints for floor-division and mod atoms."""
    rows = []
    for a in list(atoms):
        if isinstance(a, SDiv):
            # d*q <= n <= d*q + d-1
            n = _poly_split(a.num, split)
            q = {(a,): a.den}
            rows.append(_row_sub(n, q))
            upper = dict(q)
            upper[()] = upper.get((), 0) + a.den - 1
            rows.append(_row_sub(upper, n))
        elif isinstance(a, SMod):
            # r <= n, and r <= den-1 when den >= 1 is already derivable
            n = _poly_split(a.num, split)
            rows.append(_row_sub(n, {(a,): 1}))
            den = _poly_split(a.den, split)
            probe = base_rows + [_neg_row(_row_sub(den, {(): 1}))]
            if _fm_infeasible(probe):
                upper = _row_sub(den, {(a,): 1})
                upper[()] = upper.get((), 0) - 1
                rows.append(upper)
    return rows


def _monus_splits(constraints: list[Constraint]) -> list[dict]:
    """Enumerate truth assignments for monus atoms that survive polynomial
    normalization.  Each branch over-approximates the reachable values, and
    refutation must succeed in every branch, so the split is sound."""
    remaining: list[SMonus] = []

    def collect(p: Poly):
        for m in p:
            for a in m:
                if isinstance(a, SMonus) and a not in remaining:
                    remaining.append(a)
                    collect(_poly(a.lhs))
                    collect(_poly(a.rhs))
                elif isinstance(a, (SDiv, SMod)):
                    collect(_poly(a.num))

    for c in constraints:
        for side in (c.lhs, c.rhs):
            if isinstance(side, ShapeExpr):
                collect(_poly(side))
    if len(remaining) > 4:
        remaining = remaining[:4]
    return [dict(zip(remaining, bits))
            for bits in itertools.product([True, False], repeat=len(remaining))]


def _fm_infeasible(rows: list[dict]) -> bool:
    """Fourier-Motzkin: True if the system {row >= 0} has no rational
    solution (hence no integer one).  Every monomial variable is a product
    of naturals, so an implicit >= 0 row is added for each.  Variables are
    eliminated in the order of their reprs: they are renamed 1, 2, ... in
    that order (0 is the constant), and a row becomes the list of its
    coefficients."""
    keys = set().union(*rows)
    keys.discard(())
    keys = sorted(keys, key=repr)
    n = len(keys)
    index = dict(zip(keys, range(1, n + 1)))
    index[()] = 0
    dense = []
    for r in rows:
        row = [0] * (n + 1)
        for k, c in r.items():
            row[index[k]] = c
        dense.append(row)
    for v in range(1, n + 1):
        row = [0] * (n + 1)
        row[v] = 1
        dense.append(row)
    rows = dense
    for v in range(1, n + 1):
        lowers, uppers, rest = [], [], []
        for r in rows:
            c = r[v]
            if c > 0:
                lowers.append(r)
            elif c < 0:
                uppers.append(r)
            else:
                rest.append(r)
        for lo in lowers:
            cl = lo[v]
            for up in uppers:
                cu = -up[v]
                rest.append([a * cu + b * cl for a, b in zip(lo, up)])
        rows = rest
        if len(rows) > 4000:  # safety valve; give up refuting
            return False
    return any(r[0] < 0 for r in rows)


# --------------------------------------------------------------------------
# counterexample search (pure-variable constraints only)


def _vars_only(s: ShapeExpr, acc: set, ok: list) -> None:
    match s:
        case SVar(k):
            acc.add(k)
        case SLit(_):
            pass
        case SAdd(a, b) | SMul(a, b) | SMonus(a, b):
            _vars_only(a, acc, ok), _vars_only(b, acc, ok)
        case SDiv(n, _):
            _vars_only(n, acc, ok)
        case SMod(n, d):
            _vars_only(n, acc, ok), _vars_only(d, acc, ok)
        case _:
            ok[0] = False


def _eval_scalar(s: ShapeExpr, env: dict) -> int:
    match s:
        case SVar(k):
            return env[k]
        case SLit(v):
            return v
        case SAdd(a, b):
            return _eval_scalar(a, env) + _eval_scalar(b, env)
        case SMul(a, b):
            return _eval_scalar(a, env) * _eval_scalar(b, env)
        case SMonus(a, b):
            return max(_eval_scalar(a, env) - _eval_scalar(b, env), 0)
        case SDiv(n, d):
            return _eval_scalar(n, env) // d
        case SMod(n, d):
            dv = _eval_scalar(d, env)
            return _eval_scalar(n, env) % dv if dv else 0


def _eval_constraint(c: Constraint, env: dict) -> bool:
    l, r = _eval_scalar(c.lhs, env), _eval_scalar(c.rhs, env)
    if c.kind == "lt":
        return l < r
    return l == r


def find_counterexample(goal: Constraint, hyps: list[Constraint]) -> dict | None:
    """Values 0..8 of at most four variables that meet the hypotheses and
    fail the goal, where `_vars_only` admits every side."""
    ok = [True]
    names: set[str] = set()
    for c in [goal] + hyps:
        for side in (c.lhs, c.rhs):
            _vars_only(side, names, ok)
    if not ok[0] or len(names) > 4:
        return None
    keys = sorted(names)
    for vals in itertools.product(range(9), repeat=len(keys)):
        env = dict(zip(keys, vals))
        if all(_eval_constraint(h, env) for h in hyps) and not _eval_constraint(goal, env):
            return env
    return None


# --------------------------------------------------------------------------
# Term -> ShapeExpr translation

_SCALAR_DEFS = {"_+_": SAdd, "_*_": SMul, "_-_": SMonus}
# the heads that build a vector, which `term_to_vec` reads structurally
VECTOR_HEADS = frozenset({"vnil", "vcons", "_*v_", "vreverse", "vappend"})
# the constructor and definition heads that the two translations below read
# structurally; under any other head a term is an opaque atom
SHAPE_HEADS = VECTOR_HEADS | {"zero", "suc", *_SCALAR_DEFS, "_/_", "_%_", "vidx", "prodv"}


def term_to_scalar(t: Term, names: list[str]) -> ShapeExpr:
    """names maps de Bruijn index -> unique key (position 0 = innermost)."""
    n = ir.nat_view(t)
    if n is not None:
        return SLit(n)
    match t:
        case ir.Var(i, ()):
            return SVar(names[i] if i < len(names) else f"?v{i}")
        case ir.Con("suc", (ir.Arg(u, _),)):
            return SAdd(term_to_scalar(u, names), SLit(1))
        case ir.Def(name, args) if name in _SCALAR_DEFS:
            va = [a.value for a in args if not a.hidden]
            if len(va) == 2:
                return _SCALAR_DEFS[name](term_to_scalar(va[0], names),
                                          term_to_scalar(va[1], names))
        case ir.Def("_/_", args):
            va = [a.value for a in args if not a.hidden]
            if len(va) == 2:
                d = ir.nat_view(va[1])
                if d is not None and d > 0:
                    return SDiv(term_to_scalar(va[0], names), d)
        case ir.Def("_%_", args):
            va = [a.value for a in args if not a.hidden]
            if len(va) == 2:
                return SMod(term_to_scalar(va[0], names), term_to_scalar(va[1], names))
        case ir.Def("vidx", args):
            va = [a.value for a in args if not a.hidden]
            if len(va) == 2:
                k = ir.nat_view(va[0])
                if k is not None:
                    return SIdx(k, term_to_vec(va[1], names))
        case ir.Def("prodv", args):
            va = [a.value for a in args if not a.hidden]
            if len(va) == 1:
                return SProd(term_to_vec(va[0], names))
    return SOpaque(ir.print_term(_rename(t, 0, names)))


def term_to_vec(t: Term, names: list[str]) -> VecExpr:
    match t:
        case ir.Var(i, ()):
            return VVar(names[i] if i < len(names) else f"?v{i}")
        case ir.Con("vnil", _):
            return VNil()
        case ir.Con("vcons", args):
            va = [a.value for a in args if not a.hidden]
            if len(va) == 2:
                return VCons(term_to_scalar(va[0], names), term_to_vec(va[1], names))
        case ir.Def("_*v_", args):
            va = [a.value for a in args if not a.hidden]
            if len(va) == 2:
                return VScale(term_to_vec(va[0], names), term_to_scalar(va[1], names))
        case ir.Def("vreverse", args):
            va = [a.value for a in args if not a.hidden]
            if len(va) == 1:
                return VReverse(term_to_vec(va[0], names))
        case ir.Def("vappend", args):
            va = [a.value for a in args if not a.hidden]
            if len(va) == 2:
                return VAppend(term_to_vec(va[0], names), term_to_vec(va[1], names))
    return VVar(ir.print_term(_rename(t, 0, names)))


def _rename(t: Term, depth: int, names: list[str]) -> Term:
    """Replace free variables by stable name markers so opaque atom keys
    coincide across different telescopes; a variable bound inside `t` is
    `?b`, and one past `names` keeps its raw index."""
    if type(t) is ir.Var:
        i = t.idx - depth
        key = "?b" if i < 0 else names[i] if i < len(names) else f"?v{t.idx}"
        return ir.Def(f"%{key}", ir.map_args(t.args, _rename, depth, names))
    if isinstance(t, ir.Def) and type(t) is not ir.Def:
        # a hole, which map_subterms keeps whole: rename in its arguments
        return ir.Def(t.name, ir.map_args(t.args, _rename, depth, names))
    return ir.map_subterms(t, _rename, depth, names)
