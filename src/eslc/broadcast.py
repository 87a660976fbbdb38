"""Broadcast resolution for the lifted array operators.

Operands of a lifted operation are classified as scalars, vectors
or arrays, cast up to arrays, and their shapes related: either both
shapes are (provably) identical, or one operand is rank zero and gets
replicated.  The choice is made once, during elaboration; nothing is
dispatched at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ir, shapes
from .ir import (Abs, Arg, Con, Def, EslError, Lam, Let, Lit, Term, Var, hid,
                 nat_view, vis)


class ShapeMismatch(EslError):
    pass


# CastKind: how an operand reaches array form
SCAL, VECT, ARRY = "Scal", "Vect", "Arry"

# DyArgs: the relation between the two operand shapes
NN, N0, ZN = "NN", "N0", "0N"


@dataclass
class Operand:
    term: Term
    kind: str  # SCAL | VECT | ARRY
    elem: str  # "nat" | "float"
    rank: Term | None  # None for plain scalars
    shape: Term | None


def classify(term: Term, ty: Term, env) -> Operand:
    match ty:
        case Def("Nat", ()):
            return Operand(term, SCAL, "nat", None, None)
        case Def("Float", ()):
            return Operand(term, SCAL, "float", None, None)
        case Def("Vec", (Arg(x, _), Arg(n, _))):
            return Operand(term, VECT, _elem_of(x), Lit(1),
                           Con("vcons", (vis(n), vis(Con("vnil")))))
        case Def("Ar", (Arg(x, _), Arg(d, _), Arg(s, _))):
            return Operand(term, ARRY, _elem_of(x), d, s)
    raise ShapeMismatch(f"operand of type {ir.print_term(ty)} cannot broadcast")


def _elem_of(x: Term) -> str:
    if x == Def("Nat"):
        return "nat"
    if x == Def("Float"):
        return "float"
    raise ShapeMismatch(f"unsupported element type {ir.print_term(x)}")


def resolve_dyargs(rank_l: Term | None, shape_l: Term | None,
                   rank_r: Term | None, shape_r: Term | None,
                   names=None, hyps=None) -> str:
    """The deterministic resolution order; raises ShapeMismatch otherwise."""
    l0 = rank_l is None or nat_view(rank_l) == 0
    r0 = rank_r is None or nat_view(rank_r) == 0
    if l0 and r0:
        return NN
    if not l0 and not r0:
        sl = shapes.term_to_vec(shape_l, names or [])
        sr = shapes.term_to_vec(shape_r, names or [])
        if shapes.decide(shapes.veq(sl, sr), hyps or []) == "yes":
            return NN
    if r0:
        return N0
    if l0:
        return ZN
    raise ShapeMismatch(
        f"shapes {_pshape(shape_l)} and {_pshape(shape_r)} neither match nor broadcast")


def _pshape(s: Term | None) -> str:
    if s is None:
        return "[]"
    return ir.print_term(s)


def _elem_type(elem: str) -> Term:
    return Def("Nat") if elem == "nat" else Def("Float")


class _Binder:
    """Operands are let-bound outside the produced imap so evaluation sees
    each array once; single-use lets inline again during normalization, so
    extracted code is unaffected."""

    def __init__(self) -> None:
        self.bound: list[Term] = []

    def ref(self, t: Term):
        if isinstance(t, Lit) or (isinstance(t, Var) and not t.args):
            return lambda depth: ir.shift(t, depth)
        self.bound.append(t)
        pos = len(self.bound) - 1  # bound outermost-first
        return lambda depth: Var(depth - 1 - pos)

    def wrap(self, inner: Term) -> Term:
        for i in reversed(range(len(self.bound))):
            inner = Let(ir.shift(self.bound[i], i), Abs("lifted", inner))
        return inner


def _select(op: Operand, ref, replicated: bool, depth: int,
            d_res: Term, s_res: Term) -> Term:
    """Element of the operand at the loop index (Var 0 under the lambda)."""
    t = ref(depth)
    x = _elem_type(op.elem)
    if op.kind == SCAL:
        return t
    if replicated:  # rank-zero array selected at the empty index
        return Def("sel", (hid(x), hid(Lit(0)), hid(Con("vnil")),
                           vis(t), vis(Con("inil"))))
    if op.kind == VECT:
        comp = Def("ixc", (hid(ir.shift(d_res, depth)), hid(ir.shift(s_res, depth)),
                           vis(Lit(0)), vis(Var(0))))
        n = op.shape.args[0].value if isinstance(op.shape, Con) else Lit(0)
        return Def("vidx", (hid(x), hid(ir.shift(n, depth)), vis(comp), vis(t)))
    return Def("sel", (hid(x), hid(ir.shift(op.rank, depth)),
                       hid(ir.shift(op.shape, depth)), vis(t), vis(Var(0))))


def lift(ops: tuple[str | None, str], operands: list[Operand],
         names, hyps) -> tuple[Term, Term]:
    """One or two operands under the scalar operator ops[0] (naturals) or
    ops[1] (floats): the operator itself on scalars, else an imap over
    the carrier's shape.  Returns the term and its type."""
    l, r = operands[0], operands[-1]
    if l.elem != r.elem:
        raise ShapeMismatch(f"mixed element types {l.elem} and {r.elem}")
    op_name = ops[0] if l.elem == "nat" else ops[1]
    if op_name is None:
        raise ShapeMismatch("this lifted operator acts on floats only")
    x = _elem_type(l.elem)
    if all(o.kind == SCAL for o in operands):
        return Def(op_name, tuple(vis(o.term) for o in operands)), x
    dy = resolve_dyargs(l.rank, l.shape, r.rank, r.shape, names, hyps) \
        if len(operands) == 2 else NN
    carrier = l if dy in (NN, N0) and l.kind != SCAL else r
    if carrier.kind == SCAL:
        carrier = r if carrier is l else l
    d_res, s_res = carrier.rank, carrier.shape
    binder = _Binder()
    refs = [binder.ref(o.term) for o in operands]
    k = len(binder.bound)
    # a rank-zero array against a bigger one is replicated
    replicated = (dy == ZN, dy == N0)
    body = Def(op_name, tuple(
        vis(_select(o, ref, rep and o.kind != SCAL, k + 1, d_res, s_res))
        for o, ref, rep in zip(operands, refs, replicated)))
    imap = Con("imap", (hid(ir.shift(x, k)), hid(ir.shift(d_res, k)),
                        hid(ir.shift(s_res, k)), vis(Lam(Abs("iv", body)))))
    return binder.wrap(imap), Def("Ar", (vis(x), vis(d_res), vis(s_res)))
