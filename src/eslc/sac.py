"""SaC-style backend: shape-attributed types, with-loops, and a reference
interpreter for the emitted subset.

imap-headed bodies become genarray with-loops, applications of the
reduction combinator become fold with-loops, nested array types flatten
into multi-dimensional ones, and every shape relation in a signature
turns into an assert over shape/take/cons expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ir
from .extract import (EmittedFunction, ExtractError, ExtractOptions,
                      ExtractState, sac_final_pass)
from .ir import (Arg, Clause, Con, Def, Definition, Env, Function, Lam, Let,
                 Lit, PCon, PVar, Term, Var, nat_view, pi_spine)

RET = "__ret"


class Inhomogeneous(ExtractError):
    pass


# --------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class SacType:
    base: str  # "int" | "float"
    attr: tuple  # ("static", dims) | ("rank", n) | ("plus",) | ("any",)

    def render(self) -> str:
        kind = self.attr[0]
        if kind == "static":
            dims = self.attr[1]
            if not dims:
                return self.base
            return f"{self.base}[{','.join(str(d) for d in dims)}]"
        if kind == "rank":
            return f"{self.base}[{','.join('.' * 1 for _ in range(self.attr[1]))}]" \
                if self.attr[1] else self.base
        if kind == "plus":
            return f"{self.base}[+]"
        return f"{self.base}[*]"


def attr_le(a: tuple, b: tuple) -> bool:
    """Decidable ordering on the precision ladder: static <= same-rank
    dots <= [+] (rank >= 1) <= [*]."""
    if a == b:
        return True
    ka, kb = a[0], b[0]
    if kb == "any":
        return True
    if ka == "any":
        return False
    rank_a = len(a[1]) if ka == "static" else a[1] if ka == "rank" else None
    if kb == "plus":
        return rank_a is None or rank_a >= 1
    if ka == "plus":
        return False
    rank_b = len(b[1]) if kb == "static" else b[1]
    if rank_a != rank_b:
        return False
    if kb == "rank":
        return True
    return False  # static is the bottom of each rank


@dataclass(frozen=True)
class FlattenedType:
    origin: Term
    result: SacType
    prefix: tuple  # outer dims: ints or symbolic Terms or None (dynamic)
    suffix: tuple  # element dims


def flatten_type(ty: Term, env: Env | None = None) -> FlattenedType:
    base, dims, exact_rank = _flatten(ty, outermost=True)
    static = all(isinstance(d, int) for d in dims) and exact_rank
    if static:
        attr = ("static", tuple(dims))
    elif exact_rank:
        attr = ("rank", len(dims))
    else:
        attr = ("any",)
    return FlattenedType(ty, SacType(base, attr), tuple(dims), ())


def _flatten(ty: Term, outermost: bool) -> tuple[str, list, bool]:
    match ty:
        case Def("Nat", ()) | Def("Fin", _):
            return "int", [], True
        case Def("Float", ()):
            return "float", [], True
        case Def("Vec", (Arg(x, _), Arg(n, _))):
            base, dims, exact = _flatten(x, outermost=False)
            nv = nat_view(n)
            return base, [nv if nv is not None else n] + dims, exact
        case Def("Ar", (Arg(x, _), Arg(d, _), Arg(s, _))):
            base, dims, exact = _flatten(x, outermost=False)
            dv = nat_view(d)
            if dv is None:
                return base, dims, False  # dynamic rank swallows precision
            comps = _shape_components(s, dv)
            return base, comps + dims, exact
        case Def("List", (Arg(x, _),)):
            if not outermost:
                raise Inhomogeneous(
                    "nested lists are inhomogeneous and cannot flatten")
            base, dims, exact = _flatten(x, outermost=False)
            return base, [None] + dims, exact
    raise ExtractError(f"type {ir.print_term(ty)} has no array translation")


def _shape_components(s: Term, d: int) -> list:
    comps: list = []
    t = s
    for _ in range(d):
        if isinstance(t, Con) and t.name == "vcons":
            head = t.args[-2].value
            hv = nat_view(head)
            comps.append(hv if hv is not None else head)
            t = t.args[-1].value
        else:
            comps.append(None)
    return comps


# --------------------------------------------------------------------------
# expression forms


class SExp:
    __slots__ = ()


@dataclass(frozen=True)
class SNum(SExp):
    value: int


@dataclass(frozen=True)
class SFlt(SExp):
    value: float


@dataclass(frozen=True)
class SVarE(SExp):
    name: str


@dataclass(frozen=True)
class SBin(SExp):
    op: str  # + - * / % == < >
    lhs: SExp
    rhs: SExp
    scalar: bool = True  # scalar ops render with the $ prefix


@dataclass(frozen=True)
class SCall(SExp):
    fn: str
    args: tuple[SExp, ...]


@dataclass(frozen=True)
class SMacroApp(SExp):
    name: str
    arg: SExp


@dataclass(frozen=True)
class SSel(SExp):
    arr: SExp
    idx: SExp


@dataclass(frozen=True)
class SVecLit(SExp):
    items: tuple[SExp, ...]


@dataclass(frozen=True)
class SWith(SExp):
    kind: str  # "genarray" | "fold"
    partitions: tuple  # (lower|None, upper|None, ivar, block, body)
    shape: SExp | None = None  # genarray shape
    default: SExp | None = None
    op: str = ""  # fold operator
    neutral: SExp | None = None


@dataclass
class SacFunction:
    name: str
    ret: str
    params: list[tuple[str, str]]  # (type, name)
    assigns: list[tuple[str, SExp]]
    arg_asserts: list[SExp]
    macros: list[tuple[str, str]]  # (macro name, argument array param)
    body: SExp | None
    ret_asserts: list[SExp]


# --------------------------------------------------------------------------
# the backend


_FOLD_OPS = {"_+_": ("+", SNum(0)), "_*_": ("*", SNum(1)),
             "_+f_": ("+", SFlt(0.0)), "_*f_": ("*", SFlt(1.0))}

_SCALAR_BIN = {"_+_": "+", "_-_": "-", "_*_": "*", "_/_": "/", "_%_": "%",
               "_+f_": "+", "_-f_": "-", "_*f_": "*", "_/f_": "/"}


class SacBackend:
    final_pass = staticmethod(sac_final_pass)

    def __init__(self):
        self.need_sel = False
        self.need_ravel = False

    def kompile_fun(self, name: str, d: Definition, state: ExtractState,
                    env: Env, opts: ExtractOptions) -> EmittedFunction:
        assert isinstance(d.payload, Function)
        if len(d.payload.clauses) != 1:
            raise ExtractError(
                f"{name}: this target compiles single-clause functions only")
        cl = d.payload.clauses[0]
        tel, ret = pi_spine(d.signature)
        params, pos_name = [], {}
        for j, (_, a) in enumerate(tel):
            pos_name[j] = f"x_{j + 1}"
            if _is_prop(a.value):
                continue  # proofs carry no runtime data; asserts keep the fact
            params.append((flatten_type(a.value).result.render(), f"x_{j + 1}"))
        fn = SacFunction(state.target_name(name, sac_final_pass),
                         flatten_type(ret).result.render(), params,
                         [], [], [], None, [])
        cx = _Cx(state, env, name, self)
        prop_pos = {j for j, (_, a) in enumerate(tel) if _is_prop(a.value)}
        venv = self._clause_bindings(cl, pos_name, fn, cx, prop_pos)
        fn.arg_asserts, fn.ret_asserts = shape_assertions(d.signature, pos_name, cx)
        body = cl.body
        if body is None:
            raise ExtractError(f"{name}: absurd clauses have no array translation")
        fn.body = self._term(body, venv, cx)
        fn.assigns.extend(cx.hoisted)
        code = render_function(fn, opts)
        return EmittedFunction(fn.name, code, state.deps.get(name, []))

    def _clause_bindings(self, cl: Clause, pos_name, fn: SacFunction, cx,
                         prop_pos=frozenset()):
        """Pattern variables become assigns; an imap pattern becomes the
        selection macro the body applies."""
        names_by_db: dict[int, str] = {}
        tel_len = len(cl.telescope)

        def tel_name(idx: int) -> str:
            return cl.telescope[tel_len - 1 - idx][0]

        def bind(pat, param: str):
            match pat:
                case PVar(idx):
                    nm = tel_name(idx)
                    if not nm.startswith("_"):
                        fn.assigns.append((nm, SVarE(param)))
                        names_by_db[idx] = nm
                case PCon("imap", args):
                    sub = args[-1].value
                    assert isinstance(sub, PVar)
                    nm = tel_name(sub.idx)
                    macro = nm if not nm.startswith("_") else cx.state.fresh("p_")
                    fn.macros.append((macro, param))
                    names_by_db[sub.idx] = f"#{macro}"
                case PCon(("vcons" | "lcons"), _):
                    for k, item in enumerate(_pat_spine(pat)):
                        if isinstance(item, PVar):
                            nm = tel_name(item.idx)
                            if not nm.startswith("_"):
                                fn.assigns.append(
                                    (nm, SSel(SVarE(param), SNum(k))))
                                names_by_db[item.idx] = nm
                        elif not (isinstance(item, PVar)):
                            raise ExtractError(
                                "nested component patterns are not supported here")
                case PCon("vnil", _):
                    pass
                case _:
                    raise ExtractError(
                        f"this target cannot compile pattern {pat!r}")

        for j, p in enumerate(cl.patterns):
            if j in prop_pos:
                continue  # proofs have no runtime parameter to bind
            bind(p.value, pos_name[j])
        return [names_by_db.get(i, "_") for i in range(tel_len)]

    # -- terms ----------------------------------------------------------------

    def _term(self, t: Term, venv: list[str], cx) -> SExp:
        match t:
            case Lit(int(v)):
                return SNum(v)
            case Lit(v):
                return SFlt(float(v))
            case Var(i, ()):
                nm = venv[i]
                if nm.startswith("#"):
                    raise ExtractError(
                        "an index function escapes its selection macro")
                return SVarE(nm)
            case Var(i, args):
                nm = venv[i]
                va = [a.value for a in args if not a.hidden]
                if nm.startswith("#") and len(va) == 1:
                    return SMacroApp(nm[1:], self._term(va[0], venv, cx))
                raise ExtractError("higher-order variable application")
            case Con("prf", _):
                return SNum(1)
            case Con(("suc" | "fsuc"), _):
                k, inner = _suc_spine(t)
                if inner is None:
                    return SNum(k)
                return SBin("+", SNum(k), self._term(inner, venv, cx))
            case Con(("zero" | "fzero"), _):
                return SNum(0)
            case Con(("vcons" | "icons" | "vnil" | "inil"), _):
                items, closed = _term_spine(t)
                if not closed:
                    raise ExtractError("open vector spine in emitted position")
                out: SExp = SVecLit(())
                for x in reversed(items):
                    out = SCall("cons", (self._term(x, venv, cx), out))
                return out
            case Con("imap", _):
                return self.kompile_imap(t, venv, cx)
            case Let(bound, scope):
                nm = _uniq(scope.name, venv, cx.state)
                cx.hoisted.append((nm, self._term(bound, venv, cx)))
                return self._term(scope.body, [nm] + venv, cx)
            case Def("reduce", args):
                return self.kompile_reduce(t, venv, cx)
            case Def(name, args):
                return self._def(name, args, venv, cx)
        raise ExtractError(f"no array translation for {t!r}")

    def _def(self, name: str, args, venv, cx) -> SExp:
        va = [a.value for a in args]
        if name in _SCALAR_BIN and len(va) == 2:
            return SBin(_SCALAR_BIN[name], self._term(va[0], venv, cx),
                        self._term(va[1], venv, cx))
        if name == "expf":
            return SCall("expf", (self._term(va[-1], venv, cx),))
        if name == "div-helper" and len(va) == 4:
            k, m, n, j = (self._term(x, venv, cx) for x in va)
            return SBin("+", k, SBin("/", SBin("-", SBin("+", n, m), j),
                                     SBin("+", SNum(1), m)))
        if name == "fromN<":
            return self._term(va[0], venv, cx)
        if name == "toN":
            return self._term(va[-1], venv, cx)
        if name == "sel":
            return self.kompile_sel(args, venv, cx)
        if name == "vidx":
            vis = [a.value for a in args if not a.hidden]
            return SSel(self._term(vis[1], venv, cx),
                        self._term(vis[0], venv, cx))
        if name == "ixc":
            vis = [a.value for a in args if not a.hidden]
            return SSel(self._term(vis[1], venv, cx),
                        self._term(vis[0], venv, cx))
        if name in ("vreverse", "ixReverse"):
            return SCall("reverse", (self._term(va[-1], venv, cx),))
        if name == "vhd":
            return SSel(self._term(va[-1], venv, cx), SNum(0))
        if name == "vtl":
            return SCall("drop", (SNum(1), self._term(va[-1], venv, cx)))
        if name == "vtake":
            vis = [a.value for a in args if not a.hidden]
            return SCall("take", (self._term(vis[0], venv, cx),
                                  self._term(vis[1], venv, cx)))
        if name == "vdrop":
            vis = [a.value for a in args if not a.hidden]
            return SCall("drop", (self._term(vis[0], venv, cx),
                                  self._term(vis[1], venv, cx)))
        if name == "vappend":
            vis = [a.value for a in args if not a.hidden]
            return SCall("append", (self._term(vis[0], venv, cx),
                                    self._term(vis[1], venv, cx)))
        if name == "_*v_":
            return self._scale(args, venv, cx)
        if name == "prodv":
            return SCall("prod", (self._term(va[-1], venv, cx),))
        if name == "ravel":
            self.need_ravel = True
            return SCall("ravel", (self._term(va[-1], venv, cx),))
        if name == "reshape":
            vis = [a.value for a in args if not a.hidden]
            return SCall("reshape", (self._term(vis[0], venv, cx),
                                     self._term(vis[1], venv, cx)))
        d = cx.env.lookup(name) if name in cx.env else None
        if d is not None and _returns_prop(d.signature):
            return SNum(1)
        if d is None:
            raise ExtractError(f"unknown definition {name}")
        tel, _ = pi_spine(d.signature)
        kargs = [self._term(a.value, venv, cx)
                 for (a, (_, dom)) in zip(args, tel) if not _is_prop(dom.value)]
        cx.state.push(name)
        cx.state.note_dep(cx.caller, name)
        return SCall(cx.state.target_name(name, sac_final_pass), tuple(kargs))

    def _scale(self, args, venv, cx) -> SExp:
        hid = [a.value for a in args if a.hidden]
        vis = [a.value for a in args if not a.hidden]
        v, k = vis
        kx = self._term(k, venv, cx)
        d = nat_view(hid[0]) if hid else None
        items, closed = _term_spine(v)
        if closed:
            out: SExp = SVecLit(())
            for x in reversed(items):
                out = SCall("cons", (SBin("*", self._term(x, venv, cx), kx), out))
            return out
        vx = self._term(v, venv, cx)
        if d is not None:  # expand componentwise when the length is static
            out = SVecLit(())
            for i in reversed(range(d)):
                out = SCall("cons", (SBin("*", SSel(vx, SNum(i)), kx), out))
            return out
        return SBin("*", vx, kx, scalar=False)

    # -- with-loops -------------------------------------------------------------

    def kompile_imap(self, t: Term, venv, cx) -> SExp:
        x, d, s = (a.value for a in t.args[:3])
        f = t.args[-1].value
        shape = self.shape_expr(s, venv, cx)
        default = self._zero_default(x, venv, cx)
        iv = cx.state.fresh("iv_")
        if isinstance(f, Lam):
            block, body = self._loop_body(f, iv, venv, cx)
        else:
            block, body = (), self._term_fn_apply(f, SVarE(iv), venv, cx)
        return SWith("genarray", ((None, None, iv, block, body),),
                     shape=shape, default=default)

    def _loop_body(self, f: Lam, iv: str, venv, cx):
        """Leading lets of a with-loop body become partition-block assigns
        (index components from a pattern lambda in particular)."""
        block: list[tuple[str, SExp]] = []
        body_t = f.scope.body
        benv = [iv] + venv
        while isinstance(body_t, Let):
            nm = _uniq(body_t.scope.name, benv, cx.state)
            block.append((nm, self._term(body_t.bound, benv, cx)))
            benv = [nm] + benv
            body_t = body_t.scope.body
        return tuple(block), self._term(body_t, benv, cx)

    def _term_fn_apply(self, f: Term, ivx: SExp, venv, cx) -> SExp:
        if isinstance(f, Var) and not f.args and venv[f.idx].startswith("#"):
            return SMacroApp(venv[f.idx][1:], ivx)
        raise ExtractError("imap takes a lambda or a matched selection function")

    def _zero_default(self, x: Term, venv, cx) -> SExp:
        """The default element fixes the element shape, so flattened
        non-scalar elements get a zero array of their own shape."""
        base, dims, exact = _flatten(x, outermost=False)
        fn = "zero_float" if base == "float" else "zero_int"
        if not dims:
            return SCall(fn, (SVecLit(()),))
        if not exact or any(d is None for d in dims):
            raise ExtractError("genarray default needs a rank-exact element shape")
        out: SExp = SVecLit(())
        for d in reversed(dims):
            dx = SNum(d) if isinstance(d, int) else self._term(d, venv, cx)
            out = SCall("cons", (dx, out))
        return SCall(fn, (out,))

    def kompile_reduce(self, t: Term, venv, cx) -> SExp:
        args = [a.value for a in t.args]
        f, neutral, arr = args[-3], args[-2], args[-1]
        opname = f.name if isinstance(f, Def) else None
        if opname not in _FOLD_OPS:
            raise ExtractError(
                f"fold operator {opname or f!r} has no neutral in the table")
        op, _ = _FOLD_OPS[opname]
        neutral_x = self._term(neutral, venv, cx)
        if isinstance(arr, Def) and arr.name == "ravel":
            arr = arr.args[-1].value  # fold order is row-major anyway
        iv = cx.state.fresh("iv_")
        if isinstance(arr, Con) and arr.name == "imap":
            s = arr.args[2].value
            shape = self.shape_expr(s, venv, cx)
            f_arr = arr.args[-1].value
            if isinstance(f_arr, Lam):
                block, body = self._loop_body(f_arr, iv, venv, cx)
            else:
                block, body = (), self._term_fn_apply(f_arr, SVarE(iv), venv, cx)
            lower = SBin("*", SNum(0), shape, scalar=False)
            return SWith("fold", ((lower, shape, iv, block, body),),
                         op=op, neutral=neutral_x)
        src = self._term(arr, venv, cx)
        shape = SCall("shape", (src,))
        lower = SBin("*", SNum(0), shape, scalar=False)
        body = SSel(src, SVarE(iv))
        return SWith("fold", ((lower, shape, iv, (), body),),
                     op=op, neutral=neutral_x)

    def kompile_sel(self, args, venv, cx) -> SExp:
        x = args[0].value
        vis = [a.value for a in args if not a.hidden]
        arr, idx = vis
        elem = flatten_type(x) if _is_array_type(x) else None
        arr_x = self._term(arr, venv, cx)
        idx_x = self._term(idx, venv, cx)
        if elem is not None and (elem.prefix or elem.result.attr[0] != "static"):
            self.need_sel = True  # partial selection via the library wrapper
            return SCall("sel", (idx_x, arr_x))
        return SSel(arr_x, idx_x)

    def shape_expr(self, s: Term, venv, cx) -> SExp:
        return self._term(s, venv, cx)

    def assemble(self, fns: list[EmittedFunction], state: ExtractState,
                 opts: ExtractOptions) -> str:
        pre = []
        if self.need_sel:
            pre.append(_SEL_PRELUDE)
        if self.need_ravel:
            pre.append(_RAVEL_PRELUDE)
        return "\n".join(pre + [f.code for f in fns])


@dataclass
class _Cx:
    state: ExtractState
    env: Env
    caller: str
    backend: "SacBackend"
    hoisted: list = field(default_factory=list)


def _pat_spine(p) -> list:
    items = []
    while isinstance(p, PCon) and p.name in ("vcons", "lcons"):
        pv = [a.value for a in p.args if not a.hidden]
        items.append(pv[0] if not isinstance(pv[0], PCon) or True else pv[0])
        p = pv[1]
    return items


def _term_spine(t: Term) -> tuple[list[Term], bool]:
    items = []
    while isinstance(t, Con) and t.name in ("vcons", "icons", "lcons"):
        items.append(t.args[-2].value)
        t = t.args[-1].value
    closed = isinstance(t, Con) and t.name in ("vnil", "inil", "lnil")
    return items, closed


def _suc_spine(t: Term) -> tuple[int, Term | None]:
    k = 0
    while isinstance(t, Con) and t.name in ("suc", "fsuc"):
        k += 1
        t = t.args[-1].value
    n = nat_view(t)
    if n is not None:
        return k + n, None
    return k, t


def _uniq(name: str, venv, state) -> str:
    if name and name != "_" and name not in venv:
        return name
    return state.fresh("t_")


def _is_prop(ty: Term) -> bool:
    return isinstance(ty, Def) and ty.name in ("_<_", "_≡_")


def _is_array_type(ty: Term) -> bool:
    return isinstance(ty, Def) and ty.name in ("Ar", "Vec", "Nat", "Float",
                                               "Fin", "List")


def _returns_prop(sig: Term) -> bool:
    _, ret = pi_spine(sig)
    return _is_prop(ret)


# --------------------------------------------------------------------------
# signature assertions


def shape_assertions(sig: Term, pos_name: dict[int, str], cx) -> tuple[list, list]:
    """Arg asserts and return asserts from the signature's shape relations."""
    tel, ret = pi_spine(sig)
    args_out: list[SExp] = []

    def venv_for(j: int) -> list[str]:
        return [pos_name[i] for i in range(j - 1, -1, -1)]

    be = cx.backend
    for j, (_, a) in enumerate(tel):
        nm = pos_name[j]
        args_out.extend(_type_asserts(a.value, SVarE(nm), venv_for(j), cx))
    ret_out = _type_asserts(ret, SVarE(RET), venv_for(len(tel)), cx)
    return args_out, ret_out


def _type_asserts(ty: Term, subj: SExp, venv, cx) -> list[SExp]:
    be = cx.backend
    match ty:
        case Def("Nat", ()) | Def("Float", ()):
            return []
        case Def("Fin", (Arg(e, _),)):
            return [SBin("<", subj, be._term(e, venv, cx), scalar=False)]
        case Def("_<_", (Arg(a, _), Arg(b, _))):
            return [SBin("<", be._term(a, venv, cx), be._term(b, venv, cx),
                         scalar=False)]
        case Def("_≡_", args):
            va = [x.value for x in args if not x.hidden]
            return [SBin("==", be._term(va[0], venv, cx),
                         be._term(va[1], venv, cx), scalar=False)]
        case Def("Vec", (Arg(_, _), Arg(n, _))):
            return [SBin("==", SSel(SCall("shape", (subj,)), SNum(0)),
                         be._term(n, venv, cx), scalar=False)]
        case Def("Ar", (Arg(_, _), Arg(d, _), Arg(s, _))):
            return [SBin("==", SCall("take", (be._term(d, venv, cx),
                                              SCall("shape", (subj,)))),
                         be._term(s, venv, cx), scalar=False)]
        case Def("List", _):
            return []
    return []


# --------------------------------------------------------------------------
# rendering


_PREC = {"==": 1, "<": 2, ">": 2, "+": 3, "-": 3, "*": 4, "/": 4, "%": 4}


def render_expr(e: SExp, prec: int = 0, ind: int = 2) -> str:
    match e:
        case SNum(v):
            return str(v)
        case SFlt(v):
            return f"{v!r}f"
        case SVarE(n):
            return n
        case SMacroApp(n, a):
            return f"{n}({render_expr(a, 0, ind)})"
        case SCall(f, args):
            return f"{f} ({', '.join(render_expr(a, 0, ind) for a in args)})"
        case SSel(arr, idx):
            base = render_expr(arr, 9, ind)
            return f"{base}[{render_expr(idx, 0, ind)}]"
        case SVecLit(items):
            return "[" + ", ".join(render_expr(i, 0, ind) for i in items) + "]"
        case SBin(op, l, r, scalar):
            p = _PREC[op]
            text = f"{render_expr(l, p, ind)} {'$' + op if scalar else op} " \
                   f"{render_expr(r, p + 1, ind)}"
            return f"({text})" if prec > p else text
        case SWith():
            text = render_with(e, ind)
            return f"({text})" if prec > 0 else text
    raise ExtractError(f"unprintable {e!r}")


def render_with(w: SWith, ind: int) -> str:
    pad = " " * ind
    lines = ["with {"]
    for lower, upper, iv, block, body in w.partitions:
        if lower is None:
            head = f"(. <= {iv} <= .)"
        else:
            head = f"({render_expr(lower)} <= {iv} < {render_expr(upper)})"
        if block:
            lines.append(f"{pad}  {head} {{")
            for nm, e in block:
                lines.append(f"{pad}    {nm} = {render_expr(e)};")
            lines.append(f"{pad}  }} : {render_expr(body, 0, ind + 2)};")
        else:
            lines.append(f"{pad}  {head} : {render_expr(body, 0, ind + 2)};")
    if w.kind == "genarray":
        lines.append(f"{pad}}}: genarray ({render_expr(w.shape)}, "
                     f"{render_expr(w.default)})")
    else:
        lines.append(f"{pad}}}: fold ({w.op}, {render_expr(w.neutral)})")
    return "\n".join(lines)


def render_function(fn: SacFunction, opts: ExtractOptions) -> str:
    lines = [f"{fn.ret} {fn.name}({', '.join(f'{t} {n}' for t, n in fn.params)}) {{"]
    lines.append(f"  {fn.ret} {RET};")
    for nm, e in fn.assigns:
        lines.append(f"  {nm} = {render_expr(e)};")
    if not opts.no_assert:
        for a in fn.arg_asserts:
            lines.append(f"  assert ({render_expr(a)});")
    for macro, target in fn.macros:
        lines.append(f"  #define {macro}(__x) ({target})[__x]")
    lines.append(f"  {RET} = {render_expr(fn.body, 0, 2)};")
    if not opts.no_assert:
        for a in fn.ret_asserts:
            lines.append(f"  assert ({render_expr(a)});")
    lines.append(f"  return {RET};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_SEL_PRELUDE = """\
float[*] sel (int[.] idx, float[*] a) {
  sh_inner = drop (shape (idx)[0], shape (a));
  return with {
    (0 * sh_inner <= iv_s < sh_inner) : a[append (idx, iv_s)];
  }: genarray (sh_inner, 0.0f);
}
"""

_RAVEL_PRELUDE = """\
float[.] ravel (float[*] a) {
  return reshape ([prod (shape (a))], a);
}
"""


# --------------------------------------------------------------------------
# parsing the emitted subset back


class SacParseError(ExtractError):
    pass


@dataclass
class SacProgram:
    functions: dict[str, "ParsedFn"]


@dataclass
class ParsedFn:
    name: str
    params: list[str]
    stmts: list  # ("assign", name, expr) | ("assert", expr) | ("return", expr)


def _sac_tokens(text: str) -> list[str]:
    toks: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("/*", i):
            i = text.index("*/", i) + 2
            continue
        if text.startswith("//", i):
            i = text.index("\n", i) if "\n" in text[i:] else n
            continue
        if c == "$":
            toks.append(text[i:i + 2])
            i += 2
            continue
        for two in ("<=", "=="):
            if text.startswith(two, i):
                toks.append(two)
                i += 2
                break
        else:
            if c == "-" and i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < n and text[j] == "f":
                    j += 1
                toks.append(text[i:j])
            elif c in "{}()[],;:=<>*+-/%.#":
                toks.append(c)
            elif c.isdigit():
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    # a bare '.' partition bound never follows a digit
                    j += 1
                if j < n and text[j] == "f":
                    j += 1
                toks.append(text[i:j])
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(text[i:j])
            else:
                raise SacParseError(f"stray character {c!r}")
            i += len(toks[-1])
    return toks


def parse_sac(text: str) -> SacProgram:
    macros: dict[str, tuple[str, SExp]] = {}
    kept_lines = []
    for line in text.splitlines():
        ls = line.strip()
        if ls.startswith("#define"):
            head, body = ls[len("#define"):].strip().split(")", 1)
            mname, marg = head.split("(")
            e = _SacExprParser(_sac_tokens(body), macros).expr(0)
            macros[mname.strip()] = (marg.strip(), e)
        else:
            kept_lines.append(line)
    toks = _sac_tokens("\n".join(kept_lines))
    p = _SacParser(toks, macros)
    fns: dict[str, ParsedFn] = {}
    while not p.at_end():
        fn = p.function()
        fns[fn.name] = fn
    return SacProgram(fns)


class _SacExprParser:
    def __init__(self, toks: list[str], macros):
        self.toks = toks
        self.pos = 0
        self.macros = macros

    def peek(self, k: int = 0):
        return self.toks[self.pos + k] if self.pos + k < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise SacParseError("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise SacParseError(f"expected {t!r}, found {got!r}")
        return got

    _BIN = {"==": 1, "<": 2, ">": 2, "+": 3, "-": 3, "*": 4, "/": 4, "%": 4,
            "$+": 3, "$-": 3, "$*": 4, "$/": 4, "$%": 4}

    def expr(self, min_p: int) -> SExp:
        lhs = self.postfix()
        while True:
            t = self.peek()
            if t not in self._BIN or self._BIN[t] < min_p:
                return lhs
            op = self.take()
            rhs = self.expr(self._BIN[op] + 1)
            lhs = SBin(op.lstrip("$"), lhs, rhs, scalar=op.startswith("$"))

    def postfix(self) -> SExp:
        e = self.atom()
        while self.peek() == "[":
            self.take()
            idx = self.expr(0)
            self.expect("]")
            e = SSel(e, idx)
        return e

    def atom(self) -> SExp:
        t = self.take()
        if t == "(":
            e = self.expr(0)
            self.expect(")")
            return e
        if t == "[":
            items = []
            if self.peek() != "]":
                items.append(self.expr(0))
                while self.peek() == ",":
                    self.take()
                    items.append(self.expr(0))
            self.expect("]")
            return SVecLit(tuple(items))
        if t == "with":
            return self.with_loop()
        if t and (t[0].isdigit() or (t[0] == "-" and len(t) > 1)):
            if t.endswith("f"):
                return SFlt(float(t[:-1]))
            if "." in t:
                return SFlt(float(t))
            return SNum(int(t))
        if self.peek() == "(":
            self.take()
            args = []
            if self.peek() != ")":
                args.append(self.expr(0))
                while self.peek() == ",":
                    self.take()
                    args.append(self.expr(0))
            self.expect(")")
            if t in self.macros:
                argname, body = self.macros[t]
                return _subst_var(body, argname, args[0])
            return SCall(t, tuple(args))
        return SVarE(t)

    def with_loop(self) -> SExp:
        self.expect("{")
        partitions = []
        while self.peek() != "}":
            self.expect("(")
            if self.peek() == ".":
                self.take()
                self.expect("<=")
                iv = self.take()
                self.expect("<=")
                self.expect(".")
                lower = upper = None
            else:
                lower = self.expr(0)
                self.expect("<=")
                iv = self.take()
                self.expect("<")
                upper = self.expr(0)
            self.expect(")")
            block = []
            if self.peek() == "{":
                self.take()
                while self.peek() != "}":
                    nm = self.take()
                    self.expect("=")
                    block.append((nm, self.expr(0)))
                    self.expect(";")
                self.take()
            self.expect(":")
            body = self.expr(0)
            self.expect(";")
            partitions.append((lower, upper, iv, tuple(block), body))
        self.take()  # }
        self.expect(":")
        kind = self.take()
        self.expect("(")
        if kind == "genarray":
            shape = self.expr(0)
            self.expect(",")
            default = self.expr(0)
            self.expect(")")
            return SWith("genarray", tuple(partitions), shape=shape,
                         default=default)
        if kind != "fold":
            raise SacParseError(f"unknown with-loop kind {kind}")
        op = self.take()
        self.expect(",")
        neutral = self.expr(0)
        self.expect(")")
        return SWith("fold", tuple(partitions), op=op, neutral=neutral)


def _subst_var(e: SExp, name: str, repl: SExp) -> SExp:
    match e:
        case SVarE(n) if n == name:
            return repl
        case SBin(op, l, r, sc):
            return SBin(op, _subst_var(l, name, repl), _subst_var(r, name, repl), sc)
        case SSel(a, i):
            return SSel(_subst_var(a, name, repl), _subst_var(i, name, repl))
        case SCall(f, args):
            return SCall(f, tuple(_subst_var(a, name, repl) for a in args))
        case SVecLit(items):
            return SVecLit(tuple(_subst_var(a, name, repl) for a in items))
        case _:
            return e


class _SacParser(_SacExprParser):
    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def type_ann(self) -> str:
        base = self.take()
        out = base
        if self.peek() == "[":
            self.take()
            out += "["
            while self.peek() != "]":
                out += self.take()
            self.take()
            out += "]"
        return out

    def function(self) -> ParsedFn:
        self.type_ann()
        name = self.take()
        self.expect("(")
        params = []
        while self.peek() != ")":
            self.type_ann()
            params.append(self.take())
            if self.peek() == ",":
                self.take()
        self.take()
        self.expect("{")
        stmts = []
        while self.peek() != "}":
            t = self.peek()
            if t == "return":
                self.take()
                stmts.append(("return", self.expr(0)))
                self.expect(";")
            elif t == "assert":
                self.take()
                self.expect("(")
                stmts.append(("assert", self.expr(0)))
                self.expect(")")
                self.expect(";")
            else:
                # either a declaration `type name ;` or an assignment
                if self.peek(1) == "=":
                    nm = self.take()
                    self.take()
                    stmts.append(("assign", nm, self.expr(0)))
                    self.expect(";")
                else:
                    self.type_ann()
                    nm = self.take()
                    if self.peek() == "=":
                        self.take()
                        stmts.append(("assign", nm, self.expr(0)))
                    self.expect(";")
        self.take()
        return ParsedFn(name, params, stmts)


# --------------------------------------------------------------------------
# interpreter


@dataclass(frozen=True)
class SacAborted:
    reason: str


class _SacAbort(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def interp_sac(program, entry: str, args):
    """Evaluate the emitted subset over numpy values.  Arrays come in as
    (shape, flat data) pairs, numpy arrays, or scalars; Aborted is a value."""
    prog = parse_sac(program) if isinstance(program, str) else program
    vals = [_to_value(a) for a in args]
    try:
        out = _SacEval(prog).call(entry, vals)
    except _SacAbort as ab:
        return SacAborted(ab.reason)
    except ZeroDivisionError:
        return SacAborted("division by zero")
    return out


def _to_value(a):
    if isinstance(a, tuple) and len(a) == 2 and isinstance(a[0], (tuple, list)):
        shape, flat = a
        arr = np.array(flat)
        return arr.reshape(tuple(shape))
    if isinstance(a, (list,)):
        return np.array(a)
    return a


class _SacEval:
    def __init__(self, prog: SacProgram):
        self.prog = prog

    def call(self, name: str, args: list):
        fn = self.prog.functions.get(name)
        if fn is None:
            raise SacParseError(f"unknown function {name}")
        if len(fn.params) != len(args):
            raise SacParseError(f"{name} expects {len(fn.params)} arguments")
        env = dict(zip(fn.params, args))
        for st in fn.stmts:
            if st[0] == "assign":
                env[st[1]] = self.eval(st[2], env)
            elif st[0] == "assert":
                v = self.eval(st[1], env)
                ok = bool(np.all(v)) if isinstance(v, np.ndarray) else bool(v)
                if not ok:
                    raise _SacAbort("assertion failed")
            else:
                return self.eval(st[1], env)
        raise SacParseError(f"{name} has no return statement")

    def eval(self, e: SExp, env):
        match e:
            case SNum(v):
                return v
            case SFlt(v):
                return v
            case SVarE(n):
                if n not in env:
                    raise SacParseError(f"unbound variable {n}")
                return env[n]
            case SVecLit(items):
                vals = [self.eval(i, env) for i in items]
                return np.array(vals, dtype=(np.int64 if not vals or
                                             _all_int(vals) else np.float64))
            case SBin(op, l, r, _):
                return self._bin(op, self.eval(l, env), self.eval(r, env))
            case SSel(arr, idx):
                return self._sel(self.eval(arr, env), self.eval(idx, env))
            case SMacroApp(_, _):
                raise SacParseError("macros are substituted during parsing")
            case SCall(f, fargs):
                vals = [self.eval(a, env) for a in fargs]
                return self._call(f, vals, env)
            case SWith():
                return self._with(e, env)
        raise SacParseError(f"cannot evaluate {e!r}")

    def _bin(self, op, a, b):
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/" or op == "%":
            # a 0-d array (how a `((), [x])` argument arrives) is a scalar
            if type(a) is np.ndarray and not a.ndim:
                a = a[()]
            if type(b) is np.ndarray and not b.ndim:
                b = b[()]
            if np.isscalar(b) and b == 0:
                raise _SacAbort("division by zero" if op == "/" else "mod by zero")
            if op == "%":
                return a % b
            if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
                return a // b
            return a / b
        if op == "==":
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                return np.array_equal(np.asarray(a), np.asarray(b))
            return a == b
        if op == "<":
            return a < b
        if op == ">":
            return a > b
        raise SacParseError(f"unknown operator {op}")

    def _sel(self, arr, idx):
        if isinstance(idx, np.ndarray):
            comps = tuple(int(c) for c in idx.tolist())
            if len(comps) > arr.ndim:
                raise _SacAbort("selection index longer than array rank")
            for c, n in zip(comps, arr.shape):
                if not 0 <= c < n:
                    raise _SacAbort(f"index {comps} out of bounds")
            out = arr[comps]
            return out
        i = int(idx)
        if not 0 <= i < arr.shape[0]:
            raise _SacAbort(f"index {i} out of bounds")
        return arr[i]

    def _call(self, f, vals, env):
        if f == "shape":
            a = vals[0]
            return np.array(a.shape if isinstance(a, np.ndarray) else (),
                            dtype=np.int64)
        if f == "take":
            k = int(vals[0] if np.isscalar(vals[0]) else vals[0].flat[0])
            return vals[1][:k]
        if f == "drop":
            k = int(vals[0] if np.isscalar(vals[0]) else vals[0].flat[0])
            return vals[1][k:]
        if f == "cons":
            head, tail = vals
            return np.concatenate([np.atleast_1d(head), np.atleast_1d(tail)]) \
                if tail is not None else np.atleast_1d(head)
        if f == "hd":
            return vals[0][0]
        if f == "tl":
            return vals[0][1:]
        if f == "append":
            return np.concatenate([np.atleast_1d(vals[0]), np.atleast_1d(vals[1])])
        if f == "reverse":
            return vals[0][::-1]
        if f == "prod":
            return int(np.prod(vals[0]))
        if f == "reshape":
            shp = tuple(int(x) for x in np.atleast_1d(vals[0]).tolist())
            return np.asarray(vals[1]).reshape(shp)
        if f == "empty":
            return np.array([], dtype=np.int64)
        if f == "zero_float":
            shp = tuple(int(x) for x in np.atleast_1d(vals[0]).tolist())
            return 0.0 if not shp else np.zeros(shp)
        if f == "zero_int":
            shp = tuple(int(x) for x in np.atleast_1d(vals[0]).tolist())
            return 0 if not shp else np.zeros(shp, dtype=np.int64)
        if f == "expf":
            import math
            return math.exp(vals[0])
        return self.call(f, vals)

    def _with(self, w: SWith, env):
        if w.kind == "genarray":
            shape_v = np.atleast_1d(self.eval(w.shape, env))
            shape = tuple(int(x) for x in shape_v.tolist())
            default = self.eval(w.default, env)
            dshape = default.shape if isinstance(default, np.ndarray) else ()
            out = np.empty(shape + dshape,
                           dtype=np.float64 if _is_floaty(default) else np.int64)
            out[...] = default
            for lower, upper, iv, block, body in w.partitions:
                for ix in self._indices(lower, upper, shape, env):
                    benv = dict(env)
                    benv[iv] = np.array(ix, dtype=np.int64)
                    for nm, be in block:
                        benv[nm] = self.eval(be, benv)
                    out[ix] = self.eval(body, benv)
            return out
        acc = self.eval(w.neutral, env)
        opf = {"+": lambda a, b: a + b, "*": lambda a, b: a * b}[w.op]
        for lower, upper, iv, block, body in w.partitions:
            lo = np.atleast_1d(self.eval(lower, env))
            hi = np.atleast_1d(self.eval(upper, env))
            shape = tuple(int(a) for a in (hi - lo).tolist())
            base = tuple(int(a) for a in lo.tolist())
            for ix in np.ndindex(shape):
                full = tuple(b + i for b, i in zip(base, ix))
                benv = dict(env)
                benv[iv] = np.array(full, dtype=np.int64)
                for nm, be in block:
                    benv[nm] = self.eval(be, benv)
                acc = opf(acc, self.eval(body, benv))
        return acc

    def _indices(self, lower, upper, shape, env):
        if lower is None:
            yield from np.ndindex(shape)
            return
        lo = np.atleast_1d(self.eval(lower, env))
        hi = np.atleast_1d(self.eval(upper, env))
        span = tuple(int(a) for a in (hi - lo).tolist())
        base = tuple(int(a) for a in lo.tolist())
        for ix in np.ndindex(span):
            yield tuple(b + i for b, i in zip(base, ix))


def _all_int(vals) -> bool:
    return all(isinstance(v, (int, np.integer)) for v in vals)


def _is_floaty(v) -> bool:
    return isinstance(v, float) or (isinstance(v, np.ndarray) and
                                    v.dtype.kind == "f")
