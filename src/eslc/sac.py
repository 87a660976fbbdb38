"""SaC-style backend: shape-attributed types, with-loops, and a reference
interpreter for the emitted subset.

imap-headed bodies become genarray with-loops, applications of the
reduction combinator become fold with-loops, nested array types flatten
into multi-dimensional ones, and every check a signature implies
(`extract.checks`) becomes an assert over shape/take/cons expressions.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from . import ir
from .builtins import is_prop_type
from .extract import (RET, SAC_KEYWORDS, Check, ExtractError, ExtractState,
                      TokenReader, sac_final_pass, subjects)
from .ir import (Abort, Aborted, Arg, Clause, Con, Def, Definition, Env,
                 Function, Lam, Let, Lit, PCon, PVar, Term, Var, nat_view,
                 pi_spine)


class Inhomogeneous(ExtractError):
    pass


# --------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class SacType:
    base: str  # "int" | "float"
    attr: tuple  # ("static", dims) | ("rank", n) | ("any",)

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
        return f"{self.base}[*]"


@dataclass(frozen=True)
class FlattenedType:
    result: SacType
    prefix: tuple  # outer dims: ints or symbolic Terms or None (dynamic)


def flatten_type(ty: Term) -> FlattenedType:
    base, dims, exact_rank = _flatten(ty, outermost=True)
    static = all(isinstance(d, int) for d in dims) and exact_rank
    if static:
        attr = ("static", tuple(dims))
    elif exact_rank:
        attr = ("rank", len(dims))
    else:
        attr = ("any",)
    return FlattenedType(SacType(base, attr), tuple(dims))


def _flatten(ty: Term, outermost: bool) -> tuple[str, list, bool]:
    match ty:
        case Def("Nat", ()) | Def("Fin", _) | Def("Dec", _):
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
    lets: list[tuple[str, SExp]] = field(default_factory=list)  # after macros


# --------------------------------------------------------------------------
# the backend


_FOLD_OPS = {"_+_": ("+", SNum(0)), "_*_": ("*", SNum(1)),
             "_+f_": ("+", SFlt(0.0)), "_*f_": ("*", SFlt(1.0))}

_SCALAR_BIN = {"_+_": "+", "_-_": "-", "_*_": "*", "_/_": "/", "_%_": "%",
               "_+f_": "+", "_-f_": "-", "_*f_": "*", "_/f_": "/",
               "_≟_": "==", "_<?_": "<"}  # a decision is a C boolean

# primitives that become a SaC call on their two visible arguments, in order
_VIS2_CALLS = {"vtake": "take", "vdrop": "drop", "vappend": "append",
               "reshape": "reshape"}

# the functions the emitted text calls without defining them in the
# program: SaC's own, and the helpers `assemble` prepends
SAC_BUILTINS = frozenset({"shape", "take", "drop", "cons", "append", "reverse",
                          "prod", "reshape", "zero_float", "zero_int", "max",
                          "expf", "sel", "ravel"})


class SacBackend:
    final_pass = staticmethod(sac_final_pass)
    keywords = SAC_KEYWORDS
    builtins = SAC_BUILTINS

    def __init__(self):
        self.need_sel = False
        self.need_ravel = False

    def kompile_fun(self, name: str, d: Definition, plan: list[Check],
                    state: ExtractState, env: Env) -> str:
        assert isinstance(d.payload, Function)
        if len(d.payload.clauses) != 1:
            raise ExtractError("this target compiles single-clause functions only")
        cl = d.payload.clauses[0]
        subj = subjects(d.signature)
        names = [n for n, _ in subj]
        # proofs carry no runtime data; the checks keep their facts
        prop_pos = {j for j, (_, ty) in enumerate(subj[:-1]) if is_prop_type(ty)}
        params = [(flatten_type(ty).result.render(), n)
                  for j, (n, ty) in enumerate(subj[:-1]) if j not in prop_pos]
        fn = SacFunction(state.target_name(name, sac_final_pass),
                         flatten_type(subj[-1][1]).result.render(), params,
                         [], [], [], None, [])
        # the function names its binders apart from all it has bound so far
        cx = _Cx(state, env, set(names))
        venv = self._clause_bindings(cl, names, fn, cx, prop_pos)
        for c in plan:  # List is left unchecked: the plan has no check for it
            (fn.ret_asserts if names[c.subject] == RET else fn.arg_asserts
             ).append(self._check(c, names, cx))
        fn.assigns += cx.hoisted  # lets of the asserted types precede them
        body = cl.body
        if body is None:
            raise ExtractError("absurd clauses have no array translation")
        cx.hoisted = fn.lets  # the body's lets may use the macros
        fn.body = self._term(body, venv, cx)
        return render_function(fn)

    def _check(self, c: Check, names: list[str], cx) -> SExp:
        """A check as a SaC condition over the parameters before its
        subject."""
        venv = names[:c.subject][::-1]
        subj = SVarE(names[c.subject])
        lhs = subj if c.lhs is None else self._term(c.lhs, venv, cx)
        rhs = self._term(c.rhs, venv, cx)
        match c.relation:
            case "extent":
                lhs = SSel(SCall("shape", (subj,)), SNum(0))
            case "take":
                lhs = SCall("take", (lhs, SCall("shape", (subj,))))
        rel = SBin("<" if c.relation == "<" else "==", lhs, rhs, scalar=False)
        return SBin("==", subj, rel, scalar=False) if c.decision else rel

    def _clause_bindings(self, cl: Clause, names, fn: SacFunction, cx,
                         prop_pos=frozenset()):
        """Pattern variables become assigns; an imap pattern becomes the
        selection macro the body applies."""
        names_by_db: dict[int, str] = {}

        def source_name(idx: int) -> str:
            return cl.telescope[len(cl.telescope) - 1 - idx][0]

        def bind(idx: int, value: SExp) -> None:
            if not source_name(idx).startswith("_"):
                names_by_db[idx] = cx.state.binder(source_name(idx), cx.scope)
                fn.assigns.append((names_by_db[idx], value))

        for j, p in enumerate(cl.patterns):
            if j in prop_pos:
                continue  # proofs have no runtime parameter to bind
            param = names[j]
            match p.value:
                case PVar(idx):
                    bind(idx, SVarE(param))
                case PCon("imap", args):
                    sub = args[-1].value
                    assert isinstance(sub, PVar)
                    nm = source_name(sub.idx)
                    wild = nm.startswith("_")
                    # a #define holds for the rest of the text, so its name
                    # stays apart from every function, builtin and macro
                    called = cx.state.used_names
                    macro = cx.state.binder("p" if wild else nm, cx.scope | called,
                                            fresh=wild)
                    cx.scope.add(macro)
                    called.add(macro)
                    fn.macros.append((macro, param))
                    names_by_db[sub.idx] = f"#{macro}"
                case PCon(("vcons" | "lcons"), _) as pat:
                    for k, item in enumerate(_pat_spine(pat)):
                        if not isinstance(item, PVar):
                            raise ExtractError(
                                "nested component patterns are not supported here")
                        bind(item.idx, SSel(SVarE(param), SNum(k)))
                case PCon("vnil", _):
                    pass
                case pat:
                    raise ExtractError(
                        f"this target cannot compile pattern {pat!r}")
        return [names_by_db.get(i, "_") for i in range(len(cl.telescope))]

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
                nm = cx.state.binder(scope.name, cx.scope)
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
            out = SBin(_SCALAR_BIN[name], self._term(va[0], venv, cx),
                       self._term(va[1], venv, cx))
            # subtraction on naturals truncates at zero
            return SCall("max", (out, SNum(0))) if name == "_-_" else out
        if name == "expf":
            return SCall("expf", (self._term(va[-1], venv, cx),))
        if name == "div-helper" and len(va) == 4:
            k, m, n, j = (self._term(x, venv, cx) for x in va)
            return SBin("+", k, SBin("/", SBin("-", SBin("+", n, m), j),
                                     SBin("+", SNum(1), m)))
        if name == "sel":
            return self.kompile_sel(args, venv, cx)
        if name in ("vidx", "ixc"):
            vis = [a.value for a in args if not a.hidden]
            return SSel(self._term(vis[1], venv, cx),
                        self._term(vis[0], venv, cx))
        if name in _VIS2_CALLS:
            vis = [a.value for a in args if not a.hidden]
            return SCall(_VIS2_CALLS[name], (self._term(vis[0], venv, cx),
                                             self._term(vis[1], venv, cx)))
        if name in ("vreverse", "ixReverse"):
            return SCall("reverse", (self._term(va[-1], venv, cx),))
        if name == "vhd":
            return SSel(self._term(va[-1], venv, cx), SNum(0))
        if name == "vtl":
            return SCall("drop", (SNum(1), self._term(va[-1], venv, cx)))
        if name == "_*v_":
            return self._scale(args, venv, cx)
        if name == "prodv":
            return SCall("prod", (self._term(va[-1], venv, cx),))
        if name == "ravel":
            self.need_ravel = True
            return SCall("ravel", (self._term(va[-1], venv, cx),))
        if name not in cx.env:
            raise ExtractError(f"unknown definition {name}")
        tel, _ = pi_spine(cx.env.lookup(name).signature)
        kargs = [self._term(a.value, venv, cx) for (a, (_, dom)) in zip(args, tel)
                 if not is_prop_type(dom.value)]
        cx.state.push(name)
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
        shape = self._term(s, venv, cx)
        default = self._zero_default(x, venv, cx)
        iv = cx.state.binder("iv", cx.scope, fresh=True)
        block, body = self._loop_body(f, iv, venv, cx)
        return SWith("genarray", ((None, None, iv, block, body),),
                     shape=shape, default=default)

    def _loop_body(self, f: Term, iv: str, venv, cx):
        """A partition's block and body from the function an imap maps:
        the lets of a lambda body become block assigns (index components
        from a pattern lambda in particular); a matched selection function
        is applied to the index."""
        if not isinstance(f, Lam):
            if isinstance(f, Var) and not f.args and venv[f.idx].startswith("#"):
                return (), SMacroApp(venv[f.idx][1:], SVarE(iv))
            raise ExtractError(
                "imap takes a lambda or a matched selection function")
        outer, cx.hoisted = cx.hoisted, []
        body = self._term(f.scope.body, [iv] + venv, cx)
        block, cx.hoisted = tuple(cx.hoisted), outer
        return block, body

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
        iv = cx.state.binder("iv", cx.scope, fresh=True)
        if isinstance(arr, Con) and arr.name == "imap":
            s = arr.args[2].value
            shape = self._term(s, venv, cx)
            block, body = self._loop_body(arr.args[-1].value, iv, venv, cx)
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

    def assemble(self, fns: list[str]) -> str:
        pre = []
        if self.need_sel:
            pre.append(_SEL_PRELUDE)
        if self.need_ravel:
            pre.append(_RAVEL_PRELUDE)
        return "\n".join(pre + fns)


@dataclass
class _Cx:
    state: ExtractState
    env: Env
    scope: set[str]  # every name the function has bound so far
    hoisted: list = field(default_factory=list)


def _pat_spine(p) -> list:
    items = []
    while isinstance(p, PCon) and p.name in ("vcons", "lcons"):
        pv = [a.value for a in p.args if not a.hidden]
        items.append(pv[0])
        p = pv[1]
    return items


def _term_spine(t: Term) -> tuple[list[Term], bool]:
    items = []
    while isinstance(t, Con) and t.name in ("vcons", "icons", "lcons"):
        items.append(t.args[-2].value)
        t = t.args[-1].value
    closed = isinstance(t, Con) and t.name in ("vnil", "inil", "lnil")
    return items, closed


def _is_array_type(ty: Term) -> bool:
    return isinstance(ty, Def) and ty.name in ("Ar", "Vec", "Nat", "Float",
                                               "Fin", "List")


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


def render_function(fn: SacFunction) -> str:
    lines = [f"{fn.ret} {fn.name}({', '.join(f'{t} {n}' for t, n in fn.params)}) {{"]
    lines.append(f"  {fn.ret} {RET};")
    for nm, e in fn.assigns:
        lines.append(f"  {nm} = {render_expr(e)};")
    for a in fn.arg_asserts:
        lines.append(f"  assert ({render_expr(a)});")
    for macro, target in fn.macros:
        lines.append(f"  #define {macro}(__x) ({target})[__x]")
    for nm, e in fn.lets:
        lines.append(f"  {nm} = {render_expr(e)};")
    lines.append(f"  {RET} = {render_expr(fn.body, 0, 2)};")
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
class ParsedFn:
    name: str
    params: list[str]
    stmts: list  # ("assign", name, expr) | ("assert", expr) | ("return", expr)


# the printer's operators by spelling, scalar ones with a `$` prefix
_BINARY = {**_PREC, **{"$" + op: p for op, p in _PREC.items()}}
_TOKEN = re.compile(r"""\s* (?: //[^\n]* | /\*.*?\*/     # a comment
  | (?P<tok> -?\d+ (?:\.\d+)? (?:e[-+]?\d+)? f?         # a numeral
           | [A-Za-z_]\w* | \#define | <= | """ + "|".join(
    re.escape(op) for op in sorted(_BINARY, key=len, reverse=True)) + r"""
           | [][{}(),;:=.] )
  | (?P<bad> /\* | \S ))""", re.VERBOSE | re.DOTALL)


def parse_sac(text: str) -> dict[str, ParsedFn]:
    """The functions of an emitted program, by name."""
    return _SacReader(text).read()


class _SacReader(TokenReader):
    """The tokens of a program; a `#define` substitutes its body for each
    later use of the macro."""

    error = SacParseError

    def tokens(self, text: str) -> list[str]:
        toks = []
        for m in _TOKEN.finditer(text):
            if m.lastgroup == "bad":
                raise SacParseError(f"stray {m.group('bad')!r}")
            if m.lastgroup:
                toks.append(m.group("tok"))
        return toks

    def name(self) -> str:
        t = self.take()
        if t in SAC_KEYWORDS or not (t[0].isalpha() or t[0] == "_"):
            raise SacParseError(f"expected a name, found {t!r}")
        return t

    def type_ann(self) -> None:
        self.take()
        if self.accept("["):
            while self.take() != "]":
                pass

    def param(self) -> str:
        self.type_ann()
        return self.name()

    def program(self) -> dict[str, ParsedFn]:
        fns: dict[str, ParsedFn] = {}
        self.macros: dict[str, tuple[str, SExp]] = {}  # for the rest of the text
        while self.peek() is not None:
            self.type_ann()
            name = self.name()
            self.expect("(")
            params = self.items(")", self.param)
            self.expect("{")
            stmts = []
            while not self.accept("}"):
                if stmt := self.statement():
                    stmts.append(stmt)
            fns[name] = ParsedFn(name, params, stmts)
        return fns

    def statement(self) -> tuple | None:
        """A statement; None for a declaration or a `#define`."""
        if self.accept("#define"):  # its body ends where the expression does
            name = self.name()
            self.expect("(")
            arg = self.name()
            self.expect(")")
            self.macros[name] = (arg, self.expr())
            return None
        if self.accept("return"):
            stmt: tuple = ("return", self.expr())
        elif self.accept("assert"):
            self.expect("(")
            stmt = ("assert", self.expr())
            self.expect(")")
        else:
            if self.peek(1) != "=":
                self.type_ann()  # a declaration, perhaps with a value
            name = self.name()
            stmt = ("assign", name, self.expr()) if self.accept("=") else None
        self.expect(";")
        return stmt

    def expr(self, min_prec: int = 0) -> SExp:
        lhs = self.atom()
        while self.accept("["):
            lhs = SSel(lhs, self.expr())
            self.expect("]")
        while (p := _BINARY.get(self.peek(), -1)) >= min_prec:
            op = self.take()
            lhs = SBin(op.lstrip("$"), lhs, self.expr(p + 1),
                       scalar=op[0] == "$")
        return lhs

    def atom(self) -> SExp:
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.accept("["):
            return SVecLit(tuple(self.items("]", self.expr)))
        if self.accept("with"):
            return self.with_loop()
        t = self.peek()
        if t is not None and (t[0].isdigit() or t[0] == "-" and len(t) > 1):
            self.pos += 1
            if t[-1] == "f" or "." in t or "e" in t:
                return SFlt(float(t.rstrip("f")))
            return SNum(int(t))
        name = self.name()
        if not self.accept("("):
            return SVarE(name)
        args = self.items(")", self.expr)
        if name not in self.macros:
            return SCall(name, tuple(args))
        if len(args) != 1:
            raise SacParseError(f"macro {name} takes one argument")
        param, body = self.macros[name]
        return _subst_var(body, param, args[0])

    def with_loop(self) -> SExp:
        self.expect("{")
        partitions = []
        while not self.accept("}"):
            self.expect("(")
            if self.accept("."):
                self.expect("<=")
                iv = self.name()
                self.expect("<=")
                self.expect(".")
                lower = upper = None
            else:
                lower = self.expr()
                self.expect("<=")
                iv = self.name()
                self.expect("<")
                upper = self.expr()
            self.expect(")")
            block = []
            if self.accept("{"):
                while not self.accept("}"):
                    nm = self.name()
                    self.expect("=")
                    block.append((nm, self.expr()))
                    self.expect(";")
            self.expect(":")
            body = self.expr()
            self.expect(";")
            partitions.append((lower, upper, iv, tuple(block), body))
        self.expect(":")
        kind = self.take()
        self.expect("(")
        if kind == "genarray":
            shape = self.expr()
            self.expect(",")
            default = self.expr()
            self.expect(")")
            return SWith("genarray", tuple(partitions), shape=shape,
                         default=default)
        if kind != "fold":
            raise SacParseError(f"unknown with-loop kind {kind}")
        op = self.take()
        self.expect(",")
        neutral = self.expr()
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



# --------------------------------------------------------------------------
# interpreter


SacAborted = Aborted  # the shared abort value under its SaC-side name


def interp_sac(program, entry: str, args):
    """Evaluate the emitted subset, given as text or as the functions that
    parse_sac returns, over numpy values.  Arrays come in as (shape, flat
    data) pairs, numpy arrays, or scalars; Aborted is a value, also when
    the program runs out of Python stack."""
    prog = parse_sac(program) if isinstance(program, str) else program
    vals = [_to_value(a) for a in args]
    try:
        out = _SacEval(prog).call(entry, vals)
    except Abort as ab:  # a zero divisor too: _bin checks it first
        return Aborted(ab.reason)
    except RecursionError:
        return Aborted(ir.EXHAUSTED)
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
    def __init__(self, fns: dict[str, ParsedFn]):
        self.fns = fns

    def call(self, name: str, args: list):
        fn = self.fns.get(name)
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
                    raise Abort("assertion failed")
            else:
                return self.eval(st[1], env)
        raise SacParseError(f"{name} has no return statement")

    def eval(self, e: SExp, env):
        # runs once per node per element: branch on the node's type, the
        # most frequent first
        cls = type(e)
        if cls is SBin:
            return self._bin(e.op, self.eval(e.lhs, env), self.eval(e.rhs, env))
        if cls is SVarE:
            try:
                return env[e.name]
            except KeyError:
                raise SacParseError(f"unbound variable {e.name}") from None
        if cls is SSel:
            return self._sel(self.eval(e.arr, env), self.eval(e.idx, env))
        if cls is SNum or cls is SFlt:
            return e.value
        if cls is SCall:
            return self._call(e.fn, [self.eval(a, env) for a in e.args], env)
        if cls is SVecLit:
            vals = [self.eval(i, env) for i in e.items]
            return np.array(vals, dtype=(np.int64 if not vals or
                                         _all_int(vals) else np.float64))
        if cls is SWith:
            return self._with(e, env)
        if cls is SMacroApp:
            raise SacParseError("macros are substituted during parsing")
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
                raise Abort("division by zero" if op == "/" else "mod by zero")
            if op == "%":
                return a % b
            if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
                return a // b
            return a / b
        if op == "==":
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                return np.array_equal(np.asarray(a), np.asarray(b))
            return int(a == b)  # a C boolean
        if op in ("<", ">"):
            out = a < b if op == "<" else a > b
            return int(out) if np.ndim(out) == 0 else out
        raise SacParseError(f"unknown operator {op}")

    def _sel(self, arr, idx):
        if type(arr) is not np.ndarray:  # a scalar is an array of rank 0
            arr = np.asarray(arr)
        if isinstance(idx, np.ndarray):
            comps = tuple(int(c) for c in idx.tolist())
            if len(comps) > arr.ndim:
                raise Abort(f"selection {comps} from an array of rank {arr.ndim}")
            for c, n in zip(comps, arr.shape):
                if not 0 <= c < n:
                    raise Abort(f"index {comps} out of bounds")
            out = arr[comps]
            return out
        i = int(idx)
        if not arr.ndim:
            raise Abort(f"selection {i} from an array of rank 0")
        if not 0 <= i < arr.shape[0]:
            raise Abort(f"index {i} out of bounds")
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
        if f == "append":
            return np.concatenate([np.atleast_1d(vals[0]), np.atleast_1d(vals[1])])
        if f == "reverse":
            return vals[0][::-1]
        if f == "prod":
            return int(np.prod(vals[0]))
        if f == "reshape":
            shp = tuple(int(x) for x in np.atleast_1d(vals[0]).tolist())
            a = np.asarray(vals[1])
            if a.size != math.prod(shp):
                raise Abort("reshape changes the number of elements")
            return a.reshape(shp)
        if f == "zero_float":
            shp = tuple(int(x) for x in np.atleast_1d(vals[0]).tolist())
            return 0.0 if not shp else np.zeros(shp)
        if f == "zero_int":
            shp = tuple(int(x) for x in np.atleast_1d(vals[0]).tolist())
            return 0 if not shp else np.zeros(shp, dtype=np.int64)
        if f == "max":
            a, b = vals
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                return np.maximum(a, b)
            return max(a, b)
        if f == "expf":
            try:
                return math.exp(vals[0])
            except OverflowError:  # as C's expf
                return math.inf
        return self.call(f, vals)

    def _with(self, w: SWith, env):
        """Each partition's body at each index of its range: stored into a
        genarray's result in row-major order, or folded from the right as
        the source's `reduce` folds, `acc = op (body, acc)` from the last
        index back to the first."""
        fold = w.kind == "fold"
        if fold:
            if w.op not in _FOLD:
                raise SacParseError(f"unknown fold operator {w.op}")
            shape, acc = None, self.eval(w.neutral, env)
        else:
            shape_v = np.atleast_1d(self.eval(w.shape, env))
            shape = tuple(int(x) for x in shape_v.tolist())
            default = self.eval(w.default, env)
            dshape = default.shape if isinstance(default, np.ndarray) else ()
            acc = np.empty(shape + dshape,
                           dtype=np.float64 if _is_floaty(default) else np.int64)
            acc[...] = default
        steps = [(ix, iv, block, body)
                 for lower, upper, iv, block, body in w.partitions
                 for ix in self._indices(lower, upper, shape, env)]
        for ix, iv, block, body in reversed(steps) if fold else steps:
            benv = dict(env)
            benv[iv] = np.array(ix, dtype=np.int64)
            for nm, be in block:
                benv[nm] = self.eval(be, benv)
            if fold:
                acc = _FOLD[w.op](self.eval(body, benv), acc)
            else:
                acc[ix] = self.eval(body, benv)
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


_FOLD = {"+": operator.add, "*": operator.mul}


def _all_int(vals) -> bool:
    return all(isinstance(v, (int, np.integer)) for v in vals)


def _is_floaty(v) -> bool:
    return isinstance(v, float) or (isinstance(v, np.ndarray) and
                                    v.dtype.kind == "f")
