"""SaC-style backend: shape-attributed types, with-loops, the printer of
the emitted subset and its reader (`parse_sac`).

imap-headed bodies become genarray with-loops, applications of the
reduction combinator become fold with-loops, nested array types flatten
into multi-dimensional ones, every check a signature implies
(`extract.checks`) becomes an assert over shape/take/cons expressions,
and the clause chain of `extract.lower_clauses` an `if`/`else` statement.
The reference interpreter is eslc.sacinterp, so this module, and a SaC
kompile, runs without numpy.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from . import ir
from .builtins import is_prop_type
from .extract import (RET, SAC_KEYWORDS, Check, ExtractError, ExtractState,
                      PatternOps, TokenReader, lower_clauses, sac_final_pass,
                      subjects)
from .ir import (Aborted, Arg, Con, Def, Definition, Env, Function, Lam, Let,
                 Lit, Term, Var, nat_view, pi_spine)


class Inhomogeneous(ExtractError):
    pass


# --------------------------------------------------------------------------
# types


def render_type(ty: Term) -> str:
    """The SaC type of a parameter or result: its extents where all are
    literals, else its rank where that is known, else any rank."""
    base, dims, exact = _flatten(ty, outermost=True)
    if not exact:
        return f"{base}[*]"
    if not dims:
        return base
    if all(isinstance(d, int) for d in dims):
        return f"{base}[{','.join(map(str, dims))}]"
    return f"{base}[{','.join('.' * len(dims))}]"


def _flatten(ty: Term, outermost: bool) -> tuple[str, list, bool]:
    match ty:
        case Def("Nat" | "Fin" | "Dec" | "_<_" | "_≡_", _):
            return "int", [], True  # a proof is 1, a decision 1 or 0
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
    op: str  # + - * / % == < > &&
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
    part: tuple  # its one partition: (lower|None, upper|None, ivar, block, body)
    shape: SExp | None = None  # genarray shape
    default: SExp | None = None
    op: str = ""  # fold operator
    neutral: SExp | None = None


# --------------------------------------------------------------------------
# the backend


# a fold's operator; its neutral element is the one the term gives
_FOLD_OPS = {"_+_": "+", "_*_": "*", "_+f_": "+", "_*f_": "*"}

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


PATTERNS = PatternOps(lambda e: SBin("==", e, SNum(0), False),
                      lambda e: SBin(">", e, SNum(0), False),
                      lambda e: SBin("-", e, SNum(1)),
                      lambda e, k: SSel(e, SNum(k)),
                      lambda e, k: SCall("drop", (SNum(k), e)),
                      lambda e, k, tail: SBin(">" if tail else "==",
                                              SSel(SCall("shape", (e,)), SNum(0)),
                                              SNum(k - 1 if tail else k), False))


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
        subj = subjects(d.signature)
        names = [n for n, _ in subj]
        # proofs carry no runtime data; the checks keep their facts
        kept = [None if is_prop_type(ty) else (render_type(ty), n)
                for n, ty in subj[:-1]]
        # the function names its binders apart from all it has bound so far,
        # and each clause its pattern variables apart from the others' too
        cx = _Cx(state, env, set(names))
        chain = lower_clauses(d.payload.clauses,
                              [p and SVarE(p[1]) for p in kept],
                              cx.scope, state, PATTERNS)
        for b in chain:
            cx.scope |= b.scope
        lone = len(chain) == 1  # reads flat: its values ahead of the asserts
        pre = [("assign", n, e) for n, e in chain[0].binds if lone and n[0] != "#"]
        asserts = [("assert", self._check(c, names, cx)) for c in plan]
        k = sum(c.subject < len(kept) for c in plan)  # the result's come last
        pre += [("assign", n, e) for n, e in cx.hoisted] + asserts[:k]
        arms = []
        for b in chain:
            arm = [("define", n[1:], e) if n[0] == "#" else ("assign", n, e)
                   for n, e in b.binds if n[0] == "#" or not lone]
            if b.body is None:
                arm.append(("assert", SNum(0)))
            else:  # the body's lets follow the macros they may use
                cx.hoisted = []
                value = self._term(b.body, b.venv, cx)
                arm += [("assign", n, e) for n, e in cx.hoisted]
                arm.append(("assign", RET, value))
            arms.append((b.guards, arm))
        stmts = arms[-1][1]  # the last branch is unguarded
        for guards, arm in reversed(arms[:-1]):
            stmts = [("if", functools.reduce(lambda a, c: SBin("&&", a, c, False),
                                             guards or [SNum(1)]), arm, stmts)]
        ret = render_type(subj[-1][1])
        return "\n".join([
            f"{ret} {state.target_name(name, sac_final_pass)}"
            f"({', '.join(f'{t} {n}' for t, n in filter(None, kept))}) {{",
            f"  {ret} {RET};",
            *render_stmts(pre + stmts + asserts[k:] + [("return", SVarE(RET))], 2),
            "}"]) + "\n"

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
            case Con(name, _):
                raise ExtractError(f"constructor {name} has no array translation")
            case Lam():
                raise ExtractError("a function value has no array translation")
        raise ExtractError("a type or an erased value has no array translation")

    def _def(self, name: str, args, venv, cx) -> SExp:
        va = [a.value for a in args]
        if name in _SCALAR_BIN and len(va) == 2:
            out = SBin(_SCALAR_BIN[name], self._term(va[0], venv, cx),
                       self._term(va[1], venv, cx))
            # subtraction on naturals truncates at zero, except in
            # (a + b) - b, which never goes below it
            if name == "_-_" and not (type(va[0]) is Def and va[0].name == "_+_"
                                      and va[0].args[-1].value == va[1]):
                return SCall("max", (out, SNum(0)))
            return out
        if name == "expf":
            return SCall("expf", (self._term(va[-1], venv, cx),))
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
        return SWith("genarray", (None, None, iv, block, body),
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
            raise ExtractError(f"no SaC fold operator for {opname or f!r}")
        op = _FOLD_OPS[opname]
        neutral_x = self._term(neutral, venv, cx)
        if isinstance(arr, Def) and arr.name == "ravel":
            arr = arr.args[-1].value  # fold order is row-major anyway
        iv = cx.state.binder("iv", cx.scope, fresh=True)
        if isinstance(arr, Con) and arr.name == "imap":
            s = arr.args[2].value
            shape = self._term(s, venv, cx)
            block, body = self._loop_body(arr.args[-1].value, iv, venv, cx)
            lower = SBin("*", SNum(0), shape, scalar=False)
            return SWith("fold", (lower, shape, iv, block, body),
                         op=op, neutral=neutral_x)
        src = self._term(arr, venv, cx)
        shape = SCall("shape", (src,))
        lower = SBin("*", SNum(0), shape, scalar=False)
        body = SSel(src, SVarE(iv))
        return SWith("fold", (lower, shape, iv, (), body),
                     op=op, neutral=neutral_x)

    def kompile_sel(self, args, venv, cx) -> SExp:
        x = args[0].value
        vis = [a.value for a in args if not a.hidden]
        arr, idx = vis
        _, dims, exact = _flatten(x, outermost=True) if _is_array_type(x) \
            else (None, [], True)
        arr_x = self._term(arr, venv, cx)
        idx_x = self._term(idx, venv, cx)
        if dims or not exact:  # the element is an array
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


_PREC = {"&&": 0, "==": 1, "<": 2, ">": 2, "+": 3, "-": 3, "*": 4, "/": 4, "%": 4}


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
    lower, upper, iv, block, body = w.part
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


def render_stmts(stmts: list[tuple], ind: int) -> list[str]:
    """("assign", name, e) | ("define", macro, array) | ("assert", e)
    | ("if", cond, [statement], [statement]) | ("return", e)"""
    pad = " " * ind
    lines = []
    for st in stmts:
        match st:
            case ("assign", nm, e):
                lines.append(f"{pad}{nm} = {render_expr(e, 0, ind)};")
            case ("define", macro, e):
                lines.append(f"{pad}#define {macro}(__x) ({render_expr(e)})[__x]")
            case ("assert", e):
                lines.append(f"{pad}assert ({render_expr(e)});")
            case ("return", e):
                lines.append(f"{pad}return {render_expr(e)};")
            case ("if", cond, then, other):
                lines.append(f"{pad}if ({render_expr(cond)}) {{")
                while True:
                    lines += render_stmts(then, ind + 2)
                    if not (len(other) == 1 and other[0][0] == "if"):
                        break
                    _, cond, then, other = other[0]
                    lines.append(f"{pad}}} else if ({render_expr(cond)}) {{")
                lines += [f"{pad}}} else {{", *render_stmts(other, ind + 2), f"{pad}}}"]
    return lines


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
    # ("assign", name, expr) | ("declare", name) | ("assert", expr)
    # | ("if", expr, [statement], [statement]) | ("return", expr)
    stmts: list


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
            fns[name] = ParsedFn(name, params, self.block())
        return fns

    def block(self) -> list[tuple]:
        self.expect("{")
        stmts = []
        while not self.accept("}"):
            if stmt := self.statement():
                stmts.append(stmt)
        return stmts

    def statement(self) -> tuple | None:
        """A statement; None for a `#define`."""
        if self.accept("#define"):  # its body ends where the expression does
            name = self.name()
            self.expect("(")
            arg = self.name()
            self.expect(")")
            self.macros[name] = (arg, self.expr())
            return None
        if self.accept("if"):
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.block()
            self.expect("else")
            return ("if", cond, then, [self.statement()] if self.peek() == "if"
                    else self.block())
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
            stmt = ("assign", name, self.expr()) if self.accept("=") else \
                ("declare", name)
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
        """A with-loop of the one partition the backend writes."""
        self.expect("{")
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
        part = (lower, upper, iv, tuple(block), self.expr())
        self.expect(";")
        if not self.accept("}"):
            raise SacParseError("a with-loop has one partition")
        self.expect(":")
        kind = self.take()
        self.expect("(")
        if kind == "genarray":
            shape = self.expr()
            self.expect(",")
            default = self.expr()
            self.expect(")")
            return SWith("genarray", part, shape=shape, default=default)
        if kind != "fold":
            raise SacParseError(f"unknown with-loop kind {kind}")
        op = self.take()
        self.expect(",")
        neutral = self.expr()
        self.expect(")")
        return SWith("fold", part, op=op, neutral=neutral)


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


# the shared abort value under its SaC-side name, which the benchmark's
# tracer (perfbench/tracing.py) reads
SacAborted = Aborted
