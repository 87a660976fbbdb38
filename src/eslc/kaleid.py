"""Kaleidoscope backend: a scalar first-order target over naturals.

Dependent types in signatures become runtime assertions; pattern-matching
definitions become nested conditional chains; the reference interpreter
stages the emitted text (or its AST) into Python functions and runs them
with C-style booleans, truncating subtraction and an abort-on-zero assert.
"""

from __future__ import annotations

import ast
import functools
import re
from collections.abc import Callable
from dataclasses import dataclass

from . import ir
from . import pycode as py
from .builtins import is_prop_type
from .extract import (EmittedFunction, ExtractError, ExtractOptions,
                      ExtractState, kaleid_final_pass, suc_spine)
from .ir import (Abort, Aborted, Arg, Clause, Con, Def, Definition, Env,
                 Function, Lam, Let, Lit, PAbsurd, PCon, PLit, PVar, Term,
                 Unknown, Var, pi_spine)

OPS = ("Plus", "Minus", "Times", "Divide", "Eq", "Neq", "And", "Gt", "Lt")
_OP_TEXT = {"Plus": "+", "Minus": "-", "Times": "*", "Divide": "/",
            "Eq": "==", "Neq": "!=", "And": "&&", "Gt": ">", "Lt": "<"}
_OP_PREC = {"And": 1, "Eq": 2, "Neq": 2, "Gt": 2, "Lt": 2,
            "Plus": 3, "Minus": 3, "Times": 4, "Divide": 4}


class KExpr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class KNat(KExpr):
    value: int


@dataclass(frozen=True, slots=True)
class KBin(KExpr):
    op: str
    lhs: KExpr
    rhs: KExpr

    def __post_init__(self):
        assert self.op in OPS


@dataclass(frozen=True, slots=True)
class KVar(KExpr):
    name: str


@dataclass(frozen=True, slots=True)
class KCall(KExpr):
    fn: str
    args: tuple[KExpr, ...]


@dataclass(frozen=True, slots=True)
class KFun(KExpr):
    name: str
    params: tuple[str, ...]
    body: KExpr


@dataclass(frozen=True, slots=True)
class KLet(KExpr):
    name: str
    bound: KExpr
    body: KExpr


@dataclass(frozen=True, slots=True)
class KAssert(KExpr):
    arg: KExpr


@dataclass(frozen=True, slots=True)
class KIf(KExpr):
    cond: KExpr
    then: KExpr
    other: KExpr


@dataclass(frozen=True)
class Assrt:
    v: str
    a: KExpr


@dataclass
class PatSt:
    conds: list[KExpr]
    assigns: list[tuple[str, KExpr]]


RET = "__ret"


class UnsupportedPattern(ExtractError):
    pass


class HigherOrderValue(ExtractError):
    pass


# --------------------------------------------------------------------------
# type -> assertions


def kompile_ty(sig: Term, state: ExtractState, env: Env) -> list[Assrt]:
    """Argument and return-value assertions from a normalized signature."""
    tel, ret = pi_spine(sig)
    out: list[Assrt] = []
    names: list[str] = []
    for j, (_, arg) in enumerate(tel):
        venv = list(reversed(names))
        pname = f"x_{j + 1}"
        a = _ty_assert(arg.value, pname, venv, state, env)
        if a is not None:
            out.append(a)
        names.append(pname)
    venv = list(reversed(names))
    r = _ty_assert(ret, RET, venv, state, env)
    if r is not None:
        out.append(r)
    return out


def _ty_assert(ty: Term, vname: str, venv: list[str], state, env) -> Assrt | None:
    match ty:
        case Def("Nat", ()):
            return None
        case Def("Fin", (Arg(e, _),)):
            return Assrt(vname, KBin("Lt", KVar(vname),
                                     kompile_term(e, venv, state, env)))
        case Def("_<_", (Arg(a, _), Arg(b, _))):
            return Assrt(vname, KBin("Lt", kompile_term(a, venv, state, env),
                                     kompile_term(b, venv, state, env)))
        case Def("_≡_", args):
            va = [x.value for x in args if not x.hidden]
            return Assrt(vname, KBin("Eq", kompile_term(va[0], venv, state, env),
                                     kompile_term(va[1], venv, state, env)))
        case Def("Dec", (Arg(p, _),)):
            inner = _ty_assert(p, vname, venv, state, env)
            if inner is None:
                raise ExtractError(f"undecidable Dec payload at {vname}")
            return Assrt(vname, KBin("Eq", KVar(vname), inner.a))
        case Def("Float", ()):
            raise ExtractError("this target has no floats, only naturals")
    raise ExtractError(f"unsupported type at {vname}: {ir.print_term(ty)}")


# --------------------------------------------------------------------------
# patterns -> conditions


def kompile_clpats(tel, pats, exprs: list[KExpr], pst: PatSt,
                   state: ExtractState) -> PatSt:
    """Worklist translation of one clause's patterns to conditions and
    assignments; constructor sub-patterns are prepended to the worklist."""
    work = list(zip([p.value for p in pats], exprs))
    while work:
        p, e = work.pop(0)
        match p:
            case PVar(idx):
                name = tel[len(tel) - 1 - idx][0]
                if not name.startswith("_"):
                    pst.assigns.append((name, e))
            case PAbsurd():
                pass
            case PLit(v):
                if not isinstance(v, int):
                    raise UnsupportedPattern("float patterns are not supported")
                pst.conds.append(KBin("Eq", e, KNat(v)))
            case PCon(("zero" | "fzero"), _):
                pst.conds.append(KBin("Eq", e, KNat(0)))
            case PCon("suc", (Arg(sub, _),)):
                pst.conds.append(KBin("Gt", e, KNat(0)))
                work.insert(0, (sub, KBin("Minus", e, KNat(1))))
            case PCon("fsuc", args):
                pst.conds.append(KBin("Gt", e, KNat(0)))
                sub = args[-1].value
                items = [(sub, KBin("Minus", e, KNat(1)))]
                if len(args) > 1:  # the hidden upper bound gets a fresh name
                    ub = state.fresh("ub_")
                    items.insert(0, (args[0].value, KVar(ub)))
                work[0:0] = items
            case PCon(name, _):
                raise UnsupportedPattern(f"cannot match {name} in this target")
            case _:
                raise UnsupportedPattern(repr(p))
    return pst


# --------------------------------------------------------------------------
# clauses -> conditional chain


def kompile_cls(clauses: list[Clause], var_names: list[str], ret: str,
                state: ExtractState, env: Env, caller: str) -> KExpr:
    if not clauses:
        raise ExtractError("empty clause list")
    branches: list[tuple[list[KExpr], KExpr]] = []
    for cl in clauses:
        pst = kompile_clpats(cl.telescope, list(cl.patterns),
                             [KVar(v) for v in var_names], PatSt([], []), state)
        if cl.body is None:
            body: KExpr = KAssert(KNat(0))
        else:
            venv = [name for name, _ in reversed(cl.telescope)]
            body = kompile_term(cl.body, venv, state, env, caller)
        for name, e in reversed(pst.assigns):
            body = KLet(name, e, body)
        branches.append((pst.conds, body))
    chain: KExpr | None = None
    if branches[-1][0]:  # last clause still guarded: synthesize a fallback
        chain = KAssert(KNat(0))
    for conds, body in reversed(branches):
        if not conds and chain is None:
            chain = body
            continue
        cond = conds[0] if conds else KNat(1)
        for c in conds[1:]:
            cond = KBin("And", cond, c)
        chain = KIf(cond, body, chain if chain is not None else KAssert(KNat(0)))
    assert chain is not None
    return chain


# --------------------------------------------------------------------------
# terms


def kompile_term(t: Term, venv: list[str], state: ExtractState, env: Env,
                 caller: str = "") -> KExpr:
    match t:
        case Lit(int(v)):
            return KNat(v)
        case Lit(_):
            raise ExtractError("this target has no floats, only naturals")
        case Var(i, ()):
            return KVar(venv[i])
        case Var(_, _):
            raise HigherOrderValue("applied variable is higher-order")
        case Con("prf", _):
            return KNat(1)
        case Con("yes", _):
            return KNat(1)
        case Con("no", _):
            return KNat(0)
        case Con(("suc" | "fsuc"), _):
            k, inner = suc_spine(t)
            if inner is None:
                return KNat(k)
            return KBin("Plus", KNat(k),
                        kompile_term(inner, venv, state, env, caller))
        case Con(("zero" | "fzero"), _):
            return KNat(0)
        case Unknown():
            return KNat(0)  # erased position; reachable only behind asserts
        case Let(bound, scope):
            name = _fresh_binder(scope.name, venv, state)
            return KLet(name, kompile_term(bound, venv, state, env, caller),
                        kompile_term(scope.body, [name] + venv, state, env, caller))
        case Lam():
            raise HigherOrderValue("lambda cannot be translated")
        case Def(name, args):
            return _kompile_def(name, args, venv, state, env, caller)
        case Con(name, _):
            raise ExtractError(f"constructor {name} has no scalar translation")
    raise ExtractError(f"cannot translate {t!r}")


_BINOPS = {"_+_": "Plus", "_-_": "Minus", "_*_": "Times", "_/_": "Divide",
           "_≟_": "Eq", "_<?_": "Lt"}


def _kompile_def(name: str, args, venv, state, env, caller) -> KExpr:
    va = [a.value for a in args]
    if name in _BINOPS and len(va) == 2:
        return KBin(_BINOPS[name],
                    kompile_term(va[0], venv, state, env, caller),
                    kompile_term(va[1], venv, state, env, caller))
    if name == "_%_" and len(va) == 2:
        # a - (a / b) * b, each operand evaluated once; `/` aborts on zero
        lets, ops = [], []
        for x in va:
            e = kompile_term(x, venv, state, env, caller)
            if not isinstance(e, (KVar, KNat)):
                v = state.fresh("mod_")
                lets.append((v, e))
                e = KVar(v)
            ops.append(e)
        a, b = ops
        out: KExpr = KBin("Minus", a, KBin("Times", KBin("Divide", a, b), b))
        for v, e in reversed(lets):
            out = KLet(v, e, out)
        return out
    if name == "div-helper" and len(va) == 4:
        k, m, n, j = (kompile_term(x, venv, state, env, caller) for x in va)
        return KBin("Plus", k,
                    KBin("Divide", KBin("Minus", KBin("Plus", n, m), j),
                         KBin("Plus", KNat(1), m)))
    if name == "fromN<":
        # the Fin is encoded by the bound's left endpoint, the hidden head
        return kompile_term(va[0], venv, state, env, caller)
    if name == "toN":
        return kompile_term(va[-1], venv, state, env, caller)
    if name not in env:
        raise ExtractError(f"unknown definition {name}")
    if is_prop_type(pi_spine(env.lookup(name).signature)[1]):
        return KNat(1)  # proofs erase to the unit witness
    kargs = [kompile_term(x, venv, state, env, caller) for x in va]
    state.push(name)
    if caller:
        state.note_dep(caller, name)
    return KCall(state.target_name(name, kaleid_final_pass), tuple(kargs))


def _fresh_binder(name: str, venv: list[str], state: ExtractState) -> str:
    if name not in venv and name != RET and not name.startswith("x_"):
        return name
    return state.fresh(f"{name}_")


# --------------------------------------------------------------------------
# the backend object used by the extraction driver


class KaleidBackend:
    final_pass = staticmethod(kaleid_final_pass)

    def kompile_fun(self, name: str, d: Definition, state: ExtractState,
                    env: Env, opts: ExtractOptions) -> EmittedFunction:
        assert isinstance(d.payload, Function)
        tel, _ = pi_spine(d.signature)
        params = tuple(f"x_{j + 1}" for j in range(len(tel)))
        asserts = kompile_ty(d.signature, state, env)
        if opts.no_assert:  # built anyway: they reject types the target lacks
            asserts = []
        clauses = [_rename_clashes(c, set(params)) for c in d.payload.clauses]
        chain = kompile_cls(clauses, list(params), RET, state, env, name)
        hoisted: list[tuple[str, KExpr]] = []
        while isinstance(chain, KLet):  # single-branch assigns read better flat
            hoisted.append((chain.name, chain.bound))
            chain = chain.body
        body: KExpr = KVar(RET)
        for a in reversed([a for a in asserts if a.v == RET]):
            body = KLet(f"{RET}_assrt", KAssert(a.a), body)
        body = KLet(RET, chain, body)
        for n2, b2 in reversed(hoisted):
            body = KLet(n2, b2, body)
        for a in reversed([a for a in asserts if a.v != RET]):
            body = KLet(f"{a.v}_assrt", KAssert(a.a), body)
        fn = KFun(state.target_name(name, kaleid_final_pass), params, body)
        return EmittedFunction(state.names[name], print_kaleid([fn]),
                               state.deps.get(name, []))

    def assemble(self, fns: list[EmittedFunction], state: ExtractState,
                 opts: ExtractOptions) -> str:
        return "\n".join(f.code for f in fns)


def _rename_clashes(cl: Clause, taken: set[str]) -> Clause:
    """Telescope names that collide with parameter names get a suffix so
    the emitted lets never shadow the arguments."""
    seen: set[str] = set(taken)
    tele = []
    for n, ty in cl.telescope:
        base, k = n, 0
        while n in seen:
            k += 1
            n = f"{base}_{k}"
        if not n.startswith("_"):
            seen.add(n)
        tele.append((n, ty))
    return Clause(tuple(tele), cl.patterns, cl.body)


# --------------------------------------------------------------------------
# printer


def print_kaleid(fns: list[KExpr]) -> str:
    out = []
    for f in fns:
        match f:
            case KFun(name, params, body):
                out.append(f"def {name} ({', '.join(params)}):")
                out.extend(_print_block(body, 2))
            case _:
                raise ExtractError("only functions can appear at top level")
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _print_block(e: KExpr, ind: int) -> list[str]:
    pad = " " * ind
    lines: list[str] = []
    while isinstance(e, KLet):
        if isinstance(e.bound, KIf):
            lines.extend(_print_if(e.bound, ind, f"let {e.name} = "))
        else:
            lines.append(f"{pad}let {e.name} = {_pp(e.bound, 0)}")
        e = e.body
    if isinstance(e, KIf):
        lines.extend(_print_if(e, ind, ""))
    else:
        lines.append(pad + _pp(e, 0))
    return lines


def _print_if(e: KIf, ind: int, prefix: str) -> list[str]:
    pad = " " * ind
    lines = [f"{pad}{prefix}if ({_pp(e.cond, 0)}):"]
    lines.extend(_print_block(e.then, ind + 2))
    while isinstance(e.other, KIf):
        e = e.other
        lines.append(f"{pad}else if ({_pp(e.cond, 0)}):")
        lines.extend(_print_block(e.then, ind + 2))
    lines.append(f"{pad}else:")
    lines.extend(_print_block(e.other, ind + 2))
    return lines


def _pp(e: KExpr, prec: int) -> str:
    match e:
        case KNat(v):
            return str(v)
        case KVar(n):
            return n
        case KAssert(a):
            return f"assert ({_pp(a, 0)})"
        case KCall(f, args):
            return f"{f} ({', '.join(_pp(a, 0) for a in args)})"
        case KBin("And", l, r):
            s = f"({_pp(l, 0)}) && ({_pp(r, 0)})"
            return f"({s})" if prec > 1 else s
        case KBin(op, l, r):
            p = _OP_PREC[op]
            ls = _pp(l, p)
            rs = _pp(r, p + 1)
            s = f"{ls} {_OP_TEXT[op]} {rs}"
            return f"({s})" if prec > p else s
        case KLet(n, b, body):
            s = f"let {n} = {_pp(b, 0)} in {_pp(body, 0)}"
            return f"({s})" if prec > 0 else s
        case KIf():
            raise ExtractError("conditionals print at statement level")
    raise ExtractError(f"unprintable {e!r}")


# --------------------------------------------------------------------------
# text parser (the interpreter accepts emitted programs)


class KParseError(ExtractError):
    pass


def parse_kaleid(text: str) -> list[KExpr]:
    lines = [(len(l) - len(l.lstrip()), l.strip())
             for l in text.splitlines() if l.strip()]
    fns: list[KExpr] = []
    i = 0
    while i < len(lines):
        ind, l = lines[i]
        if not l.startswith("def "):
            raise KParseError(f"expected a def, found {l!r}")
        head = l[4:]
        name, rest = head.split("(", 1)
        params = tuple(p.strip() for p in rest.rstrip(": )").split(",")
                       if p.strip())
        body, i = _parse_block(lines, i + 1, ind + 1)
        fns.append(KFun(name.strip(), params, body))
    return fns


def _parse_block(lines, i, min_ind):
    stmts: list[tuple[str, KExpr]] = []
    final: KExpr | None = None
    base_ind = lines[i][0]
    if base_ind < min_ind:
        raise KParseError("empty block")
    while i < len(lines):
        ind, l = lines[i]
        if ind < base_ind:
            break
        if l.startswith(("else if", "else:")):
            break
        if l.startswith("let "):
            name, rest = l[4:].split("=", 1)
            rest = rest.strip()
            if rest.startswith("if"):
                e, i = _parse_if(lines, i, base_ind, rest)
            else:
                e = _parse_expr_str(rest)
                i += 1
            stmts.append((name.strip(), e))
        elif l.startswith("if"):
            final, i = _parse_if(lines, i, base_ind, l)
            break
        else:
            final = _parse_expr_str(l)
            i += 1
            break
    if final is None:
        raise KParseError("block lacks a result expression")
    out = final
    for name, e in reversed(stmts):
        out = KLet(name, e, out)
    return out, i


def _parse_if(lines, i, base_ind, first: str):
    def cond_of(s: str) -> KExpr:
        s = s[s.index("if") + 2:].strip()
        if not s.endswith(":"):
            raise KParseError(f"malformed conditional {s!r}")
        return _parse_expr_str(s[:-1].strip())

    cond = cond_of(first)
    then, i = _parse_block(lines, i + 1, base_ind + 1)
    arms = [(cond, then)]
    other: KExpr | None = None
    while i < len(lines) and lines[i][0] == base_ind:
        ind, l = lines[i]
        if l.startswith("else if"):
            c = cond_of(l)
            b, i = _parse_block(lines, i + 1, base_ind + 1)
            arms.append((c, b))
        elif l.startswith("else:"):
            other, i = _parse_block(lines, i + 1, base_ind + 1)
            break
        else:
            break
    if other is None:
        raise KParseError("conditional lacks an else branch")
    for c, b in reversed(arms):
        other = KIf(c, b, other)
    return other, i


def _tokenize_expr(s: str) -> list[str]:
    toks, i = [], 0
    while i < len(s):
        c = s[i]
        if c.isspace():
            i += 1
            continue
        if s.startswith(("==", "!=", "&&"), i):
            toks.append(s[i:i + 2])
            i += 2
            continue
        if c in "()+-*/<>,=":
            toks.append(c)
            i += 1
            continue
        j = i
        while j < len(s) and (s[j].isalnum() or s[j] in "_'"):
            j += 1
        if j == i:
            raise KParseError(f"bad character {c!r} in expression")
        toks.append(s[i:j])
        i = j
    return toks


def _parse_expr_str(s: str) -> KExpr:
    toks = _tokenize_expr(s)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def atom() -> KExpr:
        t = take()
        if t == "(":
            e = level(1)
            if take() != ")":
                raise KParseError("unbalanced parens")
            return e
        if t.isdigit():
            return KNat(int(t))
        if t == "let":  # its body extends as far as possible
            name = take()
            if take() != "=":
                raise KParseError("let needs =")
            bound = level(1)
            if take() != "in":
                raise KParseError("let needs in")
            return KLet(name, bound, level(1))
        if t == "assert":
            if take() != "(":
                raise KParseError("assert needs parens")
            e = level(1)
            if take() != ")":
                raise KParseError("unbalanced assert")
            return KAssert(e)
        if peek() == "(":
            take()
            args = []
            if peek() != ")":
                args.append(level(1))
                while peek() == ",":
                    take()
                    args.append(level(1))
            if take() != ")":
                raise KParseError("unbalanced call")
            return KCall(t, tuple(args))
        return KVar(t)

    table = {"&&": ("And", 1), "==": ("Eq", 2), "!=": ("Neq", 2),
             ">": ("Gt", 2), "<": ("Lt", 2), "+": ("Plus", 3),
             "-": ("Minus", 3), "*": ("Times", 4), "/": ("Divide", 4)}

    def level(min_p: int) -> KExpr:
        lhs = atom()
        while True:
            t = peek()
            if t not in table:
                return lhs
            op, p = table[t]
            if p < min_p:
                return lhs
            take()
            rhs = level(p + 1)
            lhs = KBin(op, lhs, rhs)

    e = level(1)
    if pos[0] != len(toks):
        raise KParseError(f"trailing tokens in {s!r}")
    return e


# --------------------------------------------------------------------------
# interpreter


def _fail(reason: str):
    raise Abort(reason)


_PY_CMP = {"Eq": ast.Eq, "Neq": ast.NotEq, "Gt": ast.Gt, "Lt": ast.Lt}


# expression nesting, in Kaleidoscope nodes, beyond which a subexpression
# is staged as a nested function: Python's compile() spends one level of
# the recursion limit on each level of an expression it is given
_SPILL = 60


class _Stager:
    """Writes each KFun as the ast of one Python def (eslc.pycode).
    Kaleidoscope names become indexed locals (`v0`, `v1`, ...), numbered
    across the whole program so `names` maps each back; primes and `__ret`
    are safe.  Block-level lets and ifs become statements.  A subexpression
    nested more than _SPILL deep becomes a nested function without
    parameters, called where the subexpression stood, unless it binds a
    let name, which must stay a local of the def."""

    def __init__(self, funs: dict[str, tuple[str, int]]):
        self.funs = funs  # Kaleidoscope name -> (Python name, arity)
        self.names: dict[str, str] = {}  # Python local -> Kaleidoscope name

    def fun(self, f: KFun, pyname: str) -> ast.FunctionDef:
        self.vars: dict[str, str] = {}
        self.ntemps = self.nlets = 0
        self.helpers: list[ast.stmt] = []
        # a repeated parameter name binds the last of its arguments
        params = [f"_{j}" if p in f.params[j + 1:] else self._var(p)
                  for j, p in enumerate(f.params)]
        body = self._block(f.body, None)
        return py.fundef(pyname, params, self.helpers + body)

    def _var(self, name: str) -> str:
        if name not in self.vars:
            local = self.vars[name] = f"v{len(self.names)}"
            self.names[local] = name
        return self.vars[name]

    def _temp(self) -> str:
        self.ntemps += 1
        return f"t{self.ntemps}"

    def _block(self, e: KExpr, target: str | None) -> list[ast.stmt]:
        """Statements that return e, or assign it to target."""
        stmts: list[ast.stmt] = []
        while isinstance(e, KLet):
            stmts += self._block(e.bound, self._var(e.name))
            e = e.body
        if isinstance(e, KIf):
            stmts.append(py.if_(self._test(e.cond), self._block(e.then, target),
                                self._block(e.other, target)))
        elif target is None:
            stmts.append(py.ret(self._expr(e)))
        else:
            stmts.append(py.assign(target, self._expr(e)))
        return stmts

    def _spill(self, e: KExpr) -> ast.expr:
        lets = self.nlets
        value = self._expr(e)
        if self.nlets != lets:
            return value
        helper = f"h{len(self.helpers)}"
        self.helpers.append(py.fundef(helper, [], [py.ret(value)]))
        return py.call(helper, [])

    def _test(self, e: KExpr, depth: int = 0) -> ast.expr:
        """A Python condition that holds iff e is nonzero."""
        match e:
            case KBin("And", l, r):
                return py.all_of([self._test(l, depth + 1),
                                  self._test(r, depth + 1)])
            case KBin(("Eq" | "Neq" | "Gt" | "Lt") as op, l, r):
                return py.compare(self._expr(l, depth + 1), _PY_CMP[op](),
                                  self._expr(r, depth + 1))
        return py.compare(self._expr(e, depth), ast.NotEq(), py.const(0))

    def _expr(self, e: KExpr, depth: int = 0) -> ast.expr:
        if depth > _SPILL:
            return self._spill(e)
        depth += 1
        match e:
            case KNat(v):
                return py.const(v)
            case KVar(n):
                return py.load(self._var(n))
            case KBin("Plus", l, r):
                return py.binop(self._expr(l, depth), ast.Add(),
                                self._expr(r, depth))
            case KBin("Times", l, r):
                return py.binop(self._expr(l, depth), ast.Mult(),
                                self._expr(r, depth))
            case KBin("Minus", l, r):
                t = self._temp()
                diff = py.binop(self._expr(l, depth), ast.Sub(),
                                self._expr(r, depth))
                return py.if_else(
                    py.compare(py.walrus(t, diff), ast.Gt(), py.const(0)),
                    py.load(t), py.const(0))
            case KBin("Divide", l, r):
                # the divisor is evaluated first, the dividend only if it is
                # nonzero
                t = self._temp()
                return py.if_else(
                    py.compare(py.walrus(t, self._expr(r, depth)),
                               ast.NotEq(), py.const(0)),
                    py.binop(self._expr(l, depth), ast.FloorDiv(), py.load(t)),
                    _fail_with("division by zero"))
            case KBin():
                return py.if_else(self._test(e, depth), py.const(1),
                                  py.const(0))
            case KAssert(a):
                why = "assert (0)" if isinstance(a, KNat) else "assertion failed"
                return py.if_else(self._test(a, depth), py.const(1),
                                  _fail_with(why))
            case KIf(c, t, o):
                return py.if_else(self._test(c, depth), self._expr(t, depth),
                                  self._expr(o, depth))
            case KLet(n, b, body):
                self.nlets += 1
                return py.let(self._var(n), self._expr(b, depth),
                              self._expr(body, depth))
            case KCall(f, args):
                if f not in self.funs:
                    return _fail_with(f"unknown function {f}")
                pyname, arity = self.funs[f]
                if arity != len(args):
                    return _fail_with(f"arity mismatch calling {f}")
                return py.call(pyname, [self._expr(a, depth) for a in args])
        raise KParseError(f"cannot compile {e!r}")


def _fail_with(reason: str) -> ast.expr:
    return py.call("_fail", [py.const(reason)])


def _stage(fns: tuple[KExpr, ...]) -> dict[str, tuple[int, Callable]]:
    """The program's functions as Python functions, by name, with arity."""
    if not all(isinstance(f, KFun) for f in fns):
        raise KParseError("only functions can be interpreted")
    funs = {f.name: (f"f{i}", len(f.params)) for i, f in enumerate(fns)}
    stager = _Stager(funs)
    ns: dict[str, object] = {"_fail": _fail, "_names": stager.names}
    defs = [stager.fun(f, f"f{i}") for i, f in enumerate(fns)]
    exec(py.compile_defs(defs, "<kaleidoscope>"), ns)
    return {name: (arity, ns[pyname]) for name, (pyname, arity) in funs.items()}


@functools.lru_cache(maxsize=64)
def _staged(program: str | tuple[KExpr, ...]) -> dict[str, tuple[int, Callable]]:
    """The staged program, cached on its text or its parsed functions."""
    return _stage(tuple(parse_kaleid(program)) if isinstance(program, str)
                  else program)


def interp_kaleid(program, entry: str, args: list[int]):
    """Big-step evaluation over naturals; Aborted is a value, not a crash.

    The program (text or parsed functions) is staged once per process into
    one Python function per Kaleidoscope function, and the staged program
    is cached, keyed on the text or on the value of the functions.  Each
    call takes one Python frame, so recursion deeper than Python's
    recursion limit returns Aborted("recursion depth"), and reading a let
    name that the branch taken did not bind returns Aborted("unbound
    variable <name>").  A program nested deeper than the recursion limit
    allows to parse or stage raises KParseError."""
    try:
        fns = _staged(program if isinstance(program, str) else tuple(program))
    except RecursionError as err:
        raise KParseError(f"program too deeply nested to stage: {err}") from err
    if entry not in fns:
        raise ExtractError(f"unknown entry {entry}")
    arity, fn = fns[entry]
    if arity != len(args):
        raise ExtractError(f"{entry} expects {arity} arguments")
    try:
        return fn(*args)
    except Abort as ab:
        return Aborted(ab.reason)
    except RecursionError:
        return Aborted(ir.EXHAUSTED)
    except NameError as err:
        # a let bound only on a branch that was not taken (read in the def,
        # or in a nested function staged from a deep subexpression)
        local = re.search(r"'(\w+)'", str(err)).group(1)
        return Aborted(f"unbound variable {fn.__globals__['_names'][local]}")
