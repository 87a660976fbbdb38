"""Kaleidoscope backend: a scalar first-order target over naturals.

The checks a signature implies (`extract.checks`) become runtime
assertions; the clause chain of `extract.lower_clauses` becomes nested
conditionals; the reference interpreter stages the emitted text into
Python functions and runs them with C-style booleans, truncating
subtraction and an abort-on-zero assert.
"""

from __future__ import annotations

import ast
import functools
import re
from collections.abc import Callable
from dataclasses import dataclass

from . import ir
from . import pycode as py
from .extract import (KALEID_KEYWORDS, RET, Check, ExtractError, ExtractState,
                      PatternOps, TokenReader, kaleid_final_pass,
                      lower_clauses, subjects)
from .ir import (Abort, Aborted, Con, Def, Definition, Env, Function, Lam,
                 Let, Lit, Term, Var)

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


# --------------------------------------------------------------------------
# the check plan -> assertions


_LACKS = {"Float": "floats", "Vec": "vectors", "Ar": "arrays", "List": "lists"}


def refuse_types(subj: list[tuple[str, Term]]) -> None:
    """This target has naturals only: no floats, vectors, arrays or lists."""
    for name, ty in subj:
        if type(ty) is Def and ty.name in _LACKS:
            raise ExtractError(f"unsupported type at {name}: this target has "
                               f"no {_LACKS[ty.name]}, only naturals")


def kompile_check(c: Check, names: list[str], state: ExtractState,
                  env: Env) -> KExpr:
    """A `<` or `==` check as a Kaleidoscope condition.  Its sides read the
    parameters before its subject, and a let in them is named apart from
    every parameter and the result."""
    venv = [*reversed(names[:c.subject]), *names[c.subject:]]
    subj = KVar(names[c.subject])
    lhs = subj if c.lhs is None else kompile_term(c.lhs, venv, state, env)
    rel = KBin("Lt" if c.relation == "<" else "Eq", lhs,
               kompile_term(c.rhs, venv, state, env))
    return KBin("Eq", subj, rel) if c.decision else rel


# --------------------------------------------------------------------------
# terms


def kompile_term(t: Term, venv: list[str], state: ExtractState, env: Env) -> KExpr:
    """venv names the de Bruijn variables, innermost first, and may go on
    with the other names in scope: a let never takes a name in venv, so
    it shadows nothing."""
    match t:
        case Lit(int(v)):
            return KNat(v)
        case Lit(_):
            raise ExtractError("this target has no floats, only naturals")
        # no variable is applied: no parameter has a function type, and
        # the normalizer substitutes every let of one
        case Var(i, ()):
            return KVar(venv[i])
        case Let(bound, scope):
            name = state.binder(scope.name, set(venv))
            return KLet(name, kompile_term(bound, venv, state, env),
                        kompile_term(scope.body, [name] + venv, state, env))
        case Lam():
            raise ExtractError("lambda cannot be translated")
        case Def(name, args):
            return _kompile_def(name, args, venv, state, env)
        case Con(name, _):
            raise ExtractError(f"constructor {name} has no scalar translation")
    raise ExtractError("a type or an erased value has no scalar translation")


_BINOPS = {"_+_": "Plus", "_-_": "Minus", "_*_": "Times", "_/_": "Divide",
           "_≟_": "Eq", "_<?_": "Lt"}


def _kompile_def(name: str, args, venv, state, env) -> KExpr:
    va = [a.value for a in args]
    if name in _BINOPS and len(va) == 2:
        return KBin(_BINOPS[name],
                    kompile_term(va[0], venv, state, env),
                    kompile_term(va[1], venv, state, env))
    if name == "_%_" and len(va) == 2:
        # a - (a / b) * b, each operand evaluated once; `/` aborts on zero
        lets, ops = [], []
        for x in va:
            e = kompile_term(x, venv, state, env)
            if not isinstance(e, (KVar, KNat)):
                v = state.binder("mod", set(venv), fresh=True)
                venv = venv + [v]  # the divisor is read in its scope
                lets.append((v, e))
                e = KVar(v)
            ops.append(e)
        a, b = ops
        out: KExpr = KBin("Minus", a, KBin("Times", KBin("Divide", a, b), b))
        for v, e in reversed(lets):
            out = KLet(v, e, out)
        return out
    kargs = [kompile_term(x, venv, state, env) for x in va]
    state.push(name)
    return KCall(state.target_name(name, kaleid_final_pass), tuple(kargs))


# --------------------------------------------------------------------------
# the backend object used by the extraction driver


PATTERNS = PatternOps(KVar, lambda e: KBin("Eq", e, KNat(0)),
                      lambda e: KBin("Gt", e, KNat(0)),
                      lambda e: KBin("Minus", e, KNat(1)), None, None, None)


class KaleidBackend:
    final_pass = staticmethod(kaleid_final_pass)
    keywords = KALEID_KEYWORDS
    builtins = frozenset()  # the text calls only its own functions

    def kompile_fun(self, name: str, d: Definition, plan: list[Check],
                    state: ExtractState, env: Env) -> str:
        assert isinstance(d.payload, Function)
        subj = subjects(d.signature)
        refuse_types(subj)
        names = [n for n, _ in subj]
        params = tuple(names[:-1])
        asserts = [(f"{names[c.subject]}_assrt",
                    KAssert(kompile_check(c, names, state, env))) for c in plan]
        k = sum(c.subject < len(params) for c in plan)  # the result's come last
        # a clause names its binders apart from the parameters, the result
        # and what it binds before them; an absurd one aborts
        arms = []
        for b in lower_clauses(d.payload.clauses, [KVar(p) for p in params],
                               {*params, RET}, state, PATTERNS):
            arm = KAssert(KNat(0)) if b.body is None else \
                kompile_term(b.body, b.venv + list(b.scope), state, env)
            for n2, e in reversed(b.binds):
                arm = KLet(n2, e, arm)
            arms.append((b.guards, arm))
        chain = arms[-1][1]  # the last branch is unguarded
        for guards, arm in reversed(arms[:-1]):
            chain = KIf(functools.reduce(lambda a, c: KBin("And", a, c),
                                         guards or [KNat(1)]), arm, chain)
        lets = asserts[:k]
        while isinstance(chain, KLet):  # single-branch assigns read better flat
            lets.append((chain.name, chain.bound))
            chain = chain.body
        body: KExpr = KVar(RET)
        for n2, b2 in reversed(lets + [(RET, chain)] + asserts[k:]):
            body = KLet(n2, b2, body)
        return print_kaleid([KFun(state.target_name(name, kaleid_final_pass),
                                  params, body)])

    def assemble(self, fns: list[str]) -> str:
        return "\n".join(fns)


# --------------------------------------------------------------------------
# printer


def print_kaleid(fns: list[KFun]) -> str:
    out = []
    for f in fns:
        out += [f"def {f.name} ({', '.join(f.params)}):", *_print_block(f.body, 2), ""]
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
            s = f"{_pp(l, p)} {_OP_TEXT[op]} {_pp(r, p + 1)}"
            return f"({s})" if prec > p else s
        case KLet(n, b, body):
            s = f"let {n} = {_pp(b, 0)} in {_pp(body, 0)}"
            return f"({s})" if prec > 0 else s
    raise ExtractError(f"unprintable {e!r}")


# --------------------------------------------------------------------------
# text parser (the interpreter accepts emitted programs)


class KParseError(ExtractError):
    pass


# the printer's operators by spelling, with their precedence
_BINARY = {_OP_TEXT[op]: (op, p) for op, p in _OP_PREC.items()}
# a word (name or numeral), a two-character operator, or any other character
_TOKEN = re.compile("|".join([r"[\w']+", *(re.escape(s) for s in _BINARY
                                            if len(s) > 1), r"\S"]))


def parse_kaleid(text: str) -> list[KExpr]:
    return _KReader(text).read()


class _KReader(TokenReader):
    """The tokens of the text's non-blank lines, each line's tokens led by
    its indentation as an int."""

    error = KParseError

    def tokens(self, text: str) -> list:
        toks: list = []
        for line in text.splitlines():
            if line.strip():
                toks += [len(line) - len(line.lstrip()), *_TOKEN.findall(line)]
        return toks

    def name(self) -> str:
        t = self.take()
        if t in KALEID_KEYWORDS or t.isdecimal() or not (
                t[0].isalnum() or t[0] in "_'"):
            raise KParseError(f"expected a name, found {t!r}")
        return t

    def line(self, min_ind: int, why: str) -> int:
        """Enter the next line, which must be indented at least min_ind."""
        ind = self.peek()
        if isinstance(ind, str):
            raise KParseError(f"unexpected {ind!r} at the end of a line")
        if ind is None or ind < min_ind:
            raise KParseError(why)
        self.pos += 1
        return ind

    def program(self) -> list[KExpr]:
        fns: list[KExpr] = []
        while self.pos < len(self.toks):
            ind = self.line(0, "expected a def")
            self.expect("def")
            name = self.name()
            self.expect("(")
            params = tuple(self.items(")", self.name))
            self.expect(":")
            fns.append(KFun(name, params, self.block(ind + 1)))
        return fns

    def block(self, min_ind: int) -> KExpr:
        """Lets, one per line, then a conditional or an expression."""
        base = self.line(min_ind, "empty block")
        lets = []
        while self.accept("let"):
            name = self.name()
            self.expect("=")
            lets.append((name, self.statement(base)))
            self.line(base, "block lacks a result expression")
        out = self.statement(base)
        for name, e in reversed(lets):
            out = KLet(name, e, out)
        return out

    def statement(self, base: int) -> KExpr:
        if not self.accept("if"):
            return self.expr()
        arms = []
        while True:  # `if` or `else if` has been read
            cond = self.expr()
            self.expect(":")
            arms.append((cond, self.block(base + 1)))
            if self.peek() != base or self.peek(1) != "else":
                raise KParseError("conditional lacks an else branch")
            self.pos += 2
            if not self.accept("if"):
                break
        self.expect(":")
        out = self.block(base + 1)
        for cond, then in reversed(arms):
            out = KIf(cond, then, out)
        return out

    def expr(self, min_prec: int = 1) -> KExpr:
        lhs = self.atom()
        while (op := _BINARY.get(self.peek())) and op[1] >= min_prec:
            self.pos += 1
            lhs = KBin(op[0], lhs, self.expr(op[1] + 1))
        return lhs

    def atom(self) -> KExpr:
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.accept("let"):  # its body extends as far as possible
            name = self.name()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return KLet(name, bound, self.expr())
        if self.accept("assert"):
            self.expect("(")
            e = self.expr()
            self.expect(")")
            return KAssert(e)
        if isinstance(t := self.peek(), str) and t.isdecimal():
            self.pos += 1
            return KNat(int(t))
        name = self.name()
        if self.accept("("):
            return KCall(name, tuple(self.items(")", self.expr)))
        return KVar(name)


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
    are safe.  Block-level lets and ifs become statements, and a block's
    let binds its name for the rest of the def.  An expression-level let
    binds a local of its own, read only in its body: names are resolved
    as the def is staged, so scoping costs nothing per call.  A subexpression
    nested more than _SPILL deep becomes a nested function without
    parameters, called where the subexpression stood."""

    def __init__(self, funs: dict[str, tuple[str, int]]):
        self.funs = funs  # Kaleidoscope name -> (Python name, arity)
        self.names: dict[str, str] = {}  # Python local -> Kaleidoscope name

    def fun(self, f: KFun, pyname: str) -> ast.FunctionDef:
        self.vars: dict[str, str] = {}  # a name's local in the def
        self.lexical: dict[str, str] = {}  # in the body of a let expression
        self.ntemps = 0
        self.helpers: list[ast.stmt] = []
        # a repeated parameter name binds the last of its arguments
        params = [f"_{j}" if p in f.params[j + 1:] else self._var(p)
                  for j, p in enumerate(f.params)]
        body = self._block(f.body, None)
        return py.fundef(pyname, params, self.helpers + body)

    def _var(self, name: str) -> str:
        if name not in self.vars:
            self.vars[name] = self._local(name)
        return self.vars[name]

    def _local(self, name: str) -> str:
        local = f"v{len(self.names)}"
        self.names[local] = name
        return local

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
        value = self._expr(e)  # which may spill helpers of its own first
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
                return py.load(self.lexical.get(n) or self._var(n))
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
            case KLet(n, b, body):
                bound, local = self._expr(b, depth), self._local(n)
                outer, self.lexical[n] = self.lexical.get(n), local
                inner = self._expr(body, depth)
                if outer is None:
                    del self.lexical[n]
                else:
                    self.lexical[n] = outer
                return py.let(local, bound, inner)
            case KCall(f, args):
                if f not in self.funs:
                    return _fail_with(f"unknown function {f}")
                pyname, arity = self.funs[f]
                if arity != len(args):
                    return _fail_with(f"arity mismatch calling {f}")
                return py.call(pyname, [self._expr(a, depth) for a in args])


def _fail_with(reason: str) -> ast.expr:
    return py.call("_fail", [py.const(reason)])


@functools.lru_cache(maxsize=64)
def _staged(text: str) -> dict[str, tuple[int, Callable]]:
    """The program's functions as Python functions, by name, with arity."""
    fns = parse_kaleid(text)
    funs = {f.name: (f"f{i}", len(f.params)) for i, f in enumerate(fns)}
    stager = _Stager(funs)
    ns: dict[str, object] = {"_fail": _fail, "_names": stager.names}
    defs = [stager.fun(f, f"f{i}") for i, f in enumerate(fns)]
    exec(py.compile_defs(defs, "<kaleidoscope>"), ns)
    return {name: (arity, ns[pyname]) for name, (pyname, arity) in funs.items()}


def interp_kaleid(program: str, entry: str, args: list[int]):
    """Big-step evaluation over naturals; Aborted is a value, not a crash.

    The program text is staged once per process into one Python function
    per Kaleidoscope function, and the staged program is cached, keyed on
    the text.  Each call takes one Python frame, so recursion deeper than
    Python's recursion limit returns Aborted("recursion depth"), and
    reading a let name that the branch taken did not bind returns
    Aborted("unbound variable <name>").  A program nested deeper than the
    recursion limit allows to parse or stage raises KParseError."""
    try:
        fns = _staged(program)
    except RecursionError as err:
        raise KParseError(f"program too deeply nested to stage: {err}") from err
    if entry not in fns:
        raise ExtractError(f"unknown entry {entry}")
    arity, fn = fns[entry]
    if arity != len(args):
        raise ExtractError(f"{entry} expects {arity} arguments")
    try:
        return ir.outcome(fn, *args)
    except NameError as err:
        # a let bound only on a branch that was not taken (read in the def,
        # or in a nested function staged from a deep subexpression)
        local = re.search(r"'(\w+)'", str(err)).group(1)
        return Aborted(f"unbound variable {fn.__globals__['_names'][local]}")
