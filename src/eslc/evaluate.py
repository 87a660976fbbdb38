"""Evaluator for closed programs, the source-level side of every
differential test.

Values: naturals and Fin encodings are Python ints, floats are floats,
vectors/indices/lists are tagged tuples, arrays are ("arr", shape, flat)
in row major order, and function values are Python callables of one
argument.  Functions evaluate eagerly; imap enumerates its whole index
space.  A primitive is computed by the Python function of its
builtins.PRIMS entry.

Terms are compiled once into Python closures over a context list, in which
de Bruijn index i is ctx[i] (Feeley and Lapalme, "Using Closures for Code
Generation", 1987).  A Function definition is compiled on its first call
into one matcher and one body per clause; matchers bind pattern variables
into a preallocated context.  The code is kept on the Env the definitions
come from, so it lives as long as that Env, and a definition is compiled
again when its clause list has grown.  Running out of Python stack is an
EvalError("recursion depth").
"""

from __future__ import annotations

import operator
import weakref
from itertools import product

from .builtins import PRIMS, arr_index
from .ir import (Con, Constructor, Datatype, Def, Env, EvalError, Function,
                 Lam, Let, Lit, PAbsurd, PCon, PLit, Pi, PVar, Sort, Term,
                 Unknown, UnknownName, Var)

PRF = ("prf",)
TYPE = ("type",)

# primitive name -> (arity, the Python function of exactly that many
# arguments that is its meaning)
_PRIM = {p.name: (p.arity, p.fn) for p in PRIMS.values()}


def eval_closed(t: Term, env: Env):
    return Eval(env).eval(t, [])


def call(env: Env, name: str, args: list):
    return Eval(env).apply_def(name, list(args))


class Eval:
    """Evaluation in one environment, through the code compiled for it."""

    def __init__(self, env: Env):
        if env.compiled is None:
            env.compiled = _Code(env._defs)
            weakref.finalize(env, env.compiled.close)
        self._code = env.compiled

    def eval(self, t: Term, ctx: list):
        try:
            return self._code.term(t)(ctx)
        except RecursionError:
            raise EvalError("recursion depth") from None

    def apply_def(self, name: str, args: list):
        try:
            return self._code.apply_def(name, args)
        except RecursionError:
            raise EvalError("recursion depth") from None


class _Code:
    """The compiled code of one Env's definitions.  It holds the Env's
    definition table, not the Env, so the two form no reference cycle."""

    def __init__(self, defs: dict):
        self.defs = defs
        self.funs: dict[str, object] = {}  # Function name -> its code
        self.tables: list[list] = []  # the compiled clauses of each

    def close(self) -> None:
        """Empty every clause table.  Recursive code refers to itself
        through its table, so this lets it be freed, once its Env is gone,
        without waiting for the cycle collector."""
        for table in self.tables:
            table.clear()
        self.funs.clear()

    def apply_def(self, name: str, args: list):
        """The general call of a definition by name, on any number of
        arguments; compiled calls take it only where nothing is known
        statically."""
        prim = _PRIM.get(name)
        if prim is not None:
            return _saturate(prim[1], prim[0], args)
        d = self.defs.get(name)
        if d is None:
            raise UnknownName(name)
        payload = d.payload
        if isinstance(payload, Function):
            clauses = payload.clauses
            arity = len(clauses[0].patterns) if clauses else 0
            return _saturate(self.fun(name, payload), arity, args)
        if isinstance(payload, Constructor):
            return _apply_con(name, args)
        if isinstance(payload, Datatype):
            return TYPE
        raise EvalError(f"cannot evaluate definition {name}")

    def fun(self, name: str, f: Function):
        """The code of a Function definition: a Python function of exactly
        its arity.  Its clauses are compiled on the first call, and again
        whenever the clause list has grown since."""
        run = self.funs.get(name)
        if run is not None:
            return run
        clauses, table = f.clauses, []

        def run(*args):
            if len(table) != len(clauses):
                arity = len(clauses[0].patterns)
                table[:] = [self._clause(name, cl, arity) for cl in clauses]
            for size, match, body in table:
                ctx = [PRF] * size
                if match(args, ctx):
                    return body(ctx)
            raise EvalError(f"{name}: no clause matches {list(args)!r}")

        self.funs[name] = run
        self.tables.append(table)
        return run

    def _clause(self, name: str, cl, arity: int):
        """(context size, matcher, body) of one clause; the context is the
        clause telescope, de Bruijn 0 being its last entry."""
        size = len(cl.telescope)
        match = _match_args([_pat(p.value, size) for p in cl.patterns[:arity]])
        if cl.body is None:
            def body(ctx):
                raise EvalError(f"{name}: reached an absurd clause")
            return size, match, body
        return size, match, self.term(cl.body)

    def term(self, t: Term):
        """t as a closure from the context list to its value."""
        match t:
            case Lit(v):
                return lambda ctx: v
            case Var(i, ()):
                return operator.itemgetter(i)
            case Var(i, args):
                return _var_app(i, [self.term(a.value) for a in args])
            case Con(name, args):
                return _con(name, [self.term(a.value) for a in args])
            case Def(name, args):
                return self._def(name, [self.term(a.value) for a in args])
            case Lam(scope, _):
                body = self.term(scope.body)
                return lambda ctx: lambda a: body([a, *ctx])
            case Let(bound, scope):
                b, body = self.term(bound), self.term(scope.body)
                return lambda ctx: body([b(ctx), *ctx])
            case Unknown():
                return lambda ctx: PRF
            case Pi() | Sort():
                return lambda ctx: TYPE

        def fail(ctx):
            raise EvalError(f"cannot evaluate {t!r}")
        return fail

    def _def(self, name: str, cs: list):
        """A call of a definition.  Primitives and Functions whose arity is
        known are called directly; the callee's code is looked up once."""
        prim = _PRIM.get(name)
        if prim is not None:
            need, fn = prim
        else:
            d = self.defs.get(name)
            f = d.payload if d is not None else None
            if isinstance(f, Datatype):
                return _call(_type, cs) if cs else lambda ctx: TYPE
            if not (isinstance(f, Function) and f.clauses):
                return lambda ctx: self.apply_def(name, [c(ctx) for c in cs])
            need, fn = len(f.clauses[0].patterns), self.fun(name, f)
        if len(cs) == need:
            return _call(fn, cs)
        return lambda ctx: _saturate(fn, need, [c(ctx) for c in cs])


def _call(fn, cs: list):
    """fn called on the values of cs."""
    match cs:
        case []:
            return lambda ctx: fn()
        case [c0]:
            return lambda ctx: fn(c0(ctx))
        case [c0, c1]:
            return lambda ctx: fn(c0(ctx), c1(ctx))
        case [c0, c1, c2]:
            return lambda ctx: fn(c0(ctx), c1(ctx), c2(ctx))
        case [c0, c1, c2, c3]:
            return lambda ctx: fn(c0(ctx), c1(ctx), c2(ctx), c3(ctx))
        case [c0, c1, c2, c3, c4]:
            return lambda ctx: fn(c0(ctx), c1(ctx), c2(ctx), c3(ctx), c4(ctx))
    return lambda ctx: fn(*[c(ctx) for c in cs])


def _type(*args):
    return TYPE


def _saturate(fn, need: int, args: list):
    """fn, a function of `need` parameters, applied to args: a partial
    application if there are fewer, its result applied to the rest if
    there are more."""
    if len(args) < need:
        return lambda a: _saturate(fn, need, args + [a])
    out = fn(*args[:need])
    for a in args[need:]:
        out = _apply1(out, a)
    return out


def _apply1(f, a):
    if callable(f):
        return f(a)
    raise EvalError(f"cannot apply non-function value {f!r}")


def _var_app(i: int, cs: list):
    """The function value ctx[i] applied to the values of cs."""
    if len(cs) == 1:
        c0 = cs[0]

        def app1(ctx):
            f, a = ctx[i], c0(ctx)
            return f(a) if callable(f) else _apply1(f, a)
        return app1

    def app(ctx):
        f = ctx[i]
        for a in [c(ctx) for c in cs]:
            f = _apply1(f, a)
        return f
    return app


# --------------------------------------------------------------------------
# constructors: the value of a saturated one is computed from its whole
# argument list, so arguments beyond the needed ones are not applied


def _collect(need: int, fn, args: list):
    if len(args) < need:
        return lambda a: _collect(need, fn, args + [a])
    return fn(args)


def _apply_con(name: str, args: list):
    entry = _CON.get(name)
    if entry is None:
        raise EvalError(f"unknown constructor {name}")
    return _collect(*entry, args)


def _con(name: str, cs: list):
    entry = _CON.get(name)
    if entry is None or len(cs) < entry[0]:
        return lambda ctx: _apply_con(name, [c(ctx) for c in cs])
    fn = entry[1]
    match cs:
        case []:
            value = fn([])
            return lambda ctx: value
        case [c0]:
            return lambda ctx: fn([c0(ctx)])
        case [c0, c1]:
            return lambda ctx: fn([c0(ctx), c1(ctx)])
    return lambda ctx: fn([c(ctx) for c in cs])


def _c_imap(a):
    # hidden arguments carry element type, rank, and shape
    if len(a) < 4:
        raise EvalError("imap value lacks its shape argument")
    shape_v, f = a[-2], a[-1]
    shape = tuple(shape_v[1])
    ixs = product(*map(range, shape))
    if callable(f):
        return ("arr", shape, [f(("ix", ix)) for ix in ixs])
    return ("arr", shape, [_apply1(f, ("ix", ix)) for ix in ixs])


def _cons(tag: str):
    return lambda a: (tag, (a[-2],) + a[-1][1])


_CON = {
    "zero": (0, lambda a: 0),
    "fzero": (0, lambda a: 0),
    "suc": (1, lambda a: a[-1] + 1),
    "fsuc": (1, lambda a: a[-1] + 1),
    "vnil": (0, lambda a: ("vec", ())),
    "vcons": (2, _cons("vec")),
    "inil": (0, lambda a: ("ix", ())),
    "icons": (2, _cons("ix")),
    "lnil": (0, lambda a: ("list", ())),
    "lcons": (2, _cons("list")),
    "imap": (1, _c_imap),
    "yes": (0, lambda a: ("dec", True)),
    "no": (0, lambda a: ("dec", False)),
    "prf": (0, lambda a: PRF),
}


# --------------------------------------------------------------------------
# patterns: a matcher m(v, ctx) tests v and binds pattern variables in ctx


def _match_args(ms: list):
    """The clause matcher over the argument tuple; patterns are tried left
    to right and the first failure stops the match."""
    match ms:
        case []:
            return lambda args, ctx: True
        case [m0]:
            return lambda args, ctx: m0(args[0], ctx)
        case [m0, m1]:
            return lambda args, ctx: m0(args[0], ctx) and m1(args[1], ctx)

    def match(args, ctx):
        for m, v in zip(ms, args):
            if not m(v, ctx):
                return False
        return True
    return match


def _bind(i: int):
    def m(v, ctx):
        ctx[i] = v
        return True
    return m


_SEQ_TAGS = {"vcons": "vec", "vnil": "vec", "icons": "ix", "inil": "ix",
             "lcons": "list", "lnil": "list"}


def _pat(p, size: int):
    if isinstance(p, PVar):
        # a variable outside the telescope binds nothing
        return _bind(p.idx) if 0 <= p.idx < size else (lambda v, ctx: True)
    if isinstance(p, PAbsurd):
        return lambda v, ctx: False
    if isinstance(p, PLit):
        lit = p.value
        return lambda v, ctx: v == lit
    assert isinstance(p, PCon)
    name = p.name
    if name in ("zero", "fzero"):
        return lambda v, ctx: v == 0
    if name in ("suc", "fsuc"):
        return _pat_suc(p, size)
    if name in ("vcons", "icons", "lcons"):
        tag = _SEQ_TAGS[name]
        pv = [a.value for a in p.args if not a.hidden]
        head, tail = _pat(pv[0], size), _pat(pv[1], size)

        def cons(v, ctx):
            if v[0] != tag or not v[1]:
                return False
            return head(v[1][0], ctx) and tail((tag, v[1][1:]), ctx)
        return cons
    if name in ("vnil", "inil", "lnil"):
        tag = _SEQ_TAGS[name]
        return lambda v, ctx: v[0] == tag and not v[1]
    if name == "imap":
        sub = _pat([a.value for a in p.args if not a.hidden][0], size)

        def imap(v, ctx):
            if v[0] != "arr":
                return False
            return sub(lambda ix: arr_index(v, ix), ctx)
        return imap
    if name in ("yes", "no"):
        want = name == "yes"
        return lambda v, ctx: v[0] == "dec" and v[1] == want

    def unhandled(v, ctx):
        raise EvalError(f"unhandled pattern constructor {name}")
    return unhandled


def _pat_suc(p, size: int):
    # the arguments before the last (fsuc's bound) are not matched; a
    # variable there is bound to the erased PRF
    proofs = [a.value.idx for a in p.args[:-1]
              if isinstance(a.value, PVar) and 0 <= a.value.idx < size]
    inner = p.args[-1].value
    if not proofs and isinstance(inner, PVar) and 0 <= inner.idx < size:
        i = inner.idx

        def suc_var(v, ctx):
            if not isinstance(v, int) or v == 0:
                return False
            ctx[i] = v - 1
            return True
        return suc_var
    sub = _pat(inner, size)

    def suc(v, ctx):
        if not isinstance(v, int) or v == 0:
            return False
        for i in proofs:
            ctx[i] = PRF
        return sub(v - 1, ctx)
    return suc


# value construction helpers for tests and the harness

def varr(shape, flat):
    return ("arr", tuple(shape), list(flat))


def vvec(items):
    return ("vec", tuple(items))
