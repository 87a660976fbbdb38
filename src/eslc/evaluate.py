"""Evaluator for closed programs, the source-level side of every
differential test.

Values: a natural, a Fin, a proof and a decision are Python ints (a
proof is 1, a decision 1 or 0, as extract.erase gives them to both
targets), a float is a float, a vector, index or list is the tuple of its
items, an array is ("arr", shape, flat) in row major order, a function
value is a Python callable of one argument, and a type is None.
Functions evaluate eagerly, arguments left to right, except that a hidden
argument of a primitive that never reads it is passed as None when
computing it cannot fail; imap enumerates its whole index space.  A
primitive is computed by the Python function of its builtins.PRIMS
entry, a constructor by its _CON entry (`suc` is `+ 1` inline).  The
elaborator saturates every constructor application, and the terms
evaluated are closed.

Each Function definition is staged, on its first call, into one Python
function of its arity (eslc.pycode): its clauses become an `if` chain of
inline pattern tests, each pattern variable a numbered local, a `let` a
local assignment and a lambda a nested Python function.  A saturated
call of a Function or a primitive is a direct Python call, so one ESL
call takes one Python frame.  The functions of one Env share one
namespace, in which `f<k>` is the k-th Function staged or called from
staged code (`_Code.globals` maps the ESL names) and `p<k>` the
primitive at position k of PRIMS.  The namespace is kept on the Env, so
the code lives as long as the Env.  An Env copied from another
(Env.base, the prelude snapshot of eslc.loader) runs the base's code for
each definition the two share, the same object: so a prelude Function is
staged once per process, in the snapshot's namespace, and every other
Function once per Env.  A Function is staged once: the elaborator adds a
Function's clauses while it loads the module, before anything
evaluates.  A term given to eval_closed is staged the same
way, into a function of no arguments.

As in the two target interpreters, an abort is a value: inside, the
primitives and the staged code raise ir.Abort (no clause matching,
applying a value that is not a function, a primitive out of its
contract); `call` and `eval_closed` return it as Aborted(reason),
and running out of Python stack as Aborted("recursion depth").
"""

from __future__ import annotations

import ast
import weakref
from itertools import product

from . import pycode as py
from .builtins import PRIMS, arr_index
from .ir import (Abort, Con, Datatype, Def, Env, Function, Lam, Let, Lit,
                 PCon, Pi, PVar, Sort, Term, Unknown, UnknownName, Var,
                 outcome, pi_spine)

# primitive name -> (its global in staged code, its arity); its Python
# function is read from PRIMS when a call of it is staged
_PRIM = {name: (f"p{i}", p.arity) for i, (name, p) in enumerate(PRIMS.items())}
# primitive name -> the positions of the hidden parameters its function
# never reads
_UNREAD = {name: {j for j, (_, a) in enumerate(pi_spine(p.sig)[0]) if a.hidden}
           for name, p in PRIMS.items() if not p.reads_hidden}


def eval_closed(t: Term, env: Env):
    """The value of the closed term t, or an Aborted."""
    return outcome(lambda: _code(env).term(t))


def call(env: Env, name: str, args: list):
    """Definition `name` applied to args, or an Aborted."""
    return outcome(lambda: _code(env).apply_def(name, list(args)))


def _code(env: Env) -> _Code:
    """The code staged for env, made on first use."""
    if env.compiled is None:
        code = _Code(env._defs, None if env.base is None else _code(env.base))
        weakref.finalize(env, code.close)
        env.compiled = code
    return env.compiled


class _Code:
    """The staged code of one Env's definitions: one namespace of Python
    functions.  It holds the Env's definition table, not the Env, so the
    two form no reference cycle.  A definition that is also the base's
    (the same object) runs the base's code."""

    def __init__(self, defs: dict, base: _Code | None):
        self.defs = defs
        self.base = base
        self.ns: dict[str, object] = dict(_HELPERS)
        self.staged: set[str] = set()  # the Functions staged
        self.globals: dict[str, str] = {}  # Function -> its global

    def close(self) -> None:
        """Empty the namespace.  Staged functions refer to it as their
        globals and it to them, so this lets the code be freed by
        reference counting, once its Env is gone, without waiting for the
        cycle collector."""
        self.ns.clear()
        self.staged.clear()

    def apply_def(self, name: str, args: list):
        """The general call of a definition by name, on any number of
        arguments; staged calls take it only where nothing is known
        statically."""
        if name in _PRIM:
            return _saturate(PRIMS[name].fn, _PRIM[name][1], args)
        d = self.defs.get(name)
        payload = None if d is None else d.payload
        if isinstance(payload, Datatype):
            return None
        if not isinstance(payload, Function):  # every Builtin is a primitive
            raise UnknownName(name)
        clauses = payload.clauses
        arity = len(clauses[0].patterns) if clauses else 0
        return _saturate(self.fun(name), arity, args)

    def fun(self, name: str):
        """The code of Function `name`: a Python function of exactly its
        arity, staged on the first call."""
        g = self.fun_global(name)
        if name not in self.staged:
            d, base = self.defs[name], self.base
            if base is not None and base.defs.get(name) is d:
                self.ns[g] = base.fun(name)
            else:
                code = _Stager(self).function(name, g, d.payload.clauses)
                exec(py.compile_defs([code], "<esl>"), self.ns)
            self.staged.add(name)
        return self.ns[g]

    def term(self, t: Term):
        """The value of the closed term t, staged as a function of no
        arguments."""
        code = py.fundef("_term", [], _Stager(self).body(t, []))
        exec(py.compile_defs([code], "<esl>"), self.ns)
        return self.ns.pop("_term")()

    def fun_global(self, name: str) -> str:
        """The global of Function `name`, numbered in the order the
        Functions were first staged or called from staged code."""
        return self.globals.setdefault(name, f"f{len(self.globals)}")

    def callee(self, name: str) -> str:
        """The global that staged code calls Function `name` through; until
        the first call it holds a stub that stages the function."""
        g = self.fun_global(name)
        if g not in self.ns:
            self.ns[g] = lambda *args: self.fun(name)(*args)
        return g

    def prim(self, name: str) -> tuple[str, int]:
        """The global holding the Python function of primitive `name`, and
        its arity."""
        g, arity = _PRIM[name]
        if g not in self.ns:
            self.ns[g] = PRIMS[name].fn
        return g, arity


class _Stager:
    """Writes the Python ast of one staged function.  A Function's clause
    telescope binds every variable its body reads, and a staged term is
    closed."""

    def __init__(self, code: _Code):
        self.code = code
        self.nlocals = 0
        self.used: set[str] = set()  # the locals a body reads

    def fresh(self) -> str:
        self.nlocals += 1
        return f"x{self.nlocals}"

    def function(self, name: str, g: str, clauses) -> ast.FunctionDef:
        arity = len(clauses[0].patterns) if clauses else 0
        params = [f"a{j}" for j in range(arity)]
        stmts: list[ast.stmt] = []
        for cl in clauses:
            if cl.body is None:  # its absurd pattern matches nothing
                continue
            test, run = self.clause(cl, params)
            if test is None:  # every later clause is unreachable
                stmts += run
                break
            stmts.append(py.if_(test, run))
        else:
            stmts.append(py.ret(py.call("_nomatch", [
                py.const(name), *map(py.load, params)])))
        return py.fundef(g, params, stmts)

    def clause(self, cl, params: list[str]):
        """The test of one clause without an absurd pattern (None if it
        always matches) and the statements run when it matches: its
        pattern variables bound, then its body."""
        size = len(cl.telescope)
        tests: list[ast.expr] = []
        binds: dict[int, ast.expr] = {}  # the last binding of an index wins
        for p, v in zip(cl.patterns, params):
            self.pat(p.value, py.load(v), tests, binds)
        # every variable is a pattern's; index i is scope[-1 - i]: the
        # parameter a variable pattern binds, else a local
        scope = [binds[i].id if isinstance(binds[i], ast.Name)
                 else self.fresh() for i in reversed(range(size))]
        run = self.body(cl.body, scope)
        run[:0] = [py.assign(scope[-1 - i], binds[i]) for i in range(size)
                   if scope[-1 - i] in self.used and not isinstance(binds[i], ast.Name)]
        return (py.all_of(tests) if tests else None), run

    def pat(self, p, v: ast.expr, tests: list, binds: dict) -> None:
        """Appends the tests that value v matches p, left to right, and
        records the values p binds."""
        if isinstance(p, PVar):
            binds[p.idx] = v
            return
        assert isinstance(p, PCon)
        name = p.name
        if name in ("zero", "fzero"):
            tests.append(py.compare(v, ast.Eq(), py.const(0)))
        elif name in ("suc", "fsuc"):
            if not isinstance(v, ast.BinOp):  # n - 1 of a tested n is an int
                tests.append(py.call("isinstance", [v, py.load("int")]))
            tests.append(py.compare(v, ast.NotEq(), py.const(0)))
            self.pat(p.args[0].value, py.binop(v, ast.Sub(), py.const(1)),
                     tests, binds)
        elif name in ("vnil", "lnil"):
            tests.append(py.node(ast.UnaryOp, ast.Not(), v))
        elif name in ("vcons", "lcons"):
            tests.append(v)
            head, tail = (a.value for a in p.args)
            self.pat(head, py.item(v, 0), tests, binds)
            rest = py.item(v, py.node(ast.Slice, py.const(1), None, None))
            self.pat(tail, rest, tests, binds)
        else:
            # imap: the elaborator and PRIMS build no other pattern
            assert name == "imap", name
            tests.append(py.compare(py.item(v, 0), ast.Eq(), py.const("arr")))
            ix = self.fresh()
            sel = py.lam([ix], py.call("_arr_index", [v, py.load(ix)]))
            self.pat(p.args[0].value, sel, tests, binds)

    def body(self, t: Term, scope: list[str]) -> list[ast.stmt]:
        """Statements returning the value of t: its outer lets become
        assignments."""
        stmts: list[ast.stmt] = []
        while isinstance(t, Let):
            x = self.fresh()
            stmts.append(py.assign(x, self.expr(t.bound, scope)))
            scope = [*scope, x]
            t = t.scope.body
        stmts.append(py.ret(self.expr(t, scope)))
        return stmts

    def var(self, i: int, scope: list[str]) -> ast.expr:
        local = scope[-1 - i]
        self.used.add(local)
        return py.load(local)

    def expr(self, t: Term, scope: list[str]) -> ast.expr:
        """t as one Python expression."""
        match t:
            case Lit(v):
                return py.const(v)
            case Var(i, args):
                f = self.var(i, scope)
                if not args:
                    return f
                vals = [self.expr(a.value, scope) for a in args]
                return py.call("_apply1" if len(vals) == 1 else "_apply",
                               [f, *vals])
            case Con(name, args):
                return self.con(name, [self.expr(a.value, scope) for a in args])
            case Def(name, args):
                unread = _UNREAD.get(name, ())
                return self.call(name, [
                    py.const(None) if j in unread and _cannot_fail(a.value)
                    else self.expr(a.value, scope)
                    for j, a in enumerate(args)])
            case Lam(s, _):
                x = self.fresh()
                return py.lam([x], self.expr(s.body, [*scope, x]))
            case Let(bound, s):
                x = self.fresh()
                value = self.expr(bound, scope)
                return py.let(x, value, self.expr(s.body, [*scope, x]))
            case Pi() | Sort() | Unknown():  # Unknown: a type left uninferred
                return py.const(None)

    def con(self, name: str, vals: list[ast.expr]) -> ast.expr:
        if not vals:
            return py.const(_CON[name]([]))
        if name == "suc" and len(vals) == 1:
            return py.binop(vals[0], ast.Add(), py.const(1))
        return py.call(_CON_GLOBAL[name], [py.lst(vals)])

    def call(self, name: str, vals: list[ast.expr]) -> ast.expr:
        """A call of a definition.  Primitives and Functions whose arity is
        known are called directly when saturated."""
        if name in _PRIM:
            fn, need = self.code.prim(name)
        else:
            # the elaborator names a constructor by Con, so this is a
            # Datatype or a Function, which has clauses once loaded
            f = self.code.defs[name].payload
            if isinstance(f, Datatype):
                return py.call("_type", vals) if vals else py.const(None)
            fn, need = self.code.callee(name), len(f.clauses[0].patterns)
        if len(vals) == need:
            return py.call(fn, vals)
        return py.call("_saturate", [py.load(fn), py.const(need),
                                     py.lst(vals)])


def _cannot_fail(t: Term) -> bool:
    """Whether computing t's value cannot fail: t is built from variables,
    literals, constructors other than imap (which applies a function at
    every index), `_+_` and `_*_`."""
    match t:
        case Var(_, ()) | Lit():
            return True
        case Con(name, args) if name in _CON and name != "imap":
            return all(_cannot_fail(a.value) for a in args)
        case Def("_+_" | "_*_", args):
            return all(_cannot_fail(a.value) for a in args)
    return False


# --------------------------------------------------------------------------
# helpers that staged code calls


def _type(*args):
    return None


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
    raise Abort(f"cannot apply non-function value {f!r}")


def _apply(f, *args):
    for a in args:
        f = _apply1(f, a)
    return f


def _nomatch(name: str, *args):
    raise Abort(f"{name}: no clause matches {list(args)!r}")


# --------------------------------------------------------------------------
# constructors: each computes its value from its whole argument list


def _c_imap(a):
    # hidden arguments carry element type, rank, and shape; a function
    # value is a Python callable
    shape, f = a[-2], a[-1]
    return ("arr", shape, [f(ix) for ix in product(*map(range, shape))])


def _cons(a):
    return (a[-2],) + a[-1]


_CON = {
    "zero": lambda a: 0,
    "fzero": lambda a: 0,
    "suc": lambda a: a[-1] + 1,
    "fsuc": lambda a: a[-1] + 1,
    "vnil": lambda a: (),
    "vcons": _cons,
    "inil": lambda a: (),
    "icons": _cons,
    "lnil": lambda a: (),
    "lcons": _cons,
    "imap": _c_imap,
    "yes": lambda a: 1,
    "no": lambda a: 0,
    "prf": lambda a: 1,
}
_CON_GLOBAL = {name: f"c{i}" for i, name in enumerate(_CON)}

# the globals every staged function of an Env starts from
_HELPERS = {
    "_type": _type, "_saturate": _saturate,
    "_apply1": _apply1, "_apply": _apply, "_arr_index": arr_index,
    "_nomatch": _nomatch,
    **{_CON_GLOBAL[name]: fn for name, fn in _CON.items()},
}


# value construction helper for tests and the harness

def varr(shape, flat):
    return ("arr", tuple(shape), list(flat))
