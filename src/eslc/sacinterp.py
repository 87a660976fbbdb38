"""Reference interpreter of the SaC subset that eslc.sac emits, over numpy
values, standing in for SaC's own toolchain: it reads the emitted text.
Each function of a text is staged once into one Python def (eslc.pycode),
cached on the text; each assignment binds a fresh local, and a with-loop
becomes a call of _genarray or _fold, which run its one partition's
body, staged as a function of the index vector, one element at a time:
a genarray in row-major order, a fold from the last index back to the
first, `acc = op (body, acc)`, as the prelude's `reduce` folds.  A
malformed program raises SacParseError where the staged code reaches it.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
from itertools import product

import numpy as np

from . import ir
from . import pycode as py
from .ir import Abort
from .sac import (SacParseError, SBin, SCall, SFlt, SNum, SSel, SVarE,
                  SVecLit, SWith, parse_sac)


def interp_sac(program: str, entry: str, args):
    """Evaluate the emitted text on numpy arrays and scalars.  Aborted is
    a value, also when the program runs out of Python stack; a program too
    deeply nested to stage is a SacParseError."""
    try:
        fns = _staged(program)
    except RecursionError as err:
        raise SacParseError(f"program too deeply nested to stage: {err}") from err
    if entry not in fns:
        raise SacParseError(f"unknown function {entry}")
    arity, fn = fns[entry]
    if arity != len(args):
        raise SacParseError(f"{entry} expects {arity} arguments")
    try:  # a zero divisor aborts too: _quotient checks it first
        return ir.outcome(fn, *args)
    except NameError:  # no assignment reached the local of a declared name
        raise SacParseError("a declared variable is read unassigned") from None


@functools.lru_cache(maxsize=64)
def _staged(text: str) -> dict:
    """The program's functions as Python functions, by name, with arity."""
    fns = parse_sac(text)
    stager = _Stager({name: (f"f{i}", len(fn.params))
                      for i, (name, fn) in enumerate(fns.items())})
    defs = [stager.fun(stager.funs[name][0], name, fn.params, fn.stmts, {})
            for name, fn in fns.items()]
    ns = dict(_HELPERS)
    exec(py.compile_defs(defs, "<sac>"), ns)
    return {name: (arity, ns[pyname]) for name, (pyname, arity) in stager.funs.items()}


_ARITH = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}
_COMPARE = {"<": ast.Lt, ">": ast.Gt}
_FOLD = {"+": operator.add, "*": operator.mul}


class _Stager:
    """Writes each ParsedFn as the ast of one Python def.  It runs once per
    program, so it dispatches by `match`."""

    def __init__(self, funs: dict[str, tuple[str, int]]):
        self.funs = funs  # SaC name -> (Python name, arity)
        self.count = 0
        self.defs: list[ast.stmt] = []  # the loop bodies of the def at hand
        self.declared: set[str] = set()  # the locals of declared names

    def _bind(self, name: str, scope: dict[str, str]) -> str:
        """A fresh local for name, which scope then reads."""
        self.count += 1
        scope[name] = f"v{self.count}"
        return scope[name]

    def fun(self, pyname: str, name: str, params: list[str], stmts: list,
            scope: dict[str, str]) -> ast.FunctionDef:
        """The def pyname of SaC function name, or of a with-loop's body:
        its parameters, then its statements, with the with-loop bodies
        they hold as nested defs ahead of them.  scope maps each SaC name
        to its local where it is read."""
        outer, self.defs = self.defs, []
        # a repeated parameter name binds the last of its arguments
        params = [self._bind(p, scope) for p in params]
        body = self.block(stmts, scope)
        if not (body and isinstance(body[-1], ast.Return)):
            body.append(py.ret(_malformed(f"{name} has no return statement")))
        body, self.defs = self.defs + body, outer
        return py.fundef(pyname, params, body)

    def block(self, stmts: list, scope: dict[str, str]) -> list[ast.stmt]:
        """The statements up to the first return.  An assignment binds a
        fresh local, but to a declared name, whose one local it stores."""
        body = []
        for st in stmts:
            match st:
                case ("assign", nm, e):
                    value = self.expr(e, scope)
                    local = scope[nm] if scope.get(nm) in self.declared \
                        else self._bind(nm, scope)
                    body.append(py.assign(local, value))
                case ("declare", nm):
                    self.declared.add(self._bind(nm, scope))
                case ("assert", e):
                    # a clause fall-through, `assert (0)`, aborts as it does
                    # in Kaleidoscope
                    why = "assert (0)" if isinstance(e, SNum) else "assertion failed"
                    body.append(py.node(ast.Expr, py.call(
                        "_check", [self.expr(e, scope), py.const(why)])))
                case ("if", cond, then, other):
                    body.append(py.if_(self.expr(cond, scope), self.block(
                        then, dict(scope)), self.block(other, dict(scope))))
                case ("return", e):
                    body.append(py.ret(self.expr(e, scope)))
                    break
        return body

    def expr(self, e, scope: dict[str, str]) -> ast.expr:
        match e:
            case SNum(v) | SFlt(v):
                return py.const(v)
            case SVarE(n):
                return py.load(scope[n]) if n in scope else \
                    _malformed(f"unbound variable {n}")
            case SBin(op, l, r):
                lhs, rhs = self.expr(l, scope), self.expr(r, scope)
                if op in _ARITH:
                    return py.binop(lhs, _ARITH[op](), rhs)
                if op in _COMPARE:
                    return py.call("_c_bool", [py.compare(lhs, _COMPARE[op](), rhs)])
                if op == "==":
                    return py.call("_eq", [lhs, rhs])
                if op == "&&":  # the right operand only if the left holds
                    return py.call("_c_bool", [py.all_of([lhs, rhs])])
                # `/` or `%`: the reader admits no other operator
                return py.call("_quotient", [lhs, rhs, py.const(op)])
            case SSel(a, i):
                return py.call("_sel", [self.expr(a, scope), self.expr(i, scope)])
            case SCall(f, args):
                vals = [self.expr(a, scope) for a in args]
                if f in _BUILTINS:
                    return py.call(f"_{f}", vals)
                if f not in self.funs:
                    return _malformed(f"unknown function {f}", *vals)
                pyname, arity = self.funs[f]
                if arity != len(vals):
                    return _malformed(f"{f} expects {arity} arguments", *vals)
                return py.call(pyname, vals)
            case SVecLit(items):
                return py.call("_vec", [py.lst(self.expr(i, scope) for i in items)])
            case SWith():
                return self.with_loop(e, scope)

    def with_loop(self, w: SWith, scope: dict[str, str]) -> ast.expr:
        """A call of _genarray or _fold on the with-loop's shape and default,
        or its operator and neutral, and on its partition's bounds and
        body.  The body is a def of the index vector whose block
        assignments are statements, so a long block nests no deeper."""
        fold = w.kind == "fold"
        if fold and w.op not in _FOLD:
            return _malformed(f"unknown fold operator {w.op}")
        lower, upper, iv, block, body = w.part
        self.count += 1
        fn = f"b{self.count}"
        self.defs.append(self.fun(fn, fn, [iv], [
            *(("assign", nm, be) for nm, be in block), ("return", body)],
            dict(scope)))
        part = [py.const(None), py.const(None)] if lower is None else \
            [self.expr(lower, scope), self.expr(upper, scope)]
        part.append(py.load(fn))
        if fold:
            return py.call("_fold", [py.const(w.op), self.expr(w.neutral, scope), *part])
        return py.call("_genarray", [self.expr(w.shape, scope),
                                     self.expr(w.default, scope), *part])


def _malformed(why: str, *operands: ast.expr) -> ast.expr:
    """A call that raises SacParseError(why) once its operands are
    evaluated."""
    return py.call("_parse_error", [py.const(why), *operands])


# --------------------------------------------------------------------------
# what the staged code calls


def _parse_error(why: str, *operands):
    raise SacParseError(why)


def _check(v, why: str) -> None:
    if not (bool(np.all(v)) if isinstance(v, np.ndarray) else bool(v)):
        raise Abort(why)


def _quotient(a, b, op: str):
    # a 0-d array (how a rank-0 argument, to_target(varr((), [x])),
    # arrives) is a scalar
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


def _sel(arr, idx):
    if type(arr) is not np.ndarray:  # a scalar is an array of rank 0
        arr = np.asarray(arr)
    if isinstance(idx, np.ndarray):
        comps = tuple(int(c) for c in idx.tolist())
        if len(comps) > arr.ndim:
            raise Abort(f"selection {comps} from an array of rank {arr.ndim}")
        for c, n in zip(comps, arr.shape):
            if not 0 <= c < n:
                raise Abort(f"index {comps} out of bounds")
        # an element is a Python number, as a scalar is
        return arr.item(comps) if len(comps) == arr.ndim else arr[comps]
    i = int(idx)
    if not arr.ndim:
        raise Abort(f"selection {i} from an array of rank 0")
    if not 0 <= i < arr.shape[0]:
        raise Abort(f"index {i} out of bounds")
    return arr.item(i) if arr.ndim == 1 else arr[i]


def _extent(v) -> tuple:
    return tuple(int(x) for x in np.atleast_1d(v).tolist())


def _genarray(shape, default, lower, upper, body):
    """The body at each index of its range, in row-major order, stored
    into an array of the shape.  A natural stays a Python int, unbounded
    as a scalar is."""
    shape = _extent(shape)
    dshape = default.shape if isinstance(default, np.ndarray) else ()
    floaty = isinstance(default, float) or (isinstance(default, np.ndarray) and
                                            default.dtype.kind == "f")
    acc = np.empty(shape + dshape, dtype=np.float64 if floaty else object)
    acc[...] = default
    for ix in _cells(False, lower, shape if lower is None else upper):
        acc[ix] = body(np.array(ix, dtype=np.int64))
    return acc


def _fold(op: str, acc, lower, upper, body):
    """The body at each index of its range folded into acc, as the
    source's `reduce` folds: `acc = op (body, acc)` from the last index
    back to the first."""
    fn = _FOLD[op]
    for ix in _cells(True, lower, upper):
        acc = fn(body(np.array(ix, dtype=np.int64)), acc)
    return acc


def _cells(backwards: bool, lower, upper):
    """The indices of `lower <= iv < upper`, or of the shape upper when
    lower is None, in row-major order or backwards."""
    if lower is None:
        axes = [range(n) for n in upper]
    else:
        lo, hi = np.atleast_1d(lower), np.atleast_1d(upper)
        axes = [range(int(b), int(b) + int(n))
                for b, n in zip(lo.tolist(), (hi - lo).tolist())]
    return product(*(r[::-1] if backwards else r for r in axes))


def _reshape(s, a):
    shp, a = _extent(s), np.asarray(a)
    if a.size != math.prod(shp):
        raise Abort("reshape changes the number of elements")
    return a.reshape(shp)


def _expf(x):
    try:
        return math.exp(x)
    except OverflowError:  # as C's expf
        return math.inf


def _count(k) -> int:
    return int(k if np.isscalar(k) else k.flat[0])


def _take(k, a):
    if (n := _count(k)) > len(a):  # as SaC's take, past the extent fails
        raise Abort(f"take {n} of a vector of length {len(a)}")
    return a[:n]


def _any_array(a, b) -> bool:
    return isinstance(a, np.ndarray) or isinstance(b, np.ndarray)


# SaC's own functions and the library helpers the emitted text calls; a
# program's function of the same name is never called
_BUILTINS = {
    "shape": lambda a: np.array(a.shape if isinstance(a, np.ndarray) else (),
                                dtype=np.int64),
    "take": _take, "drop": lambda k, a: a[_count(k):],
    "cons": lambda a, b: np.concatenate([np.atleast_1d(a), np.atleast_1d(b)]),
    "reverse": lambda a: a[::-1], "prod": lambda a: int(np.prod(a)),
    "reshape": _reshape, "expf": _expf,
    "zero_float": lambda s: np.zeros(shp) if (shp := _extent(s)) else 0.0,
    "zero_int": lambda s: np.zeros(shp, dtype=np.int64) if (shp := _extent(s)) else 0,
    "max": lambda a, b: np.maximum(a, b) if _any_array(a, b) else max(a, b)}
_BUILTINS["append"] = _BUILTINS["cons"]
_HELPERS = {
    **{f"_{name}": fn for name, fn in _BUILTINS.items()},
    **{fn.__name__: fn for fn in (_parse_error, _check, _quotient, _sel,
                                  _genarray, _fold)},
    "_eq": lambda a, b: (np.array_equal(np.asarray(a), np.asarray(b))
                         if _any_array(a, b) else int(a == b)),  # a C boolean
    "_c_bool": lambda out: int(out) if np.ndim(out) == 0 else out,
    "_vec": lambda vals: np.array(vals, dtype=np.int64 if all(
        isinstance(v, (int, np.integer)) for v in vals) else np.float64)}
