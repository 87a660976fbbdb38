"""Python code generation shared by the three staged evaluators, the
source evaluator (eslc.evaluate), the Kaleidoscope interpreter
(eslc.kaleid) and the SaC interpreter (eslc.sacinterp): builders of
Python `ast` nodes and the compile of a module of them.

Each evaluator writes a program as Python functions, compiles them once
and runs them, the first Futamura projection (Futamura, "Partial
Evaluation of Computation Process", 1971).  Generated names are numbered
(`f3`, `x7`), since ESL, Kaleidoscope and SaC names such as `_+_` or
`log2'` are not Python identifiers.  Building ast nodes instead of source
text leaves no limit on nesting but the recursion limit; Python's parser
allows only about 100 levels of blocks or brackets.  Every node gets its
source position as it is built, which saves a pass over the tree.  Only
nodes that Python 3.10 knows are built.
"""

from __future__ import annotations

import ast
from types import CodeType

_AT = {"lineno": 1, "col_offset": 0}


def node(cls, *fields):
    """An expression or statement node of class cls."""
    return cls(*fields, **_AT)


def load(name: str) -> ast.Name:
    return ast.Name(name, ast.Load(), **_AT)


def store(name: str) -> ast.Name:
    return ast.Name(name, ast.Store(), **_AT)


def const(value) -> ast.Constant:
    return ast.Constant(value, **_AT)


def call(fn: str | ast.expr, args) -> ast.Call:
    return ast.Call(load(fn) if isinstance(fn, str) else fn, list(args), [],
                    **_AT)


def tup(elts) -> ast.Tuple:
    return ast.Tuple(list(elts), ast.Load(), **_AT)


def lst(elts) -> ast.List:
    return ast.List(list(elts), ast.Load(), **_AT)


def item(value: ast.expr, k: int | ast.expr) -> ast.expr:
    """value[k]."""
    return ast.Subscript(value, const(k) if isinstance(k, int) else k,
                         ast.Load(), **_AT)


def binop(lhs: ast.expr, op: ast.operator, rhs: ast.expr) -> ast.BinOp:
    return ast.BinOp(lhs, op, rhs, **_AT)


def compare(lhs: ast.expr, op: ast.cmpop, rhs: ast.expr) -> ast.Compare:
    return ast.Compare(lhs, [op], [rhs], **_AT)


def all_of(tests: list[ast.expr]) -> ast.expr:
    """The conjunction of tests, evaluated left to right up to the first
    false one."""
    return tests[0] if len(tests) == 1 else ast.BoolOp(ast.And(), tests, **_AT)


def if_else(test: ast.expr, then: ast.expr, other: ast.expr) -> ast.IfExp:
    return ast.IfExp(test, then, other, **_AT)


def walrus(name: str, value: ast.expr) -> ast.NamedExpr:
    return ast.NamedExpr(store(name), value, **_AT)


def let(name: str, bound: ast.expr, body: ast.expr) -> ast.expr:
    """body with name bound to bound, as one expression: bound first."""
    return ast.Subscript(tup([walrus(name, bound), body]), const(1),
                         ast.Load(), **_AT)


def _params(names) -> ast.arguments:
    return ast.arguments(posonlyargs=[], args=[ast.arg(n, **_AT) for n in names],
                         vararg=None, kwonlyargs=[], kw_defaults=[],
                         kwarg=None, defaults=[])


def lam(names, body: ast.expr) -> ast.Lambda:
    return ast.Lambda(_params(names), body, **_AT)


def fundef(name: str, names, body: list[ast.stmt]) -> ast.FunctionDef:
    return ast.FunctionDef(name, _params(names), body, [], None, **_AT)


def assign(name: str, value: ast.expr) -> ast.Assign:
    return ast.Assign([store(name)], value, **_AT)


def ret(value: ast.expr) -> ast.Return:
    return ast.Return(value, **_AT)


def if_(test: ast.expr, body: list[ast.stmt],
        orelse: list[ast.stmt] | None = None) -> ast.If:
    return ast.If(test, body or [node(ast.Pass)], orelse or [], **_AT)


def compile_defs(defs: list[ast.stmt], filename: str) -> CodeType:
    """The code of a module of the given statements."""
    return compile(ast.Module(defs, []), filename, "exec")
