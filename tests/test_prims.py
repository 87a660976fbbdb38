"""One meaning per primitive: the source evaluator and both target
interpreters agree on each primitive a backend lowers to an operator, and
every layer's table names only primitives of builtins.PRIMS."""

import inspect
from functools import cache

import pytest

from eslc import builtins, kaleid, sac, shapes
from eslc.builtins import PRIMS, seed_env
from eslc.evaluate import EvalError, call
from eslc.extract import kompile
from eslc.ir import Builtin, Function
from eslc.kaleid import Aborted, KaleidBackend, interp_kaleid, parse_kaleid
from eslc.loader import load_sources
from eslc.sac import SacAborted, SacBackend, interp_sac, parse_sac

NAT2 = "w : Nat -> Nat -> Nat\nw a b = a {} b\n"
DIVIDES = "w : (a b : Nat) -> 0 < b -> Nat\nw a b p = a {} b\n"
DECIDES = "w : (a b : Nat) -> Dec (a {} b)\nw a b = a {} b\n"
FLOAT2 = "w : Float -> Float -> Float\nw a b = a {} b\n"

# primitive: (its one-line wrapper w, the targets that run it).  Both
# targets compile the Nat wrappers except the Dec ones, which SaC cannot
# type; the Kaleidoscope target has no floats.
NAT_CASES = {
    "_+_": (NAT2.format("+"), ("kaleid", "sac")),
    "_-_": (NAT2.format("-"), ("kaleid", "sac")),
    "_*_": (NAT2.format("*"), ("kaleid", "sac")),
    "_/_": (DIVIDES.format("/"), ("kaleid", "sac")),
    "_%_": (DIVIDES.format("%"), ("kaleid", "sac")),
    "_≟_": (DECIDES.format("≡", "≟"), ("kaleid",)),
    "_<?_": (DECIDES.format("<", "<?"), ("kaleid",)),
}
FLOAT_CASES = {
    "_+f_": FLOAT2.format("+f"),
    "_-f_": FLOAT2.format("-f"),
    "_*f_": FLOAT2.format("*f"),
    "_/f_": FLOAT2.format("/f"),
    "expf": "w : Float -> Float\nw a = expf a\n",
}

# zero on either side, a < b, a == b and a > b
NAT_GRID = [(a, b) for a in (0, 1, 4, 7) for b in (0, 1, 4, 7)]
FLOAT_GRID = [(0.0, 0.0), (0.0, 2.5), (1.5, 2.5), (2.5, 2.5), (3.0, -1.25),
              (-0.5, 0.0), (1e308, 1e308)]
EXP_GRID = [0.0, 1.0, -2.5, 88.0, 1000.0]

ABORT = "abort"


@cache
def _elaborated(src: str):
    return load_sources([("w", src)])


@cache
def _program(src: str, target: str):
    e = _elaborated(src)
    backend = KaleidBackend() if target == "kaleid" else SacBackend()
    text = kompile("w", [], [], backend, e.env, e.rules, def_meta=e.def_meta)
    return parse_kaleid(text) if target == "kaleid" else parse_sac(text)


def _source(src: str, args: list):
    try:
        v = call(_elaborated(src).env, "w", args)
    except EvalError:
        return ABORT
    return int(v[1]) if isinstance(v, tuple) else v  # a Dec is a C boolean


def _target(src: str, target: str, args: list):
    run = interp_kaleid if target == "kaleid" else interp_sac
    v = run(_program(src, target), "w", args)
    return ABORT if isinstance(v, (Aborted, SacAborted)) else v


@pytest.mark.parametrize("name", list(NAT_CASES))
def test_nat_primitive_means_the_same_everywhere(name):
    src, targets = NAT_CASES[name]
    for a, b in NAT_GRID:
        # the proof of 0 < b is passed as 1, except to SaC, which drops it
        args = [a, b, 1] if "0 < b" in src else [a, b]
        want = _source(src, args)
        got = {t: _target(src, t, args if t == "kaleid" else [a, b])
               for t in targets}
        assert got == {t: want for t in targets}, (name, a, b)


@pytest.mark.parametrize("name", list(FLOAT_CASES))
def test_float_primitive_means_the_same_everywhere(name):
    src = FLOAT_CASES[name]
    grid = [(x,) for x in EXP_GRID] if name == "expf" else FLOAT_GRID
    for args in grid:
        assert _target(src, "sac", list(args)) == _source(src, list(args)), \
            (name, args)


def test_every_backend_operator_names_a_primitive():
    for table in (kaleid._BINOPS, sac._SCALAR_BIN, sac._FOLD_OPS,
                  shapes._SCALAR_DEFS):
        assert set(table) <= set(PRIMS)


def test_every_builtin_has_exactly_one_table_entry():
    names = [p.name for p in builtins._prims()]
    assert len(names) == len(set(names)) == len(PRIMS)
    env = seed_env()
    for name in env.names():
        d = env.lookup(name)
        if isinstance(d.payload, Builtin):
            assert PRIMS[name].clauses is None
    for p in PRIMS.values():
        d = env.lookup(p.name)
        assert d.signature is p.sig
        if p.clauses is None:
            assert isinstance(d.payload, Builtin)
        else:
            assert isinstance(d.payload, Function)
            assert tuple(d.payload.clauses) == p.clauses
        assert len(inspect.signature(p.fn).parameters) == p.arity == d.arity()
