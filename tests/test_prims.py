"""One meaning per primitive: the source evaluator and both target
interpreters agree on each primitive a backend lowers to an operator, the
normalizer folds a vector or index primitive exactly where the evaluator
computes it, and every layer's table names only primitives of
builtins.PRIMS."""

import inspect
from functools import cache

import pytest

from eslc import builtins, kaleid, sac, shapes
from eslc.builtins import PRIMS, seed_env
from eslc.evaluate import EvalError, call, eval_closed
from eslc.extract import kompile
from eslc.ir import Builtin, Con, Def, Function, Lit, hid, pi_spine, vis
from eslc.kaleid import Aborted, KaleidBackend, interp_kaleid, parse_kaleid
from eslc.loader import load_sources
from eslc.normalize import normalise
from eslc.sac import SacBackend, interp_sac, parse_sac

NAT2 = "w : Nat -> Nat -> Nat\nw a b = a {} b\n"
DIVIDES = "w : (a b : Nat) -> 0 < b -> Nat\nw a b p = a {} b\n"
DECIDES = "w : (a b : Nat) -> Dec (a {} b)\nw a b = a {} b\n"
FLOAT2 = "w : Float -> Float -> Float\nw a b = a {} b\n"

# primitive: (its one-line wrapper w, the targets that run it).  Both
# targets compile the Nat wrappers; the Kaleidoscope target has no floats.
NAT_CASES = {
    "_+_": (NAT2.format("+"), ("kaleid", "sac")),
    "_-_": (NAT2.format("-"), ("kaleid", "sac")),
    "_*_": (NAT2.format("*"), ("kaleid", "sac")),
    "_/_": (DIVIDES.format("/"), ("kaleid", "sac")),
    "_%_": (DIVIDES.format("%"), ("kaleid", "sac")),
    "_≟_": (DECIDES.format("≡", "≟"), ("kaleid", "sac")),
    "_<?_": (DECIDES.format("<", "<?"), ("kaleid", "sac")),
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
    text = kompile("w", [], [], backend, e.env, e.rules)
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
    return ABORT if isinstance(v, Aborted) else v


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


HELPER = "w : Nat -> Nat -> Nat -> Nat -> Nat\nw k m n j = {} k m n j\n"


def _by_clauses(name: str, k: int, m: int, n: int, j: int) -> int:
    # the three clauses of each helper, on n, then j
    while n:
        if j == 0:
            k, j = (k + 1 if name == "div-helper" else 0), m
        else:
            k, j = (k if name == "div-helper" else k + 1), j - 1
        n -= 1
    return k


@pytest.mark.parametrize("name", ["div-helper", "mod-helper"])
def test_division_helpers_mean_their_clauses_everywhere(name):
    # j past m too, where the closed form of div-helper must not go below k
    src = HELPER.format(name)
    for k, m, n, j in [(k, m, n, j) for k in (0, 2) for m in range(3)
                       for n in range(6) for j in range(6)]:
        want = _by_clauses(name, k, m, n, j)
        assert _source(src, [k, m, n, j]) == want, (k, m, n, j)
        assert _target(src, "kaleid", [k, m, n, j]) == want, (k, m, n, j)


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


def _spine(cons, nil, items):
    out = Con(nil)
    for x in reversed(items):
        out = Con(cons, (vis(x), vis(out)))
    return out


def _vec(n):
    return _spine("vcons", "vnil", [Lit(10 + j) for j in range(n)])


def _ix(n):  # the index (0, 1, ...) of rank n into a shape of extent 5
    return (hid(Lit(n)), hid(_spine("vcons", "vnil", [Lit(5)] * n)),
            vis(_spine("icons", "inil", [Lit(j) for j in range(n)])))


LENGTHS = range(4)
COUNTS = range(5)


def _vec_args(n):
    return (hid(Def("Nat")), hid(Lit(n)), vis(_vec(n)))


def _counted(calls):  # a count or position before the last argument
    return [a[:-1] + (vis(Lit(k)), a[-1]) for a in calls for k in COUNTS]


# each primitive the normalizer folds through its PRIMS function, on closed
# calls inside and outside its contract
FOLD_CALLS = {
    "vidx": _counted(map(_vec_args, LENGTHS)),
    "vreverse": [_vec_args(n) for n in LENGTHS],
    "vhd": [_vec_args(n) for n in LENGTHS],
    "vtl": [_vec_args(n) for n in LENGTHS],
    "vtake": _counted(map(_vec_args, LENGTHS)),
    "vdrop": _counted(map(_vec_args, LENGTHS)),
    "vappend": [(hid(Def("Nat")), hid(Lit(m)), hid(Lit(n)), vis(_vec(m)),
                 vis(_vec(n))) for m in LENGTHS for n in LENGTHS],
    "ixc": _counted(map(_ix, LENGTHS)),
    "ixReverse": [_ix(n) for n in LENGTHS],
}


def test_fold_calls_cover_every_primitive_the_normalizer_folds_on_spines():
    spines = {p.name for p in PRIMS.values() if p.folds and any(
        isinstance(a.value, Def) and a.value.name in ("Vec", "Ix")
        for _, a in pi_spine(p.sig)[0])}
    assert spines == set(FOLD_CALLS)


@pytest.mark.parametrize("name", list(FOLD_CALLS))
def test_normalizer_folds_exactly_where_the_evaluator_computes(name):
    env = seed_env()
    for args in FOLD_CALLS[name]:
        call_t = Def(name, args)
        nf = normalise(call_t, env)
        try:
            want = eval_closed(call_t, env)
        except EvalError:
            assert nf == call_t, (name, args)
            continue
        assert not (isinstance(nf, Def) and nf.name == name), (name, args)
        assert eval_closed(nf, env) == want, (name, args)


# vector primitives the SaC backend lowers to a library call or a
# selection: (one-line wrapper w, argument lists)
VEC_CASES = {
    "vtake": ("w : Vec Nat 4 -> Vec Nat 2\nw v = vtake 2 v\n", [[4]]),
    "vdrop": ("w : Vec Nat 4 -> Vec Nat 1\nw v = vdrop 3 v\n", [[4]]),
    "vappend": ("w : Vec Nat 2 -> Vec Nat 3 -> Vec Nat 5\nw a b = vappend a b\n",
                [[2], [3]]),
    "vhd": ("w : Vec Nat 3 -> Nat\nw v = vhd v\n", [[3]]),
    "vtl": ("w : Vec Nat 3 -> Vec Nat 2\nw v = vtl v\n", [[3]]),
    "prodv": ("w : Vec Nat 3 -> Nat\nw v = prodv v\n", [[3]]),
}


@pytest.mark.parametrize("name", list(VEC_CASES))
def test_vector_primitive_means_the_same_in_sac(name):
    src, lengths = VEC_CASES[name]
    for first in (0, 2, 7):
        vecs = [[first + 3 * j + i for i in range(n)]
                for j, (n,) in enumerate(lengths)]
        want = call(_elaborated(src).env, "w",
                    [("vec", tuple(v)) for v in vecs])
        got = interp_sac(_program(src, "sac"), "w", vecs)
        if isinstance(want, tuple):
            assert got.tolist() == list(want[1]), (name, vecs)
        else:
            assert got == want, (name, vecs)
