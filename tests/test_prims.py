"""One meaning per primitive: the source evaluator and both target
interpreters agree on each primitive a backend lowers to an operator, the
normalizer folds or reduces a primitive exactly where the evaluator
computes it, and every layer's table names only primitives of
builtins.PRIMS."""

import inspect
from functools import cache

import numpy as np
import pytest

from eslc import builtins, kaleid, normalize, sac, shapes
from eslc.builtins import PRIMS, seed_env
from eslc.elaborate import Ctx, Elaborator
from eslc.evaluate import call, eval_closed
from eslc.extract import kompile
from eslc.harness import to_target
from eslc.ir import (Abs, Builtin, Con, Datatype, Def, EslError, Function,
                     Lam, Lit, Var, hid, pi_spine, subst, vis)
from eslc.kaleid import Aborted, KaleidBackend, interp_kaleid
from eslc.loader import load_sources
from eslc.normalize import normalise
from eslc.parser import SSignature, parse
from eslc.sac import SacBackend
from eslc.sacinterp import interp_sac

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
    return kompile("w", [], [], backend, e.env, e.rules)


def _source(src: str, args: list):
    v = call(_elaborated(src).env, "w", args)
    if isinstance(v, Aborted):
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


# a literal divisor too is the target's own operator, not a helper that
# makes one call per unit of the dividend
MOD_BY_LITERAL = {"a % 3": lambda a: a % 3, "(a + 1) % 3": lambda a: (a + 1) % 3,
                  "a % 1": lambda a: 0}


@pytest.mark.parametrize("body", list(MOD_BY_LITERAL))
def test_mod_by_a_literal_means_the_same_everywhere(body):
    src = f"w : Nat -> Nat\nw a = {body}\n"
    for a in (0, 1, 5, 100000):
        want = MOD_BY_LITERAL[body](a)
        assert _source(src, [a]) == want, (body, a)
        assert _target(src, "kaleid", [a]) == _target(src, "sac", [a]) == want, (body, a)


HELPER = "w : Nat -> Nat -> Nat -> Nat -> Nat\nw k m n j = {} k m n j\n"


def _by_clauses(k: int, m: int, n: int, j: int) -> int:
    # the three clauses of div-helper, on n, then j
    while n:
        if j == 0:
            k, j = k + 1, m
        else:
            j -= 1
        n -= 1
    return k


@pytest.mark.parametrize("name", ["div-helper"])
def test_division_helpers_mean_their_clauses_everywhere(name):
    # j past m too, where the closed form of div-helper must not go below k
    # on either target
    src = HELPER.format(name)
    for k, m, n, j in [(k, m, n, j) for k in (0, 2) for m in range(3)
                       for n in range(6) for j in range(6)]:
        want = _by_clauses(k, m, n, j)
        assert _source(src, [k, m, n, j]) == want, (k, m, n, j)
        assert _target(src, "kaleid", [k, m, n, j]) == want, (k, m, n, j)
        assert _target(src, "sac", [k, m, n, j]) == want, (k, m, n, j)


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
    declared = [d.name for d in parse(builtins._PRIM_TEXT).decls
                if isinstance(d, SSignature)]
    assert declared == list(builtins._MEANING) == list(PRIMS)
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


def test_the_table_and_the_seed_environment_keep_their_order():
    # the evaluator names each primitive by its position in PRIMS
    assert list(PRIMS) == [
        "_+_", "_*_", "_-_", "div-helper", "_/_", "_%_",
        "fromN<", "toN", "_≟_", "_<?_", "_+f_", "_-f_", "_*f_", "_/f_",
        "expf", "vidx", "vreverse", "vhd", "vtl", "vtake", "vdrop",
        "vappend", "_*v_", "prodv", "sel", "ravel", "reshape", "ixc",
        "ixReverse"]
    assert seed_env().names() == [
        "Nat", "zero", "suc", "Float", "Fin", "fzero", "fsuc", "Vec", "vnil",
        "vcons", "List", "lnil", "lcons", "Ix", "inil", "icons", "Ar", "imap",
        "_<_", "_≡_", "Dec", "yes", "no", "prf", *PRIMS]


def test_the_type_formers_are_the_datatypes_of_the_seed_environment():
    # the elaborator reads them from the seed table, not from its Env
    env = seed_env()
    assert builtins.TYPE_FORMERS == {
        n for n in env.names() if isinstance(env.lookup(n).payload, Datatype)} == {
        "Nat", "Float", "Fin", "Vec", "List", "Ix", "Ar", "_<_", "_≡_", "Dec"}


def test_the_elaborator_reads_each_signature_of_the_text_to_its_term():
    # the text is read without the elaborator, which imports PRIMS; each
    # signature means to the elaborator what the table holds
    elab = Elaborator()
    decls = [d for text in (builtins._SEED_TEXT, builtins._PRIM_TEXT)
             for d in parse(text).decls if isinstance(d, SSignature)]
    assert len(decls) == 43
    for d in decls:
        assert elab.elab_type(d.type, Ctx()) == elab.env.lookup(d.name).signature, \
            d.name


@pytest.mark.parametrize("text", [
    "f : Nat\nf = 1.5\n",  # a float
    "f : (x : Nat) -> Nat\nf _ = 0\n",  # a wildcard
    "f : (n : Nat) -> Nat\nf (fsuc i) = i\n",  # another constructor
    "f x = x\n",  # a clause before its signature
    "f : Nat\nf : Nat\n",  # a second signature
])
def test_the_text_reader_refuses_what_it_does_not_read(text):
    with pytest.raises(EslError, match="^builtins: cannot read"):
        builtins._read(text)


def test_a_primitive_needs_both_its_text_and_its_meaning(monkeypatch):
    monkeypatch.setitem(builtins._MEANING, "nothing", dict(fn=abs))
    with pytest.raises(EslError, match=r"differ on \['nothing'\]"):
        builtins._prims()


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


def _shape3_imap(k):  # imap (\i -> ixc 0 i * k) over the shape [3]
    s = _spine("vcons", "vnil", [Lit(3)])
    body = Def("_*_", (vis(Def("ixc", (hid(Lit(1)), hid(s), vis(Lit(0)), vis(Var(0))))),
                       vis(Lit(k))))
    return (hid(Def("Nat")), hid(Lit(1)), hid(s), vis(Con("imap", (
        hid(Def("Nat")), hid(Lit(1)), hid(s), vis(Lam(Abs("i", body)))))))


def _ix1(j):
    return vis(_spine("icons", "inil", [Lit(j)]))


# the primitives that reduce by their clauses, and `_%_`, which folds on
# literals: calls whose items may be the open Var(0) and Var(1), checked
# at each of OPEN_VALUES
REDUCE_CALLS = {
    "prodv": [(hid(Lit(len(xs))), vis(_spine("vcons", "vnil", xs))) for xs in (
        [], [Lit(4)], [Lit(2), Lit(3)], [Lit(2), Lit(3), Lit(5)],
        [Var(0)], [Var(1), Lit(3)], [Lit(2), Var(1), Var(0)])],
    "sel": [_shape3_imap(k) + (_ix1(j),) for k in (2, 7) for j in range(3)],
    "_%_": [(vis(Lit(a)), vis(Lit(b))) for a in (0, 1, 7, 100000)
            for b in (0, 1, 3)],
}
OPEN_VALUES = [(0, 0), (1, 4), (5, 2)]  # of Var(0) and Var(1)


@pytest.mark.parametrize("name", [*FOLD_CALLS, *REDUCE_CALLS])
def test_normalizer_folds_exactly_where_the_evaluator_computes(name):
    env = seed_env()
    for args in {**FOLD_CALLS, **REDUCE_CALLS}[name]:
        call_t = Def(name, args)
        nf = normalise(call_t, env, depth=2)
        for vals in OPEN_VALUES:
            want, got = (eval_closed(subst(t, 0, *map(Lit, vals)), env)
                         for t in (call_t, nf))
            if isinstance(want, Aborted):
                assert nf == call_t, (name, args)
            else:
                assert not (isinstance(nf, Def) and nf.name == name), (name, args)
                assert got == want, (name, args, vals)


def test_sel_of_an_imap_reads_the_bound_from_the_index_type():
    # out of bounds, the evaluator aborts but the clause still applies the
    # index function: no well-typed index is out of bounds
    env = seed_env()
    call_t = Def("sel", _shape3_imap(2) + (_ix1(5),))
    assert eval_closed(call_t, env) == Aborted("index (5,) out of bounds")
    assert normalise(call_t, env) == Lit(10)
    with pytest.raises(EslError, match="obligation index bound 5 is false"):
        load_sources([("w", "w : Ar Nat 1 (3 ∷ []) -> Nat\nw a = sel a (5 ∷ [])\n")])


def test_only_scaling_a_vector_has_a_delta_rule_of_its_own():
    folds = {p.name for p in PRIMS.values() if p.folds}
    assert set(normalize._DELTA) - folds == {"_*v_"}


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
        vecs = [tuple(first + 3 * j + i for i in range(n))
                for j, (n,) in enumerate(lengths)]
        want = call(_elaborated(src).env, "w", vecs)
        got = interp_sac(_program(src, "sac"), "w", [to_target(v) for v in vecs])
        assert np.array_equal(got, to_target(want)), (name, vecs)
