"""Evaluator details not exercised elsewhere: clause normalization
helpers, sharing flags, reshape, Dec-returning extraction, and the
evaluator's semantics: partial and over-application, closures, imap
patterns, lets, error messages, definitions added after a call, type
arguments, deep recursion and nesting, and primitives read from PRIMS."""

import gc
import hashlib
import random
import weakref
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from eslc import corpus, loader
from eslc.builtins import PRIMS, seed_env
from eslc.evaluate import call, eval_closed, varr
from eslc.extract import ExtractOptions, kompile
from eslc.harness import to_target
from eslc.ir import (Abs, Aborted, Clause, Con, Def, Definition, Function, Let,
                     Lit, PCon, Pi, PVar, UnknownName, Var, hid, vis)
from eslc.kaleid import KaleidBackend, interp_kaleid
from eslc.loader import load_prelude, load_sources
from eslc.normalize import (NotGroundable, ReductionPolicy, check_rewrite,
                            normalise_clause)


def test_normalise_clause_inlines_helpers_and_keeps_sharing():
    e = load_sources([("sh", corpus.SHARING)])
    d = e.env.lookup("ex8")
    cl = normalise_clause(d.payload.clauses[0], e.env)
    assert isinstance(cl.body, Let)  # a + a keeps its binding
    faithful = normalise_clause(d.payload.clauses[0], e.env,
                                ReductionPolicy(faithful_lets=True))
    assert not isinstance(faithful.body, Let)


def test_normalise_clause_on_absurd_clause_is_identity():
    e = load_sources([("ex", corpus.EX7)])
    d = e.env.lookup("ex11")
    cl = d.payload.clauses[0]
    assert normalise_clause(cl, e.env).body is None


def test_env_lookup_function_after_elaboration():
    e = load_sources([("log2", corpus.LOG2)])
    d = e.env.lookup("log2")
    assert isinstance(d.payload, Function) and len(d.payload.clauses) == 1
    assert len(e.env.lookup("log2'").payload.clauses) == 3


def test_faithful_lets_duplicates_in_extraction():
    e = load_sources([("sh", corpus.SHARING)])
    shared = kompile("ex8", [], [], KaleidBackend(), e.env, e.rules)
    assert shared.count("x * x") == 1
    eager = kompile("ex8", [], [], KaleidBackend(), e.env, e.rules,
                    ExtractOptions(faithful_lets=True))
    assert eager.count("x * x") == 2  # the bound sum is spelled out twice
    for text, name in [(shared, "shared"), (eager, "eager")]:
        assert interp_kaleid(text, "ex8", [3]) == 2 * (9 + 9 + 5), name


def test_rewrites_apply_during_extraction():
    src = corpus.REWRITES + """
useplus : Nat -> Nat
useplus x = (x + 0) * 2
"""
    e = load_sources([("t", src)])
    out = kompile("useplus", [], [], KaleidBackend(), e.env, e.rules)
    assert "+ 0" not in out
    assert interp_kaleid(out, "useplus", [5]) == 10


def test_check_rewrite_not_groundable_for_function_variables():
    e = load_sources([("rw", corpus.REWRITES)])
    rule = next(r for r in e.rules.rules if r.name == "map-comp")
    with pytest.raises(NotGroundable):
        check_rewrite(rule, 10, e.env)


def test_reshape_checks_element_count():
    ok = """
flat23 : Ar Float 2 (2 ∷ 3 ∷ []) -> Ar Float 1 (6 ∷ [])
flat23 a = reshape (6 ∷ []) a
"""
    e = load_sources([("r", ok)])
    out = call(e.env, "flat23", [varr((2, 3), [1.0, 2, 3, 4, 5, 6])])
    assert out[1] == (6,)
    from eslc.elaborate import UnprovenConstraint
    bad = ok.replace("(6 ∷ [])", "(7 ∷ [])").replace("1 (6", "1 (7")
    with pytest.raises(UnprovenConstraint):
        load_sources([("r", bad)])


def test_dec_returning_function_extracts_to_comparison():
    src = "isEq : (a b : Nat) -> Dec (a ≡ b)\nisEq a b = a ≟ b\n"
    e = load_sources([("d", src)])
    out = kompile("isEq", ["_≟_"], [], KaleidBackend(), e.env, e.rules)
    assert "a == b" in out
    assert interp_kaleid(out, "isEq", [4, 4]) == 1
    assert interp_kaleid(out, "isEq", [4, 5]) == 0


def test_accepted_bodies_contain_no_unknown():
    from eslc import ir
    e = load_sources([("log2", corpus.LOG2), ("ack", corpus.ACK)])

    def scan(t) -> bool:
        match t:
            case ir.Unknown():
                return True
            case ir.Var(_, a) | ir.Con(_, a) | ir.Def(_, a):
                return any(scan(x.value) for x in a)
            case ir.Lam(s, _):
                return scan(s.body)
            case ir.Let(b, s):
                return scan(b) or scan(s.body)
            case _:
                return False

    for name in e.env.names():
        d = e.env.lookup(name)
        if isinstance(d.payload, Function):
            for cl in d.payload.clauses:
                assert cl.body is None or not scan(cl.body), name


# -- evaluator semantics --------------------------------------------------------

HIGHER = corpus.REWRITES + """
addk : Nat -> Nat -> Nat
addk k = \\x -> x + k

useaddk : Nat -> Nat
useaddk x = addk 3 x

app : (Nat -> Nat) -> Nat -> Nat
app f x = f x

incall : List Nat -> List Nat
incall xs = map (\\x -> x + 1) xs

sucall : List Nat -> List Nat
sucall xs = map suc xs

letsuc : Nat -> Nat
letsuc x = let s = suc in s (s x)

s : Nat -> Nat
s = suc
"""


@pytest.fixture(scope="module")
def higher():
    return load_sources([("higher", HIGHER)]).env


def test_partial_application_of_primitives_and_definitions(higher):
    add10 = call(higher, "_+_", [10])
    assert call(higher, "map", [add10, (1, 2)]) == (11, 12)
    double_after_suc = call(higher, "comp", [call(higher, "_*_", [2]),
                                             call(higher, "s", [])])
    assert call(higher, "app", [double_after_suc, 4]) == 10


def test_partial_application_of_a_constructor(higher):
    suc = call(higher, "s", [])
    assert call(higher, "app", [suc, 4]) == 5
    assert call(higher, "map", [suc, (0, 7)]) == (1, 8)
    assert call(higher, "sucall", [(0, 7)]) == (1, 8)
    assert call(higher, "letsuc", [3]) == 5


def test_a_call_by_name_of_a_type_or_of_no_definition(higher):
    assert call(higher, "Nat", []) is None
    with pytest.raises(UnknownName, match="nosuch"):
        call(higher, "nosuch", [1])


def test_over_application(higher):
    assert call(higher, "addk", [3, 4]) == 7  # one pattern, two arguments
    assert call(higher, "useaddk", [5]) == 8  # the same inside a body
    assert call(higher, "comp", [call(higher, "_+_", [1]),
                                 call(higher, "_*_", [3]), 2]) == 7


def test_higher_order_closures(higher):
    assert call(higher, "incall", [(1, 2, 3)]) == (2, 3, 4)
    assert call(higher, "map", [call(higher, "addk", [5]), ()]) \
        == ()
    assert _error(higher, "app", [3, 4]) == "cannot apply non-function value 3"


def test_imap_pattern_binds_a_selector():
    e = load_prelude()
    w = varr((2, 4), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    out = call(e.env, "avgpool", [(1, 2), w])
    assert out == ("arr", (1, 2), [3.5, 5.5])


def test_lets_are_shared_and_scoped():
    e = load_sources([("sh", corpus.SHARING)])
    assert call(e.env, "ex8", [3]) == 2 * (9 + 9 + 5)
    assert [call(e.env, "fib", [n]) for n in range(8)] == \
        [0, 1, 1, 2, 3, 5, 8, 13]


def test_eval_of_a_closed_term():
    e = load_sources([("sh", corpus.SHARING)])
    t = Let(Def("ex8", (vis(Lit(1)),)),
            Abs("a", Def("_+_", (vis(Var(0)), vis(Var(0))))))
    assert eval_closed(t, e.env) == 2 * 18
    assert eval_closed(Let(Lit(9), Abs("b", Let(Lit(7), Abs("a", Var(1))))),
                       e.env) == 9


def _error(env, name, args) -> str:
    out = call(env, name, args)
    assert isinstance(out, Aborted), out
    return out.reason


def test_error_messages():
    e = load_sources([("ex", corpus.EX7)])
    assert _error(e.env, "ex11", [3, 1]) == \
        "ex11: no clause matches [3, 1]"
    assert _error(e.env, "_/_", [1, 0]) == "division by zero"
    assert _error(e.env, "_%_", [1, 0]) == "mod by zero"
    assert _error(e.env, "_+_", [1, 2, 3]) == \
        "cannot apply non-function value 3"
    arr = varr((3,), [1, 2, 3])
    assert _error(e.env, "sel", [None, 1, (3,), arr, (5,)]) \
        == "index (5,) out of bounds"
    assert _error(e.env, "vidx", [None, 3, 7, (1, 2, 3)]) == \
        "vector index 7 out of bounds"
    # each primitive is total: out of contract, an Aborted, not a
    # Python IndexError or a value its type misstates
    assert _error(e.env, "vhd", [None, 0, ()]) == \
        "vhd of an empty vector"
    assert _error(e.env, "vtl", [None, 0, ()]) == \
        "vtl of an empty vector"
    assert _error(e.env, "ixc", [1, (3,), 1, (2,)]) == \
        "index component 1 past rank 1"
    assert _error(e.env, "vtake", [None, 2, 5, (1, 2)]) == \
        "vtake 5 of a vector of length 2"


def test_cons_pattern_does_not_match_an_empty_sequence():
    e = load_sources([("hd", "hd : List Nat -> Nat\nhd (x ∷ xs) = x\n"
                             "hd [] = 0\n")])
    assert call(e.env, "hd", [(4, 5)]) == 4
    assert call(e.env, "hd", [()]) == 0


def test_check_rewrite_evaluates_both_sides():
    for src, name in [(corpus.REWRITES, "plus-0"),
                      (corpus.PLUS_SUC_0, "plus-suc-0")]:
        e = load_sources([("rw", src)])
        rule = next(r for r in e.rules.rules if r.name == name)
        assert check_rewrite(rule, 20, e.env) == "pass"
    wrong = """
{-# TRUST wrong #-}

wrong : (a b c d e : Nat) -> a + b + c + d + e ≡ a + b + c + d + e + 1
wrong a b c d e = prf

{-# REWRITE wrong #-}
"""
    e = load_sources([("bad", wrong)])
    rule = next(r for r in e.rules.rules if r.name == "wrong")
    out = check_rewrite(rule, 5, e.env)
    assert out["rhs"] == out["lhs"] + 1 == sum(t.value for t in out["assignment"]) + 1


def test_definitions_loaded_after_a_call_are_seen():
    elab = load_sources([("f", "f : Nat -> Nat\nf x = x * 2\n")])
    assert call(elab.env, "f", [4]) == 8
    elab.load_source("g : Nat -> Nat\ng x = f x + 1\n", "g")
    assert call(elab.env, "g", [4]) == 9
    assert call(elab.env, "f", [5]) == 10


def test_no_matching_clause_aborts():
    elab = load_sources([("h", "h : Nat -> Nat\nh 0 = 1\n"
                               "h (suc (suc (suc (suc n)))) = n\n"
                               "g : Nat -> Nat\ng x = h x\n")])
    assert call(elab.env, "h", [0]) == 1 and call(elab.env, "g", [5]) == 1
    assert _error(elab.env, "h", [3]) == "h: no clause matches [3]"
    assert _error(elab.env, "g", [3]) == "h: no clause matches [3]"
    # a suc pattern matches naturals only
    assert _error(elab.env, "h", [2.5]) == "h: no clause matches [2.5]"


def test_type_arguments_evaluate_to_placeholders():
    # a hidden argument solved to a function type, or to the unknown type
    # of a let-bound constructor, is computed like any other argument
    e = load_sources([("m", """
id : {X : Set} -> X -> X
id x = x
g : (Nat -> Nat) -> Nat
g h = id h 3
f : Nat -> Nat
f n = let v = yes in let w = id v in n
""")])
    assert isinstance(e.env.lookup("g").payload.clauses[0].body.args[0].value, Pi)
    assert call(e.env, "g", [lambda x: x + 1]) == 4
    assert call(e.env, "f", [4]) == 4


def test_running_out_of_stack_aborts():
    e = load_sources([("loop", "loop : Nat -> Nat\nloop n = loop (suc n)\n")])
    assert _error(e.env, "loop", [0]) == "recursion depth"
    assert eval_closed(Def("loop", (vis(Lit(0)),)), e.env) == \
        Aborted("recursion depth")


def test_compiled_code_lives_as_long_as_its_env():
    env = load_sources([("ack", corpus.ACK)]).env
    assert call(env, "ack", [2, 2]) == 7
    compiled = env.compiled
    assert call(env, "ack", [1, 1]) == 3 and env.compiled is compiled
    env_ref, code_ref = weakref.ref(env), weakref.ref(compiled)
    gc.disable()
    try:
        # both go by reference counting alone, recursive code included
        del env, compiled
        assert env_ref() is None and code_ref() is None
    finally:
        gc.enable()


# avgpool, a prelude Function, halves a 2×2 array to its mean
POOL_ARGS = [(1, 1), varr((2, 2), [1.0, 2.0, 3.0, 4.0])]
POOL = varr((1, 1), [2.5])
TWICE = "twice : Nat -> Nat\ntwice n = n + n\n"


def test_clones_share_the_prelude_code_and_stage_their_own():
    a, b = (load_sources([("t", TWICE)]).env for _ in range(2))
    for env in (a, b):
        assert call(env, "avgpool", POOL_ARGS) == POOL
        assert call(env, "twice", [4]) == 8
    pool, twice = (a.compiled.fun(n) for n in ("avgpool", "twice"))
    assert b.compiled.fun("avgpool") is pool
    assert b.compiled.fun("twice") is not twice
    # a prelude Function runs in the snapshot's namespace, the clone's own
    # in the clone's
    assert pool.__globals__ is a.base.compiled.ns is b.compiled.base.ns
    assert twice.__globals__ is a.compiled.ns


def test_a_seed_env_stages_everything_itself():
    env = seed_env()
    assert env.base is None
    assert call(env, "prodv", [2, (3, 4)]) == 12
    code = env.compiled
    assert code.base is None and code.fun("prodv").__globals__ is code.ns


def test_the_shared_prelude_code_outlives_each_clone():
    env = load_prelude().env
    assert call(env, "avgpool", POOL_ARGS) == POOL
    env_ref, code_ref = weakref.ref(env), weakref.ref(env.compiled)
    del env
    assert env_ref() is None and code_ref() is None
    assert call(load_prelude().env, "avgpool", POOL_ARGS) == POOL


def _frames_left(n: int, f):
    """f(), called with n frames of the stack left."""
    def room(k):
        try:
            return room(k + 1)
        except RecursionError:
            return k

    def down(k):
        return f() if k <= 0 else down(k - 1)
    return down(room(0) - n)


def test_a_prelude_function_staged_out_of_stack_aborts_and_stays_usable(monkeypatch):
    aborted = 0
    for n in range(10, 50):
        # a snapshot of its own, so that avgpool is first staged here
        monkeypatch.setattr(loader, "_prelude_snapshot",
                            cache(loader._prelude_snapshot.__wrapped__))
        env = load_prelude().env
        out = _frames_left(n, lambda: call(env, "avgpool", POOL_ARGS))
        assert out in (POOL, Aborted("recursion depth"))
        aborted += out != POOL
        assert call(env, "avgpool", POOL_ARGS) == POOL
        assert call(load_prelude().env, "avgpool", POOL_ARGS) == POOL
    assert aborted


def test_expf_overflows_to_infinity():
    env = seed_env()
    assert call(env, "expf", [1000.0]) == float("inf")
    assert call(env, "expf", [0.0]) == 1.0


def test_ack_3_6_runs_at_the_default_recursion_limit():
    # about 510 calls deep: one Python frame per ESL call
    e = load_sources([("ack", corpus.ACK)])
    text = kompile("ack", [], [], KaleidBackend(), e.env, e.rules)
    assert call(e.env, "ack", [3, 6]) == interp_kaleid(text, "ack", [3, 6]) \
        == corpus.oracle_ack(3, 6)


def _nested_sum(depth: int, leaf):
    t = leaf
    for _ in range(depth):
        t = Def("_+_", (vis(Lit(1)), vis(t)))
    return t


def test_deeply_nested_terms_evaluate():
    env = seed_env()
    cl = Clause((("x", vis(Def("Nat"))),), (vis(PVar(0)),),
                _nested_sum(300, Var(0)))
    env.add(Definition("deep", Pi(vis(Def("Nat")), Abs("x", Def("Nat"))),
                       Function([cl])))
    assert call(env, "deep", [5]) == 305
    assert eval_closed(_nested_sum(300, Lit(0)), env) == 300


def test_staged_code_reads_primitives_from_prims(monkeypatch):
    e = load_sources([("sh", corpus.SHARING)])
    plus = PRIMS["_+_"]
    # the code is staged on the first call, after the table changed
    monkeypatch.setitem(PRIMS, "_+_", replace(plus, fn=lambda a, b: a * b))
    assert call(e.env, "ex8", [3]) == (9 * 3 * 3 * 5) ** 2
    assert call(e.env, "_+_", [4, 5]) == 20


# sha256 of the source evaluator's values on the first ten sampler draws
# (seed 0) of each corpus entry, one repr a line
VALUES = {
    "log2": "447a4b7f345bdffbbc99e0a742311814578482463983be29beeee6f0c1a9b3bc",
    "ack": "d0503f847fffbeeaeb6e1b04b0a403151afc6cc85d51a5079858f906b1fbce1f",
    "ex7": "1e09f427d88a7cd64b7fc515d5f44c0d2b708defb4897300df3eb135ffd1423b",
    "fib": "6469672ecfcd86aeff64f871b31a98f98bb260534d4c030f194da06a8dfd1bd5",
    "logistic": "4352e422bc0bc377705e53a5711383ee9cdde5792ba968bfcc09584e9cd261cd",
    "meansqerr": "c5e251209ad623a3db7c9b0d0bdf97236b1d8c4913fa63b1c85ab07f4c3c5753",
    "backavgpool": "dd62890e883e00fa837386e9898d33c07d43a5b91686e995ae04cfe139a6e5ea",
    "avgpool": "8fef012797ac5709b436bb46749ead548795fe143f8dc1eb2a12f2143f0fafa1",
    "fuse2": "e75186672adf5bb0bfa7dbf7c7581167387d2661d18c4f2d0b95e17f8dbdba55",
    "matmul": "f2e7eab9c679a2a8ade899941db8ff3049168a56aa20341481eee6ef72005b18",
    "rotate": "029d53bcf160c6e3facd33448e6819534780fbee6b08f4b8d9a94b23102f87db",
}


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_values_on_the_corpus_samplers_are_unchanged(name):
    entry = corpus.CORPUS[name]
    env = load_sources(entry.sources).env
    rng = random.Random(0)
    values = [repr(call(env, entry.entry, entry.sampler(rng)[0]))
              for _ in range(10)]
    digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
    assert digest == VALUES[name], values


# sha256 of the target arguments of the first ten sampler draws (seed 0)
# of each corpus entry, one draw a line: each array's dtype, shape and
# bytes, and each scalar's repr
TARGET_ARGS = {
    "log2": "14aa3b824677a8174cf59e321902b4c2d2efb25ba84f81b78e08f6530025dc27",
    "ack": "1900f006f9208e143df86123be35ecda15a22af922f85a322805f23309fc6954",
    "ex7": "35b8cf3f4a4768c6b101700f7b55a2ec5e5e76f08aea74d768ab21ff6e13b04e",
    "fib": "909656a833948ae18600cba9cc31ade3601b39dcf5e049a77a4a912941f3e4d3",
    "logistic": "1295addf39aeb39de0c18bbd2f4cea8ac526998670df9b2a0e12337c01011b2b",
    "meansqerr": "2e8550e87f74f7cb8a212e7e8944b4e2e1f36911597286c6f891bdcdc3af6ee6",
    "backavgpool": "e91857b429bfc0f56c9296d7a7443b4c2456314a2ed783daba5626db8502d624",
    "avgpool": "d2ed73c85d544ccc3ce8d259982554c55ccf18440848e77f7d63574963032b22",
    "fuse2": "0bfac332b573fedc555b230a021f632a52140f9a1dbb772d9f37c4a36c19c174",
    "matmul": "ece1f9a11aa730728c2876fb3e4844acb2f1e4161a95c6b87f0e64be98bd61ec",
    "rotate": "efefa0b9319993f3463abc2889e7258467709d57859197827037de265dbdacee",
}


def _target_arg(a) -> str:
    if isinstance(a, np.ndarray):
        return f"{a.dtype} {a.shape} {a.tobytes().hex()}"
    return repr(a)


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_target_arguments_on_the_corpus_samplers_are_unchanged(name):
    rng = random.Random(0)
    lines = [" ".join(map(_target_arg, corpus.CORPUS[name].sampler(rng)[1]))
             for _ in range(10)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TARGET_ARGS[name], lines


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_to_target_converts_only_arrays_and_sequences(name):
    # a source value other than a tuple is already the targets' value; a
    # tuple, an array or a sequence, becomes a numpy array
    entry = corpus.CORPUS[name]
    env = load_sources(entry.sources).env
    rng = random.Random(0)
    values = []
    for _ in range(10):
        args = entry.draw(rng)
        values += [*args, call(env, entry.entry, args)]
    for v in values:
        if type(v) is tuple:
            assert isinstance(to_target(v), np.ndarray), v
        else:
            assert to_target(v) is v, v


def _ixc_of_shape(n):
    ix = Con("icons", (vis(Lit(2)), vis(Con("inil"))))
    return Def("ixc", (hid(Lit(1)), hid(Con("vcons", (vis(n), vis(Con("vnil"))))),
                       vis(Lit(0)), vis(ix)))


def test_unread_hidden_arguments_that_cannot_fail_are_not_computed(monkeypatch):
    seen, fn = [], PRIMS["ixc"].fn

    def ixc(d, s, k, i):
        seen.append((d, s))
        return fn(d, s, k, i)
    env = seed_env()
    monkeypatch.setitem(PRIMS, "ixc", replace(PRIMS["ixc"], fn=ixc))
    n = Def("_+_", (vis(Lit(1)), vis(Def("_*_", (vis(Var(0)), vis(Lit(2)))))))
    assert eval_closed(Let(Lit(1), Abs("x", _ixc_of_shape(n))), env) == 2
    assert seen == [(None, None)]


def test_hidden_arguments_that_could_fail_are_computed():
    # a division and a Function call may fail, so they are computed even
    # where the primitive never reads them
    env = seed_env()
    env.add(Definition("stop", Pi(vis(Def("Nat")), Abs("n", Def("Nat"))),
                       Function([Clause((), (vis(PCon("zero")),), Lit(0))])))
    for n, why in [(Def("_/_", (vis(Lit(3)), vis(Lit(0)))), "division by zero"),
                   (Def("stop", (vis(Lit(1)),)), "stop: no clause matches [1]")]:
        assert eval_closed(_ixc_of_shape(n), env) == Aborted(why)
