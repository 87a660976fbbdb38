"""Parser and elaborator behaviour, including the broadcast table and
evaluation of the loaded corpus against direct oracles."""

import math

import pytest

from eslc import corpus
from eslc import evaluate
from eslc.broadcast import ShapeMismatch, resolve_dyargs
from eslc.elaborate import (ScopeError, UnprovenConstraint, UnsupportedType)
from eslc.evaluate import call, varr, vvec
from eslc.ir import Con, Lit, vis
from eslc.loader import load_prelude, load_sources
from eslc.parser import SyntaxErrorAt, parse


def test_parse_simple_function():
    m = parse("f : Nat -> Nat\nf x = x + x\n")
    assert len(m.decls) == 2


def test_parse_log2_shape():
    m = parse(corpus.LOG2)
    names = [d.name for d in m.decls if hasattr(d, "name")]
    assert names.count("log2'") == 4  # one signature, three clauses


def test_syntax_error_position():
    with pytest.raises(SyntaxErrorAt):
        parse("f : Nat -> Nat\nf x =\n")


def test_unknown_name_is_scope_error():
    with pytest.raises(ScopeError):
        load_sources([("t", "g : Nat -> Nat\ng x = nosuch x\n")])


def test_string_type_rejected():
    with pytest.raises(UnsupportedType):
        load_sources([("t", "s : Nat -> String\ns x = x\n")],
                     with_prelude=False)


def test_float_pattern_rejected_by_the_elaborator():
    with pytest.raises(UnsupportedType, match="float patterns"):
        load_sources([("t", "f : Float -> Float\nf 1.5 = 2.0\n")])


def test_higher_order_definitions_load_but_are_flagged():
    e = load_sources([("t", "twice : (Nat -> Nat) -> Nat -> Nat\n"
                            "twice f x = f (f x)\n")], with_prelude=False)
    assert e.def_meta["twice"].unsupported == "higher-order argument"


def test_clause_without_signature():
    with pytest.raises(ScopeError):
        load_sources([("t", "h x = x\n")], with_prelude=False)


def test_elaboration_is_deterministic():
    from eslc.ir import print_term
    dumps = []
    for _ in range(2):
        e = load_sources([("log2", corpus.LOG2)])
        d = e.env.lookup("log2'")
        dumps.append("\n".join(print_term(c.body) for c in d.payload.clauses))
    assert dumps[0] == dumps[1]


def test_fin_signature_accepted_and_obligation_discharged():
    e = load_sources([("ex", corpus.EX7)])
    assert e.def_meta["ex7"].unsupported is None
    # explicit hidden instantiation with a prf placeholder also works
    load_sources([("t", "e2 : (n : Nat) -> Fin (1 + n * n)\n"
                        "e2 n = fromN< {n * n} {1 + n * n} prf\n")])


def test_false_obligation_is_rejected_even_with_trust():
    src = "f : (a b : Nat) -> a < b\nf a b = prf\n"
    with pytest.raises(UnprovenConstraint):
        load_sources([("t", src)])
    with pytest.raises(UnprovenConstraint):
        load_sources([("t", "{-# TRUST f #-}\n" + src)])


def test_ground_false_obligation_is_false_not_undecided():
    with pytest.raises(UnprovenConstraint, match="vector index in bounds is false"):
        load_sources([("t", "w : Vec Nat 2 -> Nat\nw v = vidx 2 v\n")])
    # TRUST defers only what the decider cannot answer
    with pytest.raises(UnprovenConstraint, match="nonzero divisor in _/_ is false"):
        load_sources([("t", "{-# TRUST w #-}\nw : Nat\nw = 7 / 0\n")])


def test_vtake_owes_a_prefix_within_the_length():
    with pytest.raises(UnprovenConstraint, match="is false$"):
        load_sources([("t", "w : Vec Nat 2 -> Vec Nat 5\nw v = vtake 5 v\n")])
    with pytest.raises(UnprovenConstraint, match="counterexample"):
        load_sources([("t", "w : {n : Nat} -> Vec Nat n -> Vec Nat (suc n)\n"
                            "w {n} v = vtake (suc n) v\n")])
    e = load_sources([("t", "w : Vec Nat 3 -> Vec Nat 2\nw v = vtake 2 v\n")])
    assert call(e.env, "w", [vvec((4, 5, 6))]) == vvec((4, 5))


def test_a_container_literal_cons_takes_a_head_and_a_tail():
    for src in ["f : Vec Nat 1\nf = _∷_ 1\n",
                "f : Ix 1 (3 ∷ [])\nf = _∷_ 1\n",
                "f : Vec Nat 0\nf = _∷_\n"]:
        with pytest.raises(UnsupportedType, match="a head and a tail"):
            load_sources([("t", src)])


def test_unknown_obligation_needs_trust():
    # true for every natural, but out of reach for the linear decider
    src = "f : (a : Nat) -> a < a * a + 1\nf a = prf\n"
    with pytest.raises(UnprovenConstraint):
        load_sources([("t", src)])
    e = load_sources([("t", "{-# TRUST f #-}\n" + src)])
    assert e.def_meta["f"].trusted_obligations


def test_log2_evaluates():
    e = load_sources([("log2", corpus.LOG2)])
    for n in range(1, 300):
        assert call(e.env, "log2", [n]) == int(math.log2(n))
    assert call(e.env, "log2", [0]) == 0


def test_ack_evaluates():
    e = load_sources([("ack", corpus.ACK)])

    def ack(m, n):
        if m == 0:
            return n + 1
        if n == 0:
            return ack(m - 1, 1)
        return ack(m - 1, ack(m, n - 1))

    for m in range(3):
        for n in range(5):
            assert call(e.env, "ack", [m, n]) == ack(m, n)


def test_cnn_corpus_evaluates():
    e = load_prelude()
    w = varr((2, 2), [0.0, 1.0, -1.0, 2.0])
    out = call(e.env, "logistic", [2, vvec((2, 2)), w])
    expect = [1.0 / (1.0 + math.exp(-x)) for x in [0.0, 1.0, -1.0, 2.0]]
    assert out[0] == "arr" and out[1] == (2, 2)
    assert all(abs(a - b) < 1e-12 for a, b in zip(out[2], expect))

    a = varr((3,), [3.0, 1.0, 2.0])
    b = varr((3,), [1.0, 1.0, 0.0])
    mse = call(e.env, "meansqerr", [1, vvec((3,)), a, b])
    assert abs(mse - (4.0 + 0.0 + 4.0) / 2.0) < 1e-12

    one = varr((1, 1), [4.0])
    back = call(e.env, "backavgpool", [vvec((1, 1)), one])
    assert back[1] == (2, 2) and all(x == 1.0 for x in back[2])

    four = varr((4, 4), [float(i + 1) for i in range(16)])
    pooled = call(e.env, "avgpool", [vvec((2, 2)), four])
    assert pooled[1] == (2, 2)
    assert pooled[2] == [3.5, 5.5, 11.5, 13.5]


def test_avgpool_backavgpool_shapes_roundtrip():
    import random
    e = load_prelude()
    rng = random.Random(5)
    for _ in range(5):
        h, w = rng.randrange(1, 5), rng.randrange(1, 5)
        data = [rng.uniform(-2, 2) for _ in range(h * w)]
        back = call(e.env, "backavgpool", [vvec((h, w)), varr((h, w), data)])
        again = call(e.env, "avgpool", [vvec((h, w)), back])
        assert again[1] == (h, w)


def test_broadcast_table():
    e = load_sources([("b", corpus.BROADCAST)])
    assert call(e.env, "bvv", [])[2] == [2, 4, 6]
    assert call(e.env, "bvs", [])[2] == [2, 3, 4]
    assert call(e.env, "bsv", [])[2] == [2, 3, 4]
    with pytest.raises(ShapeMismatch):
        load_sources([("bad", corpus.BROADCAST_BAD)])


def test_nega_is_zero_minus_and_lifted_unaries_take_floats():
    sig = "{d : Nat} -> {s : Vec Nat d} -> Ar Float d s -> Ar Float d s"
    e = load_sources([("n", f"neg : {sig}\nneg w = nega w\n"
                            f"sub : {sig}\nsub w = 0.0 -a w\n"
                            "negs : Float -> Float\nnegs x = nega x\n"
                            "subs : Float -> Float\nsubs x = 0.0 -f x\n")])
    for a, b in [("neg", "sub"), ("negs", "subs")]:
        assert e.env.lookup(a).payload.clauses[0].body == \
            e.env.lookup(b).payload.clauses[0].body
    for op in ("nega", "expa"):
        with pytest.raises(ShapeMismatch):
            load_sources([("bad", f"w : Nat -> Nat\nw x = {op} x\n")])


def test_resolver_is_total_on_rank0_combinations():
    z = Lit(0)
    one = Lit(1)
    sh = Con("vcons", (vis(Lit(3)), vis(Con("vnil"))))
    empty = Con("vnil")
    assert resolve_dyargs(z, empty, z, empty) == "NN"
    assert resolve_dyargs(None, None, None, None) == "NN"
    assert resolve_dyargs(one, sh, z, empty) == "N0"
    assert resolve_dyargs(z, empty, one, sh) == "0N"
    assert resolve_dyargs(one, sh, one, sh) == "NN"


def test_rotation_inverse_law():
    import random
    e = load_prelude()
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 9)
        x = rng.randrange(0, 12)
        data = [rng.uniform(-5, 5) for _ in range(n)]
        rolled = call(e.env, "rotl", [n, x, varr((n,), data)])
        back = call(e.env, "rotr", [n, x, rolled])
        assert back[2] == data


def test_matmul_identity():
    e = load_prelude()
    ident = varr((2, 2), [1, 0, 0, 1])
    a = varr((2, 2), [5, 6, 7, 8])
    out = call(e.env, "matmul", [2, 2, 2, ident, a])
    assert out[2] == [5, 6, 7, 8]


def test_iota_and_each():
    e = load_prelude()
    arr = varr((3,), [10, 20, 30])
    out = call(e.env, "each",
               [("type",), ("type",), 1, vvec((3,)),
                evaluate.Eval(e.env).apply_def("suc", []), arr])
    assert out[2] == [11, 21, 31]
    ix = call(e.env, "iota", [2, vvec((2, 2))])
    assert ix[1] == (2, 2) and ix[2][3] == ("ix", (1, 1))


def test_lifted_add_commutes_on_equal_shapes():
    import random
    src = ("addc : {d : Nat} -> {s : Vec Nat d} -> "
           "Ar Nat d s -> Ar Nat d s -> Ar Nat d s\n"
           "addc a b = a +a b\n")
    e = load_sources([("t", src)])
    rng = random.Random(2)
    for _ in range(25):
        shape = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 3)))
        n = 1
        for s in shape:
            n *= s
        a = varr(shape, [rng.randrange(0, 50) for _ in range(n)])
        b = varr(shape, [rng.randrange(0, 50) for _ in range(n)])
        ab = call(e.env, "addc", [len(shape), vvec(shape), a, b])
        ba = call(e.env, "addc", [len(shape), vvec(shape), b, a])
        assert ab == ba
