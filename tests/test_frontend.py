"""Parser and elaborator behaviour, including the broadcast table and
evaluation of the loaded corpus against direct oracles."""

import hashlib
import math
from pathlib import Path

import pytest

from eslc import corpus, loader
from eslc.broadcast import ShapeMismatch, resolve_dyargs
from eslc.elaborate import (ScopeError, UnprovenConstraint, UnsupportedType,
                            _show)
from eslc.evaluate import call, varr, vvec
from eslc.ir import Arg, Con, EslError, Lit, PVar, Var, vis
from eslc.loader import load_prelude, load_sources
from eslc.parser import SyntaxErrorAt, parse

ROOT = Path(__file__).resolve().parents[1]


def test_parse_simple_function():
    m = parse("f : Nat -> Nat\nf x = x + x\n")
    assert len(m.decls) == 2


def test_parse_log2_shape():
    m = parse(corpus.LOG2)
    names = [d.name for d in m.decls if hasattr(d, "name")]
    assert names.count("log2'") == 4  # one signature, three clauses


def test_syntax_error_position():
    for src, msg in [
            ("f : Nat -> Nat\nf x =\n", "2:4: unexpected end of declaration"),
            ("f : Nat -> Nat\nf x = x )\n", "2:8: unexpected trailing ')'"),
            ("f : Nat\n  -> Nat\nf in = 1\n", "3:2: unexpected 'in' in pattern"),
            ("= x\n", "1:0: declaration cannot start with '='"),
            ("f : (x : Nat) Nat\n", "1:14: binder group must be followed by ->"),
            ("g : Nat\ng = \\(i ∷ j) -> i\n", "2:11: expected '∷', found ')'"),
            ("h : Nat -> Nat\nh {} = 1\n", "2:3: empty hidden pattern"),
            ("f : Nat -> Nat\nf x = x -- c\n  + let\n",
             "3:4: unexpected end of declaration"),
            ("{-# REWRITE r\n", "1:0: unterminated pragma"),
            ("  f : Nat\n", "1:0: continuation line with no declaration"),
            ("f : Nat -> Nat\nf x\n", "2:0: clause lacks '=' and a body"),
            ("f : Nat -> Nat\nf x = ->\n", "2:6: unexpected '->'"),
            # an absurd or empty pattern nests in no other pattern
            ("f : Nat -> Nat\nf (suc ()) = 1\n", "2:8: unexpected ')' in pattern"),
            ("f : Nat -> Nat\nf (suc {}) = 1\n", "2:8: unexpected '}' in pattern"),
            ("infixl _plus_\n", "1:0: malformed fixity declaration"),
            ("infixl x _plus_\n", "1:0: malformed fixity declaration"),
            ("infixr 6 plus\n", "1:0: fixity declares names of the form _op_")]:
        with pytest.raises(SyntaxErrorAt) as ex:
            parse(src)
        assert str(ex.value) == msg, src


def test_patterns_nest_in_parentheses_and_braces():
    clause = parse("f : Nat -> Nat\nf ((x)) (suc (suc n)) (g {m} i) = x\n").decls[1]
    assert [(p.kind, p.name, [(a.name, h) for a, h in p.args])
            for p, _ in clause.pats] == [
        ("var", "x", []), ("con", "suc", [("suc", False)]),
        ("con", "g", [("m", True), ("i", False)])]
    assert clause.pats[1][0].args[0][0].args[0][0].name == "n"


def test_fixity_declarations_set_associativity_and_level():
    ops = "_plus_ : Nat -> Nat -> Nat\n_plus_ x y = x + y\nf : Nat -> Nat\n"
    for fixity, body in [("infixl", "((x plus 2) plus 3)"),
                         ("infixr", "(x plus (2 plus 3))")]:
        m = parse(f"{fixity} 6 _plus_\n{ops}f x = x plus 2 plus 3\n")
        assert (m.decls[0].assoc, m.decls[0].level) == \
            ({"infixl": "left", "infixr": "right"}[fixity], 6)
        assert _show(m.decls[-1].body) == body
    # level 6 binds looser than *, at level 7
    m = parse(f"infixl 6 _plus_\n{ops}f x = x plus 2 * x\n")
    assert _show(m.decls[-1].body) == "(x plus (2 * x))"


def test_lines_inside_a_declaration_are_counted_as_in_the_text():
    # a blank or comment-only line inside a declaration still counts
    src = "f : Nat -> Nat\nf x =\n\n  -- c\n  x\n"
    body = parse(src).decls[1].body
    assert (body.name, body.line) == ("x", 5)
    with pytest.raises(SyntaxErrorAt) as ex:
        parse("f : Nat -> Nat\nf x = x\n\n  y = 1\n")
    assert str(ex.value) == "4:4: unexpected trailing '='"


def test_parse_trees_are_unchanged():
    # sha256 of the repr of every shipped source's parse tree, the line
    # numbers its names and declarations carry included
    texts = [(f"prelude/{m}", loader.prelude_text(m)) for m in loader.PRELUDE_MODULES]
    for entry in corpus.CORPUS.values():
        texts += entry.sources
    texts += [(p.name, p.read_text("utf-8"))
              for p in sorted((ROOT / "examples/esl").glob("*.esl"))]
    trees = repr([parse(text, path) for path, text in texts])
    assert hashlib.sha256(trees.encode("utf-8")).hexdigest() == \
        "6a3b5e307580018f20156f02d88794f00f9a0b7d900e86098e00331d72ccc55d"


def test_unknown_name_is_scope_error():
    with pytest.raises(ScopeError):
        load_sources([("t", "g : Nat -> Nat\ng x = nosuch x\n")])


def test_string_type_rejected():
    with pytest.raises(ScopeError, match="unknown name String"):
        load_sources([("t", "s : Nat -> String\ns x = x\n")],
                     with_prelude=False)


def test_float_pattern_rejected_by_the_elaborator():
    with pytest.raises(UnsupportedType, match="float patterns"):
        load_sources([("t", "f : Float -> Float\nf 1.5 = 2.0\n")])


def test_a_bare_constructor_is_checked_against_its_type():
    for src, con, ty in [("bad : Nat\nbad = imap\n", "imap", "Nat"),
                         ("f : Float -> Float\nf x = fzero\n", "fzero", "Float"),
                         ("d : Nat -> Nat\nd n = yes\n", "yes", "Nat")]:
        with pytest.raises(UnsupportedType,
                           match=f"constructor {con} checked against .*{ty}"):
            load_sources([("t", src)])


def test_a_bare_constructor_with_visible_arguments_needs_a_function_type():
    for src, con, ty in [("a : Ar Float 1 (3 ∷ [])\na = imap\n", "imap", "Ar"),
                         ("n : Nat\nn = suc\n", "suc", "Nat"),
                         ("i : Fin 3\ni = fsuc\n", "fsuc", "Fin"),
                         ("v : Vec Nat 1\nv = vcons\n", "vcons", "Vec")]:
        with pytest.raises(UnsupportedType,
                           match=f"constructor {con} checked against .*{ty}"):
            load_sources([("t", src)])


def test_a_bare_constructor_of_its_own_type_checks_the_indices():
    e = load_sources([("t", "v0 : Vec Nat 0\nv0 = vnil\n"
                            "i0 : Ix 0 []\ni0 = inil\n"
                            "h : (n : Nat) -> Fin (suc n)\nh n = fzero\n")])
    assert [e.env.lookup(n).payload.clauses[0].body for n in ("v0", "i0", "h")] \
        == [Con("vnil"), Con("inil"), Con("fzero")]
    with pytest.raises(UnsupportedType, match="shorter than its type"):
        load_sources([("t", "v : Vec Nat 2\nv = vnil\n")])
    with pytest.raises(UnsupportedType, match="shorter than its type"):
        load_sources([("t", "i : Ix 1 (3 ∷ [])\ni = inil\n")])
    with pytest.raises(UnprovenConstraint, match="counterexample {'n#0': 0}"):
        load_sources([("t", "g : (n : Nat) -> Fin n\ng n = fzero\n")])


def test_a_bare_constructor_of_a_function_type_is_eta_expanded():
    # mk is \x -> imap x, so imap's hidden arguments are inferred, and the
    # clause takes x as a pattern: mk x = imap x
    import numpy as np
    from eslc.extract import kompile
    from eslc.harness import compare
    from eslc.sac import SacBackend
    from eslc.sacinterp import interp_sac
    src = ("mk : (Ix 1 (3 ∷ []) -> Float) -> Ar Float 1 (3 ∷ [])\n"
           "mk = imap\n"
           "w : Float -> Ar Float 1 (3 ∷ [])\n"
           "w x = mk (\\iv -> x)\n")
    e = load_sources([("t", src)])
    (cl,) = e.env.lookup("mk").payload.clauses
    assert cl.patterns == (Arg(PVar(0)),)
    assert [a.hidden for a in cl.body.args] == [True] * 3 + [False]
    assert cl.body.args[-1].value == Var(0)
    text = kompile("w", [], [], SacBackend(), e.env, e.rules)
    for x in (0.5, -2.0):
        want = np.full(3, x)
        assert compare(call(e.env, "w", [x]), want)
        assert compare(interp_sac(text, "w", [x]), want)


def test_higher_order_definitions_load_but_do_not_extract():
    from eslc.extract import ExtractError, kompile
    from eslc.kaleid import KaleidBackend
    from eslc.sac import SacBackend
    e = load_sources([("t", "twice : (Nat -> Nat) -> Nat -> Nat\n"
                            "twice f x = f (f x)\n")], with_prelude=False)
    assert len(e.env.lookup("twice").payload.clauses) == 1
    for backend in (KaleidBackend(), SacBackend()):
        with pytest.raises(ExtractError, match="^twice: unsupported type at "
                           "x_1: higher-order argument$"):
            kompile("twice", [], [], backend, e.env, e.rules)


N2N = "f : Nat -> Nat\n"


@pytest.mark.parametrize("src, error, message", [
    ("f : Nat\nf : Nat\n", EslError, "duplicate signature for f"),
    (N2N, EslError, "f: signature without clauses"),
    ("r : Nat -> Nat\nr x = x\n{-# REWRITE r #-}\n", EslError,
     "REWRITE r: signature must end in an equality"),
    (N2N + "f x = let g = \\y -> y in x\n", UnprovenConstraint,
     "cannot infer a type for a bare lambda; add an annotation"),
    (N2N + "f x = (\\(i ∷ []) -> i) x\n", UnsupportedType,
     "cannot apply (\\(i ∷ []) -> i)"),
    (N2N + "f x = let p = prf in x\n", UnprovenConstraint,
     "prf needs an expected proposition type"),
    (N2N + "f x = prf\n", UnprovenConstraint, "not a decidable proposition: "),
    (N2N + "f x = let v = [] in x\n", UnprovenConstraint,
     "[] needs an expected container type; annotate the use"),
    (N2N + "f x = \\y -> y\n", UnsupportedType,
     "lambda checked against non-function type"),
    (N2N + "f x = imap (\\i -> x)\n", UnsupportedType,
     "imap checked against a non-array type"),
    (N2N + "f x = let a = imap (\\i -> x) in x\n", UnprovenConstraint,
     "imap needs an expected array type"),
    ("f : Nat -> Nat\nf = \\(i ∷ []) -> i\n", UnsupportedType,
     "pattern lambda requires an index-typed domain"),
    ("f : Ix 2 (3 ∷ 4 ∷ []) -> Nat\nf = \\(i ∷ []) -> i\n", UnsupportedType,
     "index pattern has 1 components but rank is "),
    (N2N + "f x = x ∷ []\n", UnsupportedType, "container literal against "),
    ("f : Vec Nat 1\nf = 1 ∷ 2 ∷ []\n", UnsupportedType,
     "container literal is longer than its type allows "),
    (N2N + "f x = let v = yes x in x\n", UnprovenConstraint,
     "cannot infer argument types for yes"),
    ("g : Nat -> Nat\ng x = x\n" + N2N + "f x = g x x\n", EslError,
     "g: too many arguments"),
    (N2N + "f x = let w = yes +a yes in x\n", UnprovenConstraint,
     "cannot classify operand yes"),
    ("f : Float -> Float\nf x = expa x x\n", EslError, "expa expects 1 operand(s)"),
    ("f : Nat -> Float\nf x = x\n", UnsupportedType, "type mismatch: "),
    ("g : Vec Nat 3 -> Nat\ng v = 0\nf : Vec Nat 2 -> Nat\nf v = g v\n",
     UnsupportedType, "type mismatch: "),
    ("g : (n : Nat) -> Vec Nat (suc n) -> Nat\ng n v = 0\n"
     "f : Vec Nat 2 -> Nat\nf v = g 5 v\n", UnsupportedType, "type mismatch: "),
    ("g : Vec Nat 2 -> Nat\ng v = 0\nf : (n : Nat) -> Vec Nat (suc n) -> Nat\n"
     "f n v = g v\n", UnsupportedType, "type mismatch: "),
    ("f : Ix 2 (3 ∷ 4 ∷ []) -> Nat\nf i = 0\ng : Ix 1 (4 ∷ []) -> Nat\n"
     "g j = f (0 ∷ j)\n", UnsupportedType, "index expressions must be literal spines"),
    ("app : (Nat -> Nat) -> Nat\napp h = h 1\ng : Float -> Nat\ng x = 1\n"
     + N2N + "f x = app g\n", UnsupportedType, "type mismatch: "),
    ("app : (Nat -> Nat) -> Nat\napp h = h 1\ng : {n : Nat} -> Nat -> Nat\n"
     "g x = 1\n" + N2N + "f x = app g\n", UnprovenConstraint,
     "unresolved hidden arguments in (app g)"),
    (N2N + "f {x} = x\n", EslError,
     "line 2: pattern visibility does not match signature"),
    (N2N + "f x y = x\n", EslError, "line 2: too many patterns for f"),
    ("f : Float -> Nat\nf 0 = 1\n", UnsupportedType, "line 2: literal pattern at "),
    (N2N + "f [] = 0\n", UnsupportedType, "line 2: container pattern at "),
    (N2N + "f (suc x y) = x\n", EslError, "line 2: suc takes one pattern"),
    ("f : (n : Nat) -> Fin n -> Nat\nf n (fsuc {m} i) = m\n", EslError,
     "line 2: fsuc takes one pattern"),
    (N2N + "f (fsuc x) = x\n", UnsupportedType, "line 2: fsuc pattern at "),
    (N2N + "f (imap g) = 0\n", UnsupportedType, "line 2: imap pattern at "),
    ("f : Ar Nat 1 (3 ∷ []) -> Nat\nf (imap 0) = 0\n", UnsupportedType,
     "line 2: imap takes a variable pattern"),
    (N2N + "f (foo x) = 0\n", UnsupportedType, "line 2: unsupported pattern head foo"),
    ("f : Vec Nat 2 -> Nat\nf [] = 0\n", UnsupportedType, "line 2: [] pattern at length "),
    ("f : (n : Nat) -> Vec Nat n -> Nat\nf n (x ∷ xs) = x\n", UnsupportedType,
     "line 2: cons pattern needs a known vector length"),
])
def test_elaboration_errors(src, error, message):
    # a message that ends in core IR is matched on its start only
    with pytest.raises(error) as ex:
        load_sources([("t", src)])
    assert type(ex.value) is error and str(ex.value).startswith(message)


def test_elaboration_corners():
    # a constructor named as a value (zero), an application of an
    # application, arithmetic equality of lengths, a hidden proof
    # argument, a type given for Set, a let whose type mentions the
    # variable it binds, and a let of a function applied to a clause's
    # missing pattern
    e = load_sources([("t", corpus.EX7 + """
g : Nat -> Nat -> Nat
g x y = x
f : Nat -> Nat
f x = let z = zero in (g x) z
len' : (a b : Nat) -> Vec Nat (b + a) -> Nat
len' a b v = a
h : (a b : Nat) -> Vec Nat (a + b) -> Nat
h a b v = len' a b v
lt : (a b : Nat) -> {p : a < b} -> Nat
lt a b = b - a
k : Set -> Nat
k X = 3
u : Nat -> Nat
u x = lt x (x + 1) + k Nat
w : Nat -> Nat
w x = let p = (let m = x in n<1+n m) in x
e : Nat -> Nat
e = let y = 2 in \\x -> x + y
""")])
    assert [call(e.env, name, [4]) for name in ("f", "u", "w", "e")] == [4, 4, 4, 6]


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
    load_sources([("ex", corpus.EX7)])
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


# each oracle on the target arguments of a sample, as the benchmark's
# oracle check applies it
ORACLES = {
    "log2": lambda a: corpus.oracle_log2(a[0]),
    "ack": lambda a: corpus.oracle_ack(a[0], a[1]),
    "logistic": lambda a: corpus.oracle_logistic(a[2]),
    "meansqerr": lambda a: corpus.oracle_meansqerr(a[2], a[3]),
    "backavgpool": lambda a: corpus.oracle_backavgpool(a[1]),
    "avgpool": lambda a: corpus.oracle_avgpool(a[1]),
}


@pytest.mark.parametrize("name", list(ORACLES))
def test_source_evaluator_agrees_with_the_corpus_oracles(name):
    import random
    import numpy as np
    from eslc.harness import to_target
    entry = corpus.CORPUS[name]
    env = load_sources(entry.sources).env
    rng = random.Random(3)
    for _ in range(20):
        ev_args, target_args = entry.sampler(rng)
        got, want = call(env, entry.entry, ev_args), ORACLES[name](target_args)
        if isinstance(want, int):
            assert type(got) is int and got == want, ev_args
            continue
        got, want = np.asarray(to_target(got), dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape and np.allclose(
            got, want, rtol=1e-9, atol=1e-12), ev_args


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


def test_lifted_operands_vectors_scalars_and_rank_zero_arrays():
    a3 = "Ar Float 1 (3 ∷ [])"
    e = load_sources([("b", f"""
vec : Vec Float 3 -> {a3} -> {a3}
vec v a = v +a a
scal : Float -> {a3} -> {a3}
scal x a = x +a a
rank0 : Ar Float 0 [] -> {a3} -> {a3}
rank0 x a = x +a a
""")])
    a = varr((3,), [1.0, 2.0, 4.0])
    assert call(e.env, "vec", [vvec((0.5, 0.25, 0.125)), a]) == \
        varr((3,), [1.5, 2.25, 4.125])
    assert call(e.env, "scal", [0.5, a]) == varr((3,), [1.5, 2.5, 4.5])
    assert call(e.env, "rank0", [varr((), [0.5]), a]) == varr((3,), [1.5, 2.5, 4.5])
    for src, message in [
            ("f : Fin 3 -> Ar Nat 1 (3 ∷ []) -> Ar Nat 1 (3 ∷ [])\nf x a = x +a a\n",
             "operand of type "),
            ("f : Vec (List Nat) 3 -> Vec (List Nat) 3\nf v = v +a v\n",
             "unsupported element type ")]:
        with pytest.raises(ShapeMismatch) as ex:
            load_sources([("bad", src)])
        assert str(ex.value).startswith(message)


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
    e = load_sources([("s", "s : Nat -> Nat\ns = suc\n")])
    arr = varr((3,), [10, 20, 30])
    out = call(e.env, "each",
               [("type",), ("type",), 1, vvec((3,)), call(e.env, "s", []), arr])
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
