"""Extraction driver: termination, determinism, call order, base-list
semantics, erasure, the runtime-check plan and its rendering, name
normalization and the naming of binders."""

import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from eslc import corpus, ir
from eslc.builtins import seed_env
from eslc.elaborate import UnsupportedType
from eslc.evaluate import call, varr, vvec
from eslc.extract import (KALEID_KEYWORDS, SAC_KEYWORDS, Check, ExtractError,
                          ExtractOptions, ExtractState, checks,
                          kaleid_final_pass, kompile, normalise_name,
                          sac_final_pass)
from eslc.harness import compare, run_signature_diff, target_args, to_target
from eslc.ir import (Clause, Con, Def, Definition, Function, Lit, PCon, PVar,
                     Var, hid, vis)
from eslc.kaleid import KaleidBackend, KCall, interp_kaleid, parse_kaleid
from eslc.loader import load_sources
from eslc.parser import RESERVED
from eslc.sac import Inhomogeneous, SacBackend, SCall, parse_sac
from eslc.sacinterp import interp_sac

from conftest import mk_pi

ROOT = Path(__file__).resolve().parents[1]


def _nat():
    return Def("Nat")


def _cyclic_env(n: int):
    env = seed_env()
    for i in range(n):
        j, k = (i * 7 + 1) % n, (i + 1) % n
        body = Def("_+_", (vis(Def(f"f{j}", (vis(Var(0)),))),
                           vis(Def(f"f{k}", (vis(Var(0)),)))))
        env.add(Definition(
            f"f{i}", mk_pi([("x", _nat(), False)], _nat()),
            Function([
                Clause((), (vis(PCon("zero")),), Lit(i % 3)),
                Clause((("x", vis(_nat())),),
                       (vis(PCon("suc", (vis(PVar(0)),))),), body),
            ])))
    return env


def test_framework_terminates_on_cyclic_graph():
    env = _cyclic_env(500)
    t0 = time.time()
    out = kompile("f0", [], [], KaleidBackend(), env)
    dt = time.time() - t0
    assert dt < 10.0, f"took {dt:.1f}s"
    assert out.count("def ") == 500  # every function exactly once


def test_closure_is_idempotent():
    env = _cyclic_env(40)
    a = kompile("f0", [], [], KaleidBackend(), env)
    b = kompile("f0", [], [], KaleidBackend(), env)
    assert a == b


def test_entry_comes_last_and_callees_first():
    src = ("g : Nat -> Nat\ng 0 = 1\ng (suc x) = x * x\n"
           "f : Nat -> Nat\nf x = g x\n")
    e = load_sources([("t", src)], with_prelude=False)
    out = kompile("f", [], [], KaleidBackend(), e.env, e.rules)
    assert out.index("def g") < out.index("def f")


def test_callees_of_signature_assertions_come_first():
    # g's assertion `x_2 < h (x_1)` calls h, which nothing else calls
    src = ("h : Nat -> Nat\nh 0 = 1\nh (suc n) = h n + 1\n"
           "g : (n m : Nat) -> m < h n -> Nat\ng 0 m p = m\ng (suc n) m p = n\n"
           "{-# TRUST main #-}\nmain : Nat -> Nat\nmain x = g x 0 prf\n")
    e = load_sources([("t", src)], with_prelude=False)
    out = kompile("main", [], [], KaleidBackend(), e.env, e.rules)
    assert "assert (x_2 < h (x_1))" in out
    assert out.index("def h") < out.index("def g") < out.index("def main")
    for x in range(4):
        assert interp_kaleid(out, "main", [x]) == call(e.env, "main", [x])


def test_no_assert_emits_no_callee_that_only_the_checks_call():
    # the same program as above: only g's dropped check calls h
    src = ("h : Nat -> Nat\nh 0 = 1\nh (suc n) = h n + 1\n"
           "g : (n m : Nat) -> m < h n -> Nat\ng 0 m p = m\ng (suc n) m p = n\n"
           "{-# TRUST main #-}\nmain : Nat -> Nat\nmain x = g x 0 prf\n")
    e = load_sources([("t", src)], with_prelude=False)
    out = kompile("main", [], [], KaleidBackend(), e.env, e.rules,
                  ExtractOptions(no_assert=True))
    assert "assert (x_2" not in out and "def h" not in out
    for x in range(4):
        assert interp_kaleid(out, "main", [x]) == call(e.env, "main", [x])
    # on SaC: h is called by f's check alone
    src = ("h : Vec Nat 2 -> Nat\nh (a ∷ b ∷ []) = a + b\n"
           "f : (v : Vec Nat 2) -> h v < 10 -> Nat\nf v p = vhd v\n")
    e = load_sources([("t", src)])
    full, bare = (kompile("f", [], [], SacBackend(), e.env, e.rules,
                          ExtractOptions(no_assert=na))
                  for na in (False, True))
    assert "assert (h (x_1) < 10);" in full and "int h(" in full
    assert "assert" not in bare and "int h(" not in bare
    for v in [(1, 2), (7, 9)]:
        args = [vvec(v), 1]
        assert interp_sac(bare, "f", target_args(e.env, "f", "sac")(args)) == \
            call(e.env, "f", args) == v[0]


def test_no_assert_still_refuses_what_the_target_lacks():
    e = load_sources([("t", "f : Float -> Float\nf x = x\n")])
    with pytest.raises(ExtractError, match="no floats"):
        kompile("f", [], [], KaleidBackend(), e.env, e.rules,
                ExtractOptions(no_assert=True))


def test_a_backend_refusal_names_its_function_and_keeps_its_class():
    # the callee is refused, not the entry that calls it: SaC has no
    # vector of an unknown tail
    e = load_sources([("t", "h : Vec Nat 1 -> Vec Nat 2\nh (x ∷ xs) = x ∷ x ∷ xs\n\n"
                            "f : Vec Nat 1 -> Vec Nat 2\nf v = h v\n")])
    with pytest.raises(ExtractError, match="^h: open vector spine in emitted position$"):
        kompile("f", [], [], SacBackend(), e.env, e.rules)
    e = load_sources([("t", "f : List (List Nat) -> Nat\nf xs = 0\n")])
    with pytest.raises(Inhomogeneous, match="^f: nested lists"):
        kompile("f", [], [], SacBackend(), e.env, e.rules)
    e = load_sources([("t", "g : Nat -> Float\ng n = 1.0\n")])
    with pytest.raises(ExtractError, match="^g: unsupported type at __ret: "
                                           "this target has no floats"):
        kompile("g", [], [], KaleidBackend(), e.env, e.rules)


def test_a_shared_let_of_a_function_agrees_on_both_targets():
    # `g`, `h` and `k` are read twice, but a function value shares no work
    # and neither target has one, so each let is substituted
    e = load_sources([("t", "lm : Nat -> Nat\nlm x = let g = suc in g (g x)\n"
                            "add : Nat -> Nat -> Nat\nadd a b = a + b\n"
                            "pl : Nat -> Nat\npl x = let h = add 1 in h (h x)\n"
                            "tw : (Nat -> Nat) -> Nat -> Nat\n"
                            "tw f x = let k = f in k (k x)\n"
                            "la : Nat -> Nat\nla x = tw (\\ y -> y + x) x\n")])
    assert call(e.env, "lm", [3]) == call(e.env, "pl", [3]) == 5
    for entry in ("lm", "pl", "la"):
        for target in ("kaleid", "sac"):
            row = run_signature_diff(e, entry, 200, 1, target=target)
            assert (row.mismatches, row.inconclusive) == (0, []), (entry, target)


BARE_CONSTRUCTORS = corpus.REWRITES + """
lm : Nat -> Nat
lm x = let g = suc in g (g x)

g : Fin 3 -> Fin 4
g = fsuc

h : Fin 3 -> Fin 4
h i = let g = fsuc {3} in g i

ms : List Nat -> List Nat
ms xs = map suc xs

f : Nat -> Nat
f = suc
"""


def _unsaturated(env) -> list:
    """The constructor applications in env's signatures and clause bodies
    that lack a visible argument their type takes."""
    out = []

    def visit(t, depth):
        if type(t) is Con:
            want = env.lookup(t.name).payload.arity.count(False)
            if sum(not a.hidden for a in t.args) != want:
                out.append(t)
        return ir.map_subterms(t, visit, depth)
    for name in env.names():
        d = env.lookup(name)
        visit(d.signature, 0)
        for cl in d.payload.clauses if isinstance(d.payload, Function) else ():
            if cl.body is not None:
                visit(cl.body, len(cl.telescope))
    return out


def test_every_constructor_application_is_saturated():
    sources = [entry.sources for entry in corpus.CORPUS.values()]
    for texts in [[], *sources]:
        assert _unsaturated(load_sources(texts).env) == [], texts
    e = load_sources([("bare", BARE_CONSTRUCTORS)])
    assert _unsaturated(e.env) == []
    # fsuc {3} is `\i -> fsuc {3} i`: its hidden argument is not taken
    # for the visible one
    assert call(e.env, "h", [2]) == 3
    for target in ("kaleid", "sac"):
        row = run_signature_diff(e, "h", 50, 1, target=target)
        assert (row.mismatches, row.inconclusive) == (0, []), target


def test_a_lambda_argument_is_refused_on_both_targets():
    e = load_sources([("t", "tw : (Nat -> Nat) -> Nat -> Nat\ntw f x = f (f x)\n"
                            "lm : Nat -> Nat\nlm x = tw (\\ y -> y + x) x\n")])
    for backend, message in [(KaleidBackend(), "lambda cannot be translated"),
                             (SacBackend(), "a function value has no array "
                                            "translation")]:
        with pytest.raises(ExtractError, match=f"^lm: {message}$"):
            kompile("lm", ["tw"], [], backend, e.env, e.rules)


# a term in the body of f that a target has no translation for: (source,
# base, the targets that refuse it with their messages)
UNTRANSLATED = [
    ("gf : Float -> Nat\ngf x = 1\nf : Nat -> Nat\nf x = gf 1.5 + x\n", ["gf"],
     [(KaleidBackend(), "this target has no floats, only naturals")]),
    ("h : Vec Nat 1 -> Nat\nh v = vhd v\nf : Nat -> Nat\nf x = h (x ∷ [])\n", ["h"],
     [(KaleidBackend(), "constructor vcons has no scalar translation")]),
    # ap's hidden type argument is solved to `Nat -> Nat`
    ("ap : {X : Set} -> X -> Nat -> Nat\nap h x = x\nf : Nat -> Nat\nf x = ap suc x\n",
     ["ap"], [(KaleidBackend(), "a type or an erased value has no scalar translation"),
              (SacBackend(), "a type or an erased value has no array translation")]),
]


@pytest.mark.parametrize("src, base, refusals", UNTRANSLATED)
def test_a_term_with_no_translation_is_refused(src, base, refusals):
    e = load_sources([("t", src)])
    for backend, message in refusals:
        with pytest.raises(ExtractError, match=f"^f: {message}$"):
            kompile("f", base, [], backend, e.env, e.rules)


def _nat_pi(*tys):
    return mk_pi([(f"v{k}", ty, hidden) for k, (ty, hidden) in enumerate(tys)],
                 _nat())


def test_the_plan_names_subject_relation_and_sides():
    fin = Def("Fin", (vis(Var(0)),))
    lt = Def("_<_", (vis(Var(0)), vis(Var(1))))
    dec = Def("Dec", (vis(Def("_<_", (vis(Var(1)), vis(Var(0))))),))
    # a check's sides read the parameters before its subject
    assert checks(_nat_pi((_nat(), False), (fin, False))) == [
        Check(0, 1, fin, "<", None, Var(0))]
    # a hidden parameter is a parameter
    assert checks(_nat_pi((_nat(), True), (_nat(), False), (lt, False))) == [
        Check(0, 2, lt, "<", Var(0), Var(1))]
    assert checks(_nat_pi((_nat(), False), (_nat(), False), (dec, False))) == [
        Check(0, 2, dec, "<", Var(1), Var(0), decision=True)]
    # the result's subject is the number of parameters
    bound = Def("_+_", (vis(Lit(1)), vis(Def("_*_", (vis(Var(0)), vis(Var(0)))))))
    ret_fin = Def("Fin", (vis(bound),))
    assert checks(mk_pi([("n", _nat(), False)], ret_fin)) == [
        Check(0, 1, ret_fin, "<", None, bound)]
    # elaboration refuses a decision of no proposition; a signature built
    # past it is still refused here
    with pytest.raises(ExtractError, match="undecidable Dec payload at x_2"):
        checks(_nat_pi((_nat(), False), (Def("Dec", (vis(_nat()),)), False)))


def test_the_plan_of_a_corpus_entry_on_each_target():
    e = load_sources(corpus.CORPUS["log2"].sources)
    sig = e.env.lookup("log2'").signature
    assert [(c.index, c.subject, c.relation, c.lhs, c.rhs) for c in checks(sig)] \
        == [(0, 2, "<", Var(0), Var(1))]
    e = load_sources([])
    sig = e.env.lookup("avgpool").signature
    assert [(c.index, c.subject, c.relation) for c in checks(sig)] == [
        (0, 0, "extent"), (1, 1, "take"), (2, 2, "take")]


class Unelaborated(str):
    """The message with which elaboration refuses a signature, before any
    target sees it."""


# each signature form: the conditions of the asserts that Kaleidoscope and
# SaC emit for it, or the message with which the target refuses it, or an
# Unelaborated one with which elaboration does
FORMS = [
    ("Nat", "f : Nat -> Nat\nf n = n\n", [], []),
    ("Float", "f : Float -> Float\nf x = x\n",
     "f: unsupported type at x_1: this target has no floats", []),
    ("Fin e", "f : (n : Nat) -> Fin n -> Nat\nf n i = toN i\n",
     ["x_2 < x_1"], ["x_2 < x_1"]),
    ("result Fin e", "f : (n : Nat) -> Fin (1 + n * n)\n"
     "f n = fromN< (n<1+n (n * n))\n",
     ["__ret < 1 + x_1 * x_1"], ["__ret < 1 $+ x_1 $* x_1"]),
    ("a < b", "f : {m : Nat} -> (n : Nat) -> n < m -> Nat\nf {m} n p = m - n\n",
     ["x_2 < x_1"], ["x_2 < x_1"]),
    ("a ≡ b", "f : (a b : Nat) -> a ≡ b -> Nat\nf a b p = a\n",
     ["x_1 == x_2"], ["x_1 == x_2"]),
    ("Dec (a < b)", "f : (a b : Nat) -> Dec (a < b) -> Nat\nf a b d = a\n",
     ["x_3 == (x_1 < x_2)"], ["x_3 == x_1 < x_2"]),
    # a decision of no proposition states no fact
    ("Dec Nat", "f : (n : Nat) -> Dec Nat -> Nat\nf n d = n\n",
     *[Unelaborated("line 1: signature of f: (Dec Nat) decides no "
                    "proposition (_<_ or _≡_)")] * 2),
    ("Vec X n", "f : (n : Nat) -> Vec Float n -> Vec Float n\nf n v = v\n",
     "f: unsupported type at x_2: this target has no vectors, only naturals",
     ["shape (x_2)[0] == x_1", "shape (__ret)[0] == x_1"]),
    ("Ar X d s", "f : Ar Float 1 (3 ∷ []) -> Ar Float 1 (3 ∷ [])\nf a = a\n",
     "f: unsupported type at x_1: this target has no arrays, only naturals",
     ["take (1, shape (x_1)) == cons (3, [])",
      "take (1, shape (__ret)) == cons (3, [])"]),
    ("List X", "f : List Float -> Nat\nf xs = 0\n",
     "f: unsupported type at x_1: this target has no lists, only naturals", []),
    # a type or a function has no value in either target
    *[(form, src, *[f"f: unsupported type at {at}"] * 2) for form, src, at in [
        ("(X : Set) -> X -> X", "f : (X : Set) -> X -> X\nf X x = x\n",
         "x_1: type-valued argument"),
        ("{X : Set} -> X -> X", "f : {X : Set} -> X -> X\nf x = x\n",
         "x_1: type-valued argument"),
        ("(Nat -> Nat) -> Nat -> Nat", "f : (Nat -> Nat) -> Nat -> Nat\nf g x = g x\n",
         "x_1: higher-order argument"),
        ("Nat -> Set", "f : Nat -> Set\nf n = Nat\n", "__ret: type-valued result"),
        ("{X : Set} -> List X -> Nat", "f : {X : Set} -> List X -> Nat\nf xs = 0\n",
         "x_1: type-valued argument")]],
]


@pytest.mark.parametrize("target", ["kaleid", "sac"])
@pytest.mark.parametrize("src, kaleid, sac", [f[1:] for f in FORMS],
                         ids=[f[0] for f in FORMS])
def test_each_signature_form_is_checked_or_refused(src, kaleid, sac, target):
    backend, want = ((KaleidBackend(), kaleid) if target == "kaleid"
                     else (SacBackend(), sac))
    if isinstance(want, Unelaborated):
        with pytest.raises(UnsupportedType, match=re.escape(want)):
            load_sources([("t", src)])
        return
    e = load_sources([("t", src)])
    if isinstance(want, str):
        with pytest.raises(ExtractError, match="^" + re.escape(want)):
            kompile("f", [], [], backend, e.env, e.rules)
        return
    text = kompile("f", [], [], backend, e.env, e.rules)
    assert re.findall(r"assert \((.*)\)", text) == want


# each clause form: a function that matches with it, which both targets
# extract through the one clause chain of `lower_clauses`
CLAUSE_FORMS = {
    "zero": "f : Nat -> Nat\nf zero = 7\nf n = n\n",
    "suc": "f : Nat -> Nat -> Nat\nf (suc m) zero = m\nf m n = m + n\n",
    "nested suc": "f : Nat -> Nat\nf (suc (suc x)) = x\nf x = 9\n",
    "literals 0 and 1": "f : Nat -> Nat\nf 0 = 5\nf 1 = 6\nf x = x * 2\n",
    "fsuc": "f : (n : Nat) -> Fin n -> Nat\nf n fzero = n\n"
            "f n (fsuc i) = toN i + n\n",
    # at `Fin n` the pattern `fsuc i` gives `i : Fin (n - 1)` under `0 < n`
    "fsuc at an open bound": "f : (n : Nat) -> Fin n -> Fin n\n"
                             "f n (fsuc i) = fsuc i\nf n fzero = fzero\n",
    "wildcard": "f : Nat -> Nat -> Nat\nf 0 _ = 1\nf _ n = n\n",
    "absurd clause": "f : (x : Nat) -> 0 < x -> Nat\nf 0 ()\nf x p = x\n",
    # the chain ends in an abort that no natural reaches
    "guarded last clause": "f : Nat -> Nat\nf 0 = 1\nf (suc n) = n + 2\n",
}


@pytest.mark.parametrize("target", ["kaleid", "sac"])
@pytest.mark.parametrize("form", list(CLAUSE_FORMS))
def test_each_clause_form_means_its_clauses_on_both_targets(form, target):
    e = load_sources([("t", CLAUSE_FORMS[form])])
    # 200 samples of seed 1 draw each of 0, 1 and 2 for the first natural
    row = run_signature_diff(e, "f", 200, 1, target=target)
    assert (row.mismatches, row.inconclusive) == (0, [])


ASSERTS = {"kaleid": 2, "sac": 20}  # all of the corpus's checks, by target


def test_every_planned_check_is_emitted_once():
    found = dict.fromkeys(ASSERTS, 0)
    for c in corpus.CORPUS.values():
        e = load_sources(c.sources)
        backend = KaleidBackend() if c.backend == "kaleid" else SacBackend()
        planned = []
        kompile_fun = backend.kompile_fun

        def spy(name, d, plan, *rest):
            planned.append(len(plan))
            return kompile_fun(name, d, plan, *rest)

        backend.kompile_fun = spy
        text = kompile(c.entry, c.base, [], backend, e.env, e.rules)
        emitted = len(re.findall(r"assert \((?!0\))", text))
        assert sum(planned) == emitted, c.name
        found[c.backend] += emitted
    assert found == ASSERTS


def _calls(e, names: set) -> set:
    """The names in `names` that a parsed target expression calls."""
    found = set()

    def walk(x):
        if isinstance(x, (KCall, SCall)) and x.fn in names:
            found.add(x.fn)
        if isinstance(x, (tuple, list)):
            for y in x:
                walk(y)
        elif hasattr(x, "__dataclass_fields__"):
            for f in x.__dataclass_fields__:
                walk(getattr(x, f))

    walk(e)
    return found


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_corpus_functions_follow_their_callees(name):
    c = corpus.CORPUS[name]
    e = load_sources(c.sources)
    backend = KaleidBackend() if c.backend == "kaleid" else SacBackend()
    text = kompile(c.entry, c.base, [], backend, e.env, e.rules)
    if c.backend == "kaleid":
        fns = [(f.name, f.body) for f in parse_kaleid(text)]
    else:
        fns = [(f.name, f.stmts) for f in parse_sac(text).values()]
    names = [n for n, _ in fns]
    for k, (fn, body) in enumerate(fns):
        assert _calls(body, set(names) - {fn}) <= set(names[:k]), (name, fn)


ERASED = ("g : (n : Nat) -> n < 2 + n -> Nat\ng n p = n * 2\n"
          "lem : (n : Nat) -> n < 2 + n\nlem n = prf\n"
          "k : Dec (1 < 2) -> Dec (3 < 2) -> Nat -> Nat\nk a b x = x + 1\n"
          "w : (x : Nat) -> Fin (suc x) -> Nat\n"
          "w x i = g (suc (suc x)) prf + g x (lem x) + toN (fromN< (lem x))"
          " + k (1 <? 2) (3 <? 2) x + toN i\n")


def test_erasure_reaches_both_backends():
    # with g, lem and k kept as calls, w's body holds a proof, a
    # proof-valued call, two decisions, fromN< and toN and an open suc
    # spine, and its signature one more spine
    e = load_sources([("t", ERASED)])
    base = ["g", "lem", "k"]
    kal, sac = (kompile("w", base, [], b, e.env, e.rules)
                for b in (KaleidBackend(), SacBackend()))
    assert "assert (x_2 < 1 + x_1)" in kal
    assert "__ret = g (2 + x, 1) + g (x, 1) + x + k (1, 0, x) + i" in kal
    assert "assert (x_2 < 1 $+ x_1);" in sac
    assert "__ret = g (2 $+ x) $+ g (x) $+ x $+ k (1, 0, x) $+ i;" in sac
    # the same program with g and k emitted runs as the source does
    helpers = [kompile(f, [], [], b, e.env, e.rules)
               for b in (KaleidBackend(), SacBackend()) for f in ("g", "k")]
    for x, i in [(0, 0), (4, 2), (9, 9)]:
        want = call(e.env, "w", [x, i])
        assert interp_kaleid("\n".join(helpers[:2] + [kal]), "w", [x, i]) == want
        assert interp_sac("\n".join(helpers[2:] + [sac]), "w", [x, i]) == want


FSUC = ("g2 : Fin 3 -> Fin 4\ng2 i = fsuc i\n"
        "g : Fin 3 -> Fin 4\ng = fsuc\n"
        "w : (n : Nat) -> Fin n -> Fin (suc n)\nw n i = fsuc i\n")


def test_applied_fsuc_extracts_and_agrees():
    e = load_sources([("t", FSUC)])
    body = e.env.lookup("g2").payload.clauses[0].body
    assert body == Con("fsuc", (hid(Lit(3)), vis(Var(0))))
    for f, inputs in [("g2", [[0], [2]]), ("g", [[0], [2]]),
                      ("w", [[1, 0], [5, 2], [3, 2]])]:
        for backend, run in [(KaleidBackend(), interp_kaleid),
                             (SacBackend(), interp_sac)]:
            text = kompile(f, [], [], backend, e.env, e.rules)
            for args in inputs:
                assert run(text, f, args) == call(e.env, f, args) == args[-1] + 1


def test_a_let_in_an_inferred_position_extracts_and_agrees():
    # the elaborator infers the type of a let: under vhd's argument, and
    # on the left of an equation in a signature
    e = load_sources([("t", "f : (n : Nat) -> Vec Nat (suc n) -> Nat\n"
                            "f n v = vhd (let w = v in w)\n")])
    text = kompile("f", [], [], SacBackend(), e.env, e.rules)
    for v in [(4,), (2, 7, 1)]:
        args = [len(v) - 1, vvec(v)]
        assert interp_sac(text, "f", [to_target(a) for a in args]) == \
            call(e.env, "f", args) == v[0]
    e = load_sources([("t", "f : (n : Nat) -> (let m = n in m) ≡ n -> Nat\n"
                            "f n p = n + 1\n")])
    text = kompile("f", [], [], KaleidBackend(), e.env, e.rules)
    assert "assert (x_1 == x_1)" in text
    for n in range(4):
        assert interp_kaleid(text, "f", [n, 1]) == call(e.env, "f", [n, 1]) == n + 1


def test_an_fsuc_pattern_extracts_and_agrees():
    e = load_sources([("t", "f : (n : Nat) -> Fin n -> Nat\n"
                            "f n fzero = 0\nf n (fsuc i) = toN i + 1\n")])
    text = kompile("f", [], [], KaleidBackend(), e.env, e.rules)
    for n, i in [(1, 0), (3, 1), (5, 4)]:
        assert interp_kaleid(text, "f", [n, i]) == call(e.env, "f", [n, i]) == i


def test_an_fsuc_pattern_forces_its_index_on_all_three_evaluators():
    # at `Fin (suc m)` the pattern `fsuc i` gives `i : Fin m`, so g's body
    # is `idf {m} i`; f's call of g reduces away to `idf {5} 1`
    e = load_sources([("fin", (ROOT / "examples/esl/fin.esl").read_text("utf-8")
                       + "f : Nat -> Nat\nf x = g 5 (fsuc (fsuc fzero)) + x\n")])
    cases = [("g", [5, 1], 5), ("w", [2], 10), ("f", [3], 8), ("g2", [3, 2], 1)]
    for entry, args, want in cases:
        assert call(e.env, entry, args) == want, entry
    for target, backend, run in [("kaleid", KaleidBackend(), interp_kaleid),
                                 ("sac", SacBackend(), interp_sac)]:
        idf = kompile("idf", [], [], backend, e.env, e.rules)
        for entry, args, want in cases:
            emitted = kompile(entry, [], [], backend, e.env, e.rules)
            based = kompile(entry, ["idf"], [], backend, e.env, e.rules)
            assert "def idf" not in based and "int idf" not in based
            assert run(emitted, entry, args) == run(idf + "\n" + based, entry, args) \
                == want, (entry, target)
        for entry in ("w", "g2"):
            row = run_signature_diff(e, entry, 100, 1, target=target)
            assert (row.mismatches, row.inconclusive) == (0, []), (entry, target)


def test_base_names_are_neither_unfolded_nor_emitted():
    src = ("g : Nat -> Nat\ng x = x * x\n"
           "f : Nat -> Nat\nf x = g 3 + x\n")
    e = load_sources([("t", src)], with_prelude=False)
    plain = kompile("f", [], [], KaleidBackend(), e.env, e.rules)
    assert "9 + x" in plain  # g 3 reduced away entirely
    based = kompile("f", ["g"], [], KaleidBackend(), e.env, e.rules)
    assert "g (3)" in based
    assert "def g" not in based


def test_skip_names_stay_calls():
    src = ("g : Nat -> Nat\ng 0 = 1\ng (suc x) = x\n"
           "f : Nat -> Nat\nf x = g x\n")
    e = load_sources([("t", src)], with_prelude=False)
    out = kompile("f", [], ["g"], KaleidBackend(), e.env, e.rules)
    assert "g (x)" in out and "def g" not in out


def test_postulate_entry_rejected():
    env = seed_env()
    from eslc.extract import ExtractError
    import pytest
    with pytest.raises(ExtractError):
        kompile("fromN<", [], [], KaleidBackend(), env)


def test_normalise_name_table():
    assert normalise_name("foo") == "foo"
    assert normalise_name("log₂′") == "log2'"
    assert normalise_name("x<m⇒sx/2<m").isascii()
    assert kaleid_final_pass(normalise_name("log₂′")) == "log2'"
    assert sac_final_pass(normalise_name("log₂′")) == "log2"
    assert normalise_name("αβ") == "alphabeta"
    assert "_u" in normalise_name("f☃")


def test_name_collisions_get_numeric_suffixes():
    st = ExtractState(frozenset(), frozenset())
    assert st.target_name("bar", sac_final_pass) == "bar"
    assert st.target_name("bar′", sac_final_pass) == "bar_1"
    assert st.target_name("bar″", sac_final_pass) == "bar_2"


def test_fresh_names():
    state = ExtractState(frozenset(), frozenset(), frozenset({"if"}))
    scope = {"x_1", "a", "a_1"}
    assert state.binder("b", scope) == "b"  # free: the source name stays
    assert state.binder("if", scope) == "if_1"  # a keyword
    assert state.binder("x_1", scope) == "x_1_1"  # in scope
    assert state.binder("a", scope) == "a_2"  # in scope, and a_1 is taken
    assert state.binder("b", scope) == "b_1"  # each name joins the scope
    assert state.binder("iv", scope, fresh=True) == "iv_1"  # made up
    assert state.binder("iv", scope, fresh=True) == "iv_2"
    assert state.binder("iv", {"x_1"}, fresh=True) == "iv_1"  # no counter
    assert scope == {"x_1", "a", "a_1", "b", "if_1", "x_1_1", "a_2", "b_1",
                     "iv_1", "iv_2"}
    # function names follow the same rule over the names already given
    assert state.target_name("if", kaleid_final_pass) == "if_1"
    assert state.target_name("if′", sac_final_pass) == "if_2"


# names like the ones the backends bind, and the targets' keywords that
# ESL admits as names
CLASHING = sorted({"x_1", "x_2", "iv_1", "t_1", "p_1", "a_1", "mod_1", "ub_1",
                   "ret"} | (KALEID_KEYWORDS | SAC_KEYWORDS) - RESERVED)
# parameters, pattern variables, lets and the lets of `%` operands, on
# both targets; a selection macro, a with-loop index and its component on
# SaC
NAT_W = ("w : (a b : Nat) -> 0 < b -> Nat\n"
         "w {0} {1} {2} = {0} % {1} + (let {3} = {0} + {1} in "
         "let {4} = {3} * {0} in ({4} + 1) % ({3} + 1) + {4})\n")
ARR_V = ("v : Float -> Ar Float 1 (3 ∷ []) -> Ar Float 1 (3 ∷ [])\n"
         "v {0} (imap {1}) = imap (\\({2} ∷ []) -> "
         "let {3} = {1} ({2} ∷ []) +f {0} in {3} *f {3})\n")


def _disagreements(src: str, entry: str, backend, inputs) -> list:
    """The source arguments on which the backend's text and the source
    evaluator disagree."""
    e = load_sources([("w", src)])
    text = kompile(entry, [], [], backend, e.env, e.rules)
    target = "kaleid" if isinstance(backend, KaleidBackend) else "sac"
    run = interp_kaleid if target == "kaleid" else interp_sac
    to_args = target_args(e.env, entry, target)
    return [args for args in inputs
            if not compare(call(e.env, entry, args), run(text, entry, to_args(args)))]


@seed(11)
@settings(max_examples=80, deadline=None, database=None)
@given(st.lists(st.sampled_from(CLASHING), min_size=3, max_size=3,
                unique=True),
       st.lists(st.sampled_from(CLASHING), min_size=2, max_size=2))
def test_binder_names_keep_their_meaning(names, lets):
    nat = NAT_W.format(*names, *lets)
    grid = [(0, 1), (3, 4), (7, 2)]
    for backend in (KaleidBackend(), SacBackend()):
        assert _disagreements(nat, "w", backend, [[a, b, 1] for a, b in grid]) == []
    arr = ARR_V.format(*names, lets[0])
    assert _disagreements(arr, "v", SacBackend(),
                          [[0.5, varr((3,), [1.0, 2.5, -4.0])]]) == []


def test_unicode_names_transliterate_end_to_end():
    src = ("go′ : Nat -> Nat\ngo′ 0 = 1\ngo′ (suc x) = x\n"
           "use : Nat -> Nat\nuse x = go′ x\n")
    e = load_sources([("u", src)], with_prelude=False)
    out = kompile("use", [], [], KaleidBackend(), e.env, e.rules)
    assert "def go' (" in out and "go' (x)" in out
    from eslc.sac import SacBackend
    srcv = ("vec′ : {s : Vec Nat 2} -> Ar Float 2 s -> Ar Float 2 s\n"
            "vec′ (imap p) = imap p\n")
    ev = load_sources([("v", srcv)])
    outv = kompile("vec′", [], [], SacBackend(), ev.env, ev.rules)
    assert "float[.,.] vec(" in outv  # the prime is not a target identifier
