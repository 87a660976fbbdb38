"""Normalizer behaviour: iota on the arithmetic builtins, selective
reduction, sharing-preserving lets, rewrite rules, and idempotence."""

import pytest
import warnings

from eslc.builtins import seed_env
from eslc.ir import Abs, Con, Def, Lam, Let, Lit, Pi, Var, hid, vis
from eslc.normalize import (REDUCE_ALL, ConfluenceWarning, FuelExhausted,
                            IllFormedRule, InertRuleWarning, Normalizer,
                            ReductionPolicy, RewriteRule, RuleSet,
                            check_rewrite, dont_reduce, normalise)


def plus(a, b):
    return Def("_+_", (vis(a), vis(b)))


def times(a, b):
    return Def("_*_", (vis(a), vis(b)))


def nat():
    return Def("Nat")


ENV = seed_env()


def nf(t, policy=REDUCE_ALL, rules=None):
    return normalise(t, ENV, policy, rules)


def test_literal_arithmetic():
    assert nf(plus(Lit(2), Lit(3))) == Lit(5)
    assert nf(times(Lit(4), Lit(5))) == Lit(20)
    assert nf(Def("_-_", (vis(Lit(3)), vis(Lit(5))))) == Lit(0)
    assert nf(Def("_/_", (vis(Lit(9)), vis(Lit(2))))) == Lit(4)
    assert nf(Def("_%_", (vis(Lit(9)), vis(Lit(2))))) == Lit(1)


def test_literal_floats_and_decisions():
    def f(name, *xs):
        return Def(name, tuple(vis(Lit(x)) for x in xs))
    assert nf(f("_+f_", 1.5, 2.25)) == Lit(3.75)
    assert nf(f("_/f_", 3.0, 2.0)) == Lit(1.5)
    assert nf(f("expf", 0.0)) == Lit(1.0)
    assert nf(f("_≟_", 3, 3)) == Con("yes")
    assert nf(f("_<?_", 3, 3)) == Con("no")
    # no literal for the result: the call stays as it is
    assert nf(f("_/f_", 3.0, 0.0)) == f("_/f_", 3.0, 0.0)
    assert nf(f("_+f_", 1e308, 1e308)) == f("_+f_", 1e308, 1e308)


def test_partial_primitive_calls_stay():
    for t in (Def("_≟_", (vis(Lit(3)),)), Def("_+_", (vis(Lit(3)),)),
              Def("expf")):
        assert nf(t) == t


def test_expf_overflow_is_left_unfolded():
    big = Def("expf", (vis(Lit(1000.0)),))
    assert nf(big) == big


def test_one_plus_neutral_is_suc():
    # 1 + x exposes the constructor; x + 1 is stuck on the neutral head
    t = nf(plus(Lit(1), Var(0)))
    assert t == Con("suc", (vis(Var(0)),))
    assert nf(plus(Var(0), Lit(1))) == plus(Var(0), Lit(1))


def test_two_plus_n_over_two():
    # (2 + n) / 2 leaves the accumulator helper applied to the neutral n
    t = Def("_/_", (vis(plus(Lit(2), Var(0))), vis(Lit(2))))
    out = nf(t)
    assert out == Def("div-helper", (vis(Lit(1)), vis(Lit(1)), vis(Var(0)), vis(Lit(1))))
    # ... which is the term the backends print as 1 + (n / 2)


def test_dont_reduce_keeps_heads():
    t = Def("_≟_", (vis(Var(0)), vis(Lit(42))))
    out = nf(t, dont_reduce(["_≟_"]))
    assert out == t
    assert nf(Def("_≟_", (vis(Lit(42)), vis(Lit(42))))) == Con("yes")


def test_let_sharing_preserved():
    # let a = x * x in a + a keeps the binding
    body = plus(Var(0), Var(0))
    t = Let(times(Var(0), Var(0)), Abs("a", body))
    out = nf(t)
    assert isinstance(out, Let)
    # single-use lets are inlined
    t1 = Let(times(Var(0), Var(0)), Abs("a", plus(Var(0), Lit(1))))
    assert not isinstance(nf(t1), Let)


def test_faithful_lets_flag():
    t = Let(times(Var(0), Var(0)), Abs("a", plus(Var(0), Var(0))))
    out = nf(t, ReductionPolicy(faithful_lets=True))
    assert out == plus(times(Var(0), Var(0)), times(Var(0), Var(0)))


def test_sel_imap_fuses():
    f = Lam(Abs("iv", plus(Lit(1), Lit(2))))
    arr = Con("imap", (hid(nat()), hid(Lit(1)),
                       hid(Con("vcons", (vis(Lit(3)), vis(Con("vnil"))))), vis(f)))
    t = Def("sel", (hid(nat()), hid(Lit(1)),
                    hid(Con("vcons", (vis(Lit(3)), vis(Con("vnil"))))),
                    vis(arr), vis(Var(0))))
    assert nf(t) == Lit(3)


def test_extraction_reduces_a_shared_argument_once(monkeypatch):
    # each clause of log2' matches the argument (1 + x) / 2 of its
    # recursive call; reduced once, extracting log2 takes 8 steps, not 44
    from eslc import corpus, extract, loader
    from eslc.kaleid import KaleidBackend
    entry = corpus.CORPUS["log2"]
    elab = loader.load_sources(entry.sources)
    steps = []
    spend = Normalizer.spend
    monkeypatch.setattr(Normalizer, "spend",
                        lambda nz: steps.append(1) or spend(nz))
    extract.kompile(entry.entry, entry.base, [], KaleidBackend(), elab.env, elab.rules)
    assert 0 < len(steps) <= 8


def test_a_stuck_call_reduces_once_its_definition_gains_a_clause():
    from eslc.ir import Clause, Definition, Function, PCon, PVar
    from conftest import mk_pi
    env = seed_env()
    f = Function([Clause((), (vis(PCon("zero")),), Lit(0))])
    env.add(Definition("f", mk_pi([("x", nat(), False)], nat()), f))
    nz = Normalizer(env)
    t = Def("f", (vis(Lit(1)),))
    assert nz.whnf(t) is t
    f.clauses.append(Clause((("n", vis(nat())),),
                            (vis(PCon("suc", (vis(PVar(0)),))),), Var(0)))
    assert nz.whnf(t) == Lit(0)


def test_a_cell_stuck_on_a_meta_reduces_once_the_meta_is_solved():
    from eslc.normalize import Hole, Meta, VLazy
    m = Meta("?m1@0", 0)
    cell = VLazy(plus(Hole(m.name, (), m), Lit(1)), ())
    nz = Normalizer(ENV)
    assert nz.whnf(cell).name == "_+_"
    m.solution = Lit(2)
    assert nz.whnf(cell) == Lit(3)
    assert nz.whnf(cell) == Lit(3)


def test_fuel_exhaustion():
    loop_env = seed_env()
    from eslc.ir import Clause, Definition, Function, PVar
    from conftest import mk_pi
    loop_env.add(Definition(
        "spin", mk_pi([("x", nat(), False)], nat()),
        Function([Clause((("x", vis(nat())),), (vis(PVar(0)),),
                         Def("spin", (vis(Var(0)),)))])))
    with pytest.raises(FuelExhausted):
        normalise(Def("spin", (vis(Lit(0)),)), loop_env,
                  ReductionPolicy(fuel=1000))


# -- rewrite rules -----------------------------------------------------------


def plus0_rule():
    return RewriteRule("plus-0", plus(Var(0), Lit(0)), Var(0), 1, (nat(),))


def test_plus0_rewrite():
    rules = RuleSet()
    rules.register(plus0_rule())
    assert nf(plus(Var(0), Lit(0)), rules=rules) == Var(0)


def test_confluence_warning_on_root_overlap():
    rules = RuleSet()
    rules.register(plus0_rule())
    suc_lhs = plus(Con("suc", (vis(Var(0)),)), Lit(0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        emitted = rules.register(
            RewriteRule("plus-suc-0", suc_lhs, Con("suc", (vis(Var(0)),)), 1, (nat(),)))
    assert len(emitted) == 1
    assert emitted[0].clashes_with == "plus-0"
    assert any(isinstance(w.message, ConfluenceWarning) for w in caught)


def test_non_overlapping_rule_is_quiet():
    rules = RuleSet()
    rules.register(plus0_rule())
    emitted = rules.register(
        RewriteRule("times-1", times(Var(0), Lit(1)), Var(0), 1, (nat(),)))
    assert emitted == []


def test_ill_formed_rule():
    with pytest.raises(IllFormedRule):
        RuleSet().register(RewriteRule("bad", plus(Var(0), Lit(0)), Var(1), 2,
                                       (nat(), nat())))
    with pytest.raises(IllFormedRule):
        RuleSet().register(RewriteRule("bad2", Var(0), Var(0), 1, (nat(),)))


def test_rule_variables_are_found_under_binders():
    # under the lambda, Var(2) is pattern variable 1
    rhs = Lam(Abs("y", plus(Var(0), Var(2))))
    with pytest.raises(IllFormedRule, match=r"\[1\]"):
        RuleSet().register(RewriteRule("bad", Def("g", (vis(Var(0)),)), rhs, 2,
                                       (nat(), nat())))
    RuleSet().register(RewriteRule("ok", Def("g", (vis(Var(0)), vis(Var(1)))),
                                   rhs, 2, (nat(), nat())))


def test_check_rewrite_pass_and_counterexample():
    assert check_rewrite(plus0_rule(), 100, ENV) == "pass"
    broken = RewriteRule("wrong", plus(Var(0), Lit(0)), plus(Var(0), Lit(1)),
                         1, (nat(),))
    out = check_rewrite(broken, 100, ENV)
    assert out != "pass" and out["lhs"] != out["rhs"]


def test_check_rewrite_binds_variables_outermost_first():
    # Var(1) is the outermost variable, the first of the assignment
    rule = RewriteRule("swap", plus(Var(1), Lit(0)), plus(Var(0), Lit(0)), 2,
                       (nat(), nat()))
    out = check_rewrite(rule, 100, ENV)
    x, y = out["assignment"]
    assert (out["lhs"], out["rhs"]) == (x.value, y.value) and x != y


def test_sum_square_rule_checks():
    x, y = Var(1), Var(0)
    lhs = plus(plus(times(x, x), times(times(Lit(2), x), y)), times(y, y))
    rhs = times(plus(x, y), plus(x, y))
    rule = RewriteRule("sum-square", lhs, rhs, 2, (nat(), nat()))
    assert check_rewrite(rule, 100, ENV) == "pass"


BINDERS = """
app : (Nat -> Nat) -> Nat -> Nat
app h x = h x

sub-self : (n : Nat) -> n - n ≡ 0
sub-self n = prf

{-# TRUST app-add #-}
{-# TRUST app-let #-}

app-add : (k x : Nat) -> app (\\y -> y + k) x ≡ x + k
app-add k x = prf

app-let : (x : Nat) -> app (\\y -> let z = y in z) x ≡ x
app-let x = prf

{-# REWRITE sub-self #-}
{-# REWRITE app-add #-}
{-# REWRITE app-let #-}

f : Nat -> Nat
f x = (x * 2) - (x * 2)
g : Nat -> Nat
g x = app (\\y -> y + 3) x
h : Nat -> Nat
h x = app (\\y -> y + y) x
k : Nat -> Nat
k x = app (\\y -> let z = y in z) x
"""


def test_rules_from_source_match_repeats_and_under_binders():
    from eslc import loader
    from eslc.ir import print_term
    from eslc.normalize import normalise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfluenceWarning)
        with pytest.warns(InertRuleWarning, match="^rewrite rule app-let never "
                          "fires: its left-hand side holds a let"):
            e = loader.load_sources([("binders.esl", BINDERS)])
    assert [w.rule for w in e.rules.warnings
            if isinstance(w, InertRuleWarning)] == ["app-let"]

    def body(name):
        (cl,) = e.env.lookup(name).payload.clauses
        return normalise(cl.body, e.env, dont_reduce({"app"}), e.rules,
                         len(cl.telescope))

    # a variable the left-hand side repeats binds equal terms
    assert body("f") == Lit(0)
    # one under the lambda binds a term free of the lambda's variable ...
    assert body("g") == plus(Var(0), Lit(3))
    # ... and not one that mentions it
    assert print_term(body("h")) == \
        '(def "app" (v (lam v "y" (def "_+_" (v (var 0)) (v (var 0))))) (v (var 0)))'
    # a left-hand side with a let matches nothing: lets are normalized away
    assert print_term(body("k")) == '(def "app" (v (lam v "y" (var 0))) (v (var 0)))'


TIMES_0 = """
times-0 : (x : Nat) -> x * 0 ≡ 0
times-0 x = prf
{-# REWRITE times-0 #-}

isz : Nat -> Nat
isz zero = 1
isz (suc n) = 0

t : Nat -> Nat
t x = isz (x * 0)
"""


def test_an_argument_a_rule_rewrote_lets_its_head_step():
    # `x * 0` is stuck until the rule makes it 0; then `isz 0` steps
    from eslc import loader
    from eslc.extract import kompile
    from eslc.kaleid import KaleidBackend
    from eslc.sac import SacBackend
    e = loader.load_sources([("t.esl", TIMES_0)])
    assert "  let __ret = 1\n" in kompile("t", [], [], KaleidBackend(),
                                          e.env, e.rules)
    assert "  __ret = 1;\n" in kompile("t", [], [], SacBackend(), e.env, e.rules)


HIGHER = """
app : (Nat -> Nat) -> Nat -> Nat
app h x = h x

g1 : Nat -> Nat
g1 x = app (let y = x * 2 in \\z -> z + y) x

g2 : Nat -> Nat
g2 x = app (_+_ 1) x

g3 : Nat -> Nat
g3 x = app suc x
"""


@pytest.mark.parametrize("entry, body", [
    ("g1", "x + x * 2"), ("g2", "1 + x"), ("g3", "1 + x")])
def test_applied_function_arguments_reduce(tmp_path, capsys, entry, body):
    # the argument applied is a let, a partial primitive call, a constructor
    from eslc.cli import main
    src = tmp_path / "higher.esl"
    src.write_text(HIGHER, encoding="utf-8")
    assert main(["kompile", str(src), "--entry", entry, "--backend", "kaleid"]) == 0
    assert f"let __ret = {body}\n" in capsys.readouterr().out
    assert main(["diff", str(src), "--entry", entry, "--backend", "kaleid",
                 "--samples", "10"]) == 0


def test_norm_returns_a_normal_form_itself():
    t = Lam(Abs("x", Let(times(Var(0), Var(1)),
                         Abs("a", plus(Var(0), Con("suc", (vis(Var(0)),)))))))
    ty = Pi(hid(nat()), Abs("n", Def("Vec", (vis(nat()), vis(Var(0))))))
    for u in (t, ty, Var(1, (vis(plus(Var(0), Lit(1))),))):
        assert Normalizer(ENV).norm(u) is u


def test_idempotence_on_samples():
    samples = [
        plus(Var(0), Lit(0)),
        Def("_/_", (vis(plus(Lit(2), Var(0))), vis(Lit(2)))),
        Let(times(Var(0), Var(0)), Abs("a", plus(Var(0), Var(0)))),
        times(plus(Lit(1), Var(1)), Var(0)),
    ]
    for t in samples:
        once = nf(t)
        assert nf(once) == once


def test_normalizer_and_evaluator_agree_on_closed_arithmetic():
    import random
    rng = random.Random(31)

    def rand_closed(depth=0):
        if depth > 3 or rng.random() < 0.35:
            return Lit(rng.randrange(0, 12))
        op = rng.choice(["_+_", "_-_", "_*_", "_/_", "_%_"])
        a, b = rand_closed(depth + 1), rand_closed(depth + 1)
        if op in ("_/_", "_%_"):
            b = Lit(rng.randrange(1, 9))
        return Def(op, (vis(a), vis(b)))

    from eslc.evaluate import eval_closed
    for _ in range(300):
        t = rand_closed()
        assert nf(t) == Lit(eval_closed(t, ENV))


# -- paths of the normalizer the corpus does not take -----------------------

VSUM = """
vsum : {n : Nat} -> Vec Nat n -> Nat
vsum {0} [] = 0
vsum {suc n} (x ∷ xs) = x + vsum {n} xs

w : Nat -> Nat
w a = vsum (a ∷ 2 ∷ [])
"""


def test_a_constructor_pattern_matches_a_reduced_argument():
    # vsum's clauses match the vcons of w's literal under a hidden suc
    from eslc import extract, loader
    from eslc.evaluate import call
    from eslc.kaleid import KaleidBackend, interp_kaleid
    from eslc.normalize import normalise
    from eslc.sac import SacBackend
    from eslc.sacinterp import interp_sac
    e = loader.load_sources([("vsum.esl", VSUM)])
    (cl,) = e.env.lookup("w").payload.clauses
    assert normalise(cl.body, e.env, depth=len(cl.telescope)) == plus(Var(0), Lit(2))
    texts = [(extract.kompile("w", [], [], backend(), e.env, e.rules), run)
             for backend, run in ((KaleidBackend, interp_kaleid),
                                  (SacBackend, interp_sac))]
    for a in (0, 3, 41):
        assert [run(text, "w", [a]) for text, run in texts] == \
            [call(e.env, "w", [a])] * 2 == [a + 2] * 2


def test_a_product_of_extents_reduces_symbolic_and_literal():
    # ravel's result extent `prodv s` must equal n * m in f and 6 in g
    from eslc import loader
    src = ("f : {n m : Nat} -> Ar Float 2 (n ∷ m ∷ []) -> "
           "Ar Float 1 ((n * m) ∷ [])\n"
           "f a = ravel a\n"
           "g : Ar Float 2 (2 ∷ 3 ∷ []) -> Ar Float 1 (6 ∷ [])\n"
           "g a = ravel a\n")
    e = loader.load_sources([("ravel.esl", src)])
    assert {"f", "g"} <= set(e.env.names())

    def prodv(*items):
        out = Con("vnil")
        for x in reversed(items):
            out = Con("vcons", (vis(x), vis(out)))
        return Def("prodv", (hid(Lit(len(items))), vis(out)))
    assert nf(prodv(Var(1), Var(0))) == times(Var(1), Var(0))
    assert nf(prodv(Lit(2), Lit(3))) == Lit(6)


# the fuel spent, counted at Normalizer.spend, elaborating the prelude and
# each corpus entry's own sources (none but fuse2's spend any), and
# extracting each entry: a change to the normalizer may lower these, not
# raise them
ELABORATION_FUEL = {"prelude": 3, "fuse2": 1}
EXTRACTION_FUEL = {"log2": 8, "ack": 2, "ex7": 5, "fib": 2, "logistic": 6,
                   "meansqerr": 4, "backavgpool": 12, "avgpool": 0,
                   "fuse2": 7, "matmul": 2, "rotate": 6}


def test_no_step_spends_more_fuel_than_its_ledger(monkeypatch):
    from eslc import corpus, extract, loader
    from eslc.elaborate import Elaborator
    from eslc.kaleid import KaleidBackend
    from eslc.sac import SacBackend
    steps = []
    spend = Normalizer.spend
    monkeypatch.setattr(Normalizer, "spend",
                        lambda nz: steps.append(1) or spend(nz))
    loader.load_prelude()
    steps.clear()
    elab = Elaborator()
    for name in loader.PRELUDE_MODULES:
        elab.load_source(loader.prelude_text(name), name)
    elaborated, extracted = {"prelude": len(steps)}, {}
    for name, entry in corpus.CORPUS.items():
        steps.clear()
        elab = loader.load_sources(entry.sources)
        elaborated[name] = len(steps)
        backend = KaleidBackend() if entry.backend == "kaleid" else SacBackend()
        steps.clear()
        extract.kompile(entry.entry, entry.base, [], backend, elab.env, elab.rules)
        extracted[name] = len(steps)
    assert extracted.keys() == EXTRACTION_FUEL.keys()
    assert {n: k for n, k in extracted.items() if k > EXTRACTION_FUEL[n]} == {}
    assert {n: k for n, k in elaborated.items()
            if k > ELABORATION_FUEL.get(n, 0)} == {}


# the work elaboration does for each prelude module and each corpus entry
# with sources of its own: (calls of Normalizer.whnf, walks of a value for
# an unsolved meta).  A weak head step asked of a rigid head, or a walk made
# while no meta is open, raises these.
ELABORATION_WORK = {"base.esl": (0, 0), "apl.esl": (29, 15), "cnn.esl": (20, 8),
                    "log2": (0, 0), "ack": (0, 0), "ex7": (0, 5), "fib": (0, 0),
                    "fuse2": (6, 1), "rotate": (4, 4)}


def test_elaboration_does_the_work_in_its_ledger(monkeypatch):
    from eslc import corpus, elaborate, loader
    work = [0, 0]
    whnf, unsolved = Normalizer.whnf, elaborate._unsolved

    def counted(k, fn):
        def call(*args):
            work[k] += 1
            return fn(*args)
        return call
    monkeypatch.setattr(Normalizer, "whnf", counted(0, whnf))
    monkeypatch.setattr(elaborate, "_unsolved", counted(1, unsolved))
    loader.load_prelude()
    done = {}
    elab = elaborate.Elaborator()
    for name in loader.PRELUDE_MODULES:
        work[:] = 0, 0
        elab.load_source(loader.prelude_text(name), name)
        done[name] = tuple(work)
    for name, entry in corpus.CORPUS.items():
        if entry.sources:
            work[:] = 0, 0
            loader.load_sources(entry.sources)
            done[name] = tuple(work)
    assert done == ELABORATION_WORK
