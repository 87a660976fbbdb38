"""Normalizer behaviour: iota on the arithmetic builtins, selective
reduction, sharing-preserving lets, rewrite rules, and idempotence."""

import pytest
import warnings

from eslc.builtins import seed_env
from eslc.ir import Abs, Con, Def, Lam, Let, Lit, Pi, Var, hid, vis
from eslc.normalize import (REDUCE_ALL, ConfluenceWarning, FuelExhausted,
                            IllFormedRule, Normalizer, ReductionPolicy,
                            RewriteRule, RuleSet, check_rewrite, dont_reduce,
                            normalise)


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


def test_fuel_exhaustion():
    loop_env = seed_env()
    from eslc.ir import Clause, Definition, Function, PVar
    from eslc.builtins import mk_pi
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
