"""Decider tests: the yes/no answers the rest of the toolkit leans on."""

import itertools

from eslc import shapes as sh
from eslc.shapes import (SAdd, SDiv, SLit, SMod, SMonus, SMul, SVar, VCons,
                         VNil, VScale, VVar, decide, eq, lt, nonzero, veq)


def v(k):
    return SVar(k)


def test_n_lt_1_plus_n():
    assert decide(lt(v("x"), SAdd(SLit(1), v("x"))), []) == "yes"


def test_x_lt_y_has_counterexample():
    assert decide(lt(v("x"), v("y")), []) == "no"
    cx = sh.find_counterexample(lt(v("x"), v("y")), [])
    assert cx is not None and not (cx["x"] < cx["y"])


def test_div_lemma_suc_x_half_below_m():
    goal = lt(SDiv(SAdd(v("x"), SLit(1)), 2), v("m"))
    assert decide(goal, [lt(v("x"), v("m"))]) == "yes"


def test_square_below_one_plus_square():
    sq = SMul(v("n"), v("n"))
    assert decide(lt(sq, SAdd(SLit(1), sq)), []) == "yes"


def test_block_index_bounds():
    hyp = [lt(v("i"), v("s"))]
    assert decide(lt(SMul(v("i"), SLit(2)), SMul(v("s"), SLit(2))), hyp) == "yes"
    assert decide(lt(SAdd(SMul(v("i"), SLit(2)), SLit(1)),
                     SMul(v("s"), SLit(2))), hyp) == "yes"


def test_halved_index_bound():
    assert decide(lt(SDiv(v("j"), 2), v("b")),
                  [lt(v("j"), SMul(v("b"), SLit(2)))]) == "yes"


def test_mod_below_modulus_needs_positivity():
    goal = lt(SMod(SAdd(v("i"), v("k")), v("n")), v("n"))
    assert decide(goal, [lt(v("i"), v("n"))]) == "yes"
    assert decide(goal, []) != "yes"  # n could be 0


def test_monus_cases():
    # x - y <= x unconditionally
    assert decide(lt(SMonus(v("x"), v("y")), SAdd(v("x"), SLit(1))), []) == "yes"
    # x - 0 == x
    assert decide(eq(SMonus(v("x"), SLit(0)), v("x")), []) == "yes"
    # rotation offset: n - (k % n) <= n
    inner = SMonus(v("n"), SMod(v("k"), v("n")))
    assert decide(lt(inner, SAdd(v("n"), SLit(1))), [lt(SLit(0), v("n"))]) == "yes"


def test_vector_scale_normalizes_componentwise():
    s = VCons(v("a"), VCons(v("b"), VNil()))
    goal = veq(VScale(s, SLit(2)),
               VCons(SMul(v("a"), SLit(2)), VCons(SMul(v("b"), SLit(2)), VNil())))
    assert decide(goal, []) == "yes"


def test_vector_reverse_involution():
    s = VVar("s")
    assert sh.norm_vec(sh.VReverse(sh.VReverse(s))) == s


def test_nonzero():
    assert decide(nonzero(SAdd(v("x"), SLit(1))), []) == "yes"
    assert decide(nonzero(v("x")), []) == "no"


def _random_exprs(rng, names, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return SVar(rng.choice(names))
        return SLit(rng.randrange(4))
    a = _random_exprs(rng, names, depth - 1)
    b = _random_exprs(rng, names, depth - 1)
    pick = rng.randrange(5)
    if pick == 0:
        return SAdd(a, b)
    if pick == 1:
        return SMul(a, b)
    if pick == 2:
        return SMonus(a, b)
    if pick == 3:
        return SDiv(a, rng.randrange(1, 4))
    return SMod(a, SAdd(b, SLit(1)))


def test_soundness_against_exhaustive_evaluation():
    """Every yes/no on <=3 variables agrees with brute force over 0..8."""
    import random

    rng = random.Random(7)
    names = ["x", "y", "z"]
    checked = 0
    for _ in range(300):
        lhs = _random_exprs(rng, names, 2)
        rhs = _random_exprs(rng, names, 2)
        goal = lt(lhs, rhs) if rng.random() < 0.7 else eq(lhs, rhs)
        hyps = []
        if rng.random() < 0.5:
            hyps.append(lt(SVar(rng.choice(names)), SVar(rng.choice(names))))
        verdict = decide(goal, hyps)
        if verdict == "unknown":
            continue
        checked += 1
        for vals in itertools.product(range(9), repeat=3):
            env = dict(zip(names, vals))
            if all(sh._eval_constraint(h, env) for h in hyps):
                holds = sh._eval_constraint(goal, env)
                if verdict == "yes":
                    assert holds, (goal, hyps, env)
        if verdict == "no":
            cx = sh.find_counterexample(goal, hyps)
            assert cx is not None
            assert all(sh._eval_constraint(h, cx) for h in hyps)
            assert not sh._eval_constraint(goal, cx)
    assert checked > 50


# Exactness: each "yes" below rests on a margin of 1 between products of
# about 10**24, which float64 rows (53-bit mantissa) would round away.

A, B = 10**12 + 39, 10**12 + 61


def test_exact_lt_with_large_coefficients():
    # B*P - A*Q == 1, so A*x >= P forces B*x >= Q + 1/A, hence B*x > Q
    p = pow(B, -1, A)
    q = (B * p - 1) // A
    hyp = [lt(SLit(p - 1), SMul(SLit(A), v("x")))]
    assert decide(lt(SLit(q), SMul(SLit(B), v("x"))), hyp) == "yes"
    assert decide(lt(SLit(q + 1), SMul(SLit(B), v("x"))), hyp) != "yes"


def test_exact_eq_with_large_coefficients():
    # A*x == p puts B*x at B*p/A == q + (A-1)/A: within 1 of q, not of q-1
    p = (-pow(B, -1, A)) % A
    q = B * p // A
    assert B * p - A * q == A - 1
    hyp = [eq(SMul(SLit(A), v("x")), SLit(p))]
    assert decide(eq(SMul(SLit(B), v("x")), SLit(q)), hyp) == "yes"
    assert decide(eq(SMul(SLit(B), v("x")), SLit(q - 1)), hyp) != "yes"


def test_exact_div_and_mod_atoms_with_large_operands():
    k = 10**6 + 3
    goal = lt(SDiv(v("x"), A), SLit(k))
    assert decide(goal, [lt(v("x"), SLit(A * k))]) == "yes"
    assert decide(goal, [lt(v("x"), SLit(A * k + 1))]) != "yes"
    m = 10**16 + 1
    assert decide(lt(SMod(v("x"), SLit(m)), SLit(m)), []) == "yes"
    assert decide(lt(SMod(v("x"), SLit(m)), SLit(m - 1)), []) != "yes"
