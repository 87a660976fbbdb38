"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion.

Run under pytest, or standalone with `python tests/test_acceptance.py`.
"""

import random
import time
import warnings

import numpy as np

from eslc import corpus, ir
from eslc.evaluate import call, varr
from eslc.broadcast import ShapeMismatch
from eslc.builtins import seed_env
from eslc.extract import kompile
from eslc.ir import Clause, Def, Definition, Function, Lit, PCon, PVar, Var, vis
from eslc.kaleid import Aborted, KaleidBackend, interp_kaleid
from eslc.loader import load_prelude, load_sources
from eslc.normalize import (REDUCE_ALL, Normalizer, RewriteRule,
                            check_rewrite, normalise)
from eslc.sac import SacBackend
from eslc.sacinterp import interp_sac

from conftest import mk_pi


def _report(n: int, label: str):
    print(f"[acceptance {n}] {label}: PASS")


def test_criterion_1_log2_golden():
    t0 = time.perf_counter()
    e = load_sources([("log2.esl", corpus.LOG2)])
    text = kompile("log2", ["n<1+n", "_<_"], [], KaleidBackend(), e.env, e.rules)
    # (a) argument assertion from n < m
    assert "assert (x_2 < x_1)" in text
    # (b) three conditional branches; the second tests x_2 - 1 == 0 under
    # an x_2 > 0 guard
    assert text.count("else if (") == 2 and text.count("if (") == 3
    assert "(x_2 > 0) && (x_2 - 1 == 0)" in text
    # (c) the recursive call passes literal 1 where the proof stood
    assert "log2' (m, 0 + (x + 1 - 0) / (1 + 1), 1)" in text
    # (d) trailing synthesized fallback
    assert text.rstrip().split("def log2 ")[0].count("assert (0)") == 1
    for n in range(1, 1025):
        assert interp_kaleid(text, "log2", [n]) == corpus.oracle_log2(n), n
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"{dt:.2f}s"
    _report(1, f"log2 golden + 1..1024 oracle ({dt:.2f}s)")


def test_criterion_2_ack_differential():
    t0 = time.perf_counter()
    e = load_sources([("ack.esl", corpus.ACK)])
    text = kompile("ack", [], [], KaleidBackend(), e.env, e.rules)
    # the three-branch conditional chain shape
    assert text.count("else if (") == 2 and text.count("if (") == 3
    assert "(x_1 > 0) && (x_2 == 0)" in text
    assert interp_kaleid(text, "ack", [3, 3]) == 61
    for m in range(4):
        for n in range(7):
            assert interp_kaleid(text, "ack", [m, n]) == corpus.oracle_ack(m, n)
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"{dt:.2f}s"
    _report(2, f"ack differential m<=3 n<=6 ({dt:.2f}s)")


def test_criterion_3_assertion_semantics():
    e = load_sources([("ex.esl", corpus.EX7)])
    rng = random.Random(42)
    lt = kompile("exlt", [], [], KaleidBackend(), e.env, e.rules)
    fin = kompile("exfin", [], [], KaleidBackend(), e.env, e.rules)
    aborts = ok = 0
    for _ in range(50):
        a = rng.randrange(0, 40)
        b = rng.randrange(0, a + 1)  # violates a < b
        out = interp_kaleid(lt, "exlt", [a, b, 1])
        aborts += isinstance(out, Aborted)
        n = rng.randrange(0, 40)
        i = n + rng.randrange(0, 10)  # violates i < n
        out = interp_kaleid(fin, "exfin", [n, i])
        aborts += isinstance(out, Aborted)
    assert aborts == 100
    for _ in range(50):
        b = rng.randrange(1, 40)
        a = rng.randrange(0, b)
        assert interp_kaleid(lt, "exlt", [a, b, 1]) == b - a
        n = rng.randrange(1, 40)
        i = rng.randrange(0, n)
        assert interp_kaleid(fin, "exfin", [n, i]) == n - i
        ok += 2
    assert ok == 100
    _report(3, "100/100 violations abort, 0/100 valid aborts")


def test_criterion_4_rewrite_suite():
    e = load_sources([("rw.esl", corpus.REWRITES)])
    # plus-0 rewrites a symbolic x + 0 to x
    env_nat = Def("_+_", (vis(Var(0)), vis(Lit(0))))
    assert normalise(env_nat, e.env, REDUCE_ALL, e.rules) == Var(0)
    # map-comp fuses the two maps into one
    two_maps = Def("map", (vis(Var(1)),
                           vis(Def("map", (vis(Var(0)), vis(Var(2)))))))
    fused = normalise(two_maps, e.env, REDUCE_ALL, e.rules)
    assert _count_heads(fused, "map") == 1
    # the overlapping rule warns exactly once
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        e2 = load_sources([("rw.esl", corpus.REWRITES),
                           ("o.esl", corpus.PLUS_SUC_0)])
    new = [w for w in e2.rules.warnings]
    assert len(new) == 1 and new[0].rule == "plus-suc-0"
    # randomized verification
    rules = {r.name: r for r in e.rules.rules}
    assert check_rewrite(rules["plus-0"], 100, e.env) == "pass"
    d = e.env.lookup("sum-square")
    tel, ret = ir.pi_spine(d.signature)
    va = [a.value for a in ret.args if not a.hidden]
    sum_sq = RewriteRule("sum-square", va[0], va[1], len(tel),
                         tuple(t.value for _, t in tel))
    assert check_rewrite(sum_sq, 100, e.env) == "pass"
    broken = RewriteRule("broken", Def("_+_", (vis(Var(0)), vis(Lit(0)))),
                         Def("_+_", (vis(Var(0)), vis(Lit(1)))), 1,
                         (Def("Nat"),))
    assert check_rewrite(broken, 100, e.env) != "pass"
    _report(4, "plus-0, map-comp fusion, one overlap warning, 100/100 trials")


def _count_heads(t, name: str) -> int:
    n = 0
    match t:
        case ir.Def(nm, args):
            n += (nm == name)
            n += sum(_count_heads(a.value, name) for a in args)
        case ir.Con(_, args) | ir.Var(_, args):
            n += sum(_count_heads(a.value, name) for a in args)
        case ir.Lam(s, _):
            n += _count_heads(s.body, name)
        case ir.Let(b, s):
            n += _count_heads(b, name) + _count_heads(s.body, name)
    return n


def test_criterion_5_single_imap_fusion():
    e = load_sources([("fuse.esl", corpus.FUSION)])
    d = e.env.lookup("fuse2")
    body = Normalizer(e.env, REDUCE_ALL).norm(d.payload.clauses[0].body)
    assert _count_heads_con(body, "imap") == 1
    text = kompile("fuse2", [], [], SacBackend(), e.env, e.rules)
    assert text.count("with {") == 1 and text.count("genarray") == 1
    _report(5, "transpose + elementwise ops fuse to one imap / one genarray")


def _count_heads_con(t, name: str) -> int:
    n = 0
    match t:
        case ir.Con(nm, args):
            n += (nm == name)
            n += sum(_count_heads_con(a.value, name) for a in args)
        case ir.Def(_, args) | ir.Var(_, args):
            n += sum(_count_heads_con(a.value, name) for a in args)
        case ir.Lam(s, _):
            n += _count_heads_con(s.body, name)
        case ir.Let(b, s):
            n += _count_heads_con(b, name) + _count_heads_con(s.body, name)
    return n


def test_criterion_6_avgpool_golden_and_differential():
    t0 = time.perf_counter()
    e = load_prelude()
    text = kompile("avgpool", [], [], SacBackend(), e.env, e.rules)
    assert "assert (shape (x_1)[0] == 2)" in text
    assert "assert (take (2, shape (x_2)) == cons (x_1[0] $* 2, " \
           "cons (x_1[1] $* 2, [])))" in text
    assert "#define p(__x) (x_2)[__x]" in text
    assert "(. <= iv_1 <= .)" in text
    assert text.count("p(cons") == 4
    assert "$/ 4.0f" in text
    assert "assert (take (2, shape (__ret)) == x_1)" in text
    rng = random.Random(6)
    shapes = [(32, 32)] + [(2 * rng.randrange(1, 17), 2 * rng.randrange(1, 17))
                           for _ in range(11)]
    for h, w in shapes:
        data = np.array([rng.uniform(-9, 9) for _ in range(h * w)]).reshape(h, w)
        out = interp_sac(text, "avgpool", [np.array([h // 2, w // 2]), data])
        expect = corpus.oracle_avgpool(data)
        rel = np.max(np.abs(out - expect) / np.maximum(np.abs(expect), 1.0))
        assert rel < 1e-9
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"{dt:.2f}s"
    _report(6, f"avgpool golden + block-mean oracle up to 32x32 ({dt:.2f}s)")


def test_criterion_7_broadcast_table():
    e = load_sources([("b.esl", corpus.BROADCAST)])
    assert list(call(e.env, "bvv", [])[2]) == [2, 4, 6]
    assert list(call(e.env, "bvs", [])[2]) == [2, 3, 4]
    assert list(call(e.env, "bsv", [])[2]) == [2, 3, 4]
    mismatch = False
    try:
        load_sources([("bad.esl", corpus.BROADCAST_BAD)])
    except ShapeMismatch:
        mismatch = True
    assert mismatch
    _report(7, "1 2 3+1, 1+1 2 3, 1 2 3+1 2 3, and the static mismatch")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(99)

    # de Bruijn shift/subst algebra on 1000 random terms
    def rand_term(depth=0):
        r = rng.random()
        if depth > 4 or r < 0.35:
            return Var(rng.randrange(0, 4)) if rng.random() < 0.6 \
                else Lit(rng.randrange(0, 9))
        if r < 0.6:
            return Def("_+_", (vis(rand_term(depth + 1)), vis(rand_term(depth + 1))))
        if r < 0.8:
            return ir.Lam(ir.Abs("x", rand_term(depth + 1)))
        return ir.Let(rand_term(depth + 1), ir.Abs("y", rand_term(depth + 1)))

    for _ in range(1000):
        t = rand_term()
        a, b = rng.randrange(0, 3), rng.randrange(0, 3)
        assert ir.shift(ir.shift(t, a, 1), b, 1) == ir.shift(t, a + b, 1)
        assert ir.subst(ir.shift(t, 1, 1), 1, Var(7)) == t

    # normalise idempotence across the loaded corpus
    e = load_sources([("log2.esl", corpus.LOG2), ("ack.esl", corpus.ACK),
                      ("ex.esl", corpus.EX7), ("sh.esl", corpus.SHARING),
                      ("fuse.esl", corpus.FUSION)])
    for name in e.env.names():
        d = e.env.lookup(name)
        if isinstance(d.payload, Function):
            for cl in d.payload.clauses:
                if cl.body is None:
                    continue
                once = normalise(cl.body, e.env)
                assert normalise(once, e.env) == once, name

    # Fin encoding by brute force for n <= 64
    efin = load_sources([("idf.esl", "idFin : (n : Nat) -> Fin n -> Fin n\n"
                                     "idFin n i = i\n")])
    fins = kompile("idFin", [], [], KaleidBackend(), efin.env, efin.rules)
    for n in range(65):
        for v in range(n + 9):
            out = interp_kaleid(fins, "idFin", [n, v])
            assert (out == v) if v < n else isinstance(out, Aborted)

    # rotation inverse on 100 random arrays
    er = load_sources([("r.esl", corpus.ROTATE)])
    for _ in range(100):
        n = rng.randrange(1, 9)
        x = rng.randrange(0, 15)
        data = [rng.uniform(-5, 5) for _ in range(n)]
        back = call(er.env, "rot-there-and-back", [n, x, varr((n,), data)])
        assert list(back[2]) == data

    # framework termination on a 500-function cyclic call graph
    t1 = time.perf_counter()
    env = seed_env()
    for i in range(500):
        j, k = (i * 7 + 1) % 500, (i + 1) % 500
        body = Def("_+_", (vis(Def(f"f{j}", (vis(Var(0)),))),
                           vis(Def(f"f{k}", (vis(Var(0)),)))))
        env.add(Definition(
            f"f{i}", mk_pi([("x", Def("Nat"), False)], Def("Nat")),
            Function([Clause((), (vis(PCon("zero")),), Lit(i % 3)),
                      Clause((("x", vis(Def("Nat"))),),
                             (vis(PCon("suc", (vis(PVar(0)),))),), body)])))
    out = kompile("f0", [], [], KaleidBackend(), env)
    assert out.count("def ") == 500
    dt1 = time.perf_counter() - t1
    assert dt1 < 10.0, f"{dt1:.2f}s"
    _report(8, f"algebra, idempotence, Fin brute force, rotation, "
               f"500-function closure ({dt1:.2f}s)")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except BaseException as ex:
                failures += 1
                num = name.split("_")[2]
                print(f"[acceptance {num}] FAIL: {ex}")
    raise SystemExit(1 if failures else 0)
