"""Normalization of terms and clause bodies.

Strategy: normal order to weak head normal form, then recurse into
subterms, trying registered rewrite rules innermost-leftmost after each
head step.  Clause matching (iota) reduces calls to pattern-matching
functions; primitives marked `folds` in builtins.PRIMS are computed by
their Python function once their arguments are literals, and the vector,
index and array builtins carry structural delta rules.  Let bindings whose
binder occurs more than once are preserved to keep sharing; a
faithful-lets mode restores eager substitution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import ir
from .builtins import FLOAT, NAT, PRIMS
from .ir import (Abs, Arg, Clause, Con, Def, Env, EslError, EvalError,
                 Function, Lam, Let, Lit, PAbsurd, PCon, PLit, Pi, PVar, Term,
                 Unknown, Var, apply_term, free_var_count, nat_view, pi_spine,
                 subst, vis)


class FuelExhausted(EslError):
    pass


class IllFormedRule(EslError):
    pass


class NotGroundable(EslError):
    pass


@dataclass(frozen=True)
class ReductionPolicy:
    mode: str = "all"  # "all" | "only" | "dont"
    names: frozenset = frozenset()
    fuel: int = 10**6
    faithful_lets: bool = False

    def __post_init__(self):
        assert self.fuel > 0
        assert self.mode in ("all", "only", "dont")

    def allows(self, name: str) -> bool:
        if self.mode == "only":
            return name in self.names
        if self.mode == "dont":
            return name not in self.names
        return True


def only_reduce(names, **kw) -> ReductionPolicy:
    return ReductionPolicy("only", frozenset(names), **kw)


def dont_reduce(names, **kw) -> ReductionPolicy:
    return ReductionPolicy("dont", frozenset(names), **kw)


REDUCE_ALL = ReductionPolicy()


# --------------------------------------------------------------------------
# rewrite rules


@dataclass(frozen=True)
class RewriteRule:
    name: str
    lhs: Term  # pattern variables are bare Var(0..arity-1)
    rhs: Term
    arity: int
    var_types: tuple[Term, ...] = ()  # outermost first, for check_rewrite


@dataclass
class ConfluenceWarning(UserWarning):
    rule: str
    clashes_with: str

    def __str__(self):
        return (f"rewrite rules {self.rule} and {self.clashes_with} "
                f"overlap at the root; the system may not be confluent")


class RuleSet:
    def __init__(self) -> None:
        self.rules: list[RewriteRule] = []
        self.warnings: list[ConfluenceWarning] = []

    def register(self, rule: RewriteRule) -> list[ConfluenceWarning]:
        missing = _extra_rhs_vars(rule)
        if missing:
            raise IllFormedRule(
                f"rule {rule.name}: rhs variables {sorted(missing)} not bound by lhs")
        if not isinstance(rule.lhs, (Def, Con)):
            raise IllFormedRule(f"rule {rule.name}: lhs head must be a Def or Con")
        new = []
        for old in self.rules:
            if _roots_unify(old, rule):
                w = ConfluenceWarning(rule.name, old.name)
                warnings.warn(w)
                new.append(w)
        self.rules.append(rule)
        self.warnings.extend(new)
        return new


def _extra_rhs_vars(rule: RewriteRule) -> set[int]:
    lhs_vars, rhs_vars = set(), set()
    _collect_vars(rule.lhs, 0, rule.arity, lhs_vars)
    _collect_vars(rule.rhs, 0, rule.arity, rhs_vars)
    return rhs_vars - lhs_vars


def _collect_vars(t: Term, depth: int, arity: int, acc: set) -> None:
    match t:
        case Var(i, args):
            if depth <= i < depth + arity:
                acc.add(i - depth)
            for a in args:
                _collect_vars(a.value, depth, arity, acc)
        case Con(_, args) | Def(_, args):
            for a in args:
                _collect_vars(a.value, depth, arity, acc)
        case Lam(scope, _):
            _collect_vars(scope.body, depth + 1, arity, acc)
        case Let(bound, scope):
            _collect_vars(bound, depth, arity, acc)
            _collect_vars(scope.body, depth + 1, arity, acc)
        case Pi(dom, scope):
            _collect_vars(dom.value, depth, arity, acc)
            _collect_vars(scope.body, depth + 1, arity, acc)


def _roots_unify(r1: RewriteRule, r2: RewriteRule) -> bool:
    """First-order unification of the two left-hand sides, treating the
    pattern variables of both rules as unknowns."""
    subst_map: dict[str, Term] = {}

    def tag(t: Term, which: str, depth: int = 0) -> Term:
        # pattern vars become named holes ?w:i so both rules coexist
        match t:
            case Var(i, args):
                nargs = tuple(Arg(tag(a.value, which, depth), a.hidden) for a in args)
                if depth <= i:
                    return Def(f"?{which}{i - depth}", nargs)
                return Var(i, nargs)
            case Con(name, args):
                return Con(name, tuple(Arg(tag(a.value, which, depth), a.hidden) for a in args))
            case Def(name, args):
                return Def(name, tuple(Arg(tag(a.value, which, depth), a.hidden) for a in args))
            case Lam(scope, h):
                return Lam(Abs(scope.name, tag(scope.body, which, depth + 1)), h)
            case Let(bound, scope):
                return Let(tag(bound, which, depth),
                           Abs(scope.name, tag(scope.body, which, depth + 1)))
            case _:
                return t

    def walk(t: Term) -> Term:
        while isinstance(t, Def) and t.name.startswith("?") and not t.args \
                and t.name in subst_map:
            t = subst_map[t.name]
        return t

    def unify(a: Term, b: Term) -> bool:
        a, b = walk(a), walk(b)
        if isinstance(a, Def) and a.name.startswith("?") and not a.args:
            subst_map[a.name] = b
            return True
        if isinstance(b, Def) and b.name.startswith("?") and not b.args:
            subst_map[b.name] = a
            return True
        na, nb = nat_view(a), nat_view(b)
        if na is not None and nb is not None:
            return na == nb
        match (a, b):
            case (Con(n1, a1), Con(n2, a2)) | (Def(n1, a1), Def(n2, a2)):
                if n1 != n2 or len(a1) != len(a2):
                    return False
                return all(unify(x.value, y.value) for x, y in zip(a1, a2))
            case (Lit(v1), Lit(v2)):
                return v1 == v2
            case (Var(i1, a1), Var(i2, a2)):
                return i1 == i2 and len(a1) == len(a2) and \
                    all(unify(x.value, y.value) for x, y in zip(a1, a2))
        return False

    return unify(tag(r1.lhs, "a"), tag(r2.lhs, "b"))


# --------------------------------------------------------------------------
# clause matching

_YES, _NO, _STUCK = 0, 1, 2


class Normalizer:
    def __init__(self, env: Env, policy: ReductionPolicy = REDUCE_ALL,
                 rules: RuleSet | None = None) -> None:
        self.env = env
        self.policy = policy
        self.rules = rules.rules if rules is not None else []
        self.fuel = policy.fuel

    def spend(self) -> None:
        self.fuel -= 1
        if self.fuel <= 0:
            raise FuelExhausted("reduction step budget exhausted")

    # -- weak head normal form ---------------------------------------------

    def whnf(self, t: Term) -> Term:
        while True:
            match t:
                case Let(bound, scope):
                    if self.policy.faithful_lets or \
                            free_var_count(scope.body, 0) <= 1:
                        self.spend()
                        t = subst(scope.body, 0, bound)
                        continue
                    return t
                case Con():
                    return self._canon(t)
                case Def(name, args):
                    if not self.policy.allows(name):
                        return t
                    step = self._delta(name, args)
                    if step is None:
                        step = self._iota(name, args)
                    if step is None:
                        return t
                    self.spend()
                    t = step
                case _:
                    return t

    def _canon(self, t: Con) -> Term:
        """Collapse closed suc/fsuc spines into literals."""
        if t.name in ("suc", "fsuc"):
            inner = self.whnf(t.args[-1].value)
            n = nat_view(inner)
            if n is not None:
                return Lit(n + 1)
            if inner is not t.args[-1].value:
                return Con(t.name, t.args[:-1] + (Arg(inner, t.args[-1].hidden),))
        elif t.name in ("zero", "fzero"):
            return Lit(0)
        return t

    def _iota(self, name: str, args: tuple[Arg, ...]) -> Term | None:
        d = self.env.lookup(name) if name in self.env else None
        if d is None or not isinstance(d.payload, Function):
            return None
        for cl in d.payload.clauses:
            k = len(cl.patterns)
            if len(args) < k:
                return None
            binds: dict[int, Term] = {}
            res = self._match_args(cl.patterns, args[:k], binds)
            if res == _STUCK:
                return None
            if res == _NO:
                continue
            body = cl.body
            assert body is not None
            vals = [binds.get(i, Unknown()) for i in range(len(cl.telescope))]
            return apply_term(subst(body, 0, *vals), args[k:])
        return None

    def _match_args(self, pats, args, binds) -> int:
        for p, a in zip(pats, args):
            res = self._match(p.value, a.value, binds)
            if res != _YES:
                return res
        return _YES

    def _match(self, p, t: Term, binds) -> int:
        if isinstance(p, PVar):
            binds[p.idx] = t
            return _YES
        if isinstance(p, PAbsurd):
            return _NO
        t = self.whnf(t)
        if isinstance(p, PLit):
            n = nat_view(t)
            if isinstance(p.value, int):
                if n is not None:
                    return _YES if n == p.value else _NO
                if isinstance(t, Con):
                    return _NO
                return _STUCK
            if isinstance(t, Lit):
                return _YES if t.value == p.value else _NO
            return _STUCK
        assert isinstance(p, PCon)
        if p.name == "zero" or p.name == "fzero":
            n = nat_view(t)
            if n is not None:
                return _YES if n == 0 else _NO
            if isinstance(t, Con) and t.name in ("suc", "fsuc"):
                return _NO
            return _STUCK
        if p.name in ("suc", "fsuc"):
            inner = ir.suc_view(t)
            if inner is not None:
                for a in p.args[:-1]:  # hidden bound args are unrecoverable
                    if isinstance(a.value, PVar):
                        binds[a.value.idx] = Unknown()
                return self._match(p.args[-1].value, inner, binds)
            n = nat_view(t)
            if n == 0:
                return _NO
            if isinstance(t, Con) and t.name in ("zero", "fzero"):
                return _NO
            return _STUCK
        if isinstance(t, Con):
            if t.name != p.name:
                return _NO
            pvis = [a for a in p.args if not a.hidden]
            phid = [a for a in p.args if a.hidden]
            tvis = [a for a in t.args if not a.hidden]
            thid = [a for a in t.args if a.hidden]
            if len(pvis) != len(tvis) or len(phid) > len(thid):
                return _STUCK
            res = self._match_args(phid, thid[:len(phid)], binds)
            if res != _YES:
                return res
            return self._match_args(pvis, tvis, binds)
        if isinstance(t, Lit):
            return _NO
        return _STUCK

    # -- delta rules ---------------------------------------------------------

    def _delta(self, name: str, args: tuple[Arg, ...]) -> Term | None:
        h = _DELTA.get(name)
        if h is None:
            return None
        return h(self, args)

    def _spine(self, t: Term, cons: str, nil: str) -> list[Term] | None:
        items = []
        t = self.whnf(t)
        while isinstance(t, Con) and t.name == cons:
            items.append(t.args[-2].value)
            t = self.whnf(t.args[-1].value)
        if isinstance(t, Con) and t.name == nil:
            return items
        return None

    def vec_spine(self, t: Term) -> list[Term] | None:
        return self._spine(t, "vcons", "vnil")

    def ix_spine(self, t: Term) -> list[Term] | None:
        return self._spine(t, "icons", "inil")

    # -- full normalization ---------------------------------------------------

    def norm(self, t: Term) -> Term:
        t = self.whnf(t)
        match t:
            case Var(i, args):
                return self._post(Var(i, self._norm_args(args)))
            case Con(name, args):
                return self._post(Con(name, self._norm_args(args)))
            case Def(name, args):
                return self._post(Def(name, self._norm_args(args)))
            case Lam(scope, h):
                return Lam(Abs(scope.name, self.norm(scope.body)), h)
            case Let(bound, scope):
                return Let(self.norm(bound), Abs(scope.name, self.norm(scope.body)))
            case Pi(dom, scope):
                return Pi(Arg(self.norm(dom.value), dom.hidden),
                          Abs(scope.name, self.norm(scope.body)))
            case _:
                return t

    def _norm_args(self, args: tuple[Arg, ...]) -> tuple[Arg, ...]:
        return tuple(Arg(self.norm(a.value), a.hidden) for a in args)

    def _post(self, t: Term) -> Term:
        """Head work that may become possible once arguments are normal:
        another whnf pass, then rewrite rules at this node."""
        t2 = self.whnf(t)
        if t2 is not t and t2 != t:
            return self.norm(t2)
        if isinstance(t2, Con):
            t3 = self._canon(t2)
            if t3 != t2:
                return self.norm(t3)
        if isinstance(t2, (Def, Con)):
            r = self._try_rules(t2)
            if r is not None:
                self.spend()
                return self.norm(r)
        return t2

    def _try_rules(self, t: Term) -> Term | None:
        for rule in self.rules:
            binds: dict[int, Term] = {}
            if _match_rule(rule.lhs, t, rule.arity, binds) and \
                    len(binds) == rule.arity:
                return subst(rule.rhs, 0, *(binds[i] for i in range(rule.arity)))
        return None


def _match_rule(pat: Term, t: Term, arity: int, binds, depth: int = 0) -> bool:
    match pat:
        case Var(i, ()) if depth <= i < depth + arity:
            key = i - depth
            if depth:
                try:  # the binding must not capture local binders
                    t = ir.shift(t, -depth)
                except ir.NegativeIndex:
                    return False
            if key in binds:
                return binds[key] == t
            binds[key] = t
            return True
        case Var(i, pargs):
            if not (isinstance(t, Var) and t.idx == i and len(t.args) == len(pargs)):
                return False
            return all(_match_rule(p.value, a.value, arity, binds, depth)
                       for p, a in zip(pargs, t.args))
        case Con(name, pargs) | Def(name, pargs):
            n_p = nat_view(pat)
            if n_p is not None:
                return nat_view(t) == n_p
            if not (type(t) is type(pat) and t.name == name and
                    len(t.args) == len(pargs)):
                return False
            return all(_match_rule(p.value, a.value, arity, binds, depth)
                       for p, a in zip(pargs, t.args))
        case Lit(v):
            return nat_view(t) == v if isinstance(v, int) else \
                isinstance(t, Lit) and t.value == v
        case Lam(scope, h):
            return isinstance(t, Lam) and t.hidden == h and \
                _match_rule(scope.body, t.scope.body, arity, binds, depth + 1)
        case _:
            return False


# --------------------------------------------------------------------------
# delta handlers


def _float_lit(t: Term) -> float | None:
    return t.value if isinstance(t, Lit) and isinstance(t.value, float) else None


_LITERAL = {NAT: nat_view, FLOAT: _float_lit}


def _d_fold(fn, reads):
    """A primitive computed by its Python function.  Its arguments are
    brought to whnf left to right and read as literals; the first that is
    not one leaves the call to the primitive's clauses, if it has any (1 + x
    must expose its constructor), and so does an EvalError or a result that
    no literal denotes (a float overflowing to infinity)."""
    def h(nz, args):
        if len(args) != len(reads):
            return None
        vals = []
        for read, a in zip(reads, args):
            v = read(nz.whnf(a.value))
            if v is None:
                return None
            vals.append(v)
        try:
            out = fn(*vals)
        except EvalError:
            return None
        if isinstance(out, tuple):  # ("dec", bool)
            return Con("yes") if out[1] else Con("no")
        if isinstance(out, float) and not math.isfinite(out):
            return None
        return Lit(out)
    return h


def _d_vidx(nz, args):
    va = [a.value for a in args if not a.hidden]
    k = nat_view(nz.whnf(va[0]))
    if k is None:
        return None
    items = nz.vec_spine(va[1])
    if items is None or k >= len(items):
        return None
    return items[k]


def _d_vreverse(nz, args):
    items = nz.vec_spine(args[-1].value)
    if items is None:
        return None
    return _vec_of(list(reversed(items)))


def _vec_of(items) -> Term:
    out: Term = Con("vnil")
    for x in reversed(items):
        out = Con("vcons", (vis(x), vis(out)))
    return out


def _ix_of(items) -> Term:
    out: Term = Con("inil")
    for x in reversed(items):
        out = Con("icons", (vis(x), vis(out)))
    return out


def _d_vhd(nz, args):
    items = nz.vec_spine(args[-1].value)
    return items[0] if items else None


def _d_vtl(nz, args):
    items = nz.vec_spine(args[-1].value)
    return _vec_of(items[1:]) if items else None


def _d_vtake(nz, args):
    va = [a.value for a in args if not a.hidden]
    k, items = nat_view(nz.whnf(va[0])), nz.vec_spine(va[1])
    if k is None or items is None or k > len(items):
        return None
    return _vec_of(items[:k])


def _d_vdrop(nz, args):
    va = [a.value for a in args if not a.hidden]
    k, items = nat_view(nz.whnf(va[0])), nz.vec_spine(va[1])
    if k is None or items is None:
        return None
    return _vec_of(items[k:])


def _d_vappend(nz, args):
    va = [a.value for a in args if not a.hidden]
    a, b = nz.vec_spine(va[0]), nz.vec_spine(va[1])
    if a is None or b is None:
        return None
    return _vec_of(a + b)


def _d_vscale(nz, args):
    va = [a.value for a in args if not a.hidden]
    items = nz.vec_spine(va[0])
    if items is None:
        return None
    k = va[1]
    return _vec_of([Def("_*_", (vis(x), vis(k))) for x in items])


def _d_prodv(nz, args):
    items = nz.vec_spine(args[-1].value)
    if items is None:
        return None
    out: Term = Lit(1)
    total = 1
    lits = [nat_view(nz.whnf(x)) for x in items]
    if all(v is not None for v in lits):
        for v in lits:
            total *= v
        return Lit(total)
    out = items[0]
    for x in items[1:]:
        out = Def("_*_", (vis(out), vis(x)))
    return out


def _d_sel(nz, args):
    va = [a.value for a in args if not a.hidden]
    if len(va) != 2:
        return None
    arr = nz.whnf(va[0])
    if isinstance(arr, Con) and arr.name == "imap":
        return apply_term(arr.args[-1].value, (vis(va[1]),))
    return None


def _d_ixc(nz, args):
    va = [a.value for a in args if not a.hidden]
    k, items = nat_view(nz.whnf(va[0])), nz.ix_spine(va[1])
    if k is None or items is None or k >= len(items):
        return None
    return items[k]


def _d_ixreverse(nz, args):
    items = nz.ix_spine(args[-1].value)
    if items is None:
        return None
    return _ix_of(list(reversed(items)))


_DELTA = {p.name: _d_fold(p.fn, [_LITERAL[a.value.name]
                                 for _, a in pi_spine(p.sig)[0]])
          for p in PRIMS.values() if p.folds}
_DELTA.update({
    "vidx": _d_vidx,
    "vreverse": _d_vreverse,
    "vhd": _d_vhd,
    "vtl": _d_vtl,
    "vtake": _d_vtake,
    "vdrop": _d_vdrop,
    "vappend": _d_vappend,
    "_*v_": _d_vscale,
    "prodv": _d_prodv,
    "sel": _d_sel,
    "ixc": _d_ixc,
    "ixReverse": _d_ixreverse,
})


# --------------------------------------------------------------------------
# public entry points


def normalise(t: Term, env: Env, policy: ReductionPolicy = REDUCE_ALL,
              rules: RuleSet | None = None) -> Term:
    return Normalizer(env, policy, rules).norm(t)


def normalise_clause(cl: Clause, env: Env, policy: ReductionPolicy = REDUCE_ALL,
                     rules: RuleSet | None = None) -> Clause:
    tel = tuple((n, Arg(normalise(a.value, env, policy, rules), a.hidden))
                for n, a in cl.telescope)
    if cl.body is None:
        return Clause(tel, cl.patterns, None)
    return Clause(tel, cl.patterns, normalise(cl.body, env, policy, rules))


def check_rewrite(rule: RewriteRule, trials: int, env: Env, seed: int = 0):
    """Evaluate both sides on random ground instances; return "pass" or the
    first counterexample as a dict of variable assignments."""
    import random

    from . import evaluate

    rng = random.Random(seed)
    if len(rule.var_types) != rule.arity:
        raise NotGroundable(f"rule {rule.name} lacks variable type information")
    for _ in range(trials):
        inst = [_ground(ty, rng) for ty in rule.var_types]
        lhs, rhs = rule.lhs, rule.rhs
        for i in range(rule.arity):
            # pattern var i is bound outermost-first
            lhs = subst(lhs, rule.arity - 1 - i, inst[i])
            rhs = subst(rhs, rule.arity - 1 - i, inst[i])
        lv = evaluate.eval_closed(lhs, env)
        rv = evaluate.eval_closed(rhs, env)
        if lv != rv:
            return {"assignment": inst, "lhs": lv, "rhs": rv}
    return "pass"


def _ground(ty: Term, rng) -> Term:
    match ty:
        case Def("Nat", ()):
            return Lit(rng.randrange(20))
        case Def("Float", ()):
            return Lit(rng.uniform(-8.0, 8.0))
        case Def("List", (Arg(Def("Nat", ()), _),)):
            items = [Lit(rng.randrange(20)) for _ in range(rng.randrange(5))]
            out: Term = Con("lnil")
            for x in reversed(items):
                out = Con("lcons", (vis(x), vis(out)))
            return out
        case Def("Vec", (Arg(Def("Nat", ()), _), Arg(n, _))) if nat_view(n) is not None:
            return _vec_of([Lit(rng.randrange(20)) for _ in range(nat_view(n))])
    raise NotGroundable(f"cannot ground a variable of type {ir.print_term(ty)}")
