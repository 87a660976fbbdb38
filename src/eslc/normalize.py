"""Normalization of terms and clause bodies.

Strategy: normal order to weak head normal form, then recurse into
subterms, trying registered rewrite rules innermost-leftmost after each
head step.  Reduction is call by need: a clause substitutes its arguments
unreduced, and a Normalizer remembers the weak head normal form of each
term object it has reduced, so an argument read at several places (its
occurrences, clause matches, primitive folds) is reduced once and its
steps are counted once.  The memo lives as long as one budget of fuel:
one `normalise` call, or one step of the elaborator, whose environment
gains clauses between steps.

Clause matching (iota) reduces calls to pattern-matching functions;
primitives marked `folds` in builtins.PRIMS are computed by their Python
function once their visible arguments are closed (literals, or
vcons/icons spines), and only the three builtins that build symbolic
terms (`_*v_`, `prodv`, `sel`) carry delta rules of their own.  Let
bindings whose binder occurs more than once are preserved to keep
sharing; a faithful-lets mode restores eager substitution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import ir
from .builtins import FLOAT, NAT, PRIMS
from .ir import (Arg, Clause, Con, Def, Env, EslError, EvalError, Function,
                 Lam, Let, Lit, PAbsurd, PCon, PVar, Term, Unknown, Var,
                 apply_term, free_var_count, map_args, map_subterms, nat_view,
                 pi_spine, subst, vis)


class FuelExhausted(EslError):
    pass


class IllFormedRule(EslError):
    pass


class NotGroundable(EslError):
    pass


@dataclass(frozen=True)
class ReductionPolicy:
    names: frozenset = frozenset()  # the heads never unfolded
    fuel: int = 10**6
    faithful_lets: bool = False

    def __post_init__(self):
        assert self.fuel > 0

    def allows(self, name: str) -> bool:
        return name not in self.names


def dont_reduce(names, **kw) -> ReductionPolicy:
    return ReductionPolicy(frozenset(names), **kw)


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
    return _rule_vars(rule.rhs, rule.arity) - _rule_vars(rule.lhs, rule.arity)


def _rule_vars(t: Term, arity: int) -> set[int]:
    """The pattern variables (bare Var(0..arity-1) at the top) that occur
    in t, under binders too."""
    found = set()

    def visit(u: Term, depth: int) -> Term:
        if type(u) is Var and depth <= u.idx < depth + arity:
            found.add(u.idx - depth)
        return map_subterms(u, visit, depth)

    visit(t, 0)
    return found


def _roots_unify(r1: RewriteRule, r2: RewriteRule) -> bool:
    """First-order unification of the two left-hand sides, treating the
    pattern variables of both rules as unknowns."""
    subst_map: dict[str, Term] = {}

    def tag(t: Term, depth: int, which: str) -> Term:
        # pattern vars become named holes ?w:i so both rules coexist
        if type(t) is Var and t.idx >= depth:
            return Def(f"?{which}{t.idx - depth}", map_args(t.args, tag, depth, which))
        return map_subterms(t, tag, depth, which)

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

    return unify(tag(r1.lhs, 0, "a"), tag(r2.lhs, 0, "b"))


# --------------------------------------------------------------------------
# clause matching

_YES, _NO, _STUCK = 0, 1, 2


class Normalizer:
    def __init__(self, env: Env, policy: ReductionPolicy = REDUCE_ALL,
                 rules: RuleSet | None = None) -> None:
        self.env = env
        self.policy = policy
        self.rules = rules.rules if rules is not None else []
        self.refuel()

    def refuel(self) -> None:
        """A fresh budget of steps, and with it an empty memo: a term is
        reduced anew under each budget, so one reduced before a definition
        gained clauses is not answered from what it reduced to then."""
        self.fuel = self.policy.fuel
        # id(term) -> (term, its weak head normal form); holding the term
        # keeps its id from being reused while the entry lives
        self._memo: dict[int, tuple[Term, Term]] = {}

    def spend(self) -> None:
        self.fuel -= 1
        if self.fuel <= 0:
            raise FuelExhausted("reduction step budget exhausted")

    # -- weak head normal form ---------------------------------------------

    def whnf(self, t: Term) -> Term:
        """The weak head normal form of t, reduced once per term object and
        budget: a term met again, say an argument that a clause body reads
        twice, is answered from the memo and spends no fuel."""
        hit = self._memo.get(id(t))
        if hit is not None:
            return hit[1]
        w = self._reduce(t)
        self._memo[id(t)] = (t, w)
        return w

    def _reduce(self, t: Term) -> Term:
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

    # -- full normalization ---------------------------------------------------

    def norm(self, t: Term) -> Term:
        t = map_subterms(self.whnf(t), lambda u, _: self.norm(u), 0)
        return self._post(t) if type(t) in (Var, Con, Def) else t

    def _post(self, t: Term) -> Term:
        """Head work that may become possible once arguments are normal:
        another whnf pass, then rewrite rules at this node."""
        t2 = self.whnf(t)
        if t2 is not t and t2 != t:
            return self.norm(t2)
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


def _literal(view):
    return lambda nz, t: view(nz.whnf(t))


_SPINES = {"vec": ("vcons", "vnil"), "ix": ("icons", "inil")}


def _spine(kind: str):
    """Read a closed spine as the evaluator's value of its kind, with the
    items left as terms."""
    cons, nil = _SPINES[kind]

    def read(nz, t):
        items = []
        t = nz.whnf(t)
        while isinstance(t, Con) and t.name == cons:
            items.append(t.args[-2].value)
            t = nz.whnf(t.args[-1].value)
        return (kind, tuple(items)) if isinstance(t, Con) and t.name == nil else None
    return read


def _spine_of(kind: str, items) -> Term:
    cons, nil = _SPINES[kind]
    out: Term = Con(nil)
    for x in reversed(items):
        out = Con(cons, (vis(x), vis(out)))
    return out


# a visible parameter is read by the head of its declared type
_READ = {NAT: _literal(nat_view), FLOAT: _literal(_float_lit),
         "Vec": _spine("vec"), "Ix": _spine("ix")}
_vec_items = _READ["Vec"]


def _hidden(nz, t):
    return t


def _d_fold(fn, reads):
    """A primitive computed by its Python function.  Its arguments are read
    left to right, a hidden one as the term itself; the first that is not
    closed leaves the call to the primitive's clauses, if it has any (1 + x
    must expose its constructor), and so does an EvalError or a result that
    no literal denotes (a float overflowing to infinity)."""
    def h(nz, args):
        if len(args) != len(reads):
            return None
        vals = []
        for read, a in zip(reads, args):
            v = read(nz, a.value)
            if v is None:
                return None
            vals.append(v)
        try:
            out = fn(*vals)
        except EvalError:
            return None
        if isinstance(out, tuple):  # ("dec", bool) or a ("vec" | "ix", items)
            if out[0] == "dec":
                return Con("yes") if out[1] else Con("no")
            return _spine_of(*out)
        if isinstance(out, Term):  # an item of a spine argument
            return out
        if isinstance(out, float) and not math.isfinite(out):
            return None
        return Lit(out)
    return h


def _d_vscale(nz, args):
    va = [a.value for a in args if not a.hidden]
    v = _vec_items(nz, va[0])
    if v is None:
        return None
    k = va[1]
    return _spine_of("vec", [Def("_*_", (vis(x), vis(k))) for x in v[1]])


def _d_prodv(nz, args):
    vec = _vec_items(nz, args[-1].value)
    if vec is None:
        return None
    items = vec[1]
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


_DELTA = {p.name: _d_fold(p.fn, [_hidden if a.hidden else _READ[a.value.name]
                                 for _, a in pi_spine(p.sig)[0]])
          for p in PRIMS.values() if p.folds}
_DELTA.update({"_*v_": _d_vscale, "prodv": _d_prodv, "sel": _d_sel})


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
        # pattern variable i is bound outermost-first: it is Var(arity - 1 - i)
        lv, rv = (evaluate.eval_closed(subst(side, 0, *reversed(inst)), env)
                  for side in (rule.lhs, rule.rhs))
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
            return _spine_of("vec", [Lit(rng.randrange(20))
                                     for _ in range(nat_view(n))])
    raise NotGroundable(f"cannot ground a variable of type {ir.print_term(ty)}")
