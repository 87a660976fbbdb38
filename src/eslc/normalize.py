"""Normalization by evaluation of core terms.

A term is evaluated (`_eval`) to a value, and a value read back to a
term.  In a value, a variable is a `VVar` by de Bruijn level, a binder a
`VBind` closure, an argument may be a `VLazy` cell, evaluated when first
forced, and a `Hole` stands for an elaborator's `Meta`; `Con`, `Def`,
`Lit`, `Sort` and `Unknown` are the term nodes, with values in their
spines, so a closed term without binders is its own value.

`Normalizer.whnf` reduces a value to weak head normal form, in normal
order.  Iota matches a function's clauses against forced values and
evaluates the body in the environment of the matched values.  Primitives
marked `folds` in builtins.PRIMS are computed by their Python function
once their visible arguments are closed (literals, or vcons/icons
spines); only `_*v_` carries a delta rule of its own, written in Python
because its clauses would spend one step per item.
Reduction is call by need: the arguments of a call are cells, and a cell
keeps the weak head normal form it reduced to, so an argument read at
several places is reduced, and its steps counted, once.  A let whose
variable is read more than once stays a let, to keep the sharing, unless
its value is a function, which shares no work and which no target holds;
a faithful-lets mode substitutes every let.

`Normalizer.norm` reads a value back under binders, reducing as it goes:
on each spine, once its arguments are normal, it tries the head step
again if a rewrite rule changed an argument, then the rewrite rules.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

from . import ir
from .builtins import FLOAT, NAT, PRIMS
from .ir import (Abort, Abs, Arg, Con, Def, Env, EslError, Function,
                 Lam, Let, Lit, PAbsurd, PCon, Pi, PVar, Term, Unknown, Var,
                 free_vars, map_args, map_subterms, nat_view, pi_spine, subst,
                 vis)


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


@dataclass
class InertRuleWarning(UserWarning):
    rule: str

    def __str__(self):
        return (f"rewrite rule {self.rule} never fires: its left-hand side "
                f"holds a let, or another form that matches no term")


class RuleSet:
    def __init__(self) -> None:
        self.rules: list[RewriteRule] = []
        self.warnings: list[UserWarning] = []

    def register(self, rule: RewriteRule) -> list[UserWarning]:
        missing = set(free_vars(rule.rhs)) - set(free_vars(rule.lhs))
        if missing:
            raise IllFormedRule(
                f"rule {rule.name}: rhs variables {sorted(missing)} not bound by lhs")
        if not isinstance(rule.lhs, (Def, Con)):
            raise IllFormedRule(f"rule {rule.name}: lhs head must be a Def or Con")
        new: list[UserWarning] = [ConfluenceWarning(rule.name, old.name)
                                  for old in self.rules if _roots_unify(old, rule)]
        if not _match_rule(rule.lhs, rule.lhs, rule.arity, {}):
            new.append(InertRuleWarning(rule.name))  # no term matches it
        for w in new:
            warnings.warn(w)
        self.rules.append(rule)
        self.warnings.extend(new)
        return new


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
        # a variable is a hole here, except under a binder, which this
        # does not enter
        return False

    return unify(tag(r1.lhs, 0, "a"), tag(r2.lhs, 0, "b"))


# --------------------------------------------------------------------------
# values


@dataclass(slots=True, eq=False)
class Meta:
    """A hidden argument to infer, made under `depth` binders; one
    unification solves it with a value over the first `depth` variables."""
    name: str
    depth: int
    solution: object = None


@dataclass(slots=True, unsafe_hash=True, repr=False)
class Hole(Def):
    """A meta applied to `args`, in terms and values alike; it prints as a
    definition of the meta's name."""
    meta: Meta | None = None


@dataclass(slots=True, unsafe_hash=True)
class VVar:
    level: int
    args: tuple[Arg, ...] = ()


@dataclass(slots=True, eq=False)
class VBind:
    """A Pi (`dom` its domain), lambda (`dom` None) or let (`dom` the bound
    value, `shared` if its variable is read more than once); `body(v)` is
    the value under the binder for the variable `v`."""
    kind: str  # "pi" | "lam" | "let"
    name: str
    hidden: bool
    dom: object
    body: Callable
    shared: bool = False


@dataclass(slots=True, eq=False)
class VLazy:
    """The value of `term` in `env`, evaluated when first forced, and the
    weak head normal form it reduces to, kept once reduced."""
    term: Term | None
    env: tuple
    value: object = None
    whnf: object = None


def _cell(v):
    """`v` in a cell, unless it is one or cannot reduce."""
    return v if type(v) in (VLazy, VVar, Lit) else VLazy(None, (), v)


# these dispatch on type(...), not `match`: they run for every node read


def _eval(t: Term, env: tuple):
    """The value of `t`, whose variable i is env[i]."""
    cls = type(t)
    if cls is Var:
        v = env[t.idx]
        return _apply(v, map_args(t.args, _eval, env)) if t.args else v
    if cls is Def or cls is Con:
        args = t.args
        nargs = map_args(args, _eval, env) if args else args
        return t if nargs is args else cls(t.name, nargs)
    if cls is Pi or cls is Lam or cls is Let:
        body = t.scope.body
        def under(v):
            return _eval(body, (v,) + env)
        if cls is Pi:
            return VBind("pi", t.scope.name, t.domain.hidden,
                         _eval(t.domain.value, env), under)
        if cls is Lam:
            return VBind("lam", t.scope.name, t.hidden, None, under)
        return VBind("let", t.scope.name, False, _eval(t.bound, env), under,
                     free_vars(body).count(0) > 1)
    if cls is Hole:
        args = map_args(t.args, _eval, env)
        return t if args is t.args else Hole(t.name, args, t.meta)
    return t


def _apply(v, args: tuple[Arg, ...]):
    if not args:
        return v
    v = _force(v)
    cls = type(v)
    if cls is VVar:
        return VVar(v.level, v.args + args)
    if cls is Hole:
        return Hole(v.name, v.args + args, v.meta)
    if cls is Def:  # a constructor application is saturated
        return Def(v.name, v.args + args)
    if cls is VBind and v.kind == "lam":
        return _apply(v.body(args[0].value), args[1:])
    if cls is VBind and v.kind == "let":
        body = v.body
        return VBind("let", v.name, False, v.dom,
                     lambda x: _apply(body(x), args), v.shared)
    if cls is Unknown:
        return v
    raise EslError(f"cannot apply arguments to {v!r}")


def _force(v):
    """`v` with its head evaluated and its solved metas there read."""
    while True:
        cls = type(v)
        if cls is VLazy:
            if v.value is None:
                v.value = _eval(v.term, v.env)
            v = v.value
        elif cls is Hole and v.meta.solution is not None:
            v = _apply(v.meta.solution, v.args)
        else:
            return v


def _neutrals(depth: int) -> tuple:
    """The environment of `depth` variables, each its own VVar."""
    return tuple(VVar(depth - 1 - i) for i in range(depth))


# --------------------------------------------------------------------------
# reduction

_YES, _NO, _STUCK = 0, 1, 2


class Normalizer:
    def __init__(self, env: Env, policy: ReductionPolicy = REDUCE_ALL,
                 rules: RuleSet | None = None) -> None:
        self.env = env
        self.policy = policy
        self.rules = rules.rules if rules is not None else []
        self.fuel = policy.fuel
        self.unsolved = 0  # how many times an unsolved meta was read

    def spend(self) -> None:
        self.fuel -= 1
        if self.fuel <= 0:
            raise FuelExhausted("reduction step budget exhausted")

    # -- weak head normal form ---------------------------------------------

    def whnf(self, v):
        """The weak head normal form of the value `v`.  A cell is reduced
        once: read again, it answers with the form it keeps and spends no
        fuel, unless reducing it read an unsolved meta."""
        while True:
            cls = type(v)
            if cls is VLazy:
                if v.whnf is None:
                    unsolved = self.unsolved
                    w = self.whnf(_force(v))
                    if self.unsolved != unsolved:
                        return w  # a unification may yet solve what it read
                    v.whnf = w
                return v.whnf
            if cls is Con:
                return self._canon(v)
            if cls is Def:
                if v.name in self.policy.names:
                    return v
                v, step = self._unfold(v)
                if step is None:
                    return v
            elif cls is VBind and v.kind == "let" and (
                    self.policy.faithful_lets or not v.shared
                    or self._is_function(v.dom)):
                step = v.body(v.dom)
            elif cls is Hole:
                if v.meta.solution is None:
                    self.unsolved += 1
                    return v
                v = _force(v)
                continue
            else:
                return v
            self.spend()
            v = step

    def _is_function(self, v) -> bool:
        """Whether the value `v` is a lambda or a definition applied to
        fewer arguments than it takes (the elaborator saturates every
        constructor)."""
        v = _force(v)
        if type(v) is VBind:
            return v.kind == "lam"
        if type(v) is not Def or v.name not in self.env:
            return False
        return len(v.args) < len(pi_spine(self.env.lookup(v.name).signature)[0])

    def _canon(self, v: Con):
        """Collapse closed suc/fsuc spines into literals."""
        if v.name in ("suc", "fsuc"):
            inner = self.whnf(v.args[-1].value)
            n = nat_view(inner)
            if n is not None:
                return Lit(n + 1)
            if inner is not v.args[-1].value:
                return Con(v.name, v.args[:-1] + (Arg(inner, v.args[-1].hidden),))
        elif v.name in ("zero", "fzero"):
            return Lit(0)
        return v

    def _unfold(self, v: Def):
        """The call `v`, its arguments in cells, and its value after one
        delta or iota step, or None if it is stuck."""
        payload = self.env.lookup(v.name).payload if v.name in self.env else None
        clauses = payload.clauses if isinstance(payload, Function) else ()
        delta = _DELTA.get(v.name)
        if delta is None and not clauses:
            return v, None
        # the delta rule, every clause and whoever reads the stuck call
        # read the same cells
        args = map_args(v.args, _cell)
        v = v if args is v.args else Def(v.name, args)
        step = delta(self, args) if delta is not None else None
        if step is not None:
            return v, step
        for cl in clauses:  # iota
            k = len(cl.patterns)
            if len(args) < k:
                break
            binds: dict[int, object] = {}
            res = self._match_args(cl.patterns, args[:k], binds)
            if res == _STUCK:
                break
            if res == _YES:
                env = tuple(binds[i] for i in range(len(cl.telescope)))
                return v, _apply(_eval(cl.body, env), args[k:])
        return v, None

    def _match_args(self, pats, args, binds) -> int:
        for p, a in zip(pats, args):
            res = self._match(p.value, a.value, binds)
            if res != _YES:
                return res
        return _YES

    def _match(self, p, v, binds) -> int:
        if isinstance(p, PVar):
            binds[p.idx] = v
            return _YES
        if isinstance(p, PAbsurd):
            return _NO
        v = self.whnf(v)
        assert isinstance(p, PCon)
        # a closed natural or Fin is a literal in weak head normal form
        if p.name == "zero" or p.name == "fzero":
            n = nat_view(v)
            if n is not None:
                return _YES if n == 0 else _NO
            return _NO if isinstance(v, Con) and v.name in ("suc", "fsuc") \
                else _STUCK
        if p.name in ("suc", "fsuc"):
            inner = ir.suc_view(v)
            if inner is not None:
                return self._match(p.args[0].value, inner, binds)
            return _NO if nat_view(v) == 0 else _STUCK
        if isinstance(v, Con):
            if v.name != p.name:
                return _NO
            # a saturated constructor: its visible arguments are the pattern's
            return self._match_args(p.args, [a for a in v.args if not a.hidden], binds)
        if isinstance(v, Lit):
            return _NO
        return _STUCK

    # -- full normalization ---------------------------------------------------

    def norm(self, t: Term, depth: int | None = None) -> Term:
        """The normal form of the term `t` under `depth` binders, by default
        as many as its free variables need; `t` itself if it is normal."""
        if depth is None:
            depth = max(free_vars(t), default=-1) + 1
        out = self._nf(_eval(t, _neutrals(depth)), depth)
        return t if out == t else out

    def _nf(self, v, depth: int) -> Term:
        """The normal form of the value `v`, read back under `depth`
        binders."""
        v = self.whnf(v)
        cls = type(v)
        if cls is VVar:
            return Var(depth - 1 - v.level, map_args(v.args, self._nf, depth))
        if cls is VBind:
            body = Abs(v.name, self._nf(v.body(VVar(depth)), depth + 1))
            if v.kind == "lam":
                return Lam(body, v.hidden)
            dom = self._nf(v.dom, depth)
            return Pi(Arg(dom, v.hidden), body) if v.kind == "pi" else Let(dom, body)
        if cls is not Con and cls is not Def:
            return v
        args = map_args(v.args, self._nf, depth)
        t = v if args is v.args else cls(v.name, args)
        if self.rules:  # an argument a rule rewrote may let the head step
            fuel = self.fuel
            w = self.whnf(_eval(t, _neutrals(depth)))
            if self.fuel != fuel:  # a step: the arguments are normal
                return self._nf(w, depth)
        for rule in self.rules:
            binds: dict[int, Term] = {}
            if _match_rule(rule.lhs, t, rule.arity, binds) and \
                    len(binds) == rule.arity:
                self.spend()
                env = _neutrals(depth)
                vals = tuple(_eval(binds[i], env) for i in range(rule.arity))
                return self._nf(_eval(rule.rhs, vals), depth)
        return t


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


# a spine type's constructors: cons, then nil
_SPINES = {"Vec": ("vcons", "vnil"), "Ix": ("icons", "inil"),
           "List": ("lcons", "lnil")}


def _spine(kind: str):
    """Read a closed spine as the evaluator's value of its kind, the tuple
    of its items, with the items left as they are."""
    cons, nil = _SPINES[kind]

    def read(nz, t):
        items = []
        t = nz.whnf(t)
        while isinstance(t, Con) and t.name == cons:
            items.append(t.args[-2].value)
            t = nz.whnf(t.args[-1].value)
        return tuple(items) if isinstance(t, Con) and t.name == nil else None
    return read


def _spine_of(kind: str, items) -> Term:
    cons, nil = _SPINES[kind]
    out: Term = Con(nil)
    for x in reversed(items):
        out = Con(cons, (vis(x), vis(out)))
    return out


def _lit_or_item(v) -> Term | None:
    """A number's literal (none denotes a float overflowing to infinity);
    anything else is an item of a spine argument, a term already."""
    if not isinstance(v, (int, float)):
        return v
    return None if isinstance(v, float) and not math.isfinite(v) else Lit(v)


# a visible parameter is read by the head of its declared type, and a
# result of a decision or spine type built by it
_READ = {NAT: _literal(nat_view), FLOAT: _literal(_float_lit),
         "Vec": _spine("Vec"), "Ix": _spine("Ix")}
_BUILD = {"Dec": lambda b: Con("yes") if b else Con("no"),
          "Vec": lambda v: _spine_of("Vec", v),
          "Ix": lambda v: _spine_of("Ix", v)}


def _d_fold(fn, sig: Term):
    """A primitive computed by its Python function.  Its arguments are read
    left to right, a hidden one as the value itself; the first that is not
    closed leaves the call to the primitive's clauses, if it has any (1 + x
    must expose its constructor), and so does an Abort or a result that no
    literal denotes."""
    tel, ret = pi_spine(sig)
    reads = [(lambda nz, v: v) if a.hidden else _READ[a.value.name]
             for _, a in tel]
    build = _BUILD.get(ret.name, _lit_or_item) if isinstance(ret, Def) \
        else _lit_or_item

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
            return build(fn(*vals))
        except Abort:
            return None
    return h


def _d_vscale(nz, args):
    va = [a.value for a in args if not a.hidden]
    v = _READ["Vec"](nz, va[0])
    if v is None:
        return None
    return _spine_of("Vec", [Def("_*_", (vis(x), vis(va[1]))) for x in v])


_DELTA = {p.name: _d_fold(p.fn, p.sig) for p in PRIMS.values() if p.folds}
_DELTA["_*v_"] = _d_vscale  # as clauses it would spend one step per item


# --------------------------------------------------------------------------
# public entry points


def normalise(t: Term, env: Env, policy: ReductionPolicy = REDUCE_ALL,
              rules: RuleSet | None = None, depth: int | None = None) -> Term:
    return Normalizer(env, policy, rules).norm(t, depth)


def check_rewrite(rule: RewriteRule, trials: int, env: Env, seed: int = 0):
    """Evaluate both sides on random ground instances; return "pass" or the
    first counterexample as a dict of variable assignments.  An abort is
    a value, so two sides that abort for the same reason agree."""
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
            return _spine_of("List", [Lit(rng.randrange(20))
                                      for _ in range(rng.randrange(5))])
        case Def("Vec", (Arg(Def("Nat", ()), _), Arg(n, _))) if nat_view(n) is not None:
            return _spine_of("Vec", [Lit(rng.randrange(20))
                                     for _ in range(nat_view(n))])
    raise NotGroundable(f"cannot ground a variable of type {ir.print_term(ty)}")
