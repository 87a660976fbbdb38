"""Elaboration of parsed source modules into core definitions.

Bodies are scope-checked and lightly typed: enough structure is inferred
to fill hidden arguments by first-order unification against signatures,
to resolve the broadcasting of lifted array operators, and to discharge
every proposition-typed obligation with the arithmetic decider (or record
it as trusted).  Full proof checking is deliberately absent: inhabitants
of `<` and `≡` are runtime-irrelevant and only their provability matters.

Types are checked as values (`eslc.normalize`), and a `Def` is unfolded,
by the normalizer, only where a check needs its weak head normal form.
A hidden argument to infer is a `Meta` cell, which one unification
solves with a value; a `Hole` stands for it in terms and values and
reads the solution when forced.  Elaborated terms stay syntax.

A value is quoted back to a term only for the shape decider
(`shapes.term_to_scalar`/`term_to_vec`), for what is stored in `Env`
(telescopes, and holes filled in finished terms) and for error messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import broadcast, ir, shapes
from .builtins import PRIMS, TYPE_FORMERS, is_prop_type, seed_env
from .ir import (Abs, Arg, Clause, Con, Def, Definition, Env,
                 EslError, Function, Lam, Let, Lit, PAbsurd, PCon, Pi, PVar,
                 Sort, Term, Unknown, Var, hid, map_args, nat_view, pi_spine,
                 vis)
from .normalize import (Hole, Meta, Normalizer, RewriteRule, RuleSet, VBind,
                        VLazy, VVar, _eval, _force)
from .parser import (SApp, SClause, SExpr, SFixity, SFloat, SLam, SLamPat,
                     SLet, SName, SNum, SPat, SPi, SPragma, SSignature,
                     SourceModule, parse)


class UnsupportedType(EslError):
    pass


class UnprovenConstraint(EslError):
    pass


class ScopeError(EslError):
    pass


# lifted array operator -> (operands, Nat operator, Float operator);
# `nega x` is `0.0 -a x`
LIFTED = {"_+a_": (2, "_+_", "_+f_"), "_-a_": (2, "_-_", "_-f_"),
          "_*a_": (2, "_*_", "_*f_"), "_/a_": (2, "_/_", "_/f_"),
          "expa": (1, None, "expf"), "nega": (1, None, "_-f_")}

_CON_NAMES = {"zero", "suc", "fzero", "fsuc", "vnil", "vcons", "inil",
              "icons", "lnil", "lcons", "imap", "yes", "no", "prf"}
# the constructors `_check` checks when they stand alone: all but `zero`,
# which is the literal 0
_BARE_CONS = _CON_NAMES - {"zero"}
# what `suc` and `fsuc` elaborate to where their type is inferred: a
# lambda over every argument, so an application that stops early is a
# lambda over the rest and every constructor application is saturated
_ETA = {"suc": Lam(Abs("n", Con("suc", (vis(Var(0)),))), False),
        "fsuc": Lam(Abs("n", Lam(Abs("i", Con("fsuc", (hid(Var(1)), vis(Var(0))))),
                                 False)), True)}

# the fuel of one weak head step of a type
WHNF_FUEL = 100000


# --------------------------------------------------------------------------
# values


def _quote(v, depth: int, strict: bool = False) -> Term:
    """The term of `v` under `depth` binders.  An unsolved meta becomes a
    `Hole`, or, if `strict`, raises `_Unsolved`; a variable bound deeper
    than `depth` raises `ir.NegativeIndex`."""
    v = _force(v)
    cls = type(v)
    if cls is Con or cls is Def:
        args = v.args
        nargs = map_args(args, _quote, depth, strict) if args else args
        return v if nargs is args else cls(v.name, nargs)
    if cls is VVar:
        if v.level >= depth:
            raise ir.NegativeIndex(f"level {v.level} escapes depth {depth}")
        return Var(depth - 1 - v.level, map_args(v.args, _quote, depth, strict))
    if cls is VBind:
        inner = Abs(v.name, _quote(v.body(VVar(depth)), depth + 1, strict))
        if v.kind == "lam":
            return Lam(inner, v.hidden)
        dom = _quote(v.dom, depth, strict)
        return Pi(Arg(dom, v.hidden), inner) if v.kind == "pi" else Let(dom, inner)
    if cls is Hole:  # unsolved, once forced
        if strict:
            raise _Unsolved
        args = map_args(v.args, _quote, depth, strict)
        return v if args is v.args else Hole(v.name, args, v.meta)
    return v


class _Unsolved(Exception):
    pass


def _fill(t: Term, depth: int, strict: bool) -> Term:
    """`t`, under `depth` binders, with each hole of a solved meta
    replaced by the solution; subterms without one are shared."""
    if type(t) is not Hole:
        return ir.map_subterms(t, _fill, depth, strict)
    args = map_args(t.args, _fill, depth, strict)
    if t.meta.solution is not None:
        return ir.apply_term(_quote(t.meta.solution, depth, strict), args)
    if strict:
        raise _Unsolved
    return t if args is t.args else Hole(t.name, args, t.meta)


def _same(a, b, depth: int) -> bool:
    """Whether `a` and `b` quote to equal terms."""
    a, b = _force(a), _force(b)
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is Con or cls is Def:
        return a.name == b.name and _same_args(a.args, b.args, depth)
    if cls is VVar or cls is Hole:
        return _head(a) == _head(b) and _same_args(a.args, b.args, depth)
    if cls is VBind:
        return (a.kind, a.name, a.hidden) == (b.kind, b.name, b.hidden) and \
            (a.dom is None or _same(a.dom, b.dom, depth)) and \
            _same(a.body(VVar(depth)), b.body(VVar(depth)), depth + 1)
    return a == b


def _same_args(xs, ys, depth: int) -> bool:
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if x.hidden != y.hidden or not _same(x.value, y.value, depth):
            return False
    return True


def _mentions(v, hit) -> bool:
    """Whether `hit` holds of a variable or an unsolved meta in `v`."""
    v = _force(v)
    cls = type(v)
    if cls in _HEADED:
        return hit(v) or any(_mentions(a.value, hit) for a in v.args)
    if cls is VBind:
        # the bound variable stands at level -1, below every context
        return v.dom is not None and _mentions(v.dom, hit) or \
            _mentions(v.body(VVar(-1)), hit)
    return False


# the values that are a head applied to `args`
_HEADED = frozenset({VVar, Con, Def, Hole})


def _head(v):
    return v.level if type(v) is VVar else v.meta if type(v) is Hole else v.name


def _is_pi(v) -> bool:
    return type(v) is VBind and v.kind == "pi"


def _unsolved(v) -> bool:
    return _mentions(v, lambda x: type(x) is Hole)


NAT = Def("Nat")


# --------------------------------------------------------------------------
# the context


class Ctx:
    """The variables in scope, each with its type (a value), and what the
    checks read off them: the identity environment `env`, a VVar per
    variable, the variables' shape keys `names` (both newest first) and
    the hypotheses in scope `hyps` (the newest variable's first).  An
    error abandons the whole context, so no scope is popped on its way."""

    def __init__(self) -> None:
        self.entries: list[tuple] = []  # (name, type, names, hyps before it)
        self.env: tuple = ()
        self.names: list[str] = []
        self.hyps: list[shapes.Constraint] = []

    def push(self, name: str, ty, hyps=()) -> None:
        n = len(self.entries)
        entry = (name, ty := _force(ty), self.names, self.hyps)
        if is_prop_type(ty):
            self.assume(ty)
        self.entries.append(entry)
        self.env = (VVar(n),) + self.env
        self.names = [f"{name}#{n}"] + self.names
        if hyps:
            self.hyps = list(hyps) + self.hyps

    def assume(self, prop) -> None:
        """Puts the proposition `prop`, a value in this context, among the
        hypotheses of the rest of the scope."""
        # the constraint keys variables by absolute position, so it is the
        # same at every later depth: derive it once, here
        c = _prop_to_constraint(_quote(prop, len(self.entries)), self.names)
        if c is not None:
            self.hyps = [c] + self.hyps

    def pop(self, k: int = 1) -> None:
        _, _, self.names, self.hyps = self.entries[-k]
        del self.entries[-k:]
        self.env = self.env[k:]

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, name: str) -> int | None:
        entries = self.entries
        top = len(entries) - 1
        for i in range(top, -1, -1):
            if entries[i][0] == name:
                return top - i
        return None

    def type_of(self, idx: int):
        return self.entries[len(self.entries) - 1 - idx][1]

    def telescope(self) -> tuple[tuple[str, Arg], ...]:
        return tuple((name, vis(_quote(ty, i)))
                     for i, (name, ty, _, _) in enumerate(self.entries))


def _prop_to_constraint(ty: Term, names) -> shapes.Constraint | None:
    if not is_prop_type(ty):
        return None
    va = [shapes.term_to_scalar(a.value, names) for a in ty.args if not a.hidden]
    if len(va) != 2:
        return None
    return (shapes.lt if ty.name == "_<_" else shapes.eq)(*va)


# --------------------------------------------------------------------------
# the elaborator


@dataclass
class DefMeta:
    trusted_obligations: list[str] = field(default_factory=list)


class Elaborator:
    def __init__(self, env: Env | None = None):
        self.env = env if env is not None else seed_env()
        self.rules = RuleSet()
        self.trusted: set[str] = set()
        self.def_meta: dict[str, DefMeta] = {}
        self._current: str | None = None
        self._metas: list[Meta] = []  # those of the term being elaborated
        # how many of `_metas` are unsolved: a value mentions an unsolved
        # meta only while this is above zero
        self._open = 0
        self._nz = Normalizer(self.env)
        # name -> the value of its closed signature; `Env` never rebinds a name
        self._sigs: dict = {}

    def _whnf(self, v):
        """The weak head normal form of a value, with a fresh budget of
        steps.  A rigid head (a literal, a variable, or a call of a type
        former) is its own weak head normal form, so it is answered
        without entering the normalizer.  A cell goes to the normalizer
        itself, so that it keeps the form it reduces to."""
        w = _force(v)
        cls = type(w)
        if cls is Lit or cls is VVar or cls is Def and w.name in TYPE_FORMERS:
            return w
        self._nz.fuel = WHNF_FUEL
        return self._nz.whnf(v)

    def _fresh(self, ctx: Ctx) -> Hole:
        m = Meta(f"?m{len(self._metas) + 1}@{len(ctx)}", len(ctx))
        self._metas.append(m)
        self._open += 1
        return Hole(m.name, (), m)

    def _signature(self, name: str):
        """The value of the closed signature of the global `name`,
        evaluated once."""
        got = self._sigs.get(name)
        if got is None:
            got = self._sigs[name] = _eval(self.env.lookup(name).signature, ())
        return got

    def _show_v(self, v, ctx: Ctx) -> str:
        return ir.print_term(_quote(v, len(ctx)))

    # -- module driver -------------------------------------------------------

    def load_module(self, smod: SourceModule) -> None:
        sigs: dict[str, Term] = {}
        for decl in smod.decls:
            if isinstance(decl, SFixity):
                continue
            if isinstance(decl, SPragma):
                self._pragma(decl)
                continue
            if isinstance(decl, SSignature):
                if decl.name in sigs or decl.name in self.env:
                    raise EslError(f"duplicate signature for {decl.name}")
                try:
                    ty = sigs[decl.name] = self.elab_type(decl.type, Ctx())
                except UnsupportedType as ex:
                    raise UnsupportedType(
                        f"line {decl.line}: signature of {decl.name}: {ex}") from None
                self.def_meta[decl.name] = DefMeta()
                self.env.add(Definition(decl.name, ty, Function([])))
                continue
            assert isinstance(decl, SClause)
            if decl.name not in sigs:
                raise ScopeError(
                    f"line {decl.line}: clause for {decl.name} precedes its signature")
            self._current = decl.name
            cl = self.elab_clause(decl, sigs[decl.name])
            self._current = None
            self.env.lookup(decl.name).payload.clauses.append(cl)
        for name in sigs:
            clauses = self.env.lookup(name).payload.clauses
            if not clauses:
                raise EslError(f"{name}: signature without clauses")

    def load_source(self, text: str, path: str = "<string>") -> None:
        self.load_module(parse(text, path))

    def _pragma(self, p: SPragma) -> None:
        if p.kind == "TRUST":
            self.trusted.update(p.names)
        else:
            assert p.kind == "REWRITE"
            for name in p.names:
                self._register_rewrite(name)

    def _register_rewrite(self, name: str) -> None:
        """The rule is the equality exactly as its signature states it; a
        left-hand side that itself reduces may simply never fire."""
        d = self.env.lookup(name)
        tel, ret = pi_spine(d.signature)
        if not (isinstance(ret, Def) and ret.name == "_≡_"):
            raise EslError(f"REWRITE {name}: signature must end in an equality")
        va = [a.value for a in ret.args if not a.hidden]
        self.rules.register(RewriteRule(name, va[0], va[1], len(tel),
                                        tuple(t.value for _, t in tel)))

    # -- types ----------------------------------------------------------------

    def elab_type(self, s: SExpr, ctx: Ctx) -> Term:
        match s:
            case SPi(binder, hidden, dom, cod):
                dty = self.elab_type(dom, ctx)
                ctx.push(binder, _eval(dty, ctx.env))
                cty = self.elab_type(cod, ctx)
                ctx.pop()
                return Pi(Arg(dty, hidden), Abs(binder, cty))
            case SName("Set"):
                return Sort()
            case _:
                self._metas, self._open = [], 0
                t, ty = self._infer(s, ctx)
                # `Sort` is no rigid head to `_whnf`, which would ask the normalizer
                if type(_force(ty)) is not Sort and type(self._whnf(ty)) is not Sort:
                    raise UnsupportedType(f"{_show(s)} is not a type")
                t = self._finish(s, t, ctx)
                # a decision states a fact only if its payload is a proposition;
                # a call of any other type former is no decision
                if type(t) is not Def or t.name == "Dec" or t.name not in TYPE_FORMERS:
                    w = self._whnf(_eval(t, ctx.env))
                    if type(w) is Def and w.name == "Dec" and \
                            not is_prop_type(self._whnf(w.args[0].value)):
                        raise UnsupportedType(f"{_show(s)} decides no proposition (_<_ or _≡_)")
                return t

    # -- expressions ------------------------------------------------------------

    def check(self, s: SExpr, ty, ctx: Ctx) -> Term:
        self._metas, self._open = [], 0
        return self._finish(s, self._check(s, ty, ctx), ctx)

    def _finish(self, s: SExpr, t: Term, ctx: Ctx) -> Term:
        if not self._metas:
            return t
        try:
            return _fill(t, len(ctx), True)
        except _Unsolved:
            raise UnprovenConstraint(
                f"unresolved hidden arguments in {_show(s)}") from None

    def _infer(self, s: SExpr, ctx: Ctx) -> tuple[Term, object]:
        match s:
            case SNum(v):
                return Lit(v), NAT
            case SFloat(v):
                return Lit(v), Def("Float")
            case SName(name, line):
                return self._infer_name(name, line, ctx)
            case SApp(fn, args):
                return self._elab_app(fn, args, ctx, expected=None)
            case SLet(name, bound, body):
                bt, bty = self._infer(bound, ctx)
                n = len(ctx)
                ctx.push(name, bty if bty is not None else Unknown())
                inner, ity = self._infer(body, ctx)
                ctx.pop()
                if ity is not None and _mentions(
                        ity, lambda x: isinstance(x, VVar) and x.level >= n):
                    ity = None
                return Let(bt, Abs(name, inner)), ity
            case SLam() | SLamPat():
                raise UnprovenConstraint(
                    "cannot infer a type for a bare lambda; add an annotation")
        raise UnsupportedType(f"cannot elaborate {_show(s)}")

    def _infer_name(self, name: str, line: int, ctx: Ctx):
        idx = ctx.lookup(name)
        if idx is not None:
            return Var(idx), ctx.type_of(idx)
        if name == "prf":
            raise UnprovenConstraint("prf needs an expected proposition type")
        if name in ("[]", "∷", "_∷_"):
            raise UnprovenConstraint(
                f"{name} needs an expected container type; annotate the use")
        if name in _CON_NAMES:
            if name == "zero":
                return Lit(0), NAT
            if name in _ETA:
                return _ETA[name], self._signature(name)
            return Con(name), None
        if name in self.env:
            return Def(name), self._signature(name)
        raise ScopeError(f"line {line}: unknown name {name}")

    def _check(self, s: SExpr, ty, ctx: Ctx) -> Term:
        ty = _force(ty)
        whty = self._whnf(ty) if isinstance(ty, Def) else ty
        match s:
            case SLam(binder, body):
                if not _is_pi(whty):
                    raise UnsupportedType(f"lambda checked against non-function type")
                ctx.push(binder, whty.dom)
                inner = self._check(body, whty.body(ctx.env[0]), ctx)
                ctx.pop()
                return Lam(Abs(binder, inner), whty.hidden)
            case SLamPat(comps, body):
                return self._check_lampat(comps, body, whty, ctx)
            case SName("prf"):
                self._discharge(whty, ctx)
                return Con("prf")
            case SName("[]") | SName("_∷_") | SApp(SName("_∷_"), _):
                return self._check_spine(s, whty, ctx)
            case SApp(SName("imap"), args) if len(args) == 1 and not args[0][1]:
                if not (isinstance(whty, Def) and whty.name == "Ar"):
                    raise UnsupportedType("imap checked against a non-array type")
                x, d, sh = (a.value for a in whty.args)
                fn_ty = VBind("pi", "iv", False, Def("Ix", (vis(d), vis(sh))),
                              lambda _: x)
                f = self._check(args[0][0], fn_ty, ctx)
                n = len(ctx)
                return Con("imap", (hid(_quote(x, n)), hid(_quote(d, n)),
                                    hid(_quote(sh, n)), vis(f)))
            case SLet(name, bound, body):
                bt, bty = self._infer(bound, ctx)
                ctx.push(name, bty if bty is not None else Unknown())
                inner = self._check(body, ty, ctx)
                ctx.pop()
                return Let(bt, Abs(name, inner))
            case SName(name, line) if name in _BARE_CONS \
                    and ctx.lookup(name) is None:
                # a bare constructor: against a function type it is `\x -> c
                # x`, whose hidden arguments are inferred as at any other use
                if _is_pi(whty):
                    return self._check(SLam("x", SApp(s, [(SName("x", line), False)])),
                                       whty, ctx)
                con = self.env.lookup(name).payload
                if not (isinstance(whty, Def) and whty.name == con.of) \
                        or False in con.arity:
                    raise UnsupportedType(f"line {line}: constructor {name} checked "
                                          f"against {self._show_v(whty, ctx)}")
                if name in ("vnil", "inil", "lnil"):  # the indices of `[]`
                    return self._check_spine(SName("[]", line), whty, ctx)
                if name == "fzero":  # fzero : Fin (suc n)
                    self._discharge(Def("_<_", (vis(Lit(0)), whty.args[0])), ctx)
                return Con(name)
            case _:
                # a name other than a bare constructor, a number or an
                # application: each has a type
                t, ity = self._elab_app(s.fn, s.args, ctx, expected=whty) \
                    if isinstance(s, SApp) else self._infer(s, ctx)
                ity = _force(ity)
                if _is_pi(ity) and ity.hidden and (
                        type(whty) in (Def, VVar) or _is_pi(whty) and not whty.hidden):
                    # a type that starts with hidden binders against a
                    # rigid one that does not: the hidden arguments are
                    # inferred, as at an application (`lg = logistic`)
                    t, ity, _ = self._apply_spine(t, ity, [], ctx, _show(s))
                self._unify(ity, whty, ctx)
                return t

    def _check_lampat(self, comps, body, ty, ctx: Ctx) -> Term:
        dom = _force(ty.dom) if _is_pi(ty) else None
        if not (isinstance(dom, Def) and dom.name == "Ix"):
            raise UnsupportedType("pattern lambda requires an index-typed domain")
        dv, sv = (a.value for a in dom.args)
        n = len(ctx)
        d = nat_view(self._whnf(dv))
        if d is None or d != len(comps):
            raise UnsupportedType(
                f"index pattern has {len(comps)} components but rank is "
                f"{self._show_v(dv, ctx)}")
        ctx.push("iv", dom)
        svec = shapes.term_to_vec(_quote(sv, n + 1), ctx.names)
        inner_ty = ty.body(ctx.env[0])
        kept = [k for k in range(len(comps)) if comps[k] != "_"]
        for k in kept:
            bound = shapes.lt(shapes.SVar(f"{comps[k]}#{len(ctx)}"),
                              shapes.vec_component(svec, k))
            ctx.push(comps[k], NAT, hyps=[bound])
        inner = self._check(body, inner_ty, ctx)
        ctx.pop(len(kept) + 1)
        # wrap the components in lets, innermost last; the p-th binding
        # sits under iv and p lets, so iv is Var(p) there
        out = inner
        for p in reversed(range(len(kept))):
            bound = Def("ixc", (hid(_quote(dv, n + 1 + p)), hid(_quote(sv, n + 1 + p)),
                                vis(Lit(kept[p])), vis(Var(p))))
            out = Let(bound, Abs(comps[kept[p]], out))
        return Lam(Abs("iv", out), False)

    def _check_spine(self, s: SExpr, ty, ctx: Ctx) -> Term:
        """[] and _∷_ against Vec / Ix / List."""
        ty = self._whnf(ty)
        if not isinstance(ty, Def) or ty.name not in ("Vec", "Ix", "List"):
            raise UnsupportedType(f"container literal against {self._show_v(ty, ctx)}")
        cell = _spine_cell(s)
        if ty.name == "Ix":
            # components are naturals with an in-bounds obligation each
            return self._check_ix_spine(cell, ty.args[0].value, ty.args[1].value, ctx)
        if cell is None:  # []
            if ty.name == "Vec":
                self._want_zero(ty.args[1].value, ctx)
            return Con("vnil" if ty.name == "Vec" else "lnil")
        h, t = cell
        x, tail_ty = ty.args[0].value, ty
        if ty.name == "Vec":
            tail_ty = Def("Vec", (vis(x), vis(self._peel_suc(ty.args[1].value, ctx))))
        hv = self._check(h, x, ctx)
        tv = self._check(t, tail_ty, ctx)
        return Con("vcons" if ty.name == "Vec" else "lcons", (vis(hv), vis(tv)))

    def _check_ix_spine(self, cell, d, sh, ctx: Ctx) -> Term:
        """Each component is a natural below its extent in the shape `sh`,
        which is quoted and translated once, at the first component."""
        comps: list[Term] = []
        svec = None
        while cell is not None:
            h, t = cell
            comp = self._check(h, NAT, ctx)
            if svec is None:
                svec = shapes.term_to_vec(_quote(sh, len(ctx)), ctx.names)
            goal = shapes.lt(shapes.term_to_scalar(_fill(comp, len(ctx), False), ctx.names),
                             shapes.vec_component(svec, len(comps)))
            self._discharge_constraint(goal, ctx, f"index bound {_show(h)}")
            comps.append(comp)
            d = self._peel_suc(d, ctx)
            cell = _spine_cell(t)
        self._want_zero(d, ctx)
        out = Con("inil")
        for comp in reversed(comps):
            out = Con("icons", (vis(comp), vis(out)))
        return out

    def _want_zero(self, n, ctx: Ctx) -> None:
        n = _force(n)
        if type(n) is Hole and not n.args:
            self._unify(n, Lit(0), ctx)
        elif nat_view(self._whnf(n)) != 0:
            raise UnsupportedType("container literal is shorter than its type")

    def _peel_suc(self, n, ctx: Ctx):
        n = _force(n)
        if type(n) is Hole and not n.args:
            m = self._fresh(ctx)
            self._unify(n, Con("suc", (vis(m),)), ctx)
            return m
        n = self._whnf(n)
        inner = ir.suc_view(n)
        if inner is None:
            raise UnsupportedType("container literal is longer than its type "
                                  f"allows ({self._show_v(n, ctx)})")
        return inner

    # -- applications ---------------------------------------------------------

    def _elab_app(self, fn: SExpr, args: list, ctx: Ctx, expected):
        while isinstance(fn, SApp):
            fn, args = fn.fn, fn.args + args
        if not isinstance(fn, SName):
            raise UnsupportedType(f"cannot apply {_show(fn)}")
        name = fn.name
        if name in LIFTED:
            return self._lifted(name, args, ctx)
        if name == "imap" and expected is None:
            raise UnprovenConstraint("imap needs an expected array type")
        head, sig = self._infer_name(name, fn.line, ctx)
        if sig is None:
            raise UnprovenConstraint(f"cannot infer argument types for {name}")
        term, ty, vals = self._apply_spine(head, sig, args, ctx, name)
        p = PRIMS.get(name)
        if p is not None and p.owes is not None and type(term) is Def \
                and len(term.args) == p.arity:
            # a saturated call of a primitive owes its use-site obligation
            what, build = p.owes
            c = build(ctx.names, *(_quote(v, len(ctx)) for v in vals))
            self._discharge_constraint(c, ctx, what)
        return term, ty

    def _apply_spine(self, head: Term, sig, args: list, ctx: Ctx, name: str):
        """The application of `head`, of type `sig`, to the source
        arguments, hidden ones inserted: the term, its type and the
        values of its arguments."""
        spine: list[Arg] = []
        vals: list = []
        rest = sig
        queue = list(args)
        while True:
            rest = _force(rest)
            if not _is_pi(rest):
                unfolded = self._whnf(rest) if queue and type(rest) is Def else rest
                if not _is_pi(unfolded):
                    break
                rest = unfolded
            dz = _force(rest.dom)
            if rest.hidden and not (queue and queue[0][1]):
                if is_prop_type(dz) and not (self._open and _unsolved(dz)):
                    self._discharge(dz, ctx)
                    v = Con("prf")
                else:
                    v = self._fresh(ctx)
                spine.append(Arg(v, True))
            else:
                if not queue:
                    break
                sarg, _ = queue.pop(0)
                if isinstance(sarg, (SLam, SLamPat)) or _is_container_literal(sarg):
                    val = self._check(sarg, dz, ctx)
                elif self._open and _unsolved(dz):
                    val, aty = self._infer(sarg, ctx)
                    if aty is not None:
                        self._unify(dz, aty, ctx)
                else:
                    val = self._check(sarg, dz, ctx)
                spine.append(Arg(val, rest.hidden))
                v = VLazy(val, ctx.env)
            vals.append(v)
            rest = rest.body(v)
        if queue:
            raise EslError(f"{name}: too many arguments")
        return ir.apply_term(head, tuple(spine)), rest, vals

    # -- lifted array operators --------------------------------------------------

    def _operand(self, s: SExpr, ctx: Ctx):
        t, ty = self._infer(s, ctx)
        if ty is None:
            raise UnprovenConstraint(f"cannot classify operand {_show(s)}")
        return broadcast.classify(t, _quote(ty, len(ctx)), self.env)

    def _lifted(self, name: str, args, ctx: Ctx):
        count, nat_op, float_op = LIFTED[name]
        if len(args) != count:
            raise EslError(f"{name} expects {count} operand(s)")
        operands = [self._operand(s, ctx) for s, _ in args]
        if name == "nega":
            operands.insert(0, broadcast.classify(Lit(0.0), Def("Float"), self.env))
        t, ty = broadcast.lift((nat_op, float_op), operands, ctx.names, ctx.hyps)
        return t, _eval(ty, ctx.env)

    # -- unification -------------------------------------------------------------

    def _unify(self, a, b, ctx: Ctx) -> None:
        if not self._unify1(a, b, ctx):
            raise UnsupportedType(
                f"type mismatch: {self._show_v(a, ctx)} vs {self._show_v(b, ctx)}")

    def _unify1(self, a, b, ctx: Ctx) -> bool:
        a, b = _force(a), _force(b)
        for step in (0, 1):
            if type(a) is Hole and not a.args:
                return self._solve(a, b)
            if type(b) is Hole and not b.args:
                return self._solve(b, a)
            if _same(a, b, len(ctx)):
                return True
            if step == 0:
                wa, wb = self._whnf(a), self._whnf(b)
                if wa is a and wb is b:
                    break
                a, b = wa, wb
        na, nb = nat_view(a), nat_view(b)
        if na is not None and nb is not None:
            return na == nb
        cls = type(a)
        if nb and ir.suc_view(a) is not None:
            return self._unify1(ir.suc_view(a), Lit(nb - 1), ctx)
        if na and ir.suc_view(b) is not None:
            return self._unify1(Lit(na - 1), ir.suc_view(b), ctx)
        if _is_pi(a) and _is_pi(b):
            if a.hidden != b.hidden or not self._unify1(a.dom, b.dom, ctx):
                return False
            ctx.push(a.name, a.dom)
            same = self._unify1(a.body(ctx.env[0]), b.body(ctx.env[0]), ctx)
            ctx.pop()
            return same
        if cls is type(b) and cls in _HEADED and _head(a) == _head(b) \
                and len(a.args) == len(b.args) \
                and all(self._unify1(x.value, y.value, ctx) for x, y in zip(a.args, b.args)):
            return True
        # arithmetic fallback: compare as shape expressions
        if not (_shapeish(a) or _shapeish(b)):
            return False
        names, n = ctx.names, len(ctx)
        ta, tb = _quote(a, n), _quote(b, n)
        sa, sb = shapes.term_to_scalar(ta, names), shapes.term_to_scalar(tb, names)
        if not (isinstance(sa, shapes.SOpaque) and isinstance(sb, shapes.SOpaque)) \
                and shapes.decide(shapes.eq(sa, sb), ctx.hyps) == "yes":
            return True
        va, vb = shapes.term_to_vec(ta, names), shapes.term_to_vec(tb, names)
        return shapes.decide(shapes.veq(va, vb), ctx.hyps) == "yes"

    def _solve(self, m: Hole, v) -> bool:
        if type(v) is Hole and v.meta is m.meta and not v.args:
            return True
        # the solution may mention only variables older than the meta
        depth = m.meta.depth
        if _mentions(v, lambda x: type(x) is VVar and x.level >= depth):
            return False
        m.meta.solution = v
        self._open -= 1
        return True

    # -- obligations ---------------------------------------------------------------

    def _discharge(self, prop, ctx: Ctx) -> None:
        t = _quote(prop, len(ctx))
        c, what = _prop_to_constraint(t, ctx.names), ir.print_term(t)
        if c is None:
            raise UnprovenConstraint(f"not a decidable proposition: {what}")
        self._discharge_constraint(c, ctx, what)

    def _discharge_constraint(self, c: shapes.Constraint, ctx: Ctx, what: str) -> None:
        verdict = shapes.decide(c, ctx.hyps)
        if verdict == "yes":
            return
        if verdict == "no":
            cx = shapes.find_counterexample(c, ctx.hyps)
            raise UnprovenConstraint(f"obligation {what} is false"
                                     + (f" (counterexample {cx})" if cx else ""))
        if self._current is not None and self._current in self.trusted:
            self.def_meta[self._current].trusted_obligations.append(what)
            return
        raise UnprovenConstraint(
            f"cannot discharge obligation {what}; mark the definition trusted "
            f"with {{-# TRUST ... #-}} to accept it unchecked")

    # -- clauses -------------------------------------------------------------------

    def elab_clause(self, decl: SClause, sig: Term) -> Clause:
        ctx = Ctx()
        patterns: list[Arg] = []  # PVar carries *absolute* positions here
        rest = _eval(sig, ())
        queue = list(decl.pats)
        while _is_pi(rest):
            if rest.hidden and not (queue and queue[0][1]):
                ctx.push(rest.name or "_h", rest.dom)
                patterns.append(Arg(PVar(len(ctx) - 1), True))
                rest = rest.body(ctx.env[0])
                continue
            if not queue:
                break
            spat, hidden = queue.pop(0)
            if hidden != rest.hidden:
                raise EslError(
                    f"line {decl.line}: pattern visibility does not match signature")
            pat, value = self._elab_pattern(spat, rest.dom, ctx, decl.line)
            patterns.append(Arg(pat, rest.hidden))
            rest = rest.body(value)
        if queue:
            raise EslError(f"line {decl.line}: too many patterns for {decl.name}")
        body = None if decl.body is None else self.check(decl.body, rest, ctx)
        # the binders left without a pattern become variables that the
        # body is applied to: `f = suc` is `f x = suc x`
        k = 0
        while _is_pi(rest):
            ctx.push("x" if rest.name.startswith("_") else rest.name, rest.dom)
            patterns.append(Arg(PVar(len(ctx) - 1), rest.hidden))
            rest = rest.body(ctx.env[0])
            k += 1
        if k and body is not None:
            body = ir.apply_term(ir.shift(body, k), tuple(
                Arg(Var(k - 1 - j), a.hidden) for j, a in enumerate(patterns[-k:])))
        return Clause(ctx.telescope(), ir.index_patterns(patterns, len(ctx)), body)

    def _elab_pattern(self, p: SPat, ty, ctx: Ctx, line: int):
        """Returns (pattern with absolute PVar positions, its value in the
        extended context)."""
        ty_w = self._whnf(ty)
        match p.kind:
            case "var" | "wild":
                if p.kind == "var" and p.name in _CON_NAMES | {"[]"}:
                    return self._elab_con_pattern(p, ty_w, ctx, line)
                ctx.push(p.name if p.kind == "var" else "_", ty)
                return PVar(len(ctx) - 1), ctx.env[0]
            case "lit":
                if not isinstance(p.value, int):
                    raise UnsupportedType(f"line {line}: float patterns are not supported")
                if isinstance(ty_w, Def) and ty_w.name in ("Nat", "Fin"):
                    pat: ir.Pattern = PCon("zero")
                    for _ in range(p.value):
                        pat = PCon("suc", (vis(pat),))
                    return pat, Lit(p.value)
                raise UnsupportedType(
                    f"line {line}: literal pattern at {self._show_v(ty_w, ctx)}")
            case "absurd":
                return PAbsurd(), Unknown()
        # "con", the last kind of pattern the parser makes
        return self._elab_con_pattern(p, ty_w, ctx, line)

    def _elab_con_pattern(self, p: SPat, ty, ctx: Ctx, line: int):
        name, args = p.name, p.args
        if name == "_∷_" or name == "[]":
            if not (isinstance(ty, Def) and ty.name in ("Vec", "List")):
                raise UnsupportedType(
                    f"line {line}: container pattern at {self._show_v(ty, ctx)}")
            return self._container_pattern(p, ty, ctx, line)
        if name == "suc":
            if len(args) != 1:
                raise EslError(f"line {line}: suc takes one pattern")
            sub, v = self._elab_pattern(args[0][0], NAT, ctx, line)
            return PCon("suc", (vis(sub),)), Con("suc", (vis(v),))
        if name == "zero":
            return PCon(name), Lit(0)
        if name in ("fzero", "fsuc"):
            if not (isinstance(ty, Def) and ty.name == "Fin"):
                raise UnsupportedType(
                    f"line {line}: {name} pattern at {self._show_v(ty, ctx)}")
            k = self._forced_pred(ty.args[0].value, ctx)
            if name == "fzero":
                return PCon(name), Lit(0)
            if len(args) != 1:
                raise EslError(f"line {line}: fsuc takes one pattern")
            sub, v = self._elab_pattern(args[0][0], Def("Fin", (vis(k),)), ctx, line)
            return PCon("fsuc", (vis(sub),)), Con("fsuc", (hid(k), vis(v)))
        if name == "imap":
            if not (isinstance(ty, Def) and ty.name == "Ar") or len(args) != 1:
                raise UnsupportedType(
                    f"line {line}: imap pattern at {self._show_v(ty, ctx)}")
            x, d, sh = (a.value for a in ty.args)
            sub = args[0][0]
            if sub.kind not in ("var", "wild"):
                raise UnsupportedType(f"line {line}: imap takes a variable pattern")
            fn_ty = VBind("pi", "iv", False, Def("Ix", (vis(d), vis(sh))), lambda _: x)
            ctx.push(sub.name or "_", fn_ty)
            return (PCon("imap", (vis(PVar(len(ctx) - 1)),)),
                    Con("imap", (hid(x), hid(d), hid(sh), vis(ctx.env[0]))))
        raise UnsupportedType(f"line {line}: unsupported pattern head {name}")

    def _forced_pred(self, n, ctx: Ctx):
        """The index `k` of a matched `Fin n`, forced as unification
        forces it in dependent pattern matching: `k` where `n` is `suc k`,
        else `n - 1`, and the match puts `0 < n` among the hypotheses."""
        k = ir.suc_view(self._whnf(n))
        if k is not None:
            return k
        ctx.assume(Def("_<_", (vis(Lit(0)), vis(n))))
        return Def("_-_", (vis(n), vis(Lit(1))))

    def _container_pattern(self, p: SPat, ty: Def, ctx: Ctx, line: int):
        """[] and _∷_ against Vec / List."""
        vec = ty.name == "Vec"
        x, tail_ty = ty.args[0].value, ty
        if p.name == "[]":
            if vec and nat_view(self._whnf(ty.args[1].value)) != 0:
                raise UnsupportedType(f"line {line}: [] pattern at length "
                                      f"{self._show_v(ty.args[1].value, ctx)}")
            return PCon("vnil" if vec else "lnil"), Con("vnil" if vec else "lnil")
        if vec:
            inner = ir.suc_view(self._whnf(ty.args[1].value))
            if inner is None:
                raise UnsupportedType(
                    f"line {line}: cons pattern needs a known vector length")
            tail_ty = Def("Vec", (vis(x), vis(inner)))
        hp, hv = self._elab_pattern(p.args[0][0], x, ctx, line)
        tp, tv = self._elab_pattern(p.args[1][0], tail_ty, ctx, line)
        cons = "vcons" if vec else "lcons"
        return PCon(cons, (vis(hp), vis(tp))), Con(cons, (vis(hv), vis(tv)))


def _is_container_literal(s: SExpr) -> bool:
    if isinstance(s, SName) and s.name in ("[]", "imap", "prf"):
        return True
    return isinstance(s, SApp) and isinstance(s.fn, SName) and \
        s.fn.name in ("_∷_", "imap")


def _shapeish(v) -> bool:
    return isinstance(v, (Lit, VVar)) or \
        isinstance(v, (Con, Def)) and v.name in shapes.SHAPE_HEADS


def _show(s: SExpr) -> str:
    """`s` as source text, each compound form in parentheses: an operator
    `_op_` applied to two visible arguments is infix, a hidden argument
    is in braces."""
    match s:
        case SName(n, _):
            return n
        case SNum(v) | SFloat(v):
            return str(v)
        case SApp(SName(op, _), [(a, False), (b, False)]) \
                if len(op) > 2 and op[0] == op[-1] == "_":
            return f"({_show(a)} {op[1:-1]} {_show(b)})"
        case SApp(fn, args):
            return "(" + " ".join([_show(fn)] + [
                f"{{{_show(a)}}}" if hidden else _show(a) for a, hidden in args]) + ")"
        case SLam(x, body):
            return f"(\\{x} -> {_show(body)})"
        case SLamPat(comps, body):
            return f"(\\({' ∷ '.join([*comps, '[]'])}) -> {_show(body)})"
        case SLet(x, bound, body):
            return f"(let {x} = {_show(bound)} in {_show(body)})"
        case SPi(x, hidden, dom, cod):
            dom = f"{{{x} : {_show(dom)}}}" if hidden else \
                _show(dom) if x == "_" else f"({x} : {_show(dom)})"
            return f"({dom} -> {_show(cod)})"


def _spine_cell(s: SExpr):
    """The head and tail of a container literal `_∷_ h t`; None for []."""
    match s:
        case SName("[]", _):
            return None
        case SApp(SName("_∷_", _), [(h, False), (t, False)]):
            return h, t
        case SName("_∷_", _) | SApp(SName("_∷_", _), _):
            raise UnsupportedType("_∷_ takes two visible arguments, a head and "
                                  f"a tail: {_show(s)}")
    raise UnsupportedType("index expressions must be literal spines")
