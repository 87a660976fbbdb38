"""Elaboration of parsed source modules into core definitions.

Bodies are scope-checked and lightly typed: enough structure is inferred
to fill hidden arguments by first-order unification against signatures,
to resolve the broadcasting of lifted array operators, and to discharge
every proposition-typed obligation with the arithmetic decider (or record
it as trusted).  Full proof checking is deliberately absent: inhabitants
of `<` and `≡` are runtime-irrelevant and only their provability matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import broadcast, ir, shapes
from .builtins import PRIMS, is_prop_type, seed_env
from .ir import (Abs, Arg, Clause, Con, Def, Definition, Env,
                 EslError, Function, Lam, Let, Lit, PAbsurd, PCon, Pi, PVar,
                 Sort, Term, Unknown, Var, hid, nat_view, pi_spine, vis)
from .normalize import (Normalizer, ReductionPolicy, RewriteRule, RuleSet)
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

_BUILTIN_TAGS = {
    "NAT": "Nat", "FLOAT": "Float", "FIN": "Fin", "VEC": "Vec", "LIST": "List",
    "ARRAY": "Ar", "INDEX": "Ix", "NATPLUS": "_+_", "NATMINUS": "_-_",
    "NATTIMES": "_*_", "NATDIV": "_/_", "NATMOD": "_%_", "NATLT": "_<_",
    "EQUALITY": "_≡_", "DECIDE": "Dec",
}

_CON_NAMES = {"zero", "suc", "fzero", "fsuc", "vnil", "vcons", "inil",
              "icons", "lnil", "lcons", "imap", "yes", "no", "prf"}


@dataclass
class CtxEntry:
    name: str
    type: Term  # scoped over the *earlier* entries
    # shape constraints that hold while the entry is in scope, its own
    # type's (if a decidable proposition) last
    hyps: list


class Ctx:
    def __init__(self) -> None:
        self.entries: list[CtxEntry] = []

    def push(self, name: str, ty: Term, hyps=()) -> None:
        hyps = list(hyps)
        if is_prop_type(ty):
            # the constraint keys variables by absolute position, so it
            # is the same at every later depth: derive it once, here
            c = _prop_to_constraint(ty, self.names_for_shapes())
            if c is not None:
                hyps.append(c)
        self.entries.append(CtxEntry(name, ty, hyps))

    def pop(self, k: int = 1) -> None:
        del self.entries[len(self.entries) - k:]

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, name: str) -> int | None:
        for i, e in enumerate(reversed(self.entries)):
            if e.name == name:
                return i
        return None

    def type_of(self, idx: int) -> Term:
        e = self.entries[len(self.entries) - 1 - idx]
        return ir.shift(e.type, idx + 1)

    def names_for_shapes(self) -> list[str]:
        n = len(self.entries)
        return [f"{self.entries[n - 1 - i].name}#{n - 1 - i}" for i in range(n)]

    def hypotheses(self) -> list[shapes.Constraint]:
        return [h for e in reversed(self.entries) for h in e.hyps]


def _prop_to_constraint(ty: Term, names) -> shapes.Constraint | None:
    if isinstance(ty, Def) and ty.name == "_<_" and len(ty.args) == 2:
        return shapes.lt(shapes.term_to_scalar(ty.args[0].value, names),
                         shapes.term_to_scalar(ty.args[1].value, names))
    if isinstance(ty, Def) and ty.name == "_≡_":
        va = [a.value for a in ty.args if not a.hidden]
        if len(va) == 2:
            return shapes.eq(shapes.term_to_scalar(va[0], names),
                             shapes.term_to_scalar(va[1], names))
    return None


# --------------------------------------------------------------------------
# metavariables


class _Metas:
    def __init__(self) -> None:
        self.count = 0
        self.sol: dict[str, tuple[Term, int]] = {}

    def fresh(self, depth: int) -> Term:
        self.count += 1
        return Def(f"?m{self.count}@{depth}")

    @staticmethod
    def is_meta(t: Term) -> bool:
        return isinstance(t, Def) and t.name.startswith("?m") and not t.args

    @staticmethod
    def depth_of(name: str) -> int:
        return int(name.split("@")[1])

    def zonk(self, t: Term, depth: int) -> Term:
        """`t` with every solved meta replaced by its solution; subterms
        without one come back as the same objects."""
        return self._zonk(t, depth) if self.sol else t

    def _zonk(self, t: Term, depth: int) -> Term:
        match t:
            case Def(name, args) if name.startswith("?m"):
                if name in self.sol:
                    sol, d = self.sol[name]
                    out = ir.shift(self._zonk(sol, d), depth - d)
                    return ir.apply_term(out, ir.map_args(args, self._zonk, depth))
                return t
            case Var(i, args):
                nargs = ir.map_args(args, self._zonk, depth) if args else args
                return t if nargs is args else Var(i, nargs)
            case Con(name, args) if args:
                nargs = ir.map_args(args, self._zonk, depth)
                return t if nargs is args else Con(name, nargs)
            case Def(name, args) if args:
                nargs = ir.map_args(args, self._zonk, depth)
                return t if nargs is args else Def(name, nargs)
            case Lam(scope, h):
                body = self._zonk(scope.body, depth + 1)
                return t if body is scope.body else Lam(Abs(scope.name, body), h)
            case Let(bound, scope):
                nbound = self._zonk(bound, depth)
                body = self._zonk(scope.body, depth + 1)
                if nbound is bound and body is scope.body:
                    return t
                return Let(nbound, Abs(scope.name, body))
            case Pi(dom, scope):
                ndom = self._zonk(dom.value, depth)
                body = self._zonk(scope.body, depth + 1)
                if ndom is dom.value and body is scope.body:
                    return t
                return Pi(Arg(ndom, dom.hidden), Abs(scope.name, body))
            case _:
                return t

    def has_unsolved(self, t: Term) -> bool:
        return bool(self.count) and self._has_unsolved(t)

    def _has_unsolved(self, t: Term) -> bool:
        match t:
            case Def(name, args) if name.startswith("?m"):
                return name not in self.sol or any(self._has_unsolved(a.value)
                                                   for a in args)
            case Var(_, args) | Con(_, args) | Def(_, args):
                return any(self._has_unsolved(a.value) for a in args)
            case Lam(scope, _):
                return self._has_unsolved(scope.body)
            case Let(bound, scope):
                return self._has_unsolved(bound) or self._has_unsolved(scope.body)
            case Pi(dom, scope):
                return self._has_unsolved(dom.value) or self._has_unsolved(scope.body)
            case _:
                return False


# --------------------------------------------------------------------------
# the elaborator


@dataclass
class DefMeta:
    unsupported: str | None = None
    trusted_obligations: list[str] = field(default_factory=list)


class Elaborator:
    def __init__(self, env: Env | None = None):
        self.env = env if env is not None else seed_env()
        self.rules = RuleSet()
        self.trusted: set[str] = set()
        self.def_meta: dict[str, DefMeta] = {}
        self.aliases: dict[str, str] = {}
        self._current: str | None = None

    def _whnf(self, t: Term) -> Term:
        """Weak head normal form with a fresh budget of reduction steps."""
        return Normalizer(self.env, ReductionPolicy(fuel=100000)).whnf(t)

    # -- module driver -------------------------------------------------------

    def load_module(self, smod: SourceModule) -> None:
        sigs: dict[str, Term] = {}
        clauses: dict[str, list[Clause]] = {}
        order: list[str] = []

        def finalize(name: str) -> None:
            d = self.env.lookup(name)
            assert isinstance(d.payload, Function)
            if not d.payload.clauses:
                raise EslError(f"{name}: signature without clauses")
            widths = {len(c.patterns) for c in d.payload.clauses}
            if len(widths) > 1:
                raise EslError(f"{name}: clauses differ in pattern count")

        for decl in smod.decls:
            if isinstance(decl, SFixity):
                continue
            if isinstance(decl, SPragma):
                self._pragma(decl)
                continue
            if isinstance(decl, SSignature):
                if decl.name in sigs or decl.name in self.env:
                    raise EslError(f"duplicate signature for {decl.name}")
                ty = self.elab_type(decl.type, Ctx())
                sigs[decl.name] = ty
                order.append(decl.name)
                meta = DefMeta(_policy_reason(ty))
                if meta.unsupported == "no strings in the target language":
                    raise UnsupportedType(
                        f"{decl.name}: {meta.unsupported}")
                self.def_meta[decl.name] = meta
                self.env.add(Definition(decl.name, ty, Function([])))
                continue
            assert isinstance(decl, SClause)
            if decl.name not in sigs:
                raise ScopeError(
                    f"line {decl.line}: clause for {decl.name} precedes its signature")
            self._current = decl.name
            cl = self.elab_clause(decl, sigs[decl.name])
            self._current = None
            clauses.setdefault(decl.name, []).append(cl)
            d = self.env.lookup(decl.name)
            assert isinstance(d.payload, Function)
            d.payload.clauses.append(cl)
        for name in order:
            finalize(name)

    def load_source(self, text: str, path: str = "<string>") -> None:
        self.load_module(parse(text, path))

    def _pragma(self, p: SPragma) -> None:
        if p.kind == "TRUST":
            self.trusted.update(p.names)
            return
        if p.kind == "BUILTIN":
            tag, name = p.names
            target = _BUILTIN_TAGS.get(tag)
            if target is None:
                raise EslError(f"unknown BUILTIN tag {tag}")
            self.aliases[name] = target
            return
        assert p.kind == "REWRITE"
        for name in p.names:
            self._register_rewrite(name)

    def _register_rewrite(self, name: str) -> None:
        """The rule is the equality exactly as its signature states it; a
        left-hand side that itself reduces may simply never fire."""
        d = self.env.lookup(self.aliases.get(name, name))
        tel, ret = pi_spine(d.signature)
        if not (isinstance(ret, Def) and ret.name == "_≡_"):
            raise EslError(f"REWRITE {name}: signature must end in an equality")
        va = [a.value for a in ret.args if not a.hidden]
        rule = RewriteRule(name, va[0], va[1], len(tel),
                           tuple(t.value for _, t in tel))
        self.rules.register(rule)

    # -- types ----------------------------------------------------------------

    def elab_type(self, s: SExpr, ctx: Ctx) -> Term:
        match s:
            case SPi(binder, hidden, dom, cod):
                dty = self.elab_type(dom, ctx)
                ctx.push(binder, dty)
                try:
                    cty = self.elab_type(cod, ctx)
                finally:
                    ctx.pop()
                return Pi(Arg(dty, hidden), Abs(binder, cty))
            case SName("Set"):
                return Sort()
            case _:
                term, _ = self.infer(s, ctx)
                return term

    # -- expressions ------------------------------------------------------------

    def infer(self, s: SExpr, ctx: Ctx) -> tuple[Term, Term | None]:
        metas = _Metas()
        t, ty = self._infer(s, ctx, metas)
        t = metas.zonk(t, len(ctx))
        if metas.has_unsolved(t):
            raise UnprovenConstraint(
                f"unresolved hidden arguments in {_show(s)}")
        return t, metas.zonk(ty, len(ctx)) if ty is not None else None

    def check(self, s: SExpr, ty: Term, ctx: Ctx) -> Term:
        metas = _Metas()
        t = self._check(s, ty, ctx, metas)
        t = metas.zonk(t, len(ctx))
        if metas.has_unsolved(t):
            raise UnprovenConstraint(f"unresolved hidden arguments in {_show(s)}")
        return t

    def _infer(self, s: SExpr, ctx: Ctx, metas) -> tuple[Term, Term | None]:
        match s:
            case SNum(v):
                return Lit(v), Def("Nat")
            case SFloat(v):
                return Lit(v), Def("Float")
            case SName(name, line):
                return self._infer_name(name, line, ctx)
            case SApp(fn, args):
                return self._elab_app(fn, args, ctx, metas, expected=None)
            case SLet(name, bound, body):
                bt, bty = self._infer(bound, ctx, metas)
                ctx.push(name, bty if bty is not None else Unknown())
                try:
                    inner, ity = self._infer(body, ctx, metas)
                finally:
                    ctx.pop()
                oty = None
                if ity is not None:
                    try:
                        oty = ir.shift(ity, -1)
                    except ir.NegativeIndex:
                        oty = None
                return Let(bt, Abs(name, inner)), oty
            case SLam() | SLamPat():
                raise UnprovenConstraint(
                    "cannot infer a type for a bare lambda; add an annotation")
        raise EslError(f"cannot elaborate {s!r}")

    def _infer_name(self, name: str, line: int, ctx: Ctx):
        idx = ctx.lookup(name)
        if idx is not None:
            return Var(idx), ctx.type_of(idx)
        name = self.aliases.get(name, name)
        if name == "prf":
            raise UnprovenConstraint("prf needs an expected proposition type")
        if name in ("[]", "∷", "_∷_"):
            raise UnprovenConstraint(
                f"{name} needs an expected container type; annotate the use")
        if name in _CON_NAMES:
            if name == "zero":
                return Lit(0), Def("Nat")
            if name == "suc":
                return Con("suc"), ir.Pi(vis(Def("Nat")), Abs("n", Def("Nat")))
            return Con(name), None
        if name in self.env:
            return Def(name), self.env.lookup(name).signature
        raise ScopeError(f"line {line}: unknown name {name}")

    def _check(self, s: SExpr, ty: Term, ctx: Ctx, metas) -> Term:
        ty = metas.zonk(ty, len(ctx))
        whty = self._whnf(ty) \
            if isinstance(ty, Def) and not _Metas.is_meta(ty) else ty
        match s:
            case SLam(binder, body):
                if not isinstance(whty, Pi):
                    raise UnsupportedType(f"lambda checked against non-function type")
                ctx.push(binder, whty.domain.value)
                try:
                    inner = self._check(body, whty.scope.body, ctx, metas)
                finally:
                    ctx.pop()
                return Lam(Abs(binder, inner), whty.domain.hidden)
            case SLamPat(comps, body):
                return self._check_lampat(comps, body, whty, ctx, metas)
            case SName("prf"):
                self._discharge(whty, ctx)
                return Con("prf")
            case SName("[]") | SName("_∷_"):
                return self._check_spine(s, whty, ctx, metas)
            case SApp(SName("_∷_"), _):
                return self._check_spine(s, whty, ctx, metas)
            case SApp(SName("imap"), args) if len(args) == 1 and not args[0][1]:
                if not (isinstance(whty, Def) and whty.name == "Ar"):
                    raise UnsupportedType("imap checked against a non-array type")
                x, d, sh = (a.value for a in whty.args)
                fn_ty = Pi(vis(Def("Ix", (vis(d), vis(sh)))),
                           Abs("iv", ir.shift(x, 1)))
                f = self._check(args[0][0], fn_ty, ctx, metas)
                return Con("imap", (hid(x), hid(d), hid(sh), vis(f)))
            case SLet(name, bound, body):
                bt, bty = self._infer(bound, ctx, metas)
                ctx.push(name, bty if bty is not None else Unknown())
                try:
                    inner = self._check(body, ir.shift(ty, 1), ctx, metas)
                finally:
                    ctx.pop()
                return Let(bt, Abs(name, inner))
            case SApp(fn, args):
                t, ity = self._elab_app(fn, args, ctx, metas, expected=whty)
                if ity is not None:
                    self._unify(ity, whty, ctx, metas)
                return t
            case _:
                t, ity = self._infer(s, ctx, metas)
                if ity is not None:
                    self._unify(ity, whty, ctx, metas)
                elif is_prop_type(whty):
                    self._discharge(whty, ctx)
                return t

    def _check_lampat(self, comps, body, ty, ctx: Ctx, metas) -> Term:
        if not (isinstance(ty, Pi) and isinstance(ty.domain.value, Def)
                and ty.domain.value.name == "Ix"):
            raise UnsupportedType("pattern lambda requires an index-typed domain")
        dterm, sterm = (a.value for a in ty.domain.value.args)
        d = nat_view(self._whnf(metas.zonk(dterm, len(ctx))))
        if d is None or d != len(comps):
            raise UnsupportedType(
                f"index pattern has {len(comps)} components but rank is {_show_t(dterm)}")
        ctx.push("iv", ty.domain.value)
        svec = shapes.term_to_vec(ir.shift(sterm, 1), ctx.names_for_shapes())
        inner_ty = ty.scope.body
        kept = [k for k in range(len(comps)) if comps[k] != "_"]
        for k in kept:
            extent = shapes.vec_component(svec, k)
            key = f"{comps[k]}#{len(ctx)}"
            ctx.push(comps[k], Def("Nat"),
                     hyps=[shapes.lt(shapes.SVar(key), extent)])
        try:
            inner = self._check(body, ir.shift(inner_ty, len(kept)), ctx, metas)
        finally:
            ctx.pop(len(kept) + 1)
        # wrap the components in lets, innermost last; at the j-th binding
        # the index variable iv sits j binders out
        out = inner
        for j, k in enumerate(reversed(kept)):
            iv_at = len(kept) - 1 - j
            bound = Def("ixc", (hid(ir.shift(dterm, iv_at + 1)),
                                hid(ir.shift(sterm, iv_at + 1)),
                                vis(Lit(k)), vis(Var(iv_at))))
            out = Let(bound, Abs(comps[k], out))
        return Lam(Abs("iv", out), False)

    def _check_spine(self, s: SExpr, ty: Term, ctx: Ctx, metas) -> Term:
        """[] and _∷_ against Vec / Ix / List."""
        ty = self._whnf(ty)
        if not isinstance(ty, Def) or ty.name not in ("Vec", "Ix", "List"):
            raise UnsupportedType(f"container literal against {_show_t(ty)}")
        if isinstance(s, SName):  # []
            if ty.name == "Vec":
                self._want_zero(ty.args[1].value, ctx, metas)
                return Con("vnil")
            if ty.name == "Ix":
                self._want_zero(ty.args[0].value, ctx, metas)
                return Con("inil")
            return Con("lnil")
        assert isinstance(s, SApp)
        (h, _), (t, _) = s.args
        if ty.name == "Vec":
            x, n = (a.value for a in ty.args)
            m = self._peel_suc(n, ctx, metas)
            hv = self._check(h, x, ctx, metas)
            tv = self._check(t, Def("Vec", (vis(x), vis(m))), ctx, metas)
            return Con("vcons", (vis(hv), vis(tv)))
        if ty.name == "Ix":
            d, sh = (a.value for a in ty.args)
            # components are naturals with an in-bounds obligation each
            return self._check_ix_spine(s, d, sh, 0, ctx, metas)
        x = ty.args[0].value
        hv = self._check(h, x, ctx, metas)
        tv = self._check(t, ty, ctx, metas)
        return Con("lcons", (vis(hv), vis(tv)))

    def _check_ix_spine(self, s: SExpr, d: Term, sh: Term, k: int,
                        ctx: Ctx, metas) -> Term:
        if isinstance(s, SName) and s.name == "[]":
            self._want_zero(d, ctx, metas)
            return Con("inil")
        if not (isinstance(s, SApp) and isinstance(s.fn, SName)
                and s.fn.name == "_∷_"):
            raise UnsupportedType("index expressions must be literal spines")
        (h, _), (t, _) = s.args
        comp = self._check(h, Def("Nat"), ctx, metas)
        names = ctx.names_for_shapes()
        extent = shapes.vec_component(
            shapes.term_to_vec(metas.zonk(sh, len(ctx)), names), k)
        goal = shapes.lt(shapes.term_to_scalar(metas.zonk(comp, len(ctx)), names),
                         extent)
        self._discharge_constraint(goal, ctx,
                                   what=f"index bound {_show(h)}")
        m = self._peel_suc(d, ctx, metas)
        rest = self._check_ix_spine(t, m, sh, k + 1, ctx, metas)
        return Con("icons", (vis(comp), vis(rest)))

    def _want_zero(self, n: Term, ctx: Ctx, metas) -> None:
        n = metas.zonk(n, len(ctx))
        if _Metas.is_meta(n):
            self._unify(n, Lit(0), ctx, metas)
            return
        nv = nat_view(self._whnf(n))
        if nv != 0:
            raise UnsupportedType("container literal is shorter than its type")

    def _peel_suc(self, n: Term, ctx: Ctx, metas) -> Term:
        n = metas.zonk(n, len(ctx))
        if _Metas.is_meta(n):
            m = metas.fresh(len(ctx))
            self._unify(n, Con("suc", (vis(m),)), ctx, metas)
            return m
        n = self._whnf(n)
        inner = ir.suc_view(n)
        if inner is None:
            raise UnsupportedType(
                f"container literal is longer than its type allows ({_show_t(n)})")
        return inner

    # -- applications ---------------------------------------------------------

    def _elab_app(self, fn: SExpr, args: list, ctx: Ctx, metas, expected):
        if isinstance(fn, SApp):
            inner_args = fn.args + args
            return self._elab_app(fn.fn, inner_args, ctx, metas, expected)
        if not isinstance(fn, SName):
            raise EslError(f"cannot apply {fn!r}")
        name = self.aliases.get(fn.name, fn.name)
        if name in LIFTED:
            return self._lifted(name, args, ctx, metas)
        if name == "imap" and expected is None:
            raise UnprovenConstraint("imap needs an expected array type")
        head, sig = self._infer_name(name, getattr(fn, "line", 0), ctx)
        if sig is None:
            raise UnprovenConstraint(f"cannot infer argument types for {name}")
        term, ty = self._apply_spine(head, sig, args, ctx, metas, name)
        self._builtin_obligations(name, term, ctx, metas)
        return term, ty

    def _builtin_obligations(self, name: str, term: Term, ctx: Ctx, metas) -> None:
        """The use-site obligation of a primitive that takes no proof
        argument, once the call is saturated."""
        p = PRIMS.get(name)
        if p is None or p.owes is None or not isinstance(term, Def) \
                or len(term.args) != p.arity:
            return
        what, build = p.owes
        c = build(ctx.names_for_shapes(),
                  *(metas.zonk(a.value, len(ctx)) for a in term.args))
        self._discharge_constraint(c, ctx, what=what)

    def _apply_spine(self, head: Term, sig: Term, args: list, ctx: Ctx,
                     metas, name: str):
        spine: list[Arg] = []
        # `rest` sits under one binder per value in `env` (newest first);
        # a part of it is instantiated only when it is inspected
        rest = sig
        env: list[Term] = []
        queue = list(args)

        def inst(t: Term) -> Term:
            return metas.zonk(ir.subst(t, 0, *env), len(ctx))

        while True:
            if not isinstance(rest, Pi):
                rest, env = inst(rest), []
                if isinstance(rest, Pi):
                    continue
                if queue and isinstance(rest, Def) and not _Metas.is_meta(rest):
                    r2 = self._whnf(rest)
                    if isinstance(r2, Pi):
                        rest = r2
                        continue
                break
            dom, cod = rest.domain, rest.scope.body
            if dom.hidden and not (queue and queue[0][1]):
                dz = inst(dom.value)
                if is_prop_type(dz) and not metas.has_unsolved(dz):
                    self._discharge(dz, ctx)
                    val: Term = Con("prf")
                else:
                    val = metas.fresh(len(ctx))
                spine.append(Arg(val, True))
                rest = cod
                env.insert(0, val)
                continue
            if not queue:
                break
            sarg, hidden = queue.pop(0)
            dz = inst(dom.value)
            if is_prop_type(dz) and isinstance(sarg, SName) and sarg.name == "prf":
                self._discharge(dz, ctx)
                val = Con("prf")
            elif isinstance(sarg, (SLam, SLamPat)) or _is_container_literal(sarg):
                val = self._check(sarg, dz, ctx, metas)
            elif metas.has_unsolved(dz):
                val, aty = self._infer(sarg, ctx, metas)
                if aty is not None:
                    self._unify(dz, aty, ctx, metas)
            else:
                val = self._check(sarg, dz, ctx, metas)
            spine.append(Arg(val, dom.hidden))
            rest = cod
            env.insert(0, val)
        if queue:
            raise EslError(f"{name}: too many arguments")
        return ir.apply_term(head, tuple(spine)), inst(rest)

    # -- lifted array operators --------------------------------------------------

    def _operand(self, s: SExpr, ctx: Ctx, metas):
        t, ty = self._infer(s, ctx, metas)
        ty = metas.zonk(ty, len(ctx)) if ty is not None else None
        if ty is None:
            raise UnprovenConstraint(f"cannot classify operand {_show(s)}")
        return broadcast.classify(t, ty, self.env)

    def _lifted(self, name: str, args, ctx: Ctx, metas):
        count, nat_op, float_op = LIFTED[name]
        if len(args) != count:
            raise EslError(f"{name} expects {count} operand(s)")
        operands = [self._operand(s, ctx, metas) for s, _ in args]
        if name == "nega":
            operands.insert(0, broadcast.classify(Lit(0.0), Def("Float"), self.env))
        return broadcast.lift((nat_op, float_op), operands,
                              ctx.names_for_shapes(), ctx.hypotheses())

    # -- unification -------------------------------------------------------------

    def _unify(self, a: Term, b: Term, ctx: Ctx, metas) -> None:
        if not self._unify1(a, b, ctx, metas):
            raise UnsupportedType(
                f"type mismatch: {_show_t(metas.zonk(a, len(ctx)))} vs "
                f"{_show_t(metas.zonk(b, len(ctx)))}")

    def _unify1(self, a: Term, b: Term, ctx: Ctx, metas) -> bool:
        a = metas.zonk(a, len(ctx))
        b = metas.zonk(b, len(ctx))
        if _Metas.is_meta(a):
            return self._solve(a, b, ctx, metas)
        if _Metas.is_meta(b):
            return self._solve(b, a, ctx, metas)
        if a == b:
            return True
        a, b = self._whnf(a), self._whnf(b)
        a = metas.zonk(a, len(ctx))
        b = metas.zonk(b, len(ctx))
        if _Metas.is_meta(a):
            return self._solve(a, b, ctx, metas)
        if _Metas.is_meta(b):
            return self._solve(b, a, ctx, metas)
        if a == b:
            return True
        na, nb = nat_view(a), nat_view(b)
        if na is not None and nb is not None:
            return na == nb
        match (a, b):
            case (Con("suc", (Arg(x, _),)), _) if nb is not None and nb > 0:
                return self._unify1(x, Lit(nb - 1), ctx, metas)
            case (_, Con("suc", (Arg(y, _),))) if na is not None and na > 0:
                return self._unify1(Lit(na - 1), y, ctx, metas)
            case (Pi(d1, s1), Pi(d2, s2)):
                if d1.hidden != d2.hidden:
                    return False
                if not self._unify1(d1.value, d2.value, ctx, metas):
                    return False
                ctx.push(s1.name, d1.value)
                try:
                    return self._unify1(s1.body, s2.body, ctx, metas)
                finally:
                    ctx.pop()
            case (Sort(), Sort()):
                return True
            case (Def(n1, a1), Def(n2, a2)) if n1 == n2 and len(a1) == len(a2):
                if all(self._unify1(x.value, y.value, ctx, metas)
                       for x, y in zip(a1, a2)):
                    return True
            case (Con(n1, a1), Con(n2, a2)) if n1 == n2 and len(a1) == len(a2):
                if all(self._unify1(x.value, y.value, ctx, metas)
                       for x, y in zip(a1, a2)):
                    return True
            case (Var(i1, a1), Var(i2, a2)) if i1 == i2 and len(a1) == len(a2):
                if all(self._unify1(x.value, y.value, ctx, metas)
                       for x, y in zip(a1, a2)):
                    return True
        # arithmetic fallback: compare as shape expressions
        names = ctx.names_for_shapes()
        hyps = ctx.hypotheses()
        if _shapeish(a) or _shapeish(b):
            sa = shapes.term_to_scalar(a, names)
            sb = shapes.term_to_scalar(b, names)
            if not isinstance(sa, shapes.SOpaque) or not isinstance(sb, shapes.SOpaque):
                if shapes.decide(shapes.eq(sa, sb), hyps) == "yes":
                    return True
            if shapes.decide(shapes.veq(shapes.term_to_vec(a, names),
                                        shapes.term_to_vec(b, names)),
                             hyps) == "yes":
                return True
        return False

    def _solve(self, m: Term, t: Term, ctx: Ctx, metas) -> bool:
        assert isinstance(m, Def)
        if _Metas.is_meta(t) and t.name == m.name:
            return True
        created = _Metas.depth_of(m.name)
        try:
            sol = ir.shift(t, created - len(ctx))
        except ir.NegativeIndex:
            return False
        metas.sol[m.name] = (sol, created)
        return True

    # -- obligations ---------------------------------------------------------------

    def _discharge(self, prop: Term, ctx: Ctx) -> None:
        names = ctx.names_for_shapes()
        c = _prop_to_constraint(prop, names)
        if c is None:
            raise UnprovenConstraint(f"not a decidable proposition: {_show_t(prop)}")
        self._discharge_constraint(c, ctx, what=_show_t(prop))

    def _discharge_constraint(self, c: shapes.Constraint, ctx: Ctx,
                              what: str) -> None:
        verdict = shapes.decide(c, ctx.hypotheses())
        if verdict == "yes":
            return
        if verdict == "no":
            cx = shapes.find_counterexample(c, ctx.hypotheses())
            raise UnprovenConstraint(f"obligation {what} is false"
                                     + (f" (counterexample {cx})" if cx else ""))
        if self._current is not None and self._current in self.trusted:
            self.def_meta[self._current].trusted_obligations.append(what)
            return
        raise UnprovenConstraint(
            f"cannot discharge obligation {what}; mark the definition trusted "
            f"with {{-# TRUST ... #-}} to defer it to a runtime assertion")

    # -- clauses -------------------------------------------------------------------

    def elab_clause(self, decl: SClause, sig: Term) -> Clause:
        ctx = Ctx()
        patterns: list[Arg] = []  # PVar carries *absolute* positions here
        sig_rest = sig
        queue = list(decl.pats)

        def push_auto(dom: Arg, binder: str):
            nonlocal sig_rest
            ctx.push(binder, dom.value)
            patterns.append(Arg(PVar(len(ctx) - 1), True))
            sig_rest = sig_rest.scope.body

        while True:
            if not isinstance(sig_rest, Pi):
                break
            dom = sig_rest.domain
            if dom.hidden and not (queue and queue[0][1]):
                push_auto(dom, sig_rest.scope.name or "_h")
                continue
            if not queue:
                break
            spat, hidden = queue.pop(0)
            if hidden != dom.hidden:
                raise EslError(
                    f"line {decl.line}: pattern visibility does not match signature")
            pat, k, value = self._elab_pattern(spat, dom.value, ctx, decl.line)
            patterns.append(Arg(pat, dom.hidden))
            cod = sig_rest.scope.body
            sig_rest = ir.subst(ir.shift(cod, k, 1), 0, value)
        if queue:
            raise EslError(f"line {decl.line}: too many patterns for {decl.name}")

        if decl.body is None:
            tele = tuple((e.name, vis(e.type)) for e in ctx.entries)
            return Clause(tele, _remap_patterns(patterns, len(ctx)), None)
        body = self.check(decl.body, sig_rest, ctx)
        tele = tuple((e.name, vis(e.type)) for e in ctx.entries)
        return Clause(tele, _remap_patterns(patterns, len(ctx)), body)

    def _elab_pattern(self, p: SPat, ty: Term, ctx: Ctx, line: int):
        """Returns (pattern with absolute PVar positions, #entries pushed,
        value term in the extended context)."""
        ty_w = self._whnf(ty)
        match p.kind:
            case "var" | "wild":
                name = p.name if p.kind == "var" else "_"
                if p.kind == "var" and p.name in _CON_NAMES | {"[]"}:
                    return self._elab_con_pattern(p, ty_w, ctx, line)
                ctx.push(name, ty)
                return PVar(len(ctx) - 1), 1, Var(0)
            case "lit":
                if not isinstance(p.value, int):
                    raise UnsupportedType(f"line {line}: float patterns are not supported")
                if isinstance(ty_w, Def) and ty_w.name in ("Nat", "Fin"):
                    pat: ir.Pattern = PCon("zero")
                    for _ in range(p.value):
                        pat = PCon("suc", (vis(pat),))
                    return pat, 0, Lit(p.value)
                raise UnsupportedType(f"line {line}: literal pattern at {_show_t(ty_w)}")
            case "absurd":
                return PAbsurd(), 0, Unknown()
            case "con":
                return self._elab_con_pattern(p, ty_w, ctx, line)
        raise AssertionError(p.kind)

    def _elab_con_pattern(self, p: SPat, ty: Term, ctx: Ctx, line: int):
        name = p.name
        args = p.args
        if name == "_∷_" or name == "[]":
            if not (isinstance(ty, Def) and ty.name in ("Vec", "List")):
                raise UnsupportedType(
                    f"line {line}: container pattern at {_show_t(ty)}")
            if ty.name == "Vec":
                return self._vec_pattern(p, ty, ctx, line)
            return self._list_pattern(p, ty, ctx, line)
        if name == "suc":
            if len(args) != 1:
                raise EslError(f"line {line}: suc takes one pattern")
            sub, k, v = self._elab_pattern(args[0][0], Def("Nat"), ctx, line)
            return PCon("suc", (vis(sub),)), k, Con("suc", (vis(v),))
        if name == "zero":
            return PCon("zero"), 0, Lit(0)
        if name == "fzero":
            return PCon("fzero"), 0, Lit(0)
        if name == "fsuc":
            if len(args) != 1:
                raise EslError(f"line {line}: fsuc takes one pattern")
            ctx.push("_ub", Def("Nat"))
            ub = PVar(len(ctx) - 1)
            sub, k, v = self._elab_pattern(args[0][0], Def("Fin", (vis(Var(0)),)),
                                           ctx, line)
            return (PCon("fsuc", (hid(ub), vis(sub))), k + 1,
                    Con("fsuc", (vis(v),)))
        if name == "imap":
            if not (isinstance(ty, Def) and ty.name == "Ar") or len(args) != 1:
                raise UnsupportedType(f"line {line}: imap pattern at {_show_t(ty)}")
            x, d, sh = (a.value for a in ty.args)
            sub = args[0][0]
            if sub.kind not in ("var", "wild"):
                raise UnsupportedType(f"line {line}: imap takes a variable pattern")
            fn_ty = Pi(vis(Def("Ix", (vis(d), vis(sh)))), Abs("iv", ir.shift(x, 1)))
            ctx.push(sub.name or "_", fn_ty)
            return (PCon("imap", (vis(PVar(len(ctx) - 1)),)), 1,
                    Con("imap", (hid(ir.shift(x, 1)), hid(ir.shift(d, 1)),
                                 hid(ir.shift(sh, 1)), vis(Var(0)))))
        raise UnsupportedType(f"line {line}: unsupported pattern head {name}")

    def _vec_pattern(self, p: SPat, ty: Term, ctx: Ctx, line: int):
        x, n = (a.value for a in ty.args)
        if p.name == "[]":
            nv = nat_view(self._whnf(n))
            if nv != 0:
                raise UnsupportedType(f"line {line}: [] pattern at length {_show_t(n)}")
            return PCon("vnil"), 0, Con("vnil")
        inner = ir.suc_view(self._whnf(n))
        if inner is None:
            raise UnsupportedType(
                f"line {line}: cons pattern needs a known vector length")
        hp, k1, hv = self._elab_pattern(p.args[0][0], x, ctx, line)
        tail_ty = Def("Vec", (vis(ir.shift(x, k1)), vis(ir.shift(inner, k1))))
        tp, k2, tv = self._elab_pattern(p.args[1][0], tail_ty, ctx, line)
        return (PCon("vcons", (vis(hp), vis(tp))), k1 + k2,
                Con("vcons", (vis(ir.shift(hv, k2)), vis(tv))))

    def _list_pattern(self, p: SPat, ty: Term, ctx: Ctx, line: int):
        x = ty.args[0].value
        if p.name == "[]":
            return PCon("lnil"), 0, Con("lnil")
        hp, k1, hv = self._elab_pattern(p.args[0][0], x, ctx, line)
        tp, k2, tv = self._elab_pattern(p.args[1][0], ir.shift(ty, k1), ctx, line)
        return (PCon("lcons", (vis(hp), vis(tp))), k1 + k2,
                Con("lcons", (vis(ir.shift(hv, k2)), vis(tv))))


def _remap_patterns(patterns: list[Arg], length: int) -> tuple[Arg, ...]:
    def remap(p):
        if isinstance(p, PVar):
            return PVar(length - 1 - p.idx)
        if isinstance(p, PCon):
            return PCon(p.name, tuple(Arg(remap(a.value), a.hidden) for a in p.args))
        return p

    return tuple(Arg(remap(a.value), a.hidden) for a in patterns)


def _is_container_literal(s: SExpr) -> bool:
    if isinstance(s, SName) and s.name in ("[]", "imap", "prf"):
        return True
    return isinstance(s, SApp) and isinstance(s.fn, SName) and \
        s.fn.name in ("_∷_", "imap")


def _shapeish(t: Term) -> bool:
    return isinstance(t, (Lit, Var)) or \
        isinstance(t, (Con, Def)) and t.name in shapes.SHAPE_HEADS


def _policy_reason(sig: Term) -> str | None:
    """Check the supported-type grammar; a reason marks the definition as
    not extractable (it stays available to the normalizer)."""
    tel, ret = pi_spine(sig)
    for name, a in tel:
        r = _type_reason(a.value)
        if r:
            return r
    return _type_reason(ret)


def _type_reason(t: Term) -> str | None:
    match t:
        case Sort():
            return "type-valued argument"
        case Pi():
            return "higher-order argument"
        case Def("String", _):
            return "no strings in the target language"
        case Def(("Nat" | "Float" | "_<_" | "_≡_"), _):
            return None
        case Def("Fin", _):
            return None
        case Def("Dec", (Arg(p, _),)):
            return _type_reason(p)
        case Def(("Vec" | "List"), (Arg(x, _), *_)):
            return _type_reason(x)
        case Def("Ar", (Arg(x, _), *_)):
            return _type_reason(x)
        case Def("Ix", _):
            return None
        case Var(_, _):
            return "type variable"
        case _:
            return None


def _show(s: SExpr) -> str:
    match s:
        case SName(n, _):
            return n
        case SNum(v):
            return str(v)
        case SFloat(v):
            return str(v)
        case SApp(fn, args):
            return "(" + " ".join([_show(fn)] + [_show(a) for a, _ in args]) + ")"
        case _:
            return type(s).__name__


def _show_t(t: Term) -> str:
    return ir.print_term(t)
