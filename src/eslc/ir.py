"""Core intermediate representation: reflected terms, patterns, clauses.

Variables are de Bruijn indices into the enclosing clause telescope (or
lambda/let/pi binders).  Heads (Var/Con/Def) carry their argument spine
directly; there is no application node.  Telescope entries keep surface
names purely so emitted code stays readable.

Nodes, here and in the normalizer's values and the decider's constraints,
are plain slotted dataclasses, equal and hashed by their fields (a
closure, `normalize.VBind`, only by identity), and never changed once
built: every pass builds a new node where it changes one, and shares the
old one where it does not.  They are not frozen dataclasses, because
those set every field through `object.__setattr__`, which made building a
node, a few thousand of them per elaborated module, about 2.5 times
slower; `tests/test_nodes.py` checks instead that no pass sets a field
twice.
"""

from __future__ import annotations

from dataclasses import dataclass


class EslError(Exception):
    """Base class for all user-visible toolkit errors."""


class UnknownName(EslError):
    pass


# the reason every evaluator gives for running out of Python stack
EXHAUSTED = "recursion depth"


@dataclass(frozen=True)
class Aborted:
    """What each of the three evaluators returns for a run that aborts: no
    clause matching, a failed assert, a zero divisor, a selection out of
    bounds, running out of stack.  A value, not a crash."""

    reason: str


class Abort(Exception):
    """Raised inside an evaluator; `outcome` turns it into Aborted(reason)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def outcome(fn, *args):
    """fn(*args), or the Aborted value of the run: Aborted(reason) for an
    Abort, Aborted(EXHAUSTED) when Python's stack runs out."""
    try:
        return fn(*args)
    except Abort as ab:
        return Aborted(ab.reason)
    except RecursionError:
        return Aborted(EXHAUSTED)


class NegativeIndex(EslError):
    pass


# --------------------------------------------------------------------------
# terms


@dataclass(slots=True, unsafe_hash=True)
class Arg:
    value: "Term | Pattern"
    hidden: bool = False

    def __repr__(self) -> str:
        return f"{'h' if self.hidden else 'v'}({self.value!r})"


def vis(x) -> Arg:
    return Arg(x, False)


def hid(x) -> Arg:
    return Arg(x, True)


class Term:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True, repr=False)
class Var(Term):
    idx: int
    args: tuple[Arg, ...] = ()

    def __repr__(self):
        return f"Var({self.idx}{''.join(', ' + repr(a) for a in self.args)})"


@dataclass(slots=True, unsafe_hash=True, repr=False)
class Con(Term):
    name: str
    args: tuple[Arg, ...] = ()

    def __repr__(self):
        return f"Con({self.name!r}{''.join(', ' + repr(a) for a in self.args)})"


@dataclass(slots=True, unsafe_hash=True, repr=False)
class Def(Term):
    name: str
    args: tuple[Arg, ...] = ()

    def __repr__(self):
        return f"Def({self.name!r}{''.join(', ' + repr(a) for a in self.args)})"


@dataclass(slots=True, unsafe_hash=True)
class Abs:
    """A binder scope: one bound variable (index 0 inside `body`)."""

    name: str
    body: Term


@dataclass(slots=True, unsafe_hash=True)
class Lam(Term):
    scope: Abs
    hidden: bool = False


@dataclass(slots=True, unsafe_hash=True)
class Lit(Term):
    value: int | float

    def __post_init__(self):
        assert isinstance(self.value, (int, float)) and not isinstance(self.value, bool)


@dataclass(slots=True, unsafe_hash=True)
class Let(Term):
    bound: Term
    scope: Abs


@dataclass(slots=True, unsafe_hash=True)
class Pi(Term):
    domain: Arg
    scope: Abs


@dataclass(slots=True, unsafe_hash=True)
class Sort(Term):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Unknown(Term):
    """An erased position.  The normalizer puts it for a telescope
    variable that no pattern binds and for a hidden constructor argument
    it cannot recover; the elaborator, for the value of an absurd pattern
    and the type of a let whose bound term has none inferred."""


# --------------------------------------------------------------------------
# patterns


class Pattern:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class PVar(Pattern):
    idx: int  # telescope entry, counting back from the last


@dataclass(slots=True, unsafe_hash=True)
class PCon(Pattern):
    name: str
    args: tuple[Arg, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class PAbsurd(Pattern):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Clause:
    # telescope entries: (surface name, type as Arg so hidden-ness is kept)
    telescope: tuple[tuple[str, Arg], ...]
    patterns: tuple[Arg, ...]
    body: Term | None  # None iff some pattern is absurd

    def __post_init__(self):
        absurd = _has_absurd(self.patterns)
        assert (self.body is None) == absurd, "absurd clauses have no body"


def _has_absurd(pats) -> bool:
    return any(isinstance(a.value, PAbsurd)
               or isinstance(a.value, PCon) and _has_absurd(a.value.args) for a in pats)


# --------------------------------------------------------------------------
# definitions and the global environment


@dataclass
class Function:
    clauses: list[Clause]


@dataclass(slots=True, unsafe_hash=True)
class Constructor:
    of: str
    arity: tuple[bool, ...] = ()  # hidden-ness per argument


@dataclass
class Datatype:
    constructors: list[str]


@dataclass(slots=True, unsafe_hash=True)
class Builtin:
    """A primitive with no clauses; its meaning is its builtins.PRIMS entry."""


Payload = Function | Constructor | Datatype | Builtin


@dataclass
class Definition:
    name: str
    signature: Term  # Pi telescope ending in the return type, closed
    payload: Payload

    def arity(self) -> int:
        return len(pi_spine(self.signature)[0])


class Env:
    """Append-only definition environment."""

    def __init__(self) -> None:
        self._defs: dict[str, Definition] = {}
        # the evaluator's code compiled from these definitions
        # (eslc.evaluate), made on first use
        self.compiled = None

    def add(self, d: Definition) -> None:
        if d.name in self._defs:
            raise EslError(f"duplicate definition: {d.name}")
        self._defs[d.name] = d

    def lookup(self, name: str) -> Definition:
        try:
            return self._defs[name]
        except KeyError:
            raise UnknownName(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def names(self) -> list[str]:
        return list(self._defs)


# --------------------------------------------------------------------------
# de Bruijn plumbing


def index_patterns(patterns: list[Arg], length: int) -> tuple[Arg, ...]:
    """`patterns`, whose PVars count telescope entries from the first of
    `length`, with each counting back from the last, as a PVar does."""
    def remap(p):
        if isinstance(p, PVar):
            return PVar(length - 1 - p.idx)
        if isinstance(p, PCon):
            return PCon(p.name, tuple(Arg(remap(a.value), a.hidden) for a in p.args))
        return p

    return tuple(Arg(remap(a.value), a.hidden) for a in patterns)


def map_args(args: tuple[Arg, ...], f, *rest) -> tuple[Arg, ...]:
    """`args` with `f(value, *rest)` applied to every value; `args` itself
    when no value changed, so unchanged terms are shared, not rebuilt."""
    for i, a in enumerate(args):
        v = f(a.value, *rest)
        if v is not a.value:
            out = list(args[:i])
            out.append(Arg(v, a.hidden))
            for b in args[i + 1:]:
                w = f(b.value, *rest)
                out.append(b if w is b.value else Arg(w, b.hidden))
            return tuple(out)
    return args


def map_subterms(t: Term, f, depth: int, *rest) -> Term:
    """`t` with `f(u, d, *rest)` in place of each immediate subterm `u`,
    where d is `depth` plus the binders between `t` and `u`; `t` itself
    when no subterm changed.  Dispatches on the exact type, so a subclass
    of a node is a leaf here."""
    cls = type(t)
    if cls is Var or cls is Con or cls is Def:
        args = map_args(t.args, f, depth, *rest) if t.args else t.args
        if args is t.args:
            return t
        return Var(t.idx, args) if cls is Var else cls(t.name, args)
    if cls is Lam or cls is Let or cls is Pi:
        body = f(t.scope.body, depth + 1, *rest)
        scope = t.scope if body is t.scope.body else Abs(t.scope.name, body)
        if cls is Lam:
            return t if scope is t.scope else Lam(scope, t.hidden)
        dom = t.bound if cls is Let else t.domain.value
        ndom = f(dom, depth, *rest)
        if ndom is dom and scope is t.scope:
            return t
        return Let(ndom, scope) if cls is Let else Pi(Arg(ndom, t.domain.hidden), scope)
    return t


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Standard de Bruijn shift of free variables >= cutoff.  Subterms
    without free variables >= cutoff come back as the same objects."""
    return _shift(t, cutoff, by) if by else t


def _shift(t: Term, cutoff: int, by: int) -> Term:
    if type(t) is Var and t.idx >= cutoff:
        if t.idx + by < 0:
            raise NegativeIndex(f"shift drives index {t.idx} below zero")
        return Var(t.idx + by, map_args(t.args, _shift, cutoff, by))
    return map_subterms(t, _shift, cutoff, by)


def apply_term(t: Term, args: tuple[Arg, ...]) -> Term:
    """Apply a term to extra spine arguments, beta-reducing lambdas."""
    cls = type(t)
    if not args or cls is Unknown:
        return t
    if cls is Var:
        return Var(t.idx, t.args + args)
    if cls is Def:  # a constructor application is saturated
        return Def(t.name, t.args + args)
    if cls is Lam:
        return apply_term(subst(t.scope.body, 0, args[0].value), args[1:])
    if cls is Let:
        shifted = tuple(Arg(shift(a.value, 1), a.hidden) for a in args)
        return Let(t.bound, Abs(t.scope.name, apply_term(t.scope.body, shifted)))
    raise EslError(f"cannot apply arguments to {t!r}")


def subst(t: Term, idx: int, *vals: Term) -> Term:
    """Simultaneous capture-avoiding substitution: vals[i] replaces
    Var(idx + i) and higher free indices drop by len(vals).  The values
    are scoped like the result; under binders a value is shifted only
    where its variable occurs.  Subterms without free variables >= idx
    come back as the same objects."""
    return _subst(t, 0, vals, idx) if vals else t


def _subst(t: Term, depth: int, vals: tuple[Term, ...], idx: int) -> Term:
    # under `depth` binders, the first replaced index is idx + depth
    if type(t) is not Var:
        return map_subterms(t, _subst, depth, vals, idx)
    args = map_args(t.args, _subst, depth, vals, idx) if t.args else t.args
    k = t.idx - idx - depth
    if k < 0:
        return t if args is t.args else Var(t.idx, args)
    if k < len(vals):
        return apply_term(shift(vals[k], depth), args)
    return Var(t.idx - len(vals), args)


def free_vars(t: Term) -> list[int]:
    """The free indices of `t`, one per occurrence (head positions
    included)."""
    found: list[int] = []

    def visit(u: Term, depth: int) -> Term:
        if type(u) is Var and u.idx >= depth:
            found.append(u.idx - depth)
        return map_subterms(u, visit, depth)

    visit(t, 0)
    return found


# --------------------------------------------------------------------------
# natural literals vs zero/suc spines


def nat_view(t: Term) -> int | None:
    """Read a term as a natural if it is a literal or a closed suc-spine."""
    n = 0
    while True:
        if type(t) is Lit:
            return n + t.value if type(t.value) is int else None
        if type(t) is not Con or t.name not in ("zero", "suc") \
                or len(t.args) != (t.name == "suc"):
            return None
        if t.name == "zero":
            return n
        n, t = n + 1, t.args[0].value


def suc_view(t: Term) -> Term | None:
    """Read t as suc(u); literals n+1 count as suc(n)."""
    match t:
        case Con("suc", (Arg(inner, _),)):
            return inner
        case Lit(int(v)) if v > 0:
            return Lit(v - 1)
        case _:
            return None


# --------------------------------------------------------------------------
# stable line-oriented debug printer (s-expression style)


def print_term(t: Term) -> str:
    match t:
        case Var(i, args):
            return _sx("var", str(i), *map(_sx_arg, args))
        case Con(name, args) | Def(name, args):
            head = "con" if isinstance(t, Con) else "def"
            return _sx(head, _sx_str(name), *map(_sx_arg, args))
        case Lam(scope, hidden):
            return _sx("lam", "h" if hidden else "v", _sx_str(scope.name), print_term(scope.body))
        case Lit(v):
            return _sx("flit", repr(v)) if isinstance(v, float) else _sx("lit", str(v))
        case Let(bound, scope):
            return _sx("let", _sx_str(scope.name), print_term(bound), print_term(scope.body))
        case Pi(dom, scope):
            return _sx("pi", "h" if dom.hidden else "v", _sx_str(scope.name),
                       print_term(dom.value), print_term(scope.body))
        case Sort():
            return "(sort)"
        case Unknown():
            return "(unknown)"
    raise EslError(f"unprintable term {t!r}")


def _sx(*parts: str) -> str:
    return "(" + " ".join(parts) + ")"


def _sx_arg(a: Arg) -> str:
    return _sx("h" if a.hidden else "v", print_term(a.value))


def _sx_str(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def pi_spine(sig: Term) -> tuple[list[tuple[str, Arg]], Term]:
    """Split a signature into its telescope and final return type."""
    tel: list[tuple[str, Arg]] = []
    while isinstance(sig, Pi):
        tel.append((sig.scope.name, sig.domain))
        sig = sig.scope.body
    return tel, sig
