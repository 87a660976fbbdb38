"""Core intermediate representation: reflected terms, patterns, clauses.

Variables are de Bruijn indices into the enclosing clause telescope (or
lambda/let/pi binders).  Heads (Var/Con/Def) carry their argument spine
directly; there is no application node.  Telescope entries keep surface
names purely so emitted code stays readable.
"""

from __future__ import annotations

from dataclasses import dataclass


class EslError(Exception):
    """Base class for all user-visible toolkit errors."""


class UnknownName(EslError):
    pass


class NegativeIndex(EslError):
    pass


# --------------------------------------------------------------------------
# terms


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True, repr=False)
class Var(Term):
    idx: int
    args: tuple[Arg, ...] = ()

    def __repr__(self):
        return f"Var({self.idx}{''.join(', ' + repr(a) for a in self.args)})"


@dataclass(frozen=True, slots=True, repr=False)
class Con(Term):
    name: str
    args: tuple[Arg, ...] = ()

    def __repr__(self):
        return f"Con({self.name!r}{''.join(', ' + repr(a) for a in self.args)})"


@dataclass(frozen=True, slots=True, repr=False)
class Def(Term):
    name: str
    args: tuple[Arg, ...] = ()

    def __repr__(self):
        return f"Def({self.name!r}{''.join(', ' + repr(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class Abs:
    """A binder scope: one bound variable (index 0 inside `body`)."""

    name: str
    body: Term


@dataclass(frozen=True, slots=True)
class Lam(Term):
    scope: Abs
    hidden: bool = False


@dataclass(frozen=True, slots=True)
class Lit(Term):
    value: int | float

    def __post_init__(self):
        assert isinstance(self.value, (int, float)) and not isinstance(self.value, bool)


@dataclass(frozen=True, slots=True)
class Let(Term):
    bound: Term
    scope: Abs


@dataclass(frozen=True, slots=True)
class Pi(Term):
    domain: Arg
    scope: Abs


@dataclass(frozen=True, slots=True)
class Sort(Term):
    pass


@dataclass(frozen=True, slots=True)
class Unknown(Term):
    """Erased position; never produced by the frontend, kept so IR dumps
    of externally produced terms can be replayed."""


# --------------------------------------------------------------------------
# patterns


class Pattern:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PVar(Pattern):
    idx: int  # telescope position


@dataclass(frozen=True, slots=True)
class PCon(Pattern):
    name: str
    args: tuple[Arg, ...] = ()


@dataclass(frozen=True, slots=True)
class PLit(Pattern):
    value: int | float


@dataclass(frozen=True, slots=True)
class PAbsurd(Pattern):
    pass


@dataclass(frozen=True, slots=True)
class Clause:
    # telescope entries: (surface name, type as Arg so hidden-ness is kept)
    telescope: tuple[tuple[str, Arg], ...]
    patterns: tuple[Arg, ...]
    body: Term | None  # None iff some pattern is absurd

    def __post_init__(self):
        absurd = _has_absurd(self.patterns)
        assert (self.body is None) == absurd, "absurd clauses have no body"


def _has_absurd(pats) -> bool:
    for a in pats:
        p = a.value
        if isinstance(p, PAbsurd):
            return True
        if isinstance(p, PCon) and _has_absurd(p.args):
            return True
    return False


# --------------------------------------------------------------------------
# definitions and the global environment


@dataclass
class Function:
    clauses: list[Clause]


@dataclass(frozen=True)
class Constructor:
    of: str
    arity: tuple[bool, ...] = ()  # hidden-ness per argument


@dataclass
class Datatype:
    constructors: list[str]


@dataclass(frozen=True)
class Postulate:
    pass


@dataclass(frozen=True)
class Builtin:
    tag: str


Payload = Function | Constructor | Datatype | Postulate | Builtin


@dataclass
class Definition:
    name: str
    signature: Term  # Pi telescope ending in the return type, closed
    payload: Payload

    def arity(self) -> int:
        n, sig = 0, self.signature
        while isinstance(sig, Pi):
            n, sig = n + 1, sig.scope.body
        return n


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


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Standard de Bruijn shift of free variables >= cutoff.  Subterms
    without free variables >= cutoff come back as the same objects."""
    if by == 0:
        return t
    match t:
        case Var(idx, args):
            nargs = map_args(args, shift, by, cutoff) if args else args
            if idx >= cutoff:
                if idx + by < 0:
                    raise NegativeIndex(f"shift drives index {idx} below zero")
                return Var(idx + by, nargs)
            return t if nargs is args else Var(idx, nargs)
        case Con(name, args) if args:
            nargs = map_args(args, shift, by, cutoff)
            return t if nargs is args else Con(name, nargs)
        case Def(name, args) if args:
            nargs = map_args(args, shift, by, cutoff)
            return t if nargs is args else Def(name, nargs)
        case Lam(scope, hidden):
            body = shift(scope.body, by, cutoff + 1)
            return t if body is scope.body else Lam(Abs(scope.name, body), hidden)
        case Let(bound, scope):
            nbound = shift(bound, by, cutoff)
            body = shift(scope.body, by, cutoff + 1)
            if nbound is bound and body is scope.body:
                return t
            return Let(nbound, Abs(scope.name, body))
        case Pi(dom, scope):
            ndom = shift(dom.value, by, cutoff)
            body = shift(scope.body, by, cutoff + 1)
            if ndom is dom.value and body is scope.body:
                return t
            return Pi(Arg(ndom, dom.hidden), Abs(scope.name, body))
        case _:
            return t


def apply_term(t: Term, args: tuple[Arg, ...]) -> Term:
    """Apply a term to extra spine arguments, beta-reducing lambdas."""
    if not args:
        return t
    match t:
        case Var(idx, a0):
            return Var(idx, a0 + args)
        case Con(name, a0):
            return Con(name, a0 + args)
        case Def(name, a0):
            return Def(name, a0 + args)
        case Lam(scope, _):
            return apply_term(subst(scope.body, 0, args[0].value), args[1:])
        case Let(bound, scope):
            shifted = tuple(Arg(shift(a.value, 1), a.hidden) for a in args)
            return Let(bound, Abs(scope.name, apply_term(scope.body, shifted)))
        case Unknown():
            return t
        case _:
            raise EslError(f"cannot apply arguments to {t!r}")


def subst(t: Term, idx: int, repl: Term) -> Term:
    """Capture-avoiding substitution of `repl` for Var(idx); higher free
    indices are decremented.  Subterms without free variables >= idx come
    back as the same objects."""
    match t:
        case Var(i, args):
            nargs = map_args(args, subst, idx, repl) if args else args
            if i == idx:
                return apply_term(repl, nargs)
            if i > idx:
                return Var(i - 1, nargs)
            return t if nargs is args else Var(i, nargs)
        case Con(name, args) if args:
            nargs = map_args(args, subst, idx, repl)
            return t if nargs is args else Con(name, nargs)
        case Def(name, args) if args:
            nargs = map_args(args, subst, idx, repl)
            return t if nargs is args else Def(name, nargs)
        case Lam(scope, hidden):
            body = subst(scope.body, idx + 1, shift(repl, 1))
            return t if body is scope.body else Lam(Abs(scope.name, body), hidden)
        case Let(bound, scope):
            nbound = subst(bound, idx, repl)
            body = subst(scope.body, idx + 1, shift(repl, 1))
            if nbound is bound and body is scope.body:
                return t
            return Let(nbound, Abs(scope.name, body))
        case Pi(dom, scope):
            ndom = subst(dom.value, idx, repl)
            body = subst(scope.body, idx + 1, shift(repl, 1))
            if ndom is dom.value and body is scope.body:
                return t
            return Pi(Arg(ndom, dom.hidden), Abs(scope.name, body))
        case _:
            return t


def msubst(t: Term, vals: list[Term], depth: int = 0) -> Term:
    """Simultaneous substitution: vals[i] (an outside term) replaces
    Var(depth+i); higher indices drop by len(vals)."""
    k = len(vals)
    if k == 0:
        return t
    match t:
        case Var(i, args):
            nargs = tuple(Arg(msubst(a.value, vals, depth), a.hidden) for a in args)
            if depth <= i < depth + k:
                return apply_term(shift(vals[i - depth], depth), nargs)
            if i >= depth + k:
                return Var(i - k, nargs)
            return Var(i, nargs)
        case Con(name, args):
            return Con(name, tuple(Arg(msubst(a.value, vals, depth), a.hidden) for a in args))
        case Def(name, args):
            return Def(name, tuple(Arg(msubst(a.value, vals, depth), a.hidden) for a in args))
        case Lam(scope, hidden):
            return Lam(Abs(scope.name, msubst(scope.body, vals, depth + 1)), hidden)
        case Let(bound, scope):
            return Let(msubst(bound, vals, depth),
                       Abs(scope.name, msubst(scope.body, vals, depth + 1)))
        case Pi(dom, scope):
            return Pi(Arg(msubst(dom.value, vals, depth), dom.hidden),
                      Abs(scope.name, msubst(scope.body, vals, depth + 1)))
        case _:
            return t


def free_var_count(t: Term, idx: int) -> int:
    """Number of occurrences of Var(idx) in t (head positions included)."""
    match t:
        case Var(i, args):
            n = 1 if i == idx else 0
            return n + sum(free_var_count(a.value, idx) for a in args)
        case Con(_, args) | Def(_, args):
            return sum(free_var_count(a.value, idx) for a in args)
        case Lam(scope, _):
            return free_var_count(scope.body, idx + 1)
        case Let(bound, scope):
            return free_var_count(bound, idx) + free_var_count(scope.body, idx + 1)
        case Pi(dom, scope):
            return free_var_count(dom.value, idx) + free_var_count(scope.body, idx + 1)
        case _:
            return 0


def max_free_var(t: Term, depth: int = 0) -> int:
    """Largest free index relative to the outside, -1 if closed."""
    match t:
        case Var(i, args):
            m = i - depth if i >= depth else -1
            return max([m] + [max_free_var(a.value, depth) for a in args])
        case Con(_, args) | Def(_, args):
            return max([-1] + [max_free_var(a.value, depth) for a in args])
        case Lam(scope, _):
            return max_free_var(scope.body, depth + 1)
        case Let(bound, scope):
            return max(max_free_var(bound, depth), max_free_var(scope.body, depth + 1))
        case Pi(dom, scope):
            return max(max_free_var(dom.value, depth), max_free_var(scope.body, depth + 1))
        case _:
            return -1


# --------------------------------------------------------------------------
# natural literals vs zero/suc spines

ZERO = "zero"
SUC = "suc"


def nat_view(t: Term) -> int | None:
    """Read a term as a natural if it is a literal or a closed suc-spine."""
    n = 0
    while True:
        match t:
            case Lit(int(v)):
                return n + v
            case Con("zero", ()):
                return n
            case Con("suc", (Arg(inner, _),)):
                n, t = n + 1, inner
            case _:
                return None


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
# stable line-oriented debug printer (s-expression style) and its reader


def print_term(t: Term) -> str:
    match t:
        case Var(i, args):
            return _sx("var", str(i), *map(_sx_arg, args))
        case Con(name, args):
            return _sx("con", _sx_str(name), *map(_sx_arg, args))
        case Def(name, args):
            return _sx("def", _sx_str(name), *map(_sx_arg, args))
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


def parse_term(src: str) -> Term:
    toks = _sx_tokens(src)
    t, rest = _parse_sx(toks, 0)
    if rest != len(toks):
        raise EslError("trailing tokens in term dump")
    return _sx_to_term(t)


def _sx_tokens(src: str) -> list[str]:
    toks, i = [], 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
        elif c in "()":
            toks.append(c)
            i += 1
        elif c == '"':
            j, buf = i + 1, []
            while src[j] != '"':
                if src[j] == "\\":
                    j += 1
                buf.append(src[j])
                j += 1
            toks.append('"' + "".join(buf))
            i = j + 1
        else:
            j = i
            while j < len(src) and not src[j].isspace() and src[j] not in "()":
                j += 1
            toks.append(src[i:j])
            i = j
    return toks


def _parse_sx(toks, i):
    if toks[i] == "(":
        out, i = [], i + 1
        while toks[i] != ")":
            node, i = _parse_sx(toks, i)
            out.append(node)
        return out, i + 1
    return toks[i], i + 1


def _sx_to_term(node) -> Term:
    if not isinstance(node, list):
        raise EslError(f"bad term dump atom: {node}")
    head = node[0]
    if head == "var":
        return Var(int(node[1]), tuple(_sx_to_argt(a) for a in node[2:]))
    if head == "con":
        return Con(node[1][1:], tuple(_sx_to_argt(a) for a in node[2:]))
    if head == "def":
        return Def(node[1][1:], tuple(_sx_to_argt(a) for a in node[2:]))
    if head == "lam":
        return Lam(Abs(node[2][1:], _sx_to_term(node[3])), node[1] == "h")
    if head == "lit":
        return Lit(int(node[1]))
    if head == "flit":
        return Lit(float(node[1]))
    if head == "let":
        return Let(_sx_to_term(node[2]), Abs(node[1][1:], _sx_to_term(node[3])))
    if head == "pi":
        return Pi(Arg(_sx_to_term(node[3]), node[1] == "h"),
                  Abs(node[2][1:], _sx_to_term(node[4])))
    if head == "sort":
        return Sort()
    if head == "unknown":
        return Unknown()
    raise EslError(f"bad term dump head: {head}")


def _sx_to_argt(node) -> Arg:
    return Arg(_sx_to_term(node[1]), node[0] == "h")


def pi_spine(sig: Term) -> tuple[list[tuple[str, Arg]], Term]:
    """Split a signature into its telescope and final return type."""
    tel: list[tuple[str, Arg]] = []
    while isinstance(sig, Pi):
        tel.append((sig.scope.name, sig.domain))
        sig = sig.scope.body
    return tel, sig
