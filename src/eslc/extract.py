"""Backend-agnostic extraction driver.

`kompile` normalizes the entry function under the don't-reduce base list,
erases its logical content (`erase`), hands each function to the backend,
and drains the queue of callees that the backend registered while
translating bodies.  Every function is emitted exactly once; output is
ordered dependencies-first with the entry last, over the call graph that
`ExtractState.push` records.  `checks` is the runtime-check plan of a
signature, which each backend renders in its own terms.  Name
normalization turns unicode definition names into target identifiers
deterministically, `ExtractState.binder` is the one rule by which both
backends name what they bind, `lower_clauses` is the one pattern compiler
both backends render, and `TokenReader` is the recursive-descent base of
both target readers.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass

from .builtins import is_prop_type
from .ir import (Arg, Clause, Con, Def, Definition, Env, EslError, Function,
                 Lit, PAbsurd, PCon, Pi, PVar, Sort, Term, map_subterms,
                 pi_spine, print_term)
from .normalize import RuleSet, dont_reduce, normalise


class ExtractError(EslError):
    pass


@dataclass
class ExtractOptions:
    fuel: int = 10**6
    faithful_lets: bool = False
    no_assert: bool = False


class ExtractState:
    """The shared bookkeeping all backends thread through extraction."""

    def __init__(self, base: frozenset[str], skip: frozenset[str],
                 keywords: frozenset[str] = frozenset(),
                 builtins: frozenset[str] = frozenset()):
        self.pending: deque[str] = deque()
        self.compiled: set[str] = set()
        self.base = base
        self.skip = skip
        self.keywords = keywords  # the target's, which name no binder
        self.names: dict[str, str] = {}
        # every name the text calls: the target's builtin functions, the
        # program's functions and the backend's macros
        self.used_names: set[str] = set(builtins)
        self.current = ""  # the function being compiled
        self.deps: dict[str, list[str]] = {}  # its callees, by first call

    def push(self, name: str) -> None:
        """Note that the current function calls `name`, and queue `name`
        unless it is compiled, queued, skipped or in the base list."""
        callees = self.deps.setdefault(self.current, [])
        if name not in callees:
            callees.append(name)
        if name in self.compiled or name in self.pending:
            return
        if name in self.skip or name in self.base:
            return
        self.pending.append(name)

    def binder(self, name: str, scope: set[str], fresh: bool = False) -> str:
        """The target name of a binder whose source name is `name`, added
        to `scope`: `name` itself unless it is a target keyword or already
        in scope, else `name_k` for the first k that is neither.  A binder
        the backend makes up (`fresh`) always takes a number."""
        k = int(fresh)
        out = f"{name}_{k}" if k else name
        while out in scope or out in self.keywords:
            k += 1
            out = f"{name}_{k}"
        scope.add(out)
        return out

    def target_name(self, name: str, final_pass) -> str:
        if name not in self.names:
            self.names[name] = self.binder(
                final_pass(normalise_name(name)) or "f", self.used_names)
        return self.names[name]


_SYMBOL_TABLE = {
    "-": "_", "′": "'", "″": "''", "‴": "'''",
    "⁺": "+", "⁻": "-",
    "∸": "-", "≤": "le", "≥": "ge", "≟": "eq", "≡": "eq", "≢": "neq",
    "∷": "cons", "ʳ": "r", "ᵣ": "r", "ᵀ": "T", "¨": "each",
    "₀": "0", "₁": "1", "₂": "2", "₃": "3", "₄": "4",
    "₅": "5", "₆": "6", "₇": "7", "₈": "8", "₉": "9",
    "⁰": "0", "¹": "1", "²": "2", "³": "3", "⁴": "4",
    "⁵": "5", "⁶": "6", "⁷": "7", "⁸": "8", "⁹": "9",
}

_GREEK = {
    "α": "alpha", "β": "beta", "γ": "gamma", "δ": "delta", "ε": "epsilon",
    "ζ": "zeta", "η": "eta", "θ": "theta", "ι": "iota", "κ": "kappa",
    "λ": "lambda", "μ": "mu", "ν": "nu", "ξ": "xi", "π": "pi", "ρ": "rho",
    "σ": "sigma", "τ": "tau", "υ": "upsilon", "φ": "phi", "χ": "chi",
    "ψ": "psi", "ω": "omega",
}


def normalise_name(name: str) -> str:
    """Deterministic unicode-to-ascii transliteration (target-independent
    part; backends apply a final lexical pass)."""
    out = []
    for ch in name:
        if ch.isascii() and (ch.isalnum() or ch in "_'"):
            out.append(ch)
        elif ch in _SYMBOL_TABLE:
            out.append(_SYMBOL_TABLE[ch])
        elif ch.lower() in _GREEK:
            word = _GREEK[ch.lower()]
            out.append(word.capitalize() if ch.isupper() else word)
        else:
            out.append(f"_u{ord(ch):04X}")
    return "".join(out)


KALEID_KEYWORDS = frozenset({"def", "let", "in", "if", "else", "assert"})
SAC_KEYWORDS = frozenset({"return", "assert", "with", "if", "else"})


def kaleid_final_pass(s: str) -> str:
    """Kaleidoscope identifiers admit primes, OCaml style."""
    keep = "".join(c for c in s if c.isalnum() or c in "_'")
    return keep.lstrip("_'0123456789") or keep


def sac_final_pass(s: str) -> str:
    keep = "".join(c for c in s if c.isalnum() or c == "_")
    return keep.lstrip("0123456789") or keep


def erase(t: Term, depth: int, env: Env) -> Term:
    """`t` as the run time sees it, for a normalized `t` (`depth` is the
    binder depth `map_subterms` passes; erasure does not read it).  A
    proof or decision is its C boolean: `prf` and `yes` are 1, `no` is 0,
    and so is a call whose result type is a proposition.  A `Fin` is its
    natural: `fromN<` is its hidden left endpoint and `toN` its argument.
    A `suc`/`fsuc` spine around an open rest is `k + rest`; normalization
    has already made closed spines, `zero` and `fzero` literals.  The
    residual `div-helper k m n j` of a division by a successor is its
    closed form `k + (n + m - j) / (1 + m)`: the monus stops at zero only
    where n runs out before j does, and the helper's value is then k."""
    if type(t) is Con:
        if t.name in ("prf", "yes"):
            return Lit(1)
        if t.name == "no":
            return Lit(0)
        if t.name in ("suc", "fsuc"):
            k = 0
            while type(t) is Con and t.name in ("suc", "fsuc"):
                k += 1
                t = t.args[-1].value
            return _binop("_+_", Lit(k), erase(t, depth, env))
    elif type(t) is Def:
        if t.name == "div-helper" and len(t.args) == 4:
            k, m, n, j = (erase(a.value, depth, env) for a in t.args)
            left = _binop("_-_", _binop("_+_", n, m), j)
            return _binop("_+_", k, _binop("_/_", left, _binop("_+_", Lit(1), m)))
        if t.name == "fromN<":
            return erase(t.args[0].value, depth, env)
        if t.name == "toN":
            return erase(t.args[-1].value, depth, env)
        if t.name in env and is_prop_type(pi_spine(env.lookup(t.name).signature)[1]):
            return Lit(1)
    return map_subterms(t, erase, depth, env)


def _binop(name: str, a: Term, b: Term) -> Term:
    return Def(name, (Arg(a, False), Arg(b, False)))


RET = "__ret"  # the target name of a function's result


def subjects(sig: Term) -> list[tuple[str, Term]]:
    """The target name and type of each parameter of a signature, then of
    its result: `x_1`, `x_2`, ... and `__ret` in every backend."""
    tel, ret = pi_spine(sig)
    return [(f"x_{j + 1}", a.value) for j, (_, a) in enumerate(tel)] + [(RET, ret)]


@dataclass(frozen=True)
class Check:
    """One runtime check that a signature implies.  The subject is
    parameter `subject`, or the result when `subject` is the number of
    parameters; both sides are core terms over the parameters before it.
    `origin` is the signature fact the check comes from.  The relation is
    `lhs < rhs` or `lhs == rhs`, where a missing `lhs` is the subject;
    `extent`: the length of the subject's axis 0 is `rhs`; `take`:
    `take (lhs, shape subject) == rhs`.  A `decision` subject is a C
    boolean that agrees with the relation."""
    index: int
    subject: int
    origin: Term
    relation: str  # "<" | "==" | "extent" | "take"
    lhs: Term | None
    rhs: Term
    decision: bool = False


def checks(sig: Term) -> list[Check]:
    """The runtime-check plan of a normalized, erased signature: one check
    per parameter or result whose type states a fact, in order.  `Nat`,
    `Float` and `List` state none; a type whose fact has no check is
    refused, so that no fact is dropped silently."""
    out: list[Check] = []
    for j, (name, ty) in enumerate(subjects(sig)):
        if not (type(ty) is Def and ty.name in ("Nat", "Float", "List")):
            out.append(Check(len(out), j, ty, *_relation(ty, name)))
    return out


def _relation(ty: Term, name: str) -> tuple:
    match ty:
        case Def("Fin", (Arg(e, _),)):
            return "<", None, e
        case Def("_<_", (Arg(a, _), Arg(b, _))):
            return "<", a, b
        case Def("_≡_", args):
            a, b = (x.value for x in args if not x.hidden)
            return "==", a, b
        case Def("Vec", (_, Arg(n, _))):
            return "extent", None, n
        case Def("Ar", (_, Arg(d, _), Arg(s, _))):
            return "take", d, s
        case Def("Dec", (Arg(p, _),)) if is_prop_type(p):
            return *_relation(p, name), True  # the decision agrees with p
        case Def("Dec", _):
            raise ExtractError(f"undecidable Dec payload at {name}")
    what = {Pi: "higher-order", Sort: "type-valued"}.get(type(ty))
    raise ExtractError(f"unsupported type at {name}: " + (
        f"{what} {'result' if name == RET else 'argument'}" if what
        else print_term(ty)))


# the target expressions a clause chain is built of: the guards `e == 0`
# and `e > 0`, `e - 1` (read only where `e > 0` holds), component `k` of a
# vector `e`, its components from `k` on, and the guard that a list `e`
# has `k` items, or more if `tail` (None where the target has no vectors)
PatternOps = namedtuple("PatternOps", "is_zero is_pos pred sel drop length")


@dataclass
class Branch:
    """A clause as a branch: its guards, its pattern variables' bindings in
    order (a name that starts with `#` is an imap pattern's selection macro
    of the array it is bound to), its body or none if absurd, the target
    name of each de Bruijn variable, and every name the clause binds."""
    guards: list
    binds: list[tuple[str, object]]
    body: Term | None
    venv: list[str]
    scope: set[str]


def lower_clauses(clauses: list[Clause], params: list, scope: set[str],
                  state: ExtractState, ops: PatternOps) -> list[Branch]:
    """The clauses as a chain of branches, tried in order, in the style of
    Maranget's pattern-match compilation (ML 2008) without pruning.  Each
    clause matches each parameter's target expression in `params` (`None`
    for one the target drops, whose pattern binds nothing) and names its
    binders apart from `scope` in a scope of its own.  A chain whose last
    clause is guarded ends in an absurd branch: coverage is not checked."""
    if not clauses:
        raise ExtractError("a function without clauses has no body")
    chain = []
    for cl in clauses:
        source = [n for n, _ in reversed(cl.telescope)]  # by de Bruijn index
        names: dict[int, str] = {}  # a pattern variable's target name
        guards, binds, cscope = [], [], set(scope)
        work = [(p.value, e) for p, e in zip(cl.patterns, params) if e is not None]
        while work:  # a constructor's sub-patterns go to the front
            p, e = work.pop(0)
            if type(p) is PVar:
                if not source[p.idx].startswith("_"):
                    if p.idx not in names:
                        names[p.idx] = state.binder(source[p.idx], cscope)
                    binds.append((names[p.idx], e))
            elif type(p) is PAbsurd:
                pass
            elif p.name in ("zero", "fzero"):
                guards.append(ops.is_zero(e))
            elif p.name in ("suc", "fsuc"):
                guards.append(ops.is_pos(e))
                work.insert(0, (p.args[0].value, ops.pred(e)))
            elif p.name == "imap" and type(sub := p.args[-1].value) is PVar:
                wild = source[sub.idx].startswith("_")
                # a #define holds for the rest of the text, so its name
                # stays apart from every function, builtin and macro
                macro = state.binder("p" if wild else source[sub.idx],
                                     cscope | state.used_names, fresh=wild)
                cscope.add(macro)
                state.used_names.add(macro)
                names[sub.idx] = f"#{macro}"
                binds.append((names[sub.idx], e))
            elif p.name in ("vcons", "lcons", "vnil", "lnil"):
                listed, k = p.name[0] == "l", 0
                while type(p) is PCon and p.name in ("vcons", "lcons"):
                    head, p = (a.value for a in p.args)
                    work.insert(k, (head, ops.sel(e, k)))
                    k += 1
                if type(p) is PVar:  # the tail
                    work.insert(k, (p, ops.drop(e, k)))
                if listed:  # a vector's type fixes its length
                    guards.append(ops.length(e, k, type(p) is PVar))
            else:
                raise ExtractError(f"cannot match {p.name} in this target")
        venv = [names.get(i, n) for i, n in enumerate(source)]
        chain.append(Branch(guards, binds, cl.body, venv, cscope))
    if chain[-1].guards:
        chain.append(Branch([], [], None, [], set(scope)))
    return chain


def kompile(entry: str, base, skip, backend, env: Env,
            rules: RuleSet | None = None,
            opts: ExtractOptions | None = None,
            def_meta: dict | None = None) -> str:
    """Extract `entry` and its call-graph closure; returns the program text.
    `def_meta` is not read: `checks` and the backend decide what extracts,
    and the parameter stays for callers that pass it by position."""
    opts = opts or ExtractOptions()
    state = ExtractState(frozenset(base), frozenset(skip), backend.keywords,
                         backend.builtins)
    if entry in state.base or entry in state.skip:
        raise ExtractError(f"the entry {entry} is in the base or skip list")
    # the entry claims its target name first so helpers yield on collision
    state.target_name(entry, backend.final_pass)
    policy = dont_reduce(state.base, fuel=opts.fuel,
                         faithful_lets=opts.faithful_lets)
    emitted: dict[str, str] = {}  # name -> the function's text
    state.pending.append(entry)
    while state.pending:
        name = state.pending.popleft()
        state.compiled.add(name)
        dn = env.lookup(name)
        if not isinstance(dn.payload, Function):
            raise ExtractError(f"{name} is not a function")
        nsig = erase(normalise(dn.signature, env, policy, rules, 0), 0, env)
        try:  # a refusal names the function and keeps its class
            plan = checks(nsig)  # refuses what it cannot check, even unrendered
            nclauses = []
            for c in dn.payload.clauses:
                # the backends read only the telescope's names and length
                depth = len(c.telescope)
                body = None if c.body is None else erase(
                    normalise(c.body, env, policy, rules, depth), depth, env)
                nclauses.append(Clause(c.telescope, c.patterns, body))
            state.current = name
            emitted[name] = backend.kompile_fun(
                name, Definition(name, nsig, Function(nclauses)),
                [] if opts.no_assert else plan, state, env)
        except ExtractError as ex:
            raise type(ex)(f"{name}: {ex}") from None
    return backend.assemble(_ordered(emitted, entry, state))


class TokenReader:
    """Recursive descent over a list of tokens.  A target's reader gives
    the tokenizer (`tokens`), the name rule (`name`), the error it raises
    (`error`) and the grammar from `program` down; `read` runs it."""

    error = ExtractError

    def __init__(self, text: str):
        self.toks: list = self.tokens(text)
        self.pos = 0

    def read(self):
        try:
            return self.program()
        except RecursionError as err:
            raise self.error(f"program too deeply nested to read: {err}") from err

    def peek(self, k: int = 0):
        return self.toks[self.pos + k] if self.pos + k < len(self.toks) else None

    def take(self) -> str:
        t = self.peek()
        if not isinstance(t, str):  # the end, or a token that is not text
            raise self.error(f"unexpected end of {'input' if t is None else 'line'}")
        self.pos += 1
        return t

    def accept(self, t: str) -> bool:
        if self.peek() == t:
            self.pos += 1
            return True
        return False

    def expect(self, t: str) -> None:
        got = self.take()
        if got != t:
            raise self.error(f"expected {t!r}, found {got!r}")

    def items(self, close: str, item) -> list:
        """`item, ..., item` up to the closing bracket."""
        out = []
        if not self.accept(close):
            out.append(item())
            while self.accept(","):
                out.append(item())
            self.expect(close)
        return out


def entry_name(entry: str, backend) -> str:
    """The target name that `kompile` gives its entry, which claims its
    name first."""
    state = ExtractState(frozenset(), frozenset(), backend.keywords,
                         backend.builtins)
    return state.target_name(entry, backend.final_pass)


def _ordered(emitted: dict[str, str], entry: str,
             state: ExtractState) -> list[str]:
    """Postorder over the call graph from the entry: callees first, entry
    last; cycles resolve in discovery order."""
    seen: set[str] = set()
    order: list[str] = []

    def visit(name: str) -> None:
        if name in seen or name not in emitted:
            return
        seen.add(name)
        for dep in state.deps.get(name, []):
            visit(dep)
        order.append(name)

    visit(entry)  # every function was pushed by one compiled before it
    return [emitted[n] for n in order]
