"""Backend-agnostic extraction driver.

`kompile` normalizes the entry function under the don't-reduce base list,
hands each function to the backend, and drains the queue of callees that
the backend registered while translating bodies.  Every function is
emitted exactly once; output is ordered dependencies-first with the entry
last.  Name normalization turns unicode definition names into target
identifiers deterministically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .ir import Con, Definition, Env, EslError, Function, Term, nat_view
from .normalize import Normalizer, RuleSet, dont_reduce, normalise_clause


class ExtractError(EslError):
    pass


@dataclass
class EmittedFunction:
    name: str
    code: str
    dependencies: list[str]


@dataclass
class ExtractOptions:
    fuel: int = 10**6
    faithful_lets: bool = False
    no_assert: bool = False


class ExtractState:
    """The shared bookkeeping all backends thread through extraction."""

    def __init__(self, base: frozenset[str], skip: frozenset[str]):
        self.pending: deque[str] = deque()
        self.compiled: set[str] = set()
        self.base = base
        self.skip = skip
        self.fresh_counter = 0
        self.names: dict[str, str] = {}
        self.used_names: set[str] = set()
        self.deps: dict[str, list[str]] = {}

    def push(self, name: str) -> None:
        if name in self.compiled or name in self.pending:
            return
        if name in self.skip or name in self.base:
            return
        self.pending.append(name)

    def note_dep(self, caller: str, callee: str) -> None:
        self.deps.setdefault(caller, [])
        if callee not in self.deps[caller]:
            self.deps[caller].append(callee)

    def fresh(self, prefix: str) -> str:
        self.fresh_counter += 1
        return f"{prefix}{self.fresh_counter}"

    def reset_fresh(self) -> None:
        self.fresh_counter = 0

    def target_name(self, name: str, final_pass) -> str:
        if name in self.names:
            return self.names[name]
        base = final_pass(normalise_name(name))
        if not base:
            base = "f"
        candidate, k = base, 0
        while candidate in self.used_names:
            k += 1
            candidate = f"{base}_{k}"
        self.names[name] = candidate
        self.used_names.add(candidate)
        return candidate


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


def kaleid_final_pass(s: str) -> str:
    """Kaleidoscope identifiers admit primes, OCaml style."""
    keep = [c for c in s if c.isalnum() or c in "_'"]
    return "".join(keep).lstrip("_'0123456789") or "".join(keep)


def sac_final_pass(s: str) -> str:
    keep = [c for c in s if c.isalnum() or c == "_"]
    out = "".join(keep)
    return out.lstrip("0123456789") or out


def suc_spine(t: Term) -> tuple[int, Term | None]:
    """t as k sucs around a rest: (k + n, None) when the rest is the
    natural n, else (k, rest)."""
    k = 0
    while isinstance(t, Con) and t.name in ("suc", "fsuc"):
        k += 1
        t = t.args[-1].value
    n = nat_view(t)
    if n is not None:
        return k + n, None
    return k, t


def kompile(entry: str, base, skip, backend, env: Env,
            rules: RuleSet | None = None,
            opts: ExtractOptions | None = None,
            def_meta: dict | None = None) -> str:
    """Extract `entry` and its call-graph closure; returns the program text."""
    opts = opts or ExtractOptions()
    state = ExtractState(frozenset(base), frozenset(skip))
    d = env.lookup(entry)
    if not isinstance(d.payload, Function):
        raise ExtractError(f"{entry} is not a function")
    # the entry claims its target name first so helpers yield on collision
    state.target_name(entry, backend.final_pass)
    policy = dont_reduce(state.base, fuel=opts.fuel,
                         faithful_lets=opts.faithful_lets)
    emitted: dict[str, EmittedFunction] = {}
    state.pending.append(entry)
    while state.pending:
        name = state.pending.popleft()
        if name in state.compiled or name in state.skip or name in state.base:
            continue
        state.compiled.add(name)
        dn = env.lookup(name)
        if not isinstance(dn.payload, Function):
            raise ExtractError(f"{name} is not a function")
        if def_meta and def_meta.get(name) is not None \
                and def_meta[name].unsupported:
            raise ExtractError(
                f"{name}: unsupported type: {def_meta[name].unsupported}")
        nsig = Normalizer(env, policy, rules).norm(dn.signature)
        nclauses = [normalise_clause(c, env, policy, rules)
                    for c in dn.payload.clauses]
        state.reset_fresh()
        fn = backend.kompile_fun(name, Definition(name, nsig, Function(nclauses)),
                                 state, env, opts)
        emitted[name] = fn
    return backend.assemble(_ordered(emitted, entry, state), state, opts)


def _ordered(emitted: dict[str, EmittedFunction], entry: str,
             state: ExtractState) -> list[EmittedFunction]:
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

    visit(entry)
    for name in emitted:  # anything disconnected still goes out, before entry
        if name not in seen:
            order.insert(len(order) - 1, name) if order else order.append(name)
            seen.add(name)
    return [emitted[n] for n in order]
