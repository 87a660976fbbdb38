"""Differential testing: source-level evaluation against the target
interpreter on seeded random, precondition-respecting inputs.  A sample
agrees when both sides give equal values, floats included, bit for bit,
or both abort.  Both target interpreters take the emitted text and stage
it once per process, keyed on the text.  One sampling loop (`_diff`)
runs a corpus entry on its own sampler (`run_corpus_diff`) and any other
entry on arguments drawn from its signature (`run_signature_diff`).

Each input is drawn once, as source values.  One conversion, `to_target`,
turns them into the target's arguments (`target_args`) and turns both
sides' results into comparable values (`compare`).

Every evaluator returns an abort as a value, `Aborted(reason)`.  A
sample on which either side runs out of Python stack,
Aborted("recursion depth"), shows neither agreement nor a mismatch: it
is counted as inconclusive, its input kept, and the run goes on."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import evaluate, ir
from .builtins import is_prop_type
from .extract import ExtractOptions, entry_name, kompile
from .ir import EXHAUSTED, Aborted, EslError, pi_spine
from .kaleid import KaleidBackend, interp_kaleid
from .loader import load_sources
from .sac import SacBackend
from .sacinterp import interp_sac


@dataclass
class DiffRow:
    function: str
    samples: int
    mismatches: int
    # the source-evaluator arguments of each inconclusive sample
    inconclusive: list = field(default_factory=list)

    HEADER = "function\tsamples\tmismatches\tinconclusive"

    def tsv(self) -> str:
        return (f"{self.function}\t{self.samples}\t{self.mismatches}\t"
                f"{len(self.inconclusive)}")


def to_target(v):
    """The target's value of a source value: a vector, index, list or
    array is a numpy array, and a decision the C boolean both targets
    return for it.  Anything else, a target value included, is left as it
    is."""
    if type(v) is not tuple:
        return v
    if v[0] == "arr":
        return np.array(v[2]).reshape(v[1])
    if v[0] == "dec":
        return int(v[1])
    return np.array([to_target(x) for x in v[1]])  # "vec", "ix" or "list"


def target_args(env, entry: str, target: str):
    """The function that turns the source arguments of entry into the
    target's, each by to_target.  SaC takes no proofs, as its functions
    have no parameters for them."""
    tel, _ = pi_spine(env.lookup(entry).signature)
    kept = [target == "kaleid" or not is_prop_type(a.value) for _, a in tel]
    return lambda args: [to_target(a) for a, k in zip(args, kept) if k]


def compare(a, b) -> bool:
    """Whether a and b are equal values, or both aborts."""
    if type(a) is int and type(b) is int:
        return a == b  # a natural may be too large for a float
    a, b = to_target(a), to_target(b)
    if isinstance(a, Aborted) or isinstance(b, Aborted):
        return isinstance(a, Aborted) and isinstance(b, Aborted)
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f" or b.dtype.kind == "f":  # floats bit for bit
        a, b = (x.astype(np.float64).view(np.int64) for x in (a, b))
    return np.array_equal(a, b)


def _diff(name: str, elab, entry: str, base, opts, target: str,
          samples: int, seed: int, draw) -> DiffRow:
    """The sampling loop of every differential run: entry extracted to the
    target ("kaleid" or "sac") under base, then `samples` draws of the
    source arguments, `draw(rng) -> args`, from one RNG seeded by seed.
    The target runs only where the source evaluator did not run out of
    stack."""
    backend = KaleidBackend() if target == "kaleid" else SacBackend()
    text = kompile(entry, list(base), [], backend, elab.env, elab.rules, opts)
    interp = interp_kaleid if target == "kaleid" else interp_sac
    fn = entry_name(entry, backend)
    to_args = target_args(elab.env, entry, target)
    rng = random.Random(seed)
    row = DiffRow(name, samples, 0)
    for _ in range(samples):
        args = draw(rng)
        ev = evaluate.call(elab.env, entry, args)
        if _exhausted(ev) or _exhausted(tv := interp(text, fn, to_args(args))):
            row.inconclusive.append(args)
        elif not compare(ev, tv):
            row.mismatches += 1
    return row


def _exhausted(v) -> bool:
    return isinstance(v, Aborted) and v.reason == EXHAUSTED


def run_corpus_diff(entry, samples: int, seed: int,
                    opts: ExtractOptions | None = None) -> DiffRow:
    """The diff of a corpus.CorpusEntry on its own sampler."""
    return _diff(entry.name, load_sources(entry.sources), entry.entry,
                 entry.base, opts, entry.backend, samples, seed, entry.draw)


def signature_sampler(env, name: str, rng, hi: int = 24):
    """Type-driven input generation for scalar signatures: naturals and
    Fin bounds sampled directly, proposition arguments solved by rejection."""
    d = env.lookup(name)
    tel, _ = pi_spine(d.signature)
    for _ in range(500):
        vals: list[int] = []
        ok = True
        for _, arg in tel:
            ty = ir.subst(arg.value, 0, *(ir.Lit(v) for v in reversed(vals)))
            match ty:
                case ir.Def("Nat", ()):
                    vals.append(rng.randrange(0, hi))
                case ir.Def("Fin", (ir.Arg(e, _),)):
                    bound = ir.nat_view(e)
                    if bound is None or bound == 0:
                        ok = False
                        break
                    vals.append(rng.randrange(0, bound))
                case ir.Def("_<_", (ir.Arg(a, _), ir.Arg(b, _))):
                    av, bv = ir.nat_view(a), ir.nat_view(b)
                    if av is None or bv is None or not av < bv:
                        ok = False
                        break
                    vals.append(1)
                case _:
                    raise EslError(
                        f"cannot sample an argument of type {ir.print_term(ty)}")
        if ok:
            return vals
    raise EslError(f"could not satisfy the preconditions of {name}")


def run_signature_diff(elab, entry: str, samples: int, seed: int, base=(),
                       opts: ExtractOptions | None = None,
                       target: str = "kaleid") -> DiffRow:
    return _diff(entry, elab, entry, base, opts, target, samples, seed,
                 lambda rng: signature_sampler(elab.env, entry, rng))
