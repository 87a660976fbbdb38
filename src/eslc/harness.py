"""Differential testing: source-level evaluation against the target
interpreter on seeded random, precondition-respecting inputs.

A sample on which either side runs out of Python stack (the source
evaluator's EvalError("recursion depth"), the target's
Aborted("recursion depth")) shows neither agreement nor a mismatch: it
is counted as inconclusive, its input kept, and the run goes on."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import evaluate, ir
from .corpus import CorpusEntry
from .extract import ExtractOptions, kompile, normalise_name
from .ir import EXHAUSTED, Aborted, pi_spine
from .kaleid import KaleidBackend, interp_kaleid
from .loader import load_sources
from .sac import SacBackend, interp_sac, parse_sac


@dataclass
class DiffRow:
    function: str
    samples: int
    mismatches: int
    max_err: float
    # the source-evaluator arguments of each inconclusive sample
    inconclusive: list = field(default_factory=list)

    HEADER = "function\tsamples\tmismatches\tinconclusive\tmax_err"

    def tsv(self) -> str:
        return (f"{self.function}\t{self.samples}\t{self.mismatches}\t"
                f"{len(self.inconclusive)}\t{self.max_err:.3g}")


def _sample(row: DiffRow, env, name: str, args, kind: str, run_target):
    """Adds one sample to row: the source evaluator's value of name on
    args against run_target(), which is called only if the source
    evaluator did not run out of stack."""
    try:
        ev = evaluate.call(env, name, list(args))
    except evaluate.EvalError as err:
        if str(err) != EXHAUSTED:
            raise
        row.inconclusive.append(args)
        return
    tv = run_target()
    if isinstance(tv, Aborted) and tv.reason == EXHAUSTED:
        row.inconclusive.append(args)
        return
    err = compare(ev, tv, kind)
    if err is None or err > 1e-9:
        row.mismatches += 1
    else:
        row.max_err = max(row.max_err, err)


def to_plain(v):
    """Flatten both value domains into comparable python data; a decision
    is the C boolean both targets return for it."""
    if isinstance(v, tuple) and v and v[0] == "arr":
        return np.array(v[2]).reshape(v[1])
    if isinstance(v, tuple) and v and v[0] == "dec":
        return int(v[1])
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def compare(a, b, kind: str) -> float | None:
    """Error measure, or None for a hard mismatch."""
    a, b = to_plain(a), to_plain(b)
    if isinstance(a, Aborted) or isinstance(b, Aborted):
        return 0.0 if isinstance(a, Aborted) and isinstance(b, Aborted) else None
    av, bv = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        return None
    if kind == "exact":
        return 0.0 if np.array_equal(np.asarray(a), np.asarray(b)) else None
    denom = np.maximum(np.abs(bv), 1.0)
    err = float(np.max(np.abs(av - bv) / denom)) if av.size else 0.0
    return err


def run_corpus_diff(entry: CorpusEntry, samples: int, seed: int,
                    opts: ExtractOptions | None = None) -> DiffRow:
    elab = load_sources(entry.sources)
    backend = KaleidBackend() if entry.backend == "kaleid" else SacBackend()
    text = kompile(entry.entry, entry.base, [], backend, elab.env,
                   elab.rules, opts, elab.def_meta)
    # Kaleidoscope text is staged once per process, keyed on the text
    if entry.backend == "kaleid":
        program, interp = text, interp_kaleid
    else:
        program, interp = parse_sac(text), interp_sac
    rng = random.Random(seed)
    row = DiffRow(entry.name, samples, 0, 0.0)
    target = backend.final_pass(normalise_name(entry.entry))
    for _ in range(samples):
        eval_args, target_args = entry.sampler(rng)
        _sample(row, elab.env, entry.entry, eval_args, entry.compare,
                lambda: interp(program, target, list(target_args)))
    return row


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
                    raise evaluate.EvalError(
                        f"cannot sample an argument of type {ir.print_term(ty)}")
        if ok:
            return vals
    raise evaluate.EvalError(f"could not satisfy the preconditions of {name}")


def run_signature_diff(elab, entry: str, samples: int, seed: int,
                       base=(), opts: ExtractOptions | None = None) -> DiffRow:
    backend = KaleidBackend()
    program = kompile(entry, list(base), [], backend, elab.env, elab.rules,
                      opts, elab.def_meta)
    target = backend.final_pass(normalise_name(entry))
    rng = random.Random(seed)
    row = DiffRow(entry, samples, 0, 0.0)
    for _ in range(samples):
        vals = signature_sampler(elab.env, entry, rng)
        _sample(row, elab.env, entry, vals, "exact",
                lambda: interp_kaleid(program, target, list(vals)))
    return row
