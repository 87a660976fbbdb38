"""Differential testing: source-level evaluation against the target
interpreter on seeded random, precondition-respecting inputs."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import evaluate, ir
from .corpus import CorpusEntry
from .extract import ExtractOptions, kompile, normalise_name
from .ir import pi_spine
from .kaleid import Aborted, KaleidBackend, interp_kaleid
from .loader import load_sources
from .sac import SacAborted, SacBackend, interp_sac


@dataclass
class DiffRow:
    function: str
    samples: int
    mismatches: int
    max_err: float

    def tsv(self) -> str:
        return f"{self.function}\t{self.samples}\t{self.mismatches}\t{self.max_err:.3g}"


def to_plain(v):
    """Flatten both value domains into comparable python data."""
    if isinstance(v, tuple) and v and v[0] == "arr":
        return np.array(v[2]).reshape(v[1])
    if isinstance(v, (Aborted, SacAborted)):
        return v
    if isinstance(v, np.ndarray):
        return v
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def compare(a, b, kind: str) -> float | None:
    """Error measure, or None for a hard mismatch."""
    a, b = to_plain(a), to_plain(b)
    if isinstance(a, (Aborted, SacAborted)) or isinstance(b, (Aborted, SacAborted)):
        both = isinstance(a, (Aborted, SacAborted)) and \
            isinstance(b, (Aborted, SacAborted))
        return 0.0 if both else None
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
    from .kaleid import parse_kaleid
    from .sac import parse_sac
    program = parse_kaleid(text) if entry.backend == "kaleid" else parse_sac(text)
    rng = random.Random(seed)
    mism, max_err = 0, 0.0
    target = backend.final_pass(normalise_name(entry.entry))
    for _ in range(samples):
        eval_args, target_args = entry.sampler(rng)
        ev = evaluate.call(elab.env, entry.entry, list(eval_args))
        if entry.backend == "kaleid":
            tv = interp_kaleid(program, target, list(target_args))
        else:
            tv = interp_sac(program, target, list(target_args))
        err = compare(ev, tv, entry.compare)
        if err is None or err > 1e-9:
            mism += 1
        else:
            max_err = max(max_err, err)
    return DiffRow(entry.name, samples, mism, max_err)


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
    from .kaleid import parse_kaleid
    program = parse_kaleid(kompile(entry, list(base), [], backend, elab.env,
                                   elab.rules, opts, elab.def_meta))
    target = backend.final_pass(normalise_name(entry))
    rng = random.Random(seed)
    mism = 0
    for _ in range(samples):
        vals = signature_sampler(elab.env, entry, rng)
        ev = evaluate.call(elab.env, entry, list(vals))
        tv = interp_kaleid(program, target, list(vals))
        if compare(ev, tv, "exact") is None:
            mism += 1
    return DiffRow(entry, samples, mism, 0.0)
