"""The benchmark's workloads: what one op does, and how its output is
checked.

- kompile: one from-source compile of a corpus entry (fresh Elaborator,
  prelude and entry sources, extraction, target parse), round-robin over
  `corpus.CORPUS`.  Every op's text must be byte-identical to the first
  text of its entry in the run.
- diff-kaleid / diff-sac: one `harness.run_corpus_diff` job of
  SAMPLES_PER_JOB samples on one entry of one backend.  Each entry has
  JOBS_PER_ENTRY job seeds, drawn once from the workload seed, and every
  round runs the same jobs, so repeats of a job time the same inputs.  A
  job fails on any mismatch, and, for entries with a `corpus.oracle_*`,
  when the source evaluator disagrees with the oracle on the replayed
  inputs.

A workload's `jobs` are the keys `(entry, job seed)` of one round.
"""

from __future__ import annotations

import hashlib
import random
import re

import numpy as np

from eslc import corpus, elaborate, evaluate, extract, harness, kaleid, loader, sac

SAMPLES_PER_JOB = 20
# ack's cost hangs on how many of its samples are deep (3, n) cases, so one
# job's time varies 100-fold with its seed.  With 32 jobs (640 samples) per
# entry, the diff-kaleid figure spreads by about 7% over ten workload seeds.
JOBS_PER_ENTRY = 32

_ASSERT = re.compile(r"\bassert\b")
_WITH = re.compile(r"\bwith\b")

# corpus oracles, fed from the target-side sample arguments
ORACLES = {
    "log2": lambda a: corpus.oracle_log2(a[0]),
    "ack": lambda a: corpus.oracle_ack(a[0], a[1]),
    "logistic": lambda a: corpus.oracle_logistic(a[2]),
    "meansqerr": lambda a: corpus.oracle_meansqerr(a[2], a[3]),
    "backavgpool": lambda a: corpus.oracle_backavgpool(a[1]),
    "avgpool": lambda a: corpus.oracle_avgpool(a[1]),
}


def fingerprint(text: str) -> dict:
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "asserts": len(_ASSERT.findall(text)),
            "with_loops": len(_WITH.findall(text))}


def compile_from_source(entry: corpus.CorpusEntry) -> str:
    """What `eslc kompile` does after import, with the prelude elaborated
    from source rather than taken from the per-process snapshot."""
    elab = elaborate.Elaborator()
    for name in loader.PRELUDE_MODULES:
        elab.load_source(loader.prelude_text(name), f"prelude/{name}")
    for path, text in entry.sources:
        elab.load_source(text, path)
    if entry.backend == "kaleid":
        backend, parse = kaleid.KaleidBackend(), kaleid.parse_kaleid
    else:
        backend, parse = sac.SacBackend(), sac.parse_sac
    text = extract.kompile(entry.entry, entry.base, [], backend, elab.env,
                           elab.rules, None, elab.def_meta)
    parse(text)
    return text


class Workload:
    """A workload's ops are made with `job(key)` for each key of `jobs`,
    and checked with `check(key, output)`; `install` and `uninstall`
    bracket the run."""

    entries: list[str]
    jobs: list[tuple[str, int]]

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def oracle_failures(self) -> int:
        return 0


class Kompile(Workload):
    def __init__(self, seed: int):
        names = list(corpus.CORPUS)
        start = seed % len(names)
        self.entries = names[start:] + names[:start]
        self.jobs = [(name, 0) for name in self.entries]
        self.fingerprints: dict[str, dict] = {}

    def job(self, key):
        entry = corpus.CORPUS[key[0]]
        return lambda: compile_from_source(entry)

    def check(self, key, text: str) -> bool:
        fp = fingerprint(text)
        return self.fingerprints.setdefault(key[0], fp) == fp


class Diff(Workload):
    def __init__(self, entries: list[str], seed: int):
        self.entries = entries
        rng = random.Random(seed)
        self.jobs = [(name, rng.getrandbits(32))
                     for _ in range(JOBS_PER_ENTRY) for name in entries]
        # (entry, job seed, source-evaluator results) of every oracle job run
        self.replays: list[tuple[str, int, list]] = []
        self._captured: list | None = None
        self._call = None

    def job(self, key):
        entry, seed = corpus.CORPUS[key[0]], key[1]
        return lambda: self._run(entry, seed)

    def _run(self, entry, seed):
        if entry.name in ORACLES:
            self._captured = []
            self.replays.append((entry.name, seed, self._captured))
        try:
            return harness.run_corpus_diff(entry, SAMPLES_PER_JOB, seed)
        finally:
            self._captured = None

    def check(self, key, row) -> bool:
        return row.mismatches == 0 and row.samples == SAMPLES_PER_JOB

    # The evaluator's results are recorded as they are returned so the
    # oracle check needs no second evaluation.
    def install(self) -> None:
        call = self._call = evaluate.call

        def recorded(env, name, args):
            out = call(env, name, args)
            if self._captured is not None:
                self._captured.append(out)
            return out
        evaluate.call = recorded

    def uninstall(self) -> None:
        evaluate.call = self._call

    def oracle_failures(self) -> int:
        """Replay each oracle job's sampler with its seed and count jobs
        where a source-evaluator result differs from the oracle."""
        failures = 0
        for name, seed, results in self.replays:
            sampler, rng = corpus.CORPUS[name].sampler, random.Random(seed)
            inputs = [sampler(rng)[1] for _ in range(SAMPLES_PER_JOB)]
            ok = len(results) == len(inputs) and all(
                _agrees(got, ORACLES[name](args))
                for got, args in zip(results, inputs))
            failures += not ok
        return failures


def _agrees(got, want) -> bool:
    if isinstance(got, tuple) and got and got[0] == "arr":
        got = np.array(got[2], dtype=float).reshape(got[1])
    if isinstance(want, (int, np.integer)) and not isinstance(want, bool):
        return isinstance(got, int) and got == int(want)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=1e-9, atol=1e-12))


KALEID_DIFF = ["log2", "ack", "ex7", "fib"]
SAC_DIFF = ["logistic", "meansqerr", "backavgpool", "avgpool", "fuse2",
            "matmul", "rotate"]

WORKLOADS = {
    "kompile": Kompile,
    "diff-kaleid": lambda seed: Diff(KALEID_DIFF, seed),
    "diff-sac": lambda seed: Diff(SAC_DIFF, seed),
}

