"""The eslc benchmark: closed-loop, single-process runs of one workload.

    python3 perfbench/run.py --workload kompile --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): kompile, diff-kaleid, diff-sac.  One caller
issues the next op only after the previous one returns.  The run times
fresh set-up processes (`import numpy`, the rest of `import eslc.cli` and
the first `loader.load_prelude()`), runs one untimed warm-up op per
entry, then whole rounds of the workload's jobs until the ops have taken
`--seconds`.  Every round runs the same jobs on the same inputs, and a
reference op that runs no eslc code is timed just before every op.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  The op time
is `entry_geomean_ref`: each op's time in reference ops, its median over
the repeats of a job, the mean over an entry's jobs, and the geometric
mean over the workload's entries, so each program counts equally.  On a
shared 2-vCPU VM the speed of all CPU work swings by up to 2x over tens
of seconds, often for a whole run; the ratio to the reference op cancels
that swing where times in ms do not.  The same mean in ms of each job's
fastest repeat, throughput, median and tail latency over all ops and the
per-entry geometric mean of medians are recorded too, in the info line
below and as per-layer metrics of the traced run.

--trace 1 runs every round twice, first with the tracer's wrappers
removed and then with them installed, and prints the per-layer metrics:
the untraced ops' throughput, median and tail, and the traced ops' spans
and counters.

The last stdout line is the result object; the line before it records
the machine, the metrics not in the result and the output fingerprints,
which are also written under perfbench/out/.  Needs no installed eslc:
the package is imported from src/.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7  # timed fresh processes per run; the median is reported

# The reference op, about 1 ms: pure-Python work of the kind eslc does
# (dict lookups and list traffic in interpreted loops) that runs none of
# eslc's code.  It is timed just before every op, and op times are
# also reported in units of it: the speed of this shared 2-vCPU VM swings
# by up to 2x over tens of seconds, often for a whole run, and the ratio
# cancels that swing.
_REF_RNG = random.Random(1)
_REF = [[f"w{_REF_RNG.randrange(300)}" for _ in range(400)] for _ in range(2)]


def reference() -> float:
    """Time one reference op, in seconds."""
    t0 = perf_counter()
    difflib.SequenceMatcher(None, *_REF).ratio()
    return perf_counter() - t0


class Op(NamedTuple):
    key: tuple[str, int]  # (entry, job seed)
    seconds: float
    ref_seconds: float  # the reference op timed just before
    ok: bool
    traced: bool
    warm_up: bool
    mismatches: int


def probe() -> dict:
    """Start a fresh interpreter that imports numpy and eslc.cli and loads
    the prelude; returns its durations in seconds: until it was ready, of
    numpy's import, of the rest of the import and of the prelude."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), SRC],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    numpy_s, import_s, prelude_s = map(float, line.split())
    return {"ready_s": ready, "numpy_s": numpy_s, "import_s": import_s,
            "prelude_s": prelude_s}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 between=None) -> dict:
    """Run the warm-up ops, then whole rounds until the ops have taken
    `seconds` (one round when it is 0), calling `between(fraction done)`
    after each round.  Returns per-op records and the tracer."""
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    tracer = Tracer()
    ops: list[Op] = []

    def op(key, traced, warm):
        job = wl.job(key)
        ref = reference()
        t0 = perf_counter()
        try:
            out = tracer.op(key[0])(job) if traced else job()
        except Exception:
            out = None
            traceback.print_exc(file=sys.stderr)
        dt = perf_counter() - t0
        ok = out is not None and wl.check(key, out)
        if not ok:
            print(f"perfbench: {name} op on {key[0]} failed", file=sys.stderr)
        ops.append(Op(key, dt, ref, ok, traced, warm,
                      getattr(out, "mismatches", 0)))

    wl.install()
    try:
        for key in wl.jobs[:len(wl.entries)]:  # one job per entry
            op(key, False, True)
        done, busy = False, 0.0
        while not done or busy < seconds:
            for traced in ((False, True) if trace else (False,)):
                if traced:
                    tracer.install()
                try:
                    for key in wl.jobs:
                        op(key, traced, False)
                        busy += ops[-1].seconds
                finally:
                    tracer.uninstall()
            done = True
            if between is not None:
                between(busy / seconds)
    finally:
        wl.uninstall()
    return {"workload": wl, "ops": ops, "tracer": tracer,
            "failed": sum(not o.ok for o in ops) + wl.oracle_failures()}


def latency(ops: list[Op]) -> dict:
    """Op-time metrics of the given ops: ops per second of op time, median
    and tail op latency, the geometric mean of each entry's median; the
    geometric mean of each entry's mean of its jobs' fastest times; and the
    same mean taken over each job's median time in reference ops."""
    lat = sorted(o.seconds for o in ops)
    per_entry, best, in_ref = defaultdict(list), {}, defaultdict(list)
    for o in ops:
        per_entry[o.key[0]].append(o.seconds)
        best[o.key] = min(o.seconds, best.get(o.key, math.inf))
        in_ref[o.key].append(o.seconds / o.ref_seconds)
    pct, rank = tail_rank(len(lat))
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[rank] * 1e3,
        "op_tail_percentile": pct,
        "op_tail_samples": len(lat),
        "entry_geomean_ms": _geomean(statistics.median(v)
                                     for v in per_entry.values()) * 1e3,
        "entry_best_geomean_ms": _entry_geomean(best) * 1e3,
        "entry_geomean_ref": _entry_geomean(
            {k: statistics.median(v) for k, v in in_ref.items()}),
    }


def _entry_geomean(per_job: dict) -> float:
    """The geometric mean over entries of the mean over each entry's jobs."""
    per_entry = defaultdict(list)
    for key, t in per_job.items():
        per_entry[key[0]].append(t)
    return _geomean(statistics.fmean(v) for v in per_entry.values())


def _geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def end_to_end(res: dict, setup: list[dict]) -> dict:
    """The end-to-end metrics, with the other op-time metrics alongside
    for the record."""
    timed = [o for o in res["ops"] if not o.traced and not o.warm_up]
    return {
        **latency(timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(p["ready_s"] for p in setup),
    }


def per_layer(res: dict, setup: list[dict]) -> dict:
    """Metrics of the traced ops, from their spans and counters, and of
    the set-up probes."""
    from workloads import fingerprint

    tracer = res["tracer"]
    paired = [o for o in res["ops"] if not o.warm_up]
    untraced_ops = [o for o in paired if not o.traced]
    n = len(paired) - len(untraced_ops)
    s, c = tracer.summary(), tracer.counts
    busy, calls = s["busy"], s["calls"]

    def ms_per_op(secs):
        return secs * 1e3 / n

    def per_call_ms(span):
        return busy[span] * 1e3 / calls[span] if calls[span] else 0.0

    emitted = defaultdict(int)
    for (target, _), text in c.texts.items():
        fp = fingerprint(text)
        emitted[f"{target}.emitted_bytes"] += fp["bytes"]
        emitted[f"{target}.asserts_emitted"] += fp["asserts"]
        emitted[f"{target}.with_loops_emitted"] += fp["with_loops"]
    decided = calls["shapes.decide"]
    numpy_s, import_s, prelude_s = (statistics.median(p[k] for p in setup)
                                    for k in ("numpy_s", "import_s", "prelude_s"))
    untraced = sum(o.seconds for o in untraced_ops)
    traced = sum(o.seconds for o in paired if o.traced)
    return {
        **latency(untraced_ops),
        "setup.numpy_import_s": numpy_s,
        "setup.import_s": import_s,
        "loader.load_prelude_s": prelude_s,
        "parser.parse.busy_ms_per_op": ms_per_op(busy["parser.parse"]),
        "parser.parse.bytes_per_s": c["parser.parse.bytes"] / busy["parser.parse"]
        if busy["parser.parse"] else 0.0,
        "elaborate.load_module.self_ms_per_op":
            ms_per_op(s["self"]["elaborate.load_module"]),
        "shapes.decide.calls_per_op": decided / n,
        "shapes.decide.busy_ms_per_op": ms_per_op(busy["shapes.decide"]),
        "shapes.decide.yes_ratio": c["shapes.decide.yes"] / decided if decided else 0.0,
        "shapes.decide.unknown": c["shapes.decide.unknown"] / n,
        "normalize.whnf.calls_per_op": calls["normalize.whnf"] / n,
        "normalize.busy_ms_per_op": ms_per_op(s["layer_busy"]["normalize"]),
        "extract.kompile.self_ms_per_op": ms_per_op(s["self"]["extract.kompile"]),
        "kaleid.kompile_fun.busy_ms_per_op": ms_per_op(busy["kaleid.kompile_fun"]),
        "kaleid.parse_kaleid.busy_ms": ms_per_op(busy["kaleid.parse_kaleid"]),
        "kaleid.emitted_bytes": emitted["kaleid.emitted_bytes"],
        "kaleid.asserts_emitted": emitted["kaleid.asserts_emitted"],
        "kaleid.interp_kaleid.busy_ms_per_sample":
            per_call_ms("kaleid.interp_kaleid"),
        "kaleid.interp_kaleid.aborts": c["kaleid.interp_kaleid.aborts"],
        "sac.kompile_fun.busy_ms_per_op": ms_per_op(busy["sac.kompile_fun"]),
        "sac.parse_sac.busy_ms": ms_per_op(busy["sac.parse_sac"]),
        "sac.emitted_bytes": emitted["sac.emitted_bytes"],
        "sac.asserts_emitted": emitted["sac.asserts_emitted"],
        "sac.with_loops_emitted": emitted["sac.with_loops_emitted"],
        "sac.interp_sac.busy_ms_per_sample": per_call_ms("sac.interp_sac"),
        "sac.interp_sac.aborts": c["sac.interp_sac.aborts"],
        "evaluate.call.busy_ms_per_sample": per_call_ms("evaluate.call"),
        "harness.compare.busy_ms_per_sample": per_call_ms("harness.compare"),
        "harness.mismatches": sum(o.mismatches for o in paired if o.traced),
        "error_rate": res["failed"] / len(res["ops"]),
        "trace.ops_ratio": untraced / traced,
        "trace.spans_per_op": len(tracer.spans) / n,
    }


def tail_rank(n: int) -> tuple[int, int]:
    """The highest whole percentile with at least ten of the `n` sorted
    samples beyond it, and the 0-based index of its value (nearest rank);
    below 20 samples, the median's upper rank."""
    pct = max(50, math.floor(100 * (1 - 10 / n)))
    return pct, max(math.ceil(pct * n / 100) - 1, n // 2)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be above 0")
    if not os.path.isfile(os.path.join(SRC, "eslc", "cli.py")):
        print(f"perfbench: no eslc sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The set-up probes are spread over the run, between rounds, so that
    # their median does not hang on one moment of the machine's load.
    setup = []

    def take_probe(fraction=1.0):
        while (len(setup) < SETUP_PROBES
               and fraction >= len(setup) / SETUP_PROBES):
            setup.append(probe())

    probe()  # in a fresh checkout this one also writes the bytecode caches
    take_probe(0.0)
    import eslc.cli  # noqa: F401  the set-up every eslc process pays
    from eslc import loader
    loader.load_prelude()

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       between=take_probe)
    take_probe()
    if args.trace:
        metrics, wanted = per_layer(res, setup), spec["per_layer"]
    else:
        metrics, wanted = end_to_end(res, setup), spec["end_to_end"]
    import numpy
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "metrics": {k: v for k, v in metrics.items()
                        if k not in {m["name"] for m in wanted}},
            "fingerprints": getattr(res["workload"], "fingerprints", {})}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-{args.seed}-{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({"info": info, "metrics": metrics}, f, indent=1)
    if args.trace:
        res["tracer"].write(stem + ".spans.jsonl")
    print(json.dumps(info))
    attempted = len(res["ops"])
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": attempted,
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
