"""Span tracing of the eslc layers from outside the package.

Each traced public function is replaced, on its module or class, by a
wrapper that records one span: name, start, end and the span open when it
was called.  Spans stay in memory until the run ends.  Per-layer metrics
are derived from them afterwards: a function's busy time counts only its
outermost spans (recursive calls are inside them), and a span's self time
is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from eslc import (elaborate, evaluate, extract, harness, kaleid, normalize,
                  parser, sac, shapes)


def _parsed_bytes(counts, args, out):
    counts["parser.parse.bytes"] += len(args[0].encode("utf-8"))


def _verdict(counts, args, out):
    counts[f"shapes.decide.{out}"] += 1


def _emitted(counts, args, out):
    # kompile(entry, base, skip, backend, ...): keep the last text per entry
    target = "kaleid" if isinstance(args[3], kaleid.KaleidBackend) else "sac"
    counts.texts[(target, args[0])] = out


def _kaleid_abort(counts, args, out):
    counts["kaleid.interp_kaleid.aborts"] += isinstance(out, kaleid.Aborted)


def _sac_abort(counts, args, out):
    counts["sac.interp_sac.aborts"] += isinstance(out, sac.SacAborted)


# (owner, attribute, span name, count hook).  Names imported with
# `from x import y` are wrapped where the caller looks them up as well.
TARGETS = [
    (parser, "parse", "parser.parse", _parsed_bytes),
    (elaborate, "parse", "parser.parse", _parsed_bytes),
    (elaborate.Elaborator, "load_module", "elaborate.load_module", None),
    (shapes, "decide", "shapes.decide", _verdict),
    (normalize.Normalizer, "whnf", "normalize.whnf", None),
    (normalize.Normalizer, "norm", "normalize.norm", None),
    (extract, "kompile", "extract.kompile", _emitted),
    (harness, "kompile", "extract.kompile", _emitted),
    (kaleid.KaleidBackend, "kompile_fun", "kaleid.kompile_fun", None),
    (sac.SacBackend, "kompile_fun", "sac.kompile_fun", None),
    (kaleid, "parse_kaleid", "kaleid.parse_kaleid", None),
    (sac, "parse_sac", "sac.parse_sac", None),
    (harness, "interp_kaleid", "kaleid.interp_kaleid", _kaleid_abort),
    (harness, "interp_sac", "sac.interp_sac", _sac_abort),
    (evaluate, "call", "evaluate.call", None),
    (harness, "compare", "harness.compare", None),
]


class Counts(Counter):
    """Counters recorded at the traced boundaries, plus the emitted texts."""

    def __init__(self):
        super().__init__()
        self.texts: dict[tuple[str, str], str] = {}


class Tracer:
    """Records spans of the calls made while it is installed."""

    def __init__(self):
        # span: [name, start, end, parent index, outermost of its name,
        #        outermost of its layer]
        self.spans: list[list] = []
        self.counts = Counts()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]
        spans, stack, open_, counts = (self.spans, self._stack, self._open,
                                       self.counts)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    not open_[name], not open_[layer]]
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            open_[layer] += 1
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                open_[name] -= 1
                open_[layer] -= 1
            if hook is not None:
                hook(counts, args, out)
            return out
        return traced

    def install(self) -> None:
        for owner, attr, name, hook in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def op(self, entry: str):
        """Wrap one benchmark op in a root span named `op:<entry>`."""
        return self.wrap(f"op:{entry}", lambda fn: fn())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, t0, t1, parent, _, _ in self.spans:
                f.write(json.dumps([name, round(t0 * 1e6, 1),
                                    round(t1 * 1e6, 1), parent]) + "\n")

    # -- aggregation -----------------------------------------------------------

    def summary(self) -> dict:
        """Busy time (outermost spans) and self time per span name, busy
        time per layer, and call counts, all in seconds or calls."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        busy, self_time, layer_busy, calls = Counter(), Counter(), Counter(), Counter()
        for i, (name, t0, t1, _, outer_name, outer_layer) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += t1 - t0 - child[i]
            if outer_name:
                busy[name] += t1 - t0
            if outer_layer:
                layer_busy[name.split(".", 1)[0]] += t1 - t0
        return {"busy": busy, "self": self_time, "layer_busy": layer_busy,
                "calls": calls}
