"""Convenience entry points: load the shipped prelude and user sources.

The prelude is elaborated once per process; callers get a cheap clone
whose environment shares the (immutable once loaded) prelude definitions.
"""

from __future__ import annotations

import importlib.resources as resources
from functools import cache

from .elaborate import Elaborator
from .ir import Env

PRELUDE_MODULES = ["base.esl", "apl.esl", "cnn.esl"]


def prelude_text(name: str) -> str:
    return resources.files("eslc.prelude").joinpath(name).read_text("utf-8")


@cache
def _prelude_snapshot() -> Elaborator:
    elab = Elaborator()
    for name in PRELUDE_MODULES:
        elab.load_source(prelude_text(name), f"prelude/{name}")
    return elab


def _clone(src: Elaborator) -> Elaborator:
    env = Env()
    env._defs = dict(src.env._defs)
    out = Elaborator(env)
    out.rules.rules = list(src.rules.rules)
    out.rules.warnings = list(src.rules.warnings)
    out.trusted = set(src.trusted)
    out.def_meta = dict(src.def_meta)
    return out


def load_prelude() -> Elaborator:
    return _clone(_prelude_snapshot())


def load_sources(texts: list[tuple[str, str]], with_prelude: bool = True) -> Elaborator:
    elab = load_prelude() if with_prelude else Elaborator()
    for path, text in texts:
        elab.load_source(text, path)
    return elab
