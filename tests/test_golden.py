"""The emitted text of every corpus entry, pinned by its sha256.

Each entry is compiled as `eslc kompile` does, with the prelude
elaborated from its source by a fresh Elaborator (not the per-process
snapshot), so a change anywhere in parsing, elaboration, the shape
decider, normalization or the backends that alters a single byte of
output fails here.  After a deliberate change to the emitted text,
update the digests in the same commit and say why.

The shape decider's questions are pinned the same way: per entry, the
number of `shapes.decide` calls, how many were answered "yes" and a
sha256 of the sequence of (goal, hypotheses, verdict), so a change to
elaboration that asks a different question, in a different order or
under different hypotheses fails here even if the text does not change.
"""

import hashlib

import pytest

from eslc import corpus, extract, loader, shapes
from eslc.elaborate import Elaborator
from eslc.kaleid import KaleidBackend, parse_kaleid
from eslc.sac import SacBackend, parse_sac

GOLDEN = {
    "log2": "c14133c6234e8890b7632050ca32a70ddd88cabd98a0b073a29bff12fd7f39fb",
    "ack": "92a67430f39b297016fa620ad040f62b8c73c3397fd6424b61b2739544a2432a",
    "ex7": "8d675af3f3a4c04bf024e15d48429e837edea69fc72fa6ff1efc14c53e6c6dd6",
    "fib": "b21091c9466b8d70d53c900e508b2415b3efe3174f1c4e7bd57a9c1080696c73",
    "logistic": "c1b710b020e10fa7fab06d3e0dd09c9da90250c6cdabe561c6920d2d64fe1a3f",
    "meansqerr": "cca02fded47bd51a3a3a780ca48f3df8d4281fb14dea819b5f68682c252912dc",
    "backavgpool": "9540ea78ead2789570678569a40a38b1e059777b464fe75b1d26040074225578",
    "avgpool": "9daa72c5cb87aebd5745a608768092423e43e6ab58448993feae6d0692390a54",
    "fuse2": "ee3896c96c75d6b6e163ed7b984ab6aedaa2eba98c8ee073ad7fa34da51e91c4",
    "matmul": "e4d9a664bf0538e3e843f14ce4614df36d9582e1775e49ecf0955eaef1b2db3f",
    "rotate": "ade32a5176110486d3a0581df4e31575bac79b5ee90d4130adde5876dc158ca6",
}


# (decide calls, "yes" answers, sha256 of the (goal, hypotheses, verdict)
# sequence); all but log2 and fuse2 ask only the prelude's questions
PRELUDE_QUESTIONS = (
    34, 33, "04707c9d5eae9f9426c02f1c0c3e438d247e6d38a21bc7e2f3737507d73b72b6")
DECIDER = {
    "log2": (37, 36, "a58a79292dcc6127f99041318ab293a61d8376a9d5c03bdbadd3fc34dde06b49"),
    "fuse2": (36, 35, "6029cd2d57eee1107a007fec9df43df0ff5c13d4ddd612943fba220c74971eff"),
}


def test_every_corpus_entry_is_pinned():
    assert set(GOLDEN) == set(corpus.CORPUS)


def _kompile(name: str) -> str:
    entry = corpus.CORPUS[name]
    elab = Elaborator()
    for module in loader.PRELUDE_MODULES:
        elab.load_source(loader.prelude_text(module), f"prelude/{module}")
    for path, text in entry.sources:
        elab.load_source(text, path)
    if entry.backend == "kaleid":
        backend, parse = KaleidBackend(), parse_kaleid
    else:
        backend, parse = SacBackend(), parse_sac
    text = extract.kompile(entry.entry, entry.base, [], backend, elab.env,
                           elab.rules, None, elab.def_meta)
    parse(text)
    return text


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_emitted_text_is_unchanged(name):
    text = _kompile(name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_decider_questions_are_unchanged(name, monkeypatch):
    decide, log = shapes.decide, []

    def logged(goal, hyps):
        verdict = decide(goal, hyps)
        log.append((repr(goal), repr(hyps), verdict))
        return verdict

    monkeypatch.setattr(shapes, "decide", logged)
    _kompile(name)
    digest = hashlib.sha256(repr(log).encode("utf-8")).hexdigest()
    yes = sum(verdict == "yes" for _, _, verdict in log)
    assert (len(log), yes, digest) == DECIDER.get(name, PRELUDE_QUESTIONS)
