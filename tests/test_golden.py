"""The emitted text of every corpus entry, pinned by its sha256.

Each entry is compiled as `eslc kompile` does, with the prelude
elaborated from its source by a fresh Elaborator (not the per-process
snapshot), so a change anywhere in parsing, elaboration, the shape
decider, normalization or the backends that alters a single byte of
output fails here.  After a deliberate change to the emitted text,
update the digests in the same commit and say why.

The texts under `--no-assert` are pinned beside them (`NO_ASSERT`).

The shape decider's questions are pinned the same way: per entry, the
number of questions put to `Elaborator.decide` (repeats included, though
each distinct one reaches `shapes.decide` once), how many were answered
"yes" and a sha256 of the sequence of (goal, hypotheses, verdict), so a change to
elaboration that asks a different question, in a different order or
under different hypotheses fails here even if the text does not change.
Only the elaborator's own questions are pinned: the per-component `eq`
questions that the decider asks itself while it settles a vector
equation are not in the log (the corpus makes none today).
The sequence of verdicts is pinned on its own (`VERDICTS`), so a re-pin
of the digests shows whether any answer moved.
"""

import hashlib

import pytest

from eslc import corpus, extract, ir, loader, shapes
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

# the same texts under `--no-assert`, which drops every runtime check
NO_ASSERT = {
    "log2": "894674fc16a0af082ce966e4fbfc75b1d99e696665717938d819d90e12963cdd",
    "ack": "92a67430f39b297016fa620ad040f62b8c73c3397fd6424b61b2739544a2432a",
    "ex7": "5d7bd73c4f39eeba3ae096e28b183f5f376b390b4853ddd854265a9878f1e146",
    "fib": "b21091c9466b8d70d53c900e508b2415b3efe3174f1c4e7bd57a9c1080696c73",
    "logistic": "e62e16b7fa8627657c15f5911875f1c51e4c4585943df940fdf275d151148422",
    "meansqerr": "0c6ea06165f8bfe0d4139d792f948135c484a5b2fc102367cae74987bdd76335",
    "backavgpool": "776a193269cec2f2b4c97035b4313ea3d97f3e9c4ef03ba192da7655c623e142",
    "avgpool": "e808de11bb8992e4e6c38d0ff0c18c64305369c1e62eeaeeb4ec1303ee222aa4",
    "fuse2": "c92eddb5c43cf267f5218941fd33ec56d56622a1e7131abc3e99e7134265ba3f",
    "matmul": "572b146d331767335df1027077bf89878416c51fb2dcedacaa2e0b5233dd4372",
    "rotate": "48c15025b4ba64ce0e2bf47945fc6cd153669b59c84cc7cf3ed728a1f017c600",
}


# (decide calls, "yes" answers, sha256 of the (goal, hypotheses, verdict)
# sequence); all but log2 and fuse2 ask only the prelude's questions
PRELUDE_QUESTIONS = (
    33, 33, "8dabdf4e58db604c585da53a60243bb03da7cf2ae5c72c7a67cc845c6053ca3e")
DECIDER = {
    "log2": (36, 36, "aa0b46c06a848890ae3abfa5f11c266bff338e89207ce2800f91e0b06468dc36"),
    "fuse2": (35, 35, "465d127abdb9eafa46fc1245097614374bdc12802dfdbf41ac422f42f0852b78"),
}
# each question's verdict in the order asked, by its first letter (yes,
# no, unknown); pinned apart from the digests above, so a change to how a
# question is written that keeps every answer re-pins only a digest
PRELUDE_VERDICTS = "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy"
VERDICTS = {
    "log2": "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy",
    "fuse2": "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy",
}


def test_every_corpus_entry_is_pinned():
    assert set(GOLDEN) == set(NO_ASSERT) == set(corpus.CORPUS)


def _kompile(name: str, opts: extract.ExtractOptions | None = None) -> str:
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
                           elab.rules, opts)
    parse(text)
    return text


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_emitted_text_is_unchanged(name):
    text = _kompile(name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name], \
        f"the emitted text of {name} changed; it is now:\n{text}"


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_emitted_text_without_asserts_is_unchanged(name):
    text = _kompile(name, extract.ExtractOptions(no_assert=True))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NO_ASSERT[name], \
        f"the --no-assert text of {name} changed; it is now:\n{text}"


@pytest.mark.parametrize("name", list(corpus.CORPUS))
def test_decider_questions_are_unchanged(name, monkeypatch):
    decide, log = Elaborator.decide, []

    def logged(self, goal, hyps):
        verdict = decide(self, goal, hyps)
        log.append((repr(goal), repr(hyps), verdict))
        return verdict

    monkeypatch.setattr(Elaborator, "decide", logged)
    _kompile(name)
    verdicts = "".join(verdict[0] for _, _, verdict in log)
    assert verdicts == VERDICTS.get(name, PRELUDE_VERDICTS)
    digest = hashlib.sha256(repr(log).encode("utf-8")).hexdigest()
    yes = sum(verdict == "yes" for _, _, verdict in log)
    assert (len(log), yes, digest) == DECIDER.get(name, PRELUDE_QUESTIONS)


def _fresh(x):
    """A shape expression built anew from its fields, so nothing is kept
    on it yet."""
    if isinstance(x, (shapes.ShapeExpr, shapes.VecExpr)):
        return type(x)(*(_fresh(getattr(x, f)) for f in x.__match_args__))
    if isinstance(x, shapes.Constraint):
        return shapes.Constraint(x.kind, _fresh(x.lhs), _fresh(x.rhs))
    return x


def test_what_shape_expressions_keep_is_never_stale(monkeypatch):
    # a polynomial, normal form, hash or order key kept on a node must
    # still be what the node's structure gives after every corpus question,
    # whatever the decider did with it (a caller that changed a kept
    # polynomial shows here)
    decide, log = Elaborator.decide, []

    def logged(self, goal, hyps):
        verdict = decide(self, goal, hyps)
        log.append((goal, list(hyps), verdict))
        return verdict

    monkeypatch.setattr(Elaborator, "decide", logged)
    for name in corpus.CORPUS:
        _kompile(name)
    monkeypatch.undo()
    assert len(log) == 368
    for goal, hyps, verdict in log:
        for c in [goal, *hyps]:
            for side in (c.lhs, c.rhs):
                copy = _fresh(side)
                assert (hash(side), repr(side)) == (hash(copy), repr(copy))
                if isinstance(side, shapes.ShapeExpr):
                    assert shapes._poly(side) == shapes._poly(copy)
                    assert shapes.norm_scalar(side) == shapes.norm_scalar(copy)
                elif isinstance(side, shapes.VecExpr):
                    assert shapes.norm_vec(side) == shapes.norm_vec(copy)
        assert shapes.decide(_fresh(goal), [_fresh(h) for h in hyps]) == verdict


# sha256 of the core IR each prelude module and each corpus entry's own
# sources elaborate to: every definition's signature, and each clause's
# telescope, patterns and body, printed by ir.print_term
CORE_IR = {
    "prelude/base.esl": "6e21d9097596ec24d697458a0fbb8d2ed14ebf5d762145965077fc0ac25e8e98",
    "prelude/apl.esl": "3ca4e14010bfb7d4e0797a17e7a55401d464d97528899582bc4174636864b433",
    "prelude/cnn.esl": "20374248514344e04ab6c40493daaae4764ff6645a28427b275429368c0553e1",
    "log2": "315107844437a96a3ec05467c826d4c37ffddb14d264d756df1c6de349a13abb",
    "ack": "3d78283193b3080819f2bc930be047809843d71ff3708c2c470588edd4288e7d",
    "ex7": "d56b82809e7bf68c5529be809b19c796de6d4029684d88083fccc0589f4b2113",
    "fib": "294d321f52a991b22a43e043fcd1e083be5151ce76a3e9bdb23ea6e62beaf0eb",
    "logistic": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "meansqerr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "backavgpool": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "avgpool": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fuse2": "0550fa6eb7f411258a8ae6258c813cb5e98b78bf39c53a778d5b4112235deae9",
    "matmul": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "rotate": "5857d04f8b75fca40c98712c823b0d3502e79aaeeeff1404dec110e5087eacc4",
}


def _core_ir_digest(elab: Elaborator, names) -> str:
    out = []
    for name in names:
        d = elab.env.lookup(name)
        out.append(f"def {name} : {ir.print_term(d.signature)}")
        for cl in getattr(d.payload, "clauses", ()):
            out.append("  tel " + " ".join(
                f"[{n} {'h' if a.hidden else 'v'} {ir.print_term(a.value)}]"
                for n, a in cl.telescope))
            out.append(f"  pats {cl.patterns!r}")
            out.append("  body " + ("absurd" if cl.body is None
                                    else ir.print_term(cl.body)))
        meta = elab.def_meta.get(name)
        if meta is not None:
            out.append(f"  meta {meta.trusted_obligations!r}")
    return hashlib.sha256("\n".join(out).encode("utf-8")).hexdigest()


def _core_ir_digests() -> dict[str, str]:
    out = {}
    elab = Elaborator()
    for module in loader.PRELUDE_MODULES:
        before = set(elab.env.names())
        elab.load_source(loader.prelude_text(module), f"prelude/{module}")
        out[f"prelude/{module}"] = _core_ir_digest(
            elab, [n for n in elab.env.names() if n not in before])
    for name, entry in corpus.CORPUS.items():
        elab = Elaborator()
        for module in loader.PRELUDE_MODULES:
            elab.load_source(loader.prelude_text(module), f"prelude/{module}")
        before = set(elab.env.names())
        for path, text in entry.sources:
            elab.load_source(text, path)
        out[name] = _core_ir_digest(
            elab, [n for n in elab.env.names() if n not in before])
    return out


def test_elaborated_core_ir_is_unchanged():
    assert _core_ir_digests() == CORE_IR
