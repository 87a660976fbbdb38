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
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name], \
        f"the emitted text of {name} changed; it is now:\n{text}"


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
    decide, log = shapes.decide, []

    def logged(goal, hyps):
        verdict = decide(goal, hyps)
        log.append((goal, list(hyps), verdict))
        return verdict

    monkeypatch.setattr(shapes, "decide", logged)
    for name in corpus.CORPUS:
        _kompile(name)
    monkeypatch.undo()
    assert len(log) == 379
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
    "prelude/base.esl": "1798ba98fd232c17910212c104aa4f20870fb378d179378b9d06224baca06259",
    "prelude/apl.esl": "c3059e356d8865d6c95a69717559e759d7f55562861f3f2e24d8420202987c91",
    "prelude/cnn.esl": "15ad488318c7733936e257e472453ece5899cdf1ba26d25c7684417e4ad072b2",
    "log2": "c8f982578e6a6efd47599be8223ad5a7d14f7e28b00e0ae84575c7d1745b5692",
    "ack": "dfcb85afff15cbb5e7cdbe5f8b5e7e75d5db72e3e6e06927bc0ae788703dcfbb",
    "ex7": "de2c09b34669061c46da6c679d282306868efaf0b684d83033211b2359fdaf7c",
    "fib": "f50ebc83fc9630868212f10a81bbea28cb97bff5bdb302cbe5bbd0110d2cbd30",
    "logistic": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "meansqerr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "backavgpool": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "avgpool": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fuse2": "14fe094e439bf8f81e15915a783ca99ce27b7c1f46f905caefcc1238cc6334c8",
    "matmul": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "rotate": "2973f81a70ca7f8441f31c14b225b9a4b5bbb33104136cc4eb281fb024830f1f",
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
            out.append(f"  meta {meta.unsupported!r} {meta.trusted_obligations!r}")
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
