"""Core IR and value nodes are plain slotted dataclasses, never changed once
built (see `eslc.ir`): the invariant a frozen dataclass would enforce is
checked here, over the whole pipeline, and the equality and hashing the
nodes keep are pinned."""

import pytest

from eslc import corpus, extract, ir, loader, shapes
from eslc.elaborate import Elaborator
from eslc.harness import run_corpus_diff
from eslc.ir import (Abs, Arg, Clause, Con, Def, Lam, Lit, PAbsurd, PCon,
                     PVar, Var, vis)
from eslc.kaleid import KaleidBackend
from eslc.normalize import Hole, VBind, VVar
from eslc.sac import SacBackend

NODES = [ir.Arg, ir.Var, ir.Con, ir.Def, ir.Abs, ir.Lam, ir.Lit, ir.Let, ir.Pi,
         ir.Sort, ir.Unknown, ir.PVar, ir.PCon, ir.PAbsurd, ir.Clause,
         ir.Builtin, ir.Constructor, Hole, VVar, VBind, shapes.Constraint]


class Reassigned(Exception):
    pass


def _set_once(self, name, value):
    try:
        getattr(self, name)
    except AttributeError:  # an empty slot: the node is being built
        object.__setattr__(self, name, value)
        return
    raise Reassigned(f"{type(self).__name__}.{name} set again")


@pytest.fixture
def set_once(monkeypatch):
    """Every node class raises on setting a slot that holds a value."""
    for cls in NODES:
        monkeypatch.setattr(cls, "__setattr__", _set_once)


def test_no_node_is_declared_frozen():
    assert not any(cls.__dataclass_params__.frozen for cls in NODES)
    assert all("__slots__" in vars(cls) for cls in NODES)


def test_the_guard_fires_on_a_reassignment(set_once):
    arg = vis(Lit(1))
    with pytest.raises(Reassigned, match="Arg.value"):
        arg.value = Lit(2)


def test_the_pipeline_never_changes_a_node(set_once):
    # the prelude and every entry elaborated from source, each entry
    # extracted to both targets, and a few samples of the differential
    for entry in corpus.CORPUS.values():
        e = Elaborator()
        for module in loader.PRELUDE_MODULES:
            e.load_source(loader.prelude_text(module), f"prelude/{module}")
        for path, text in entry.sources:
            e.load_source(text, path)
        for target, backend in (("kaleid", KaleidBackend()), ("sac", SacBackend())):
            try:
                extract.kompile(entry.entry, entry.base, [], backend, e.env, e.rules)
            except extract.ExtractError:  # a type or form the target lacks
                assert target != entry.backend, entry.name
    for name in ("log2", "fib", "matmul", "rotate"):
        assert run_corpus_diff(corpus.CORPUS[name], 3, 0).mismatches == 0


def test_nodes_compare_and_hash_by_type_and_fields():
    assert Def("f") != Con("f")
    assert Var(0, (vis(Lit(1)),)) == Var(0, (vis(Lit(1)),))
    assert Arg(Lit(1), True) != Arg(Lit(1), False)
    a, b = Def("_+_", (vis(Var(0)), vis(Lit(2)))), Def("_+_", (vis(Var(0)), vis(Lit(2))))
    assert a is not b and a == b and hash(a) == hash(b)
    seen = {a: "a", Lam(Abs("x", Var(0))): "lam", VVar(3): "vvar",
            shapes.lt(shapes.SLit(0), shapes.SVar("n")): "lt"}
    assert seen[b] == "a"
    assert seen[Lam(Abs("x", Var(0)))] == "lam"
    assert seen[VVar(3)] == "vvar"
    assert seen[shapes.lt(shapes.SLit(0), shapes.SVar("n"))] == "lt"
    assert Con("f") not in seen


def test_a_closure_is_equal_only_to_itself():
    def body(v):
        return v
    a, b = VBind("lam", "x", False, None, body), VBind("lam", "x", False, None, body)
    assert a == a and a != b and len({a, b}) == 2


def test_node_checks_still_run():
    with pytest.raises(AssertionError):
        Lit(True)
    with pytest.raises(AssertionError, match="absurd"):
        Clause((("i", vis(Def("Fin", (vis(Lit(0)),)))),),
               (vis(PCon("fsuc", (vis(PAbsurd()),))),), Lit(0))
    with pytest.raises(AssertionError, match="absurd"):
        Clause((), (vis(PVar(0)),), None)
