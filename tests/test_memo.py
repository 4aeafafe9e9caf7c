"""Memoisation: results live on the object they describe and die with it."""

import ast
import gc
import pathlib
import re
import weakref

import pytest

from tracelab import homological
from tracelab.artin import (
    ArtinAlgebra,
    ModuleRep,
    PolynomialPresentation,
    Submodule,
    build_algebra,
    enumerate_cyclic_ideals,
    enumerate_submodules,
    ideal_from_elements,
    ideal_generators,
    regular_module,
)
from tracelab.errors import EnumerationCapExceeded
from tracelab.homological import cotrace, hom_module, matlis_dual, tensor_product, trace
from tracelab.linalg import Matrix
from tracelab.verifier import AlgebraSpec, InstanceSpec, run_suites

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tracelab"


def algebra(field, variables, relations):
    return build_algebra(PolynomialPresentation(field, variables, relations))


def test_repeated_calls_return_the_same_object():
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    reg = regular_module(R)
    dual = matlis_dual(reg).rep
    ideal = ideal_from_elements(R, ["x"])
    rep, _ = ideal.as_module()
    assert ideal.as_module()[0] is rep
    assert reg.free_cover() is reg.free_cover()
    assert trace(ideal, dual) is trace(ideal, dual)
    assert cotrace(ideal, dual) is cotrace(ideal, dual)
    assert hom_module(rep, dual) is hom_module(rep, dual)
    assert tensor_product(dual, rep) is tensor_product(dual, rep)
    # Different arguments are different entries on the same owner.
    assert trace(ideal, dual) is not trace(R.max_ideal(), dual)


def test_an_ideal_with_memoised_generators_is_freed_without_the_collector():
    # The owner is not part of its own memo keys, so the rep and generators
    # memoised on an ideal make no cycle through it.
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    gc.collect()
    gc.disable()
    try:
        ideal = ideal_from_elements(R, ["x", "y"])
        assert len(ideal_generators(ideal)) == 2
        assert ideal.as_module()[0].dim == 2
        marker = id(ideal)
        del ideal
        assert not [o for o in gc.get_objects() if id(o) == marker and isinstance(o, Submodule)]
    finally:
        gc.enable()


def test_equal_modules_are_one_object(monkeypatch):
    # In F2[x,y]/(x^2, xy, y^2) the ideals (x) and (y) are both k, with zero
    # action, so they restrict to one rep and share what is memoised on it.
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    rx, _ = ideal_from_elements(R, ["x"]).as_module()
    ry, _ = ideal_from_elements(R, ["y"]).as_module()
    assert rx is ry
    bodies = []
    body = homological.power_module  # called once per hom_module body
    monkeypatch.setattr(homological, "power_module", lambda *a: bodies.append(a) or body(*a))
    reg = regular_module(R)
    assert hom_module(rx, reg) is hom_module(ry, reg)
    assert len(bodies) == 1


def test_equal_actions_under_different_labels_are_different_objects():
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    zero = [Matrix.zeros(R.field, 1, 1)] * 2
    assert R.module(1, zero, label="A") is R.module(1, zero, label="A")
    assert R.module(1, zero, label="A") is not R.module(1, zero, label="B")
    sub = ideal_from_elements(R, ["x"])
    assert sub.as_module()[0] is not sub.as_module(label="Tor1")[0]
    assert sub.as_module()[0].actions == sub.as_module(label="Tor1")[0].actions


def test_an_unreferenced_module_leaves_the_intern_table():
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    rep = R.module(1, [Matrix.zeros(R.field, 1, 1)] * 2, label="unreferenced")
    hom_module(rep, rep)  # a memo entry that points back at its owner: a cycle
    ref = weakref.ref(rep)
    del rep
    gc.collect()
    assert ref() is None
    assert "unreferenced" not in [m.label for m in R._modules.values()]


def test_exceptions_are_not_memoised():
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    for _ in range(2):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_cyclic_ideals(R, 1)
    ideals = enumerate_cyclic_ideals(R)
    assert len(ideals) == 5  # 0, (x), (y), (x + y), R
    assert enumerate_cyclic_ideals(R) is ideals


def test_keyword_and_positional_caps_agree():
    # F2[x]/(x^2) has three submodules of R: 0, (x) and R.
    reg = regular_module(algebra("F2", ["x"], ["x^2"]))
    by_keyword = enumerate_submodules(reg, cap=3)
    by_position = enumerate_submodules(reg, 3)
    assert [s.dim for s in by_keyword] == [s.dim for s in by_position] == [0, 1, 2]
    assert [s.carrier for s in by_keyword] == [s.carrier for s in by_position]
    for call in (lambda: enumerate_submodules(reg, cap=2), lambda: enumerate_submodules(reg, 2)):
        with pytest.raises(EnumerationCapExceeded):
            call()


def test_nothing_built_in_a_run_outlives_its_spec():
    kinds = (ArtinAlgebra, ModuleRep, Submodule)
    before = [o for o in gc.get_objects() if isinstance(o, kinds)]
    known = {id(o) for o in before}
    spec = InstanceSpec(
        algebras=(
            AlgebraSpec("f2_fat", "F2", ("x", "y"), ("x^2", "x*y", "y^2")),
            AlgebraSpec("q_jet3", "Q", ("x",), ("x^3",)),
        ),
        semigroups=(),
        duality_samples=3,
        colon_route_samples=2,
        random_modules=1,
        sampled_ideals=2,
    )
    assert all(result.passed for result in run_suites(spec))
    del spec
    gc.collect()
    alive = [o for o in gc.get_objects() if isinstance(o, kinds) and id(o) not in known]
    assert not alive, "%d objects outlived the spec, e.g. %r" % (len(alive), alive[:3])


def test_one_memo_policy():
    # Every memo is an owned `_memo` dict (artin._memoised); a module-level
    # cache would keep what it holds alive for the life of the process.
    pattern = re.compile(r"lru_cache|functools\.cache\b|import[^\n]*\bcache\b")
    offenders = [
        "%s:%d" % (path.name, n)
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, offenders
    helpers = [p.name for p in SRC.glob("*.py") if "def _memoised(" in p.read_text(encoding="utf-8")]
    assert helpers == ["artin.py"]


def _builds_a_rep(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", "") == "ModuleRep"


def _label_targets(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    return [ast.unparse(t) for target in targets for t in ast.walk(target) if getattr(t, "attr", "") == "label"]


def test_one_module_construction_path():
    # Reps are interned, so a rep is built only by ArtinAlgebra.module and
    # never renamed afterwards: renaming a shared rep would rename its copies.
    builders, renames, calls = [], [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(1 for n in ast.walk(tree) if _builds_a_rep(n))
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            for node in ast.walk(fn):
                if _builds_a_rep(node):
                    builders.append((path.name, fn.name))
                renames.extend((path.name, fn.name, t) for t in _label_targets(node))
    assert builders == [("artin.py", "module")] and calls == 1, builders
    assert renames == [("artin.py", "__init__", "self.label")], renames  # ModuleRep.__init__
