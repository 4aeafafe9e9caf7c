"""Memoisation: results live on the object they describe and die with it."""

import ast
import contextlib
import gc
import inspect
import pathlib
import re
import sys
import weakref

import pytest

from tracelab import artin, homological, linalg, verifier
from tracelab.artin import (
    ArtinAlgebra,
    ModuleRep,
    PolynomialPresentation,
    Submodule,
    build_algebra,
    enumerate_cyclic_ideals,
    enumerate_submodules,
    free_module,
    ideal_from_elements,
    ideal_times_submodule,
    minimal_generators,
    module_from_presentation,
    regular_module,
    span_submodule,
    submodule_generators,
)
from tracelab.cli import main
from tracelab.errors import AlgebraMismatch, EnumerationCapExceeded, NotSubmodule, ParseError
from tracelab.homological import (
    _hom_in_power,
    cotrace,
    ext1,
    generator_maps,
    hom_module,
    matlis_dual,
    tensor_product,
    trace,
)
from tracelab.linalg import Matrix, Subspace
from tracelab.verifier import AlgebraSpec, InstanceSpec, run_suites

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tracelab"


@contextlib.contextmanager
def body_runs(fn, read=lambda args: None):
    """Yield a list that gets read(arguments) for each run of fn's own body,
    past any memo in front of it, while the block runs.  Blocks nest."""
    code, runs, outer = inspect.unwrap(fn).__code__, [], sys.getprofile()

    def profile(frame, event, arg):
        if outer is not None:
            outer(frame, event, arg)
        if event == "call" and frame.f_code is code:
            runs.append(read(frame.f_locals))

    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(outer)


def algebra(field, variables, relations):
    return build_algebra(PolynomialPresentation(field, variables, relations))


def test_repeated_calls_return_the_same_object():
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    reg = regular_module(R)
    dual = matlis_dual(reg).rep
    ideal = ideal_from_elements(R, ["x"])
    rep = ideal.as_module()
    assert ideal.as_module() is rep
    assert reg.free_cover() is reg.free_cover()
    assert trace(ideal, dual) is trace(ideal, dual)
    assert cotrace(ideal, dual) is cotrace(ideal, dual)
    assert hom_module(rep, dual) is hom_module(rep, dual)
    assert tensor_product(dual, rep) is tensor_product(dual, rep)
    assert R.parse_element("x + y") is R.parse_element("x + y")
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
        assert len(submodule_generators(ideal)) == 2
        assert ideal.as_module().dim == 2
        marker = id(ideal)
        del ideal
        assert not [o for o in gc.get_objects() if id(o) == marker and isinstance(o, Submodule)]
    finally:
        gc.enable()


@pytest.mark.parametrize("field", ["F2", "F3", "Q"])
def test_a_module_with_memoised_hom_and_dual_is_freed_without_the_collector(field):
    # Hom out of M holds M's free cover, not M, its generator maps are bare
    # matrices, and the dual holds only its own rep, so no entry points back
    # at M.  M's presenting R^2 is not kept, so nothing else holds M either.
    R = algebra(field, ["x", "y"], ["x^3", "y^2"])
    reg = regular_module(R)
    gc.collect()
    gc.disable()
    try:
        module = module_from_presentation(R, [["x", "0"], ["y", "x"]])
        assert hom_module(module, reg).dim > 0 and matlis_dual(module).rep.dim == module.dim
        assert generator_maps(module, reg)
        assert {"hom_module", "matlis_dual", "generator_maps"} <= {key[0].__name__ for key in module._memo}
        ref = weakref.ref(module)
        del module
        assert ref() is None
    finally:
        gc.enable()


def test_equal_modules_are_one_object(monkeypatch):
    # In F2[x,y]/(x^2, xy, y^2) the ideals (x) and (y) are both k, with zero
    # action, so they restrict to one rep and share what is memoised on it.
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    rx = ideal_from_elements(R, ["x"]).as_module()
    ry = ideal_from_elements(R, ["y"]).as_module()
    assert rx is ry
    bodies = []
    body = homological.kernel  # called once per hom_module body
    monkeypatch.setattr(homological, "kernel", lambda *a: bodies.append(a) or body(*a))
    reg = regular_module(R)
    assert hom_module(rx, reg) is hom_module(ry, reg)
    assert len(bodies) == 1


def test_equal_submodules_restrict_and_quotient_once():
    # Two routes to the ideal (x): two Submodule objects, one value, so one
    # restriction and one quotient, memoised on R and keyed by the carrier.
    R = algebra("F2", ["x", "y"], ["x^3", "y^2"])
    reg = regular_module(R)
    with body_runs(Submodule.as_module) as restricted, body_runs(Submodule.quotient) as quotients:
        for sub in (ideal_from_elements(R, ["x"]), span_submodule(reg, [R.parse_element("x")])):
            assert sub.as_module().dim == 4
            assert sub.quotient()[0].dim == 2
    assert len(restricted) == len(quotients) == 1


def test_neither_a_trace_nor_ext1_builds_a_hom_rep():
    # Hom(I, N) is held as its values, a subspace of N^v: the trace builds
    # neither N^v nor Hom as a submodule of it, and Ext1 reads only its
    # dimension.
    R = algebra("F3", ["x", "y"], ["x^3", "y^2"])
    ideal, dual = ideal_from_elements(R, ["x", "y"]), matlis_dual(regular_module(R)).rep
    v = len(ideal.as_module().free_cover().generators)
    with (
        body_runs(_hom_in_power) as in_power,
        body_runs(artin.power_module, lambda args: args["module"]) as powers,
    ):
        trace(ideal, dual)
        assert in_power == []
        assert not any(module is dual for module in powers)
        assert hom_module(ideal.as_module(), dual).ambient_dim == v * dual.dim
        assert ext1(ideal, dual).dim == 0  # dual(R) is injective
        assert ext1(ideal, dual) is ext1(ideal, dual)
    assert in_power == []


def test_generator_maps_build_n_to_the_v_once():
    # The maps are memoised on the source as a tuple of matrices, so a second
    # call builds neither N^v nor Hom as a submodule of it.
    R = algebra("F3", ["x", "y"], ["x^3", "y^2"])
    ideal, dual = ideal_from_elements(R, ["x", "y"]), matlis_dual(regular_module(R)).rep
    rep = ideal.as_module()
    with (
        body_runs(_hom_in_power) as in_power,
        body_runs(artin.power_module, lambda args: args["module"]) as powers,
    ):
        first = generator_maps(rep, dual)
        assert generator_maps(rep, dual) is first
    assert type(first) is tuple and all(type(f) is Matrix for f in first)
    assert len(in_power) == 1 and [m for m in powers if m is dual] == [dual]


def test_linear_forms_act_without_a_free_cover():
    # 0, 1, the variables and other linear forms act through the action
    # matrices, a variable as its own matrix, and no free cover is built.
    R = algebra("F3", ["x", "y"], ["x^3", "y^2"])
    module = module_from_presentation(R, [["x", "0"], ["y", "x"]])
    for text in ("0", "1", "x", "y", "2*x", "1 + x + 2*y"):
        assert module.element_action(R.parse_element(text)).nrows == module.dim
    assert module.element_action(R.parse_element("y")) is module.actions[1]
    assert "free_cover" not in {key[0].__name__ for key in module._memo}


def test_a_subspace_contains_itself_with_no_row_rebuilt():
    space = ideal_from_elements(algebra("F2", ["x", "y"], ["x^3", "y^2"]), ["x", "y"]).carrier
    with body_runs(Subspace.coords_of) as rebuilt:
        assert space.contains(space)
    assert rebuilt == []


def test_verify_section3_restricts_no_pair_twice_while_its_module_lives(capsys, monkeypatch):
    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: 1)  # the restrictions happen here
    live, repeats = {}, []  # id of a living module -> carriers restricted in it

    def read(args):
        sub = args["self"]
        key = id(sub.module)
        if key not in live:
            live[key] = set()
            weakref.finalize(sub.module, live.pop, key)
        if sub.carrier in live[key]:
            repeats.append(repr(sub))
        live[key].add(sub.carrier)

    with body_runs(Submodule.as_module, read) as runs:
        assert main(["verify", "--suite", "3", "--seed", "20260810"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert len(runs) > 100
    assert repeats == []


def test_one_zero_action_rep_from_four_routes():
    # k with zero action arises as the ideals (x) and (y), as the Matlis dual
    # of k and as the cokernel presenting R/m; reps carry no name, so it is
    # one object.  Ext1(R/(x), R) and Tor1(k, R/(x)) are k as well, and are
    # returned as their dimension.
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    ix, iy = ideal_from_elements(R, ["x"]), ideal_from_elements(R, ["y"])
    k = module_from_presentation(R, [["x", "y"]])
    routes = [ix.as_module(), iy.as_module(), matlis_dual(k).rep, k]
    assert [rep.dim for rep in routes] == [1] * 4
    assert all(rep is k for rep in routes)
    assert homological.ext1(ix, regular_module(R)).dim == homological.tor1(k, ix).dim == 1


def test_an_unreferenced_module_leaves_the_intern_table():
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    zero = (Matrix.zeros(R.field, 1, 1),) * 2
    rep = R.module(1, zero)
    hom_module(rep, rep)  # a memo entry that points back at its owner: a cycle
    ref = weakref.ref(rep)
    del rep
    gc.collect()
    assert ref() is None
    assert (1, zero) not in R._modules


def test_equal_ideals_are_one_memo_key(monkeypatch):
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    i1, i2 = ideal_from_elements(R, ["x"]), ideal_from_elements(R, ["x"])
    assert i1 is not i2
    assert i1 == i2 and hash(i1) == hash(i2)
    assert i1 != ideal_from_elements(R, ["y"])
    bodies = []
    body = homological.ideal_times_module  # called once per trace body
    monkeypatch.setattr(homological, "ideal_times_module", lambda *a: bodies.append(a) or body(*a))
    dual = matlis_dual(regular_module(R)).rep
    assert trace(i1, dual) is trace(i2, dual)
    assert len(bodies) == 1


def test_every_rep_with_the_actions_of_r_is_r():
    # A rep is its actions alone, so each route to R's actions gives R, and
    # an ideal spanned in any of them is the same memo key as in R.
    R = algebra("F3", ["x", "y"], ["x^3", "y^2"])
    reg = regular_module(R)
    routes = [
        _hom_in_power(reg, reg).as_module(),
        free_module(R, 1),
        matlis_dual(matlis_dual(reg).rep).rep,
        reg.full_submodule().as_module(),
    ]
    assert all(rep is reg for rep in routes)
    ideal = ideal_from_elements(R, ["x", "x^2"])
    for rep in routes:
        same = span_submodule(rep, [R.parse_element("x")])
        assert same == ideal and hash(same) == hash(ideal)
        assert trace(same, reg) is trace(ideal, reg)
    # The dual of R has the transposed actions, so it is another rep and
    # its submodules are not ideals; nor is an ideal of another algebra.
    dual = matlis_dual(reg).rep
    assert dual is not reg and dual.dim == reg.dim
    with pytest.raises(NotSubmodule):
        artin._require_ideal(dual.full_submodule(), R)
    other = algebra("F3", ["x", "y"], ["x^3", "y^2"])
    with pytest.raises(AlgebraMismatch):
        artin._require_ideal(ideal_from_elements(other, ["x"]), R)


def test_verify_section1_computes_few_hom_spaces(monkeypatch, capsys):
    # A guard against silent re-duplication of reps or ideals: section 1 at
    # the catalog seed ran 1,149 Hom bodies with labelled reps and
    # identity-keyed ideals, 771 once both compare by value, and 727 once
    # every rep with R's actions is R.  The bound is 727 plus 5%.
    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: 1)  # the Hom bodies run here
    bodies = []
    body = homological.kernel  # called once per hom_module body
    monkeypatch.setattr(homological, "kernel", lambda *a: bodies.append(a) or body(*a))
    assert main(["verify", "--suite", "1", "--seed", "20260810"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert len(bodies) <= 763, len(bodies)


def test_module_generators_read_the_action_columns():
    # For U = M the carrier rows are the identity, so mM is read off the
    # actions' column supports: no action is applied to a vector.
    R = algebra("F3", ["x", "y"], ["x^3", "y^2"])
    for module in (regular_module(R), module_from_presentation(R, [["x", "0"], ["y", "x"]])):
        with body_runs(Matrix.apply) as applies, body_runs(Matrix._sparse_apply) as sparse_applies:
            count, lifts = minimal_generators(module)
        assert applies == sparse_applies == [] and count == len(lifts) > 0


def test_internal_spans_reach_the_core_as_dict_rows(monkeypatch):
    # A guard against dense orbits and images coming back: these four hand
    # the elimination core {column: scalar} rows, never dense tuples.
    callers = {
        inspect.unwrap(f).__code__: f.__name__
        for f in (span_submodule, submodule_generators, ideal_times_submodule, Subspace.image)
    }
    from_vectors, core, seen = Subspace.from_vectors.__func__.__code__, linalg._row_reduce, {}

    def spy(field, rows, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code is from_vectors:
            caller = caller.f_back
        if caller.f_code in callers:
            rows = list(rows)
            seen.setdefault(callers[caller.f_code], set()).update(type(row) for row in rows)
        return core(field, rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "_row_reduce", spy)
    monkeypatch.setattr(artin, "_row_reduce", spy)
    for field in ("Q", "F2"):
        R = algebra(field, ["x", "y"], ["x^5", "y^5"])
        ideal, reg = ideal_from_elements(R, ["x", "y^2"]), regular_module(R)
        trace(ideal, reg)
        ext1(ideal, reg)
        ideal_times_submodule(ideal, ideal)
        ideal.carrier.image(reg.element_action(R.parse_element("x")))
    assert seen == dict.fromkeys(callers.values(), {dict}), seen


def test_exceptions_are_not_memoised():
    R = algebra("F2", ["x", "y"], ["x^2", "x*y", "y^2"])
    for _ in range(2):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_cyclic_ideals(R, 1)
        with pytest.raises(ParseError):
            R.parse_element("x + z")
    assert not any("x + z" in key[1] for key in R._memo)
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


def test_nothing_built_in_a_run_outlives_its_spec(monkeypatch):
    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: 1)  # the objects are built here
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
    # Reps are interned by their actions, so a rep is built only by
    # ArtinAlgebra.module and carries no name: a label set on a shared rep
    # would name all of its copies.
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
    assert renames == [], renames
    assert "label" not in ModuleRep.__slots__
    for fn in (ArtinAlgebra.module, Submodule.as_module, Submodule.quotient, matlis_dual):
        assert "label" not in inspect.signature(fn).parameters, fn
