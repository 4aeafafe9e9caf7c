"""Command line: report shape, canonical JSON, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import time

import pytest
from hypothesis import given, settings, strategies as st

from tracelab import __version__
from tracelab.cli import main

FAT_RING = """\
# fat point
[algebra]
field = Q
variables = x, y
relations = x^2, x*y, y^2
"""

DUAL_F2_RING = """\
[algebra]
field = F2
variables = x
relations = x^2
"""

MODULE_FILE = """\
[module]
generators = 2
presentation = x, 0 ; y, x
"""


@pytest.fixture()
def fat_ring(tmp_path):
    path = tmp_path / "fat.ring"
    path.write_text(FAT_RING, encoding="utf-8")
    return str(path)


@pytest.fixture()
def dual_ring(tmp_path):
    path = tmp_path / "dual.ring"
    path.write_text(DUAL_F2_RING, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_algebra_info(capsys, fat_ring):
    report = run_json(capsys, "algebra-info", "--ring", fat_ring)
    assert report["command"] == "algebra-info"
    assert report["result"]["dimension"] == 3
    assert report["result"]["socle_dim"] == 2
    assert report["result"]["quasi_frobenius"] is False
    assert len(report["fingerprint"]) == 64


def test_trace_command_matches_expected_dims(capsys, fat_ring):
    report = run_json(capsys, "trace", "--ring", fat_ring, "--ideal", "x")
    result = report["result"]
    assert result["trace"]["dim"] == 2
    assert result["ideal_times_module"]["dim"] == 1
    assert result["excellent_for_ideal"] is False


def test_cotrace_command(capsys, fat_ring):
    report = run_json(capsys, "cotrace", "--ring", fat_ring, "--ideal", "x")
    result = report["result"]
    # R is free hence coexcellent for every ideal.
    assert result["coexcellent_for_ideal"] is True
    assert result["cotrace"]["dim"] == result["torsion"]["dim"] == 2


def test_ext1_and_tor1(capsys, fat_ring):
    assert run_json(capsys, "ext1", "--ring", fat_ring, "--ideal", "x")["result"]["ext1_dim"] == 1
    assert run_json(capsys, "tor1", "--ring", fat_ring, "--ideal", "x")["result"]["tor1_dim"] == 0


def test_module_file(capsys, fat_ring, tmp_path):
    module_path = tmp_path / "mod.mod"
    module_path.write_text(MODULE_FILE, encoding="utf-8")
    report = run_json(
        capsys, "tor1", "--ring", fat_ring, "--module", str(module_path), "--ideal", "x"
    )
    assert report["result"]["module_dim"] > 0


def test_dual_command(capsys, fat_ring):
    result = run_json(capsys, "dual", "--ring", fat_ring)["result"]
    assert result["dual_dim"] == 3
    assert result["socle_dim_of_dual"] == 1
    assert result["double_dual_matches"] is True


def test_qf_exhaustive_over_f2(capsys, dual_ring):
    result = run_json(capsys, "qf", "--ring", dual_ring)["result"]
    assert result["quasi_frobenius"] == {"value": True, "evidence": "formula"}
    assert result["excellent"]["value"] is True
    assert result["excellent"]["evidence"] == "exhaustive"


def test_qf_sampled_over_q(capsys, fat_ring):
    result = run_json(capsys, "qf", "--ring", fat_ring, "--seed", "5")["result"]
    assert result["quasi_frobenius"]["value"] is False
    assert result["excellent"]["value"] is False
    assert result["excellent"]["evidence"] == "sampled"
    assert "witness" in result["excellent"]


def test_good_command_exit_zero_on_false(capsys, fat_ring):
    code, out, _ = run_cli(capsys, "good", "--ring", fat_ring, "--ideal", "x")
    assert code == 0
    assert json.loads(out)["result"]["good"] == {"value": False, "evidence": "formula"}


def test_excellent_command(capsys, dual_ring):
    result = run_json(capsys, "excellent", "--ring", dual_ring)["result"]
    assert result["excellent"]["value"] is True
    assert result["coexcellent"]["value"] is True


def test_semigroup_report(capsys):
    report = run_json(capsys, "semigroup-report", "--gens", "3,4", "--max-power", "6")
    result = report["result"]
    assert result["nu"] == 2
    assert result["stable_trace_ok"] is True
    assert result["first_neighborhood_inverse"] == {"below_conductor": [], "conductor": 6}
    assert result["two_generated_clause"] is True


def test_semigroup_good(capsys):
    result = run_json(capsys, "semigroup-good", "--gens", "3,4", "--ideal", "3,4")["result"]
    assert result["good"]["value"] is True
    result = run_json(capsys, "semigroup-good", "--gens", "3,4", "--ideal", "-3")["result"]
    assert result["good"]["value"] is False
    assert result["trace"] == {"below_conductor": [0, 3, 4], "conductor": 6}


@pytest.mark.parametrize("command", ["trace", "cotrace", "ext1", "tor1", "dual", "excellent"])
def test_huge_free_module_exits_2_before_it_is_built(capsys, fat_ring, tmp_path, command):
    # 40 bytes asking for R^1000000: refused at the dim cap, not allocated.
    path = tmp_path / "huge.module"
    path.write_text("# big R^n\n[module]\ngenerators = 1000000\n", encoding="utf-8")
    assert path.stat().st_size == 40
    started = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--ring", fat_ring, "--module", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DimensionCapExceeded"
    # --cap-dim raises the bound: R^2 over a dim-3 ring is dim 6.
    path.write_text("[module]\ngenerators = 2\n", encoding="utf-8")
    assert run_cli(capsys, command, "--ring", fat_ring, "--module", str(path), "--cap-dim", "5")[0] == 2
    assert run_cli(capsys, command, "--ring", fat_ring, "--module", str(path), "--cap-dim", "6")[0] == 0


def test_huge_ideal_exponent_is_bounded(capsys, tmp_path):
    # x^3 = 0 in k[x,y]/(x^3, y^3); a huge exponent must give the same ideal
    # without multiplying billions of times.
    ring = tmp_path / "cube.ring"
    ring.write_text("[algebra]\nfield = F2\nvariables = x, y\nrelations = x^3, y^3\n", encoding="utf-8")
    t0 = time.perf_counter()
    huge = run_json(capsys, "trace", "--ring", str(ring), "--ideal", "x^3000000000")
    assert time.perf_counter() - t0 < 5.0
    small = run_json(capsys, "trace", "--ring", str(ring), "--ideal", "x^3")
    assert huge["result"] == small["result"]


def test_trace_of_a_deep_monomial_is_fast(capsys, tmp_path):
    # (x^499) in F2[x]/(x^500) is the socle, and every map from it lands in
    # the socle; x^499 acts through one product with the cover section.
    ring = tmp_path / "jet.ring"
    ring.write_text("[algebra]\nfield = F2\nvariables = x\nrelations = x^500\n", encoding="utf-8")
    started = time.perf_counter()
    result = run_json(capsys, "trace", "--ring", str(ring), "--ideal", "x^499")["result"]
    assert time.perf_counter() - started < 8.0
    socle = {"ambient_dim": 500, "dim": 1, "basis_columns": [[0] * 499 + [1]]}
    assert result["ideal"] == result["trace"] == socle


@pytest.mark.parametrize(
    "command, relations, seconds, digest",
    [
        ("excellent", "F3 x^4, y^3", 3.0, "4340e59bba820a831a80272a9d619845461df6eaf258acf977e0ab9bb56c3384"),
        ("qf", "F3 x^4, y^3", 3.0, "a21f183922030491662e520f214cd3568617db7c833deaf5447cce8ff6768dc6"),
        ("excellent", "F2 x^5, x*y^3, y^4", 2.0, "f4419c6457bbcf6edfdba6708bd1f76735efbf096107b4e0af4630720590f384"),
    ],
    ids=["excellent-F3", "qf-F3", "excellent-F2"],
)
def test_cyclic_ideal_corners_are_fast(capsys, tmp_path, command, relations, seconds, digest):
    # 3^12 and 2^16 ring elements, 97 and 139 cyclic ideals: each ideal is
    # spanned once, and every other generator of it is skipped by Nakayama.
    field, relations = relations.split(" ", 1)
    ring = tmp_path / "corner.ring"
    ring.write_text("[algebra]\nfield = %s\nvariables = x, y\nrelations = %s\n" % (field, relations), encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--ring", str(ring))
    assert time.perf_counter() - started < seconds
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_numeric_power_reduces_mod_p(capsys, dual_ring):
    t0 = time.perf_counter()
    huge = run_json(capsys, "trace", "--ring", dual_ring, "--ideal", "3^3000000000")
    assert time.perf_counter() - t0 < 5.0
    unit = run_json(capsys, "trace", "--ring", dual_ring, "--ideal", "1")
    assert huge["result"] == unit["result"]


@pytest.mark.parametrize(
    "ring, ideal",
    [
        ("fat_ring", "3^3000000000*x"),  # over Q the exact power is refused
        ("dual_ring", "7" * 5000 + "*x"),
        ("fat_ring", "x^" + "7" * 5000),
    ],
)
def test_oversized_numbers_exit_2(capsys, request, ring, ideal):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "trace", "--ring", request.getfixturevalue(ring), "--ideal", ideal)
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


def test_reports_are_byte_stable(capsys, fat_ring):
    _, out1, _ = run_cli(capsys, "trace", "--ring", fat_ring, "--ideal", "x")
    _, out2, _ = run_cli(capsys, "trace", "--ring", fat_ring, "--ideal", "x")
    assert out1 == out2


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "algebra-info", "--ring", str(tmp_path / "nope.ring"))
    assert code == 2
    assert not out
    assert "error" in json.loads(err)


@pytest.mark.parametrize("flag", ["--ring", "--module"])
def test_non_utf8_file_exits_2(capsys, fat_ring, tmp_path, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe[algebra]\nfield = Q\n")
    argv = ["--ring", str(bad)] if flag == "--ring" else ["--ring", fat_ring, "--module", str(bad)]
    code, out, err = run_cli(capsys, "trace", *argv)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert str(bad) in error["message"]


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.ring"
    bad.write_text("[algebra]\nfield = Q\nvariables = x\nrelations = x^2 + 1\n")
    code, _, err = run_cli(capsys, "algebra-info", "--ring", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "ResidueFieldError"


def test_unknown_section_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.ring"
    # No command reads a [semigroup] section, so it is unknown too.
    for text in ("[ring]\nfield = Q\n", FAT_RING + "[semigroup]\ngenerators = 3, 4\n"):
        bad.write_text(text)
        code, _, err = run_cli(capsys, "algebra-info", "--ring", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("key", ["dim_cap"])
def test_non_integer_cap_in_ring_file_exits_2(capsys, tmp_path, key):
    bad = tmp_path / "bad.ring"
    bad.write_text(FAT_RING + "%s = abc\n" % key)
    code, out, err = run_cli(capsys, "algebra-info", "--ring", str(bad))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


def test_degree_cap_is_an_unknown_key(capsys, tmp_path):
    bad = tmp_path / "bad.ring"
    bad.write_text(FAT_RING + "degree_cap = 30\n")
    code, out, err = run_cli(capsys, "algebra-info", "--ring", str(bad))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert "unknown key 'degree_cap'" in error["message"]


@pytest.mark.parametrize(
    "extra_line, argv, name",
    [
        ("dim_cap = -1\n", [], "dim_cap"),
        ("", ["--cap-dim", "-1"], "--cap-dim"),
    ],
)
def test_negative_dim_cap_exits_2(capsys, tmp_path, extra_line, argv, name):
    ring = tmp_path / "fat.ring"
    ring.write_text(FAT_RING + extra_line)
    code, out, err = run_cli(capsys, "algebra-info", "--ring", str(ring), *argv)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert name in error["message"]


@pytest.mark.parametrize("ring", ["fat_ring", "dual_ring"])
@pytest.mark.parametrize("command", ["excellent", "qf"])
def test_negative_cap_enum_exits_2(capsys, request, ring, command):
    # Over F2 the cap bounds the enumeration, over Q the verdict is sampled;
    # a negative cap is refused in both.
    ring_path = request.getfixturevalue(ring)
    code, out, err = run_cli(capsys, command, "--ring", ring_path, "--cap-enum", "-1")
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert "--cap-enum" in error["message"]


@pytest.mark.parametrize(
    "variables, relations, message",
    [
        ("x, y", "x*y", "not Artinian at the origin"),
        ("x", "x^2 - x", "not local"),
    ],
)
def test_non_artinian_and_non_local_rings_exit_2_quickly(capsys, tmp_path, variables, relations, message):
    ring = tmp_path / "bad.ring"
    ring.write_text(
        "[algebra]\nfield = Q\nvariables = %s\nrelations = %s\ndim_cap = 100000\n"
        % (variables, relations)
    )
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "algebra-info", "--ring", str(ring))
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "NotArtinian"
    assert message in error["message"]


@pytest.mark.parametrize(
    "field, n, digest",
    [
        ("F2", 3, "5d1ebec473b4c7c0a9ab316b265c764180e33f51e0c8350e973d2c45bdf2de5a"),
        ("F2", 4, "475212562656abf7604ebfd31574ca4476c9d7d8cae6c86a3cad54a66b8b1c88"),
        ("F2", 5, "fd38a64b929dd39c58a62aab8ac60925adec577e24ea3f84baf7dc418c3d5f33"),
        ("Q", 3, "8e18d3ea7c9b7cc6a4b0246f37178a4ecb391239614bd637326c401c9121f474"),
        ("Q", 4, "22f36379272005f3b41b8adddb0e4c2d9e98b2c10e7ab9482dec888d9b7ab990"),
        ("Q", 5, "6919e66c605da73ce5ae7b1470a4b8093c75b2ce4784fd7d427cb9fe0473cf23"),
    ],
)
def test_ladder_ring_builds_are_pinned(capsys, tmp_path, field, n, digest):
    # k[x,y]/(x^n, y^n): basis, actions and nilpotency index, byte for byte
    # as the dense elimination core built them.
    ring = tmp_path / "ladder.ring"
    text = "[algebra]\nfield = %s\nvariables = x, y\nrelations = x^%d, y^%d\n" % (field, n, n)
    ring.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "algebra-info", "--ring", str(ring))
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "field, seconds, digest",
    [
        ("Q", 2.0, "1e9f94a519f57f9bfc474d88168c3cbcfd9556164730876d741d6abb19b01464"),
        ("F2", 0.6, "6f009ffc211ff8963734ff6f7cd5c85933ca123b7353094b8e0deab1ee7102a9"),
        ("F3", 0.6, "6f009ffc211ff8963734ff6f7cd5c85933ca123b7353094b8e0deab1ee7102a9"),
    ],
)
def test_rejections_at_the_monomial_ceiling_are_pinned_and_fast(capsys, tmp_path, field, seconds, digest):
    # Over Q, m^2 lies in I near the origin but I has other zeros, so the
    # global step's Macaulay eliminations run up to the 1,000-monomial
    # ceiling; over F2 and F3, I is not Artinian at the origin and the local
    # step reaches it.  In process, the sparse core rejects them in 0.55-1.1 s
    # over Q and 0.1-0.2 s over F_p, the dense core took 1.9-3.9 s and
    # 0.4-1.0 s (2-vCPU VM, CPython 3.11, quiet and loaded).
    ring = tmp_path / "far.ring"
    ring.write_text(
        "[algebra]\nfield = %s\nvariables = x, y\n"
        "relations = x^3*y^3 - 3*x^2*y^3 - x^3*y, 3*x^2*y^2 - 2*y^3 + 2*y, 3*x^2 - 2*x^3*y\n" % field,
        encoding="utf-8",
    )
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "algebra-info", "--ring", str(ring))
    assert time.perf_counter() - started < seconds
    assert (code, out) == (2, "")
    assert hashlib.sha256(err.encode("utf-8")).hexdigest() == digest


def test_semigroup_report_small_window_exits_2(capsys):
    code, out, err = run_cli(capsys, "semigroup-report", "--gens", "3,4", "--max-power", "2")
    assert (code, out) == (2, "")
    assert "nu + 3" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "args",
    [
        ["--gens", "101,103"],  # conductor 10,200
        ["--gens", "10000,10001"],  # multiplicity above the conductor ceiling
        ["--gens", "3,4", "--max-power", "100000"],
    ],
)
def test_semigroup_ceilings_exit_2(capsys, args):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "semigroup-report", *args)
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "InvalidArgument"


def test_semigroup_outputs_are_pinned(capsys):
    # Reports at the default window and at --max-power 6, and goodness of
    # two fixed ideals, over the catalog semigroups plus two larger ones;
    # the window 6 is below nu + 3 for the last two, which exit 2.
    digest = hashlib.sha256()
    codes = []
    for gens in ("1", "2,3", "2,5", "3,4", "3,5,7", "4,5,6,7", "5,6,9", "13,17", "17,23,29"):
        runs = (
            ["semigroup-report", "--gens", gens],
            ["semigroup-report", "--gens", gens, "--max-power", "6"],
            ["semigroup-good", "--gens", gens, "--ideal=-3,5"],
            ["semigroup-good", "--gens", gens, "--ideal=0,7"],
        )
        for argv in runs:
            code, out, _ = run_cli(capsys, *argv)
            codes.append(code)
            digest.update(out.encode("utf-8") + b"\x00")
    assert codes == [0] * 29 + [2] + [0] * 3 + [2, 0, 0]
    assert digest.hexdigest() == "b4e0894f2149c6d10dc756ef7778d79765b6f06060633477af0bb64226b06e3d"


@pytest.mark.parametrize(
    "flag, command, error",
    [
        ("--cap-dim", "algebra-info", "DimensionCapExceeded"),
        ("--cap-enum", "qf", "EnumerationCapExceeded"),
    ],
)
def test_zero_caps_are_enforced(capsys, dual_ring, flag, command, error):
    code, out, err = run_cli(capsys, command, "--ring", dual_ring, flag, "0")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("command", ["algebra-info", "trace", "cotrace", "ext1", "tor1", "dual", "good"])
def test_cap_enum_is_only_for_enumerating_commands(capsys, fat_ring, command):
    # Only excellent and qf enumerate ideals, so only they take the cap.
    argv = [command, "--ring", fat_ring, "--cap-enum", "5"]
    if command in ("trace", "cotrace", "ext1", "tor1", "good"):
        argv += ["--ideal", "x"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "UsageError" and "--cap-enum" in error["message"]


def test_unknown_flag_is_an_error(capsys, fat_ring):
    with pytest.raises(SystemExit) as exc:
        main(["algebra-info", "--ring", fat_ring, "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["semigroup-good", "--gens", "3,4", "--ideal", "-3,5"],
        ["algebra-info", "--ring", "x.ring", "--frobnicate"],
        ["trace", "--ideal", "x"],
    ],
    ids=["dash-value", "unknown-flag", "missing-ring"],
)
def test_usage_errors_are_json(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "UsageError" and error["message"]


def test_shared_parser_keeps_no_state(capsys, monkeypatch, fat_ring, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    report = ["semigroup-report", "--gens", "3,5"]
    unknown = ["algebra-info", "--ring", fat_ring, "--frobnicate"]
    first = outcome(report)
    after_first = len(built)
    usage = outcome(unknown)
    assert usage[:2] == (2, "") and json.loads(usage[2])["error"] == "UsageError"
    assert outcome(["--version"]) == (0, "tracelab %s\n" % __version__, "")
    missing = outcome(["algebra-info", "--ring", str(tmp_path / "nope.ring")])
    assert missing[:2] == (2, "") and json.loads(missing[2])["error"] == "OSError"
    assert outcome(unknown) == usage
    assert outcome(report) == first
    assert first[0] == 0 and first[2] == "" and json.loads(first[1])["command"] == "semigroup-report"
    assert len(built) == after_first


def test_text_format(capsys, dual_ring):
    code, out, _ = run_cli(capsys, "qf", "--ring", dual_ring, "--format", "text")
    assert code == 0
    assert "result.quasi_frobenius.value = True" in out


def test_verify_small_suite(capsys):
    report = run_json(capsys, "verify", "--suite", "2", "--seed", "7")
    assert report["result"]["passed"] is True
    assert report["result"]["suites"][0]["suite"] == "section2"


# -- fuzzing the exit-code contract --------------------------------------------


@st.composite
def polynomials(draw, variables):
    """A polynomial string of 1-3 terms with small coefficients and exponents."""
    text = ""
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.integers(-3, 3))
        factors = [str(abs(coeff))] if abs(coeff) != 1 else []
        for v in variables:
            e = draw(st.integers(0, 3))
            factors += [v] if e == 1 else ["%s^%d" % (v, e)] if e else []
        term = "*".join(factors) or "1"
        text += ("-" if coeff < 0 else "+" if text else "") + term
    return text


@st.composite
def cli_cases(draw):
    """(ring file text, argv without --ring) over 1-2 variables."""
    variables = ["x", "y"][: draw(st.integers(1, 2))]
    relations = draw(st.lists(polynomials(variables), min_size=1, max_size=2))
    if draw(st.booleans()):
        relations += ["%s^%d" % (v, draw(st.integers(1, 4))) for v in variables]
    field = draw(st.sampled_from(["F2", "F3", "F5", "Q"]))
    ring = "[algebra]\nfield = %s\nvariables = %s\nrelations = %s\n" % (
        field, ", ".join(variables), ", ".join(relations))
    command = draw(st.sampled_from(
        ["algebra-info", "trace", "cotrace", "ext1", "tor1", "good", "dual", "excellent", "qf"]))
    argv = [command]
    if command in ("trace", "cotrace", "ext1", "tor1", "good"):
        ideal = ", ".join(draw(st.lists(polynomials(variables), max_size=2)))
        argv += draw(st.sampled_from([["--ideal", ideal], ["--ideal=" + ideal]]))
    if command in ("excellent", "qf"):
        argv += ["--cap-enum", "300"]
    return ring, argv


# Small rings for the module fuzz, so its cases stay cheap.
FUZZ_RINGS = [
    ("F2", ["x"], ["x^2"]),
    ("F3", ["x", "y"], ["x^2", "y^2"]),
    ("F5", ["x"], ["x^3"]),
    ("Q", ["x", "y"], ["x^2", "x*y", "y^2"]),
]


@st.composite
def module_cases(draw, command):
    """(ring file text, argv without --ring) running command on a drawn
    --module file.

    The [module] section has 0-3 generators or a huge count, a presentation
    whose row count may disagree with it, and rows that may be ragged or
    hold empty entries.
    """
    field, variables, relations = draw(st.sampled_from(FUZZ_RINGS))
    ring = "[algebra]\nfield = %s\nvariables = %s\nrelations = %s\n" % (
        field, ", ".join(variables), ", ".join(relations))
    n_gens = draw(st.sampled_from([0, 1, 2, 3, 1000000]))
    shape = draw(st.sampled_from(["matching", "row count", "ragged", "empty entry"]))
    n_rows = n_gens if n_gens <= 3 else 0
    if shape == "row count":
        n_rows = (n_rows + 1) % 4
    elif shape == "ragged":
        n_rows = max(n_rows, 2)
    width = draw(st.integers(1, 2))
    entry = st.one_of(polynomials(variables), st.just("0"))
    rows = [[draw(entry) for _ in range(width + (shape == "ragged" and i % 2))] for i in range(n_rows)]
    if rows and shape == "empty entry":
        rows[-1][draw(st.integers(0, width - 1))] = ""
    module = "[module]\ngenerators = %d\n" % n_gens
    if rows:
        module += "presentation = %s\n" % " ; ".join(", ".join(r) for r in rows)
    argv = [command, "--module", module]
    if command in ("trace", "cotrace", "ext1", "tor1"):
        argv += ["--ideal=" + ", ".join(draw(st.lists(polynomials(variables), max_size=2)))]
    if command == "excellent":
        argv += ["--cap-enum", "300"]
    return ring, argv


def _check_contract(tmp_path, ring, argv, seconds):
    """Run one case: exit 0, 1 or 2 within `seconds`; on 2, stderr is one
    JSON error and nothing else.  A ring of None runs without --ring.  The
    value after --module is the text of the module file, written out first.
    Output in --format text is one "key = value" line per field."""
    if ring is not None:
        (tmp_path / "case.ring").write_text(ring, encoding="utf-8")
        argv = argv + ["--ring", str(tmp_path / "case.ring")]
    if "--module" in argv:
        at = argv.index("--module") + 1
        (tmp_path / "case.module").write_text(argv[at], encoding="utf-8")
        argv[at] = str(tmp_path / "case.module")
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, (ring, argv, elapsed)
    assert code in (0, 1, 2), (ring, argv, err.getvalue())
    if code == 2:
        error = json.loads(err.getvalue())
        assert set(error) == {"error", "message"} and out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
    elif "text" in argv:
        assert all(" = " in line for line in out.getvalue().splitlines())
    else:
        json.loads(out.getvalue())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cli_cases())
def test_cli_keeps_its_exit_code_contract(tmp_path_factory, case):
    # A leading minus in `--ideal -x` is read as a flag: a usage error, exit 2.
    ring, argv = case
    _check_contract(tmp_path_factory.mktemp("fuzz"), ring, argv, seconds=30)


@pytest.mark.parametrize("command", ["trace", "cotrace", "ext1", "tor1", "dual", "excellent"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_keeps_its_exit_code_contract_on_module_files(tmp_path_factory, command, data):
    ring, argv = data.draw(module_cases(command))
    _check_contract(tmp_path_factory.mktemp("fuzz"), ring, argv, seconds=10)


# Values for the numeric flags: zero, negatives, beyond 2^64, and malformed.
FLAG_VALUES = ["0", "-1", "3", str(2 ** 64 + 1), "-" + str(2 ** 64 + 1), "", "x"]


@st.composite
def number_lists(draw):
    """A comma list that may be empty or hold stray commas, e.g. "3,4,,-1"."""
    items = draw(st.sampled_from([[], ["3", "4"], ["4", "5", "6"]]))
    items += draw(st.lists(st.sampled_from(FLAG_VALUES[:5] + [""]), max_size=2))
    return ",".join(items)


@st.composite
def flag_cases(draw):
    """(ring file text or None, argv) for the flags beyond --ideal: --cap-dim,
    --cap-enum, --seed and --format, and the semigroup commands' lists."""
    command = draw(st.sampled_from(
        ["algebra-info", "excellent", "qf", "verify", "semigroup-report", "semigroup-good"]))
    value = st.sampled_from(FLAG_VALUES)
    ring, argv = None, [command, "--format", draw(st.sampled_from(["json", "json", "text", "text", "xml", ""]))]
    if command == "semigroup-report":
        argv += ["--gens=" + draw(number_lists())]
        argv += ["--max-power=" + draw(value)] if draw(st.booleans()) else []
    elif command == "semigroup-good":
        argv += ["--gens=" + draw(number_lists()), "--ideal=" + draw(number_lists())]
    elif command == "verify":
        argv += ["--suite", "2", "--seed=" + draw(value)]
    else:
        field, variables, relations = draw(st.sampled_from(FUZZ_RINGS))
        ring = "[algebra]\nfield = %s\nvariables = %s\nrelations = %s\n" % (
            field, ", ".join(variables), ", ".join(relations))
        flags = ["--cap-dim"] + (["--cap-enum", "--seed"] if command != "algebra-info" else [])
        argv += [flag + "=" + draw(value) for flag in draw(st.lists(st.sampled_from(flags), unique=True))]
    return ring, argv


@settings(max_examples=80, deadline=None, derandomize=True)
@given(flag_cases())
def test_cli_keeps_its_exit_code_contract_on_flags(tmp_path_factory, case):
    ring, argv = case
    _check_contract(tmp_path_factory.mktemp("fuzz"), ring, argv, seconds=10)


# -- golden outputs over the command and error matrix ----------------------------

# Files of the golden runs, written into the working directory so that error
# messages name them by relative path.
GOLDEN_FILES = {
    "fat.ring": FAT_RING.encode("utf-8"),
    "dual.ring": DUAL_F2_RING.encode("utf-8"),
    "mod.module": MODULE_FILE.encode("utf-8"),
    "fatmod.ring": (FAT_RING + MODULE_FILE).encode("utf-8"),
    "noalgebra.ring": MODULE_FILE.encode("utf-8"),
    "huge.module": b"[module]\ngenerators = 1000000\n",
    "bad.txt": b"\xff\xfe[algebra]\nfield = Q\n",
    "unparsable.ring": b"[algebra]\nfield = Q\nvariables = x\nrelations = x^\n",
}

# id -> (command line, sha256 of "exit code NUL stdout NUL stderr").  The
# error cases with two faults pin which input is read and checked first:
# ring file, module file, ideal, then the verdict options.
GOLDEN_CASES = {
    "algebra-info": (
        "algebra-info --ring fat.ring",
        "8564e6fc0a9cd167b2fc8eaeb1de5f4a954569df4694d65cf88e11532d499492",
    ),
    "algebra-info-f2": (
        "algebra-info --ring dual.ring --cap-dim 2",
        "ee5583a238200f6a9ddafc803e0ee8dd7e8051f5957f1ef7926cce059e04686b",
    ),
    "trace": (
        "trace --ring fat.ring --ideal x",
        "36e0f63847fdfc2d322afe74753650b79d9fb01d9fcff388ef9f934299d7ae48",
    ),
    "trace-module-file": (
        "trace --ring fat.ring --module mod.module --ideal 'x, y'",
        "1266f94635b5ef41530039413d2c1a69bd5c1625926038a3c02055151c57f2d2",
    ),
    "trace-ring-module": (
        "trace --ring fatmod.ring --ideal x",
        "3c446244a3470fb1d02f1718072a4a898a57d40d2a3b900758f9e72e7670cdfd",
    ),
    "cotrace": (
        "cotrace --ring fat.ring --ideal x",
        "fcf7f5467fac8c6959cb936a8c3a3f6cd281dea85d7032ba398dba4ec69d8808",
    ),
    "cotrace-module-file": (
        "cotrace --ring fat.ring --module mod.module --ideal y",
        "2b863d2b14dbc7163610825fa17cc1399a8ad3134698d282111f25f6a6f0a3ad",
    ),
    "ext1": (
        "ext1 --ring fat.ring --ideal x",
        "9e4296ed7ca10f215093411ae8b6d32cda97f1f20b5a195b487fb8b893599b7f",
    ),
    "ext1-no-ideal": (
        "ext1 --ring fat.ring",
        "884d622c252f438067210a42d97cfeea85c0fbdf58b666b7de093c614859b290",
    ),
    "tor1": (
        "tor1 --ring fat.ring --module mod.module --ideal x",
        "6e9880b3d88322a7fd9dcdd67ecf3bc2658e1ff0c2c9b8e44086ba76cac803d9",
    ),
    "dual": (
        "dual --ring fat.ring",
        "af5c630876edad8cd13d6c625d3e9569f3e2bbdfc890608c4b381351e8500ec9",
    ),
    "dual-ring-module": (
        "dual --ring fatmod.ring",
        "65f8dc0b9eacda58ca9639cbf7fb54b3d362917b88eb2f83c62d7678849e8f6e",
    ),
    "excellent": (
        "excellent --ring dual.ring",
        "65575c0c70705175488f6fbc6e549047a06a29bcaa74e3317cc92046c9270a92",
    ),
    "excellent-q": (
        "excellent --ring fat.ring --module mod.module --seed 5 --cap-enum 9",
        "46ed3e8fbecb36c4c66be3e16b761803b89570da8a242f9f0bad5915377d1681",
    ),
    "good": (
        "good --ring fat.ring --ideal x",
        "1de01dbc33e5f356a963c2a9bfce47ece740d4e04443307943568c59f959a3db",
    ),
    "good-empty-ideal": (
        "good --ring fat.ring --ideal ' , '",
        "e3be713098ff4b687b690397ca7d88378e67322f071bfbd8aff95d0909108673",
    ),
    "qf": (
        "qf --ring dual.ring --cap-enum 4",
        "34cd1822880372799c8cd20cb4a2c1cd6b39031ce42c6898644bc906afd3ae34",
    ),
    "qf-q": (
        "qf --ring fat.ring --seed 5",
        "2dd3ae641c57b5cff16810e48642b84d33c89970551d4e048a86ad054b1f9053",
    ),
    "semigroup-report": (
        "semigroup-report --gens 3,4 --max-power 6",
        "ba9dfbbefc775b67eb59b392e5680138f7aeabc27275030b19068bf65af99cb2",
    ),
    "semigroup-report-default": (
        "semigroup-report --gens 3,5,7",
        "340645f687b8276fce9c0ae87c00edafbcb2e98e1df1a96bdba623acc1945a05",
    ),
    "semigroup-good": (
        "semigroup-good --gens 3,4 --ideal=-3,5",
        "1e3d742df7b94ac3dc4cbd06beb6defdb6e16b7ff429fb3d6d4aa0d182e578f8",
    ),
    "verify": (
        "verify --suite 2 --seed 7",
        "6efa9c03217d8b615dab012e4775f8f5b8bd8bdd3fda19276e7f4494d08e2614",
    ),
    "text-algebra-info": (
        "algebra-info --ring fat.ring --format text",
        "cea684ab418513900ec0659de85908ada700c14da3ada080d3b89e6da901c755",
    ),
    "text-trace": (
        "trace --format text --ring fat.ring --ideal x",
        "3fdb4ccc25c90449cd3936172b20034d0dedb7c791ed3a5a35cde3c892279cee",
    ),
    "text-qf": (
        "qf --ring dual.ring --format text",
        "0745844b0692fc1f33b60f7731e471ed504709c7a177c00503e5d1d724414238",
    ),
    "text-semigroup-good": (
        "semigroup-good --format text --gens 3,4 --ideal 3,4",
        "344cea8ec8b1e94153953fa29a175bd20d62939b218580f17f451867a0caa8ac",
    ),
    "no-arguments": (
        "",
        "1d3604bfc1d5f522be795d7a5bb52f184a5a6b81d4c0995f0fff55aa2313ecfc",
    ),
    "missing-ring": (
        "trace --ideal x",
        "d20e5666a589fd627a5e7865fe666572500cfe25bee36599fb7f8f6651da2f39",
    ),
    "missing-semigroup-flags": (
        "semigroup-good",
        "566b3f72227da6116c1eaf96acfabd39df75d5d0996257345d94f10f250e172a",
    ),
    "unknown-command": (
        "frobnicate --ring fat.ring",
        "4fd7567dc2abd14475de1780c3c17ebf9e126b61dd308c5fd83b59a79be40d6c",
    ),
    "version": (
        "--version",
        "8898edaffb2c2abed5d355e9707b0611fd03c2dae7b2a5883e1014ae2d6799b2",
    ),
    "qf-ideal": (
        "qf --ring fat.ring --ideal x",
        "2a9791d6ba93ed11d7408318669560486723e8fc2fe1c0ae05066f30d241ef03",
    ),
    "bad-format": (
        "dual --ring fat.ring --format xml",
        "48973ef6f436a98db005401acb0ead21bd67dafd5f4fce5ec5801c4c4cbd8fb7",
    ),
    "bad-suite": (
        "verify --suite 4",
        "5a0df563a482a0bb7f90e2d5db6c60ad101bc4915642978bc6d609f98d27fb7a",
    ),
    "non-utf8-ring": (
        "trace --ring bad.txt --ideal x",
        "3d44d61f3befce22e55676aeb36e026e802817207d486148fb0c70b8c0c6ab6a",
    ),
    "non-utf8-module": (
        "trace --ring fat.ring --module bad.txt --ideal x",
        "3d44d61f3befce22e55676aeb36e026e802817207d486148fb0c70b8c0c6ab6a",
    ),
    "missing-ring-file": (
        "algebra-info --ring nope.ring --cap-dim -1",
        "b3a84f376ed6f34f65f02f699f208002db1ae98655cc86380a99322cf7e52932",
    ),
    "missing-module-file": (
        "excellent --ring fat.ring --module nope.module --cap-enum -1",
        "34fa36bf4d51f445315c015f2120f248ef9b80e8c732e9a4b0905132c3c7d2a6",
    ),
    "no-algebra-section": (
        "qf --ring noalgebra.ring --cap-enum -1",
        "04d1ebe3a43b8e0b7e43507218e64653929f9526e1ec26d7e0d430b0d66f0f5c",
    ),
    "no-module-section": (
        "tor1 --ring fat.ring --module fat.ring --ideal z",
        "15aae1c2dd453c8fd6a06fa20bffc9a255b1f66797d31222338dbf857a7c3fae",
    ),
    "cap-dim-before-relations": (
        "algebra-info --ring unparsable.ring --cap-dim -1",
        "078632423562ffa028898af3c8dd6f5cc6b986b7f354ff55804aeafd9db4bb51",
    ),
    "unparsable-module": (
        "trace --ring dual.ring --module mod.module --ideal z",
        "56e9fa90af69ce4840e46085e040efb8c312a6271d95fdda225c3a4d8cb33386",
    ),
    "module-before-ideal": (
        "cotrace --ring fat.ring --module huge.module --ideal z",
        "3dbf7fbd99dccff3872565e6d80864f0c565f750f0ff17bcc88f983364daca01",
    ),
    "unknown-ideal-variable": (
        "trace --ring fat.ring --ideal z",
        "7bc0133ab8d763d1d2070d75c91e200b61febe2fed016b8e9014f780609aacdd",
    ),
    "negative-cap-dim": (
        "algebra-info --ring fat.ring --cap-dim -1",
        "078632423562ffa028898af3c8dd6f5cc6b986b7f354ff55804aeafd9db4bb51",
    ),
    "zero-cap-dim": (
        "ext1 --ring dual.ring --ideal x --cap-dim 0",
        "21ee0edc27063e4adea60a143ed7fe43b5f7f8b6bdb9bcfc95ee79fbe97d29a9",
    ),
    "negative-cap-enum": (
        "excellent --ring dual.ring --cap-enum -1",
        "2941057cf4ab15f4243a1ffb7a684864c4c91f870707e2722691793d979122ee",
    ),
    "negative-cap-enum-q": (
        "qf --ring fat.ring --cap-enum -1",
        "2941057cf4ab15f4243a1ffb7a684864c4c91f870707e2722691793d979122ee",
    ),
    "zero-cap-enum": (
        "qf --ring dual.ring --cap-enum 0",
        "b07229aff967a50b3efe2888551ef93dca9f9388b67ee408c08233fbbc4adfb6",
    ),
    "bad-gens": (
        "semigroup-report --gens 3,x",
        "45f31028d75f695b898fb136af3475e01cdb84c2aea8e48f7aaf03267bd629a5",
    ),
    "bad-values": (
        "semigroup-good --gens 3,4 --ideal 1,,y",
        "d90933c5c396191b366af61b9973bdce9a5f09cfff788edd6bc22ebde6429c11",
    ),
    "gens-with-gcd": (
        "semigroup-good --gens 4,6 --ideal 0",
        "e5b293c92ea343681a14ca6bec5113c986e769dab9770f73429be368ff8d6ee9",
    ),
    "small-window": (
        "semigroup-report --gens 3,4 --max-power 2",
        "b9a71de9f0e32b902672a6188db4cdaa7fbd1f72fff0cc54cc68b88b3804b22d",
    ),
}


def _golden_outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return "%s\x00%s\x00%s" % (code, captured.out, captured.err)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_cli_outputs_are_pinned(capsys, monkeypatch, tmp_path, case):
    # Exit code, stdout and stderr of every command and error path, byte for byte.
    for name, data in GOLDEN_FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    line, digest = GOLDEN_CASES[case]
    outcome = _golden_outcome(capsys, shlex.split(line))
    assert hashlib.sha256(outcome.encode("utf-8")).hexdigest() == digest, outcome
