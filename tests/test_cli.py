"""Command line: report shape, canonical JSON, exit codes."""

import json
import time

import pytest

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


def test_reports_are_byte_stable(capsys, fat_ring):
    _, out1, _ = run_cli(capsys, "trace", "--ring", fat_ring, "--ideal", "x")
    _, out2, _ = run_cli(capsys, "trace", "--ring", fat_ring, "--ideal", "x")
    assert out1 == out2


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "algebra-info", "--ring", str(tmp_path / "nope.ring"))
    assert code == 2
    assert not out
    assert "error" in json.loads(err)


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


@pytest.mark.parametrize("key", ["degree_cap", "dim_cap"])
def test_non_integer_cap_in_ring_file_exits_2(capsys, tmp_path, key):
    bad = tmp_path / "bad.ring"
    bad.write_text(FAT_RING + "%s = abc\n" % key)
    code, out, err = run_cli(capsys, "algebra-info", "--ring", str(bad))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


def test_semigroup_report_small_window_exits_2(capsys):
    code, out, err = run_cli(capsys, "semigroup-report", "--gens", "3,4", "--max-power", "2")
    assert (code, out) == (2, "")
    assert "nu + 3" in json.loads(err)["message"]


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


def test_unknown_flag_is_an_error(capsys, fat_ring):
    with pytest.raises(SystemExit) as exc:
        main(["algebra-info", "--ring", fat_ring, "--frobnicate"])
    assert exc.value.code == 2


def test_text_format(capsys, dual_ring):
    code, out, _ = run_cli(capsys, "qf", "--ring", dual_ring, "--format", "text")
    assert code == 0
    assert "result.quasi_frobenius.value = True" in out


def test_verify_small_suite(capsys):
    report = run_json(capsys, "verify", "--suite", "2", "--seed", "7")
    assert report["result"]["passed"] is True
    assert report["result"]["suites"][0]["suite"] == "section2"
