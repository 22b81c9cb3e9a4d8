import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from slicecalc.cli import main

RUN = [sys.executable, "-m", "slicecalc"]
GOLDEN_SMALL = Path(__file__).parent / "data" / "verify_seed7_small.json"
VERIFY_SEED7_SHA256 = "341e4a48488bbcd5d3f58159914174da17aae6e3832e2273f07d1e9424edfdca"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_selected_check(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        [
            "verify",
            "--seed",
            "3",
            "--units",
            "12",
            "--points",
            "24",
            "--select",
            "counterexamples",
            "--json",
            str(report_path),
        ],
        capsys,
    )
    assert code == 0
    assert "[PASS] counterexamples" in out
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    assert [c["id"] for c in report["checks"]] == ["counterexamples"]
    detail = report["checks"][0]["detail"]
    assert detail["not-slice"] is True
    assert detail["left-multiplier-not-slice"] is True
    assert detail["slicewise-continuous-jump"] is True
    assert detail["clifford-analogue"] is True


def test_verify_rejects_unknown_selector(capsys):
    code, _, err = run_cli(["verify", "--select", "no-such-check"], capsys)
    assert code == 2
    assert "unknown check ids" in err


def test_verify_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SLICECALC_SEED", "11")
    p1 = tmp_path / "a.json"
    code, _, _ = run_cli(
        ["verify", "--units", "8", "--points", "16", "--select", "taylor-independence",
         "--json", str(p1)],
        capsys,
    )
    assert code == 0
    monkeypatch.delenv("SLICECALC_SEED")
    p2 = tmp_path / "b.json"
    code, _, _ = run_cli(
        ["verify", "--seed", "11", "--units", "8", "--points", "16",
         "--select", "taylor-independence", "--json", str(p2)],
        capsys,
    )
    assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_decompose_builtin_conjugate(capsys):
    code, out, _ = run_cli(["decompose", "--input", "xbar", "--order", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["recomposition_verified"] is True
    assert report["component_count"] == 2
    assert report["components"][0] == {"f1_terms": [], "f2_terms": []}
    # any admissible order decomposes at the minimal one, without recursing order levels
    code, out, err = run_cli(["decompose", "--input", "xbar", "--order", "1000000000"], capsys)
    assert code == 0 and "Traceback" not in err
    large = json.loads(out)
    assert large["components"] == report["components"]
    assert large["component_count"] == 2 and large["recomposition_verified"] is True


def test_decompose_wrong_order_exits_one(tmp_path, capsys):
    # x-bar^2 needs order 3, so order 2 is a mathematical failure
    spec = {
        "representation": "stem",
        "f1_terms": [
            {"exponents": [2, 0], "coefficient": {"1": "1"}},
            {"exponents": [0, 2], "coefficient": {"1": "-1"}},
        ],
        "f2_terms": [{"exponents": [1, 1], "coefficient": {"1": "-2"}}],
    }
    path = tmp_path / "xbar2.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(["decompose", "--input", str(path), "--order", "2"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "not-polyanalytic-of-order"
    assert report["residual_stem"]["f1_terms"]  # nonzero residual is reported
    code, out, _ = run_cli(["decompose", "--input", str(path), "--order", "3"], capsys)
    assert code == 0
    assert json.loads(out)["recomposition_verified"] is True


def test_decompose_rejects_point_functions(capsys):
    code, _, err = run_cli(["decompose", "--input", "v", "--order", "2"], capsys)
    assert code == 2
    assert "stem-represented" in err


def test_classify_builtins(capsys):
    code, out, _ = run_cli(["classify", "--input", "x"], capsys)
    assert code == 0
    report = json.loads(out)
    assert (report["sbs_order"], report["is_slice"], report["global_order"]) == (1, True, 1)

    code, out, _ = run_cli(["classify", "--input", "v"], capsys)
    assert code == 0
    report = json.loads(out)
    assert (report["sbs_order"], report["is_slice"], report["global_order"]) == (
        2,
        False,
        None,
    )
    assert report["witness"]["H"] == {"i": "1/1"}
    assert report["witness"]["K"] == {"j": "1/1"}

    code, out, _ = run_cli(["classify", "--input", "v_m"], capsys)
    report = json.loads(out)
    assert report["signature"] == {"kind": "clifford", "m": 3}
    assert (report["sbs_order"], report["is_slice"]) == (2, False)


def test_classify_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["classify", "--input", str(bad)], capsys)
    assert code == 2
    assert "cannot parse" in err
    code, _, err = run_cli(["classify", "--input", "missing.json"], capsys)
    assert code == 2


def test_module_entry_point_runs(child_env):
    proc = subprocess.run(
        RUN + ["classify", "--input", "xbar"], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["global_order"] == 2


def test_verify_small_report_matches_golden_bytes(tmp_path, capsys):
    # The golden file was made with the same command before the campaign checks
    # became a table; refactors of the campaign or the kernel must not change a byte.
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["verify", "--seed", "7", "--units", "2", "--points", "1", "--max-order", "2",
         "--json", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_bytes() == GOLDEN_SMALL.read_bytes()


def test_verify_default_report_matches_its_digest(tmp_path, capsys):
    # default sizes; the digest is that of the report before the kernel stored
    # integer numerators, so no kernel refactor may change a byte
    out = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", "--seed", "7", "--json", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SEED7_SHA256


def test_verify_with_one_unit_raises_the_unit_count_to_two(tmp_path, capsys):
    # every check needs two units; --units 1 runs them with two, as README states
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(
        ["verify", "--units", "1", "--points", "1", "--max-order", "1", "--json", str(out)],
        capsys,
    )
    assert code == 0
    assert "Traceback" not in stdout + err
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert all(check["passed"] for check in report["checks"])


@pytest.mark.parametrize("bad", ["a", None, 1.7, True])
def test_classify_rejects_non_integer_exponents(tmp_path, capsys, bad):
    spec = {
        "representation": "stem",
        "f1_terms": [{"exponents": [bad, 0], "coefficient": {"1": "1"}}],
        "f2_terms": [],
    }
    path = tmp_path / "bad_exponent.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 2
    assert "exponents must be integers" in err


@pytest.mark.parametrize(
    "args", [["--units", "0"], ["--points", "0"], ["--max-order", "0"], ["--units", "-3"]]
)
def test_classify_rejects_nonpositive_sample_arguments(capsys, args):
    code, out, err = run_cli(["classify", "--input", "x", *args], capsys)
    assert code == 2
    assert "must be >= 1" in err
    assert out == ""


def test_classify_reports_the_capped_sample_counts(capsys):
    code, out, _ = run_cli(["classify", "--input", "x", "--units", "50", "--points", "99"], capsys)
    assert code == 0
    assert json.loads(out)["samples"] == {"units": 12, "points": 16}


def test_classify_rejects_a_denominator_vanishing_off_the_real_axis(tmp_path, capsys):
    # 1 / x_0 is singular at sampled points off the real axis: the spec breaks the
    # point-function contract, which is a parse error, not a mathematical failure
    spec = {
        "representation": "rational",
        "numerator_terms": [{"exponents": [0, 0, 0, 0], "coefficient": {"1": "1"}}],
        "denominator_terms": [{"exponents": [1, 0, 0, 0], "coefficient": {"1": "1"}}],
    }
    path = tmp_path / "vanishing_denominator.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 2
    assert "denominator vanishes at (0/1, 4/9, 0/1, 0/1)" in err
    assert out == ""


def _stem_spec(f1_terms, signature=None):
    spec = {"representation": "stem", "f1_terms": f1_terms, "f2_terms": []}
    if signature is not None:
        spec["signature"] = signature
    return spec


@pytest.mark.parametrize(
    "spec, message",
    [
        (_stem_spec([{"exponents": [65, 0], "coefficient": {"1": "1"}}]),
         "exponent over the limit 64"),
        (_stem_spec([{"exponents": [0, 0], "coefficient": {"1": "1"}}] * 1025),
         "1025 terms, over the limit 1024"),
        (_stem_spec([], {"kind": "clifford", "m": 9}), "exceeds the limit 8"),
        (_stem_spec([], {"kind": "clifford", "m": 3.7}), "'m' must be an integer"),
        (_stem_spec([], {"kind": "clifford", "m": "3"}), "'m' must be an integer"),
        (_stem_spec([], {"kind": "clifford", "m": True}), "'m' must be an integer"),
        (_stem_spec([], {"kind": "clifford"}), "'m' must be an integer"),
        *[
            (_stem_spec([{"exponents": [0, 0], "coefficient": {"1": bad}}]), "bad rational")
            for bad in ([None, 2], [1.7, 2], [True, 2], [1, 0], "1e5", "1.5", " 1", "1_0")
        ],
        *[
            (_stem_spec([{"exponents": [0, 0], "coefficient": {blade: "1"}}],
                        {"kind": "clifford", "m": 3}), "bad blade")
            for blade in ("e21", "e\u0661", "e1_2")
        ],
    ],
    ids=["exponent-65", "terms-1025", "m-9", "m-3.7", "m-string", "m-true", "m-missing"]
    + ["pair-null", "pair-float", "pair-true", "pair-zero-den"]
    + ["str-exponent", "str-decimal", "str-space", "str-underscore"]
    + ["blade-e21", "blade-arabic-indic-digit", "blade-underscore"],
)
def test_classify_rejects_specs_over_the_input_limits(tmp_path, capsys, spec, message):
    path = tmp_path / "over_limit.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"representation": "stem", "f1_terms": [{"exponents": [0, 0], "coefficient": {"1": '
        + b"1" * 5000
        + b"}}]}",
    ],
    ids=["not-utf8", "nested-too-deep", "5000-digit-integer"],
)
def test_classify_rejects_unparseable_files(tmp_path, capsys, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    code, out, err = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 2
    assert "cannot parse" in err
    assert out == ""
