import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from slicecalc.cli import main
from slicecalc.named import BUILTINS

RUN = [sys.executable, "-m", "slicecalc"]
GOLDEN_SMALL = Path(__file__).parent / "data" / "verify_seed7_small.json"
VERIFY_SEED7_SHA256 = "341e4a48488bbcd5d3f58159914174da17aae6e3832e2273f07d1e9424edfdca"
# sha256 of the --json output of `classify` and `decompose --order 3` on each
# builtin at the default seed; None where the command exits 2 and writes nothing
BUILTIN_OUTPUT_SHA256 = {
    ("classify", "x"): "af204a36b152188f4dd91238bfafdbbd1a80e6e1453ed31dea9308c68cc0ad21",
    ("classify", "xbar"): "39727ffaaef0441ea793584cbaec66a8bf90e504324fa9eeea4183715c73ddf2",
    ("classify", "v"): "b4816f22659dec8371dbc19b467f74eaf20a7774e250b12b07bdc1a35df5de8a",
    ("classify", "v_r"): "f974eb986a52470809488660d17f3780e7a13fd5a2a6f51b75175d72924bdae3",
    ("classify", "v_m"): "c93e779dcc5001dbc435a248ad77913cab1eb7e7caa18d962c73962d21073feb",
    ("classify", "bump"): "57f4e1ebfd33d5aefc63f8d579a7a9941681ea1334ea82d60972953838f5c5a4",
    ("decompose", "x"): "4f1709d6a96d1e2c17523a4b80ed2a1ed393cfa493020793e28312b2fd347cab",
    ("decompose", "xbar"): "1b58d2724c8e881bea54b021283c78ca8ee4c500c6b06898eb652ca9758fe1d3",
    ("decompose", "v"): None,
    ("decompose", "v_r"): None,
    ("decompose", "v_m"): None,
    ("decompose", "bump"): None,
}


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
    code, out, err = run_cli(["verify", "--select", "no-such-check"], capsys)
    assert code == 2
    assert "unknown check ids" in err
    assert out == ""
    # a valid id next to an unknown one does not run either
    code, out, err = run_cli(["verify", "--select", "leibniz,no-such-check"], capsys)
    assert code == 2
    assert "unknown check ids ['no-such-check']" in err
    assert out == ""


def test_verify_runs_and_echoes_a_repeated_selection_once(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--units", "2", "--points", "1", "--select", "leibniz,leibniz",
         "--json", str(report_path)],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["[PASS] leibniz"]
    report = json.loads(report_path.read_text())
    assert report["config"]["select"] == ["leibniz"]
    assert [c["id"] for c in report["checks"]] == ["leibniz"]


def test_verify_decomposition_reads_only_the_orders_it_draws(tmp_path, capsys):
    # the check draws orders 1..min(max_order, trials), so a huge --max-order
    # builds no more xbar powers than --max-order 12 and reports the same trials
    details = []
    for max_order in ("12", "1000000000"):
        report_path = tmp_path / f"report_{max_order}.json"
        code, _, _ = run_cli(
            ["verify", "--units", "2", "--points", "40", "--max-order", max_order,
             "--select", "decomposition-roundtrip", "--json", str(report_path)],
            capsys,
        )
        assert code == 0
        details.append(json.loads(report_path.read_text())["checks"][0]["detail"])
    assert details[0] == details[1]
    assert details[0]["quaternion"] == {"trials": 4, "failures": 0}


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


def test_classify_names_the_builtins_for_an_unknown_input(capsys):
    code, out, err = run_cli(["classify", "--input", "no-such-name"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: 'no-such-name' is neither a builtin (x, xbar, v, v_r, v_m, bump) "
        "nor an existing file\n"
    )


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


@pytest.mark.parametrize(
    "command, name", [(c, n) for c in ("classify", "decompose") for n in BUILTINS]
)
def test_builtin_outputs_match_their_digests(tmp_path, capsys, monkeypatch, command, name):
    # a builtin missing from the table fails here, so every builtin stays pinned
    expected = BUILTIN_OUTPUT_SHA256[command, name]
    monkeypatch.delenv("SLICECALC_SEED", raising=False)
    out = tmp_path / "report.json"
    order = ["--order", "3"] if command == "decompose" else []
    code, stdout, err = run_cli([command, "--input", name, *order, "--json", str(out)], capsys)
    if expected is None:
        assert code == 2 and "stem-represented" in err
        assert stdout == "" and not out.exists()
    else:
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


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


def test_verify_units_sizes_the_representation_check(tmp_path, capsys, monkeypatch):
    from slicecalc import campaign

    sample_units = campaign.sample_units
    log = tmp_path / "sizes.txt"

    def recorded(sig, seed, count):
        # a file, not a list: a signature may run in a forked process
        with log.open("a") as fh:
            fh.write(f"{count}\n")
        return sample_units(sig, seed, count)

    monkeypatch.setattr(campaign, "sample_units", recorded)
    out = tmp_path / "report.json"
    args = ["verify", "--seed", "0", "--units", "3", "--points", "1", "--select", "representation"]
    code, _, _ = run_cli([*args, "--json", str(out)], capsys)
    assert code == 0
    sizes = [int(line) for line in log.read_text().split()]
    # one pool per signature, of --units units
    assert sizes == [3, 3]


def test_verify_rejects_more_units_than_the_chart_reaches(capsys):
    # the counterexample suite samples --units quaternion units, and the chart reaches 127^2
    code, out, err = run_cli(["verify", "--units", "16130", "--select", "counterexamples"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: unit_samples must be at most 16129, "
        "the quaternion units the sampling chart reaches\n"
    )
    from slicecalc.campaign import CampaignConfig

    assert CampaignConfig(unit_samples=16129).unit_samples == 16129


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
    assert json.loads(out)["samples"] == {"units": 12, "points": 16, "max_order": 4}


def test_classify_caps_the_order_it_tries(capsys):
    # bump's restrictions are rational, so no slice derivative vanishes and the
    # loop would run every order up to --max-order, each step dearer than the last
    reports = []
    for max_order in ("64", "1000000000"):
        code, out, err = run_cli(["classify", "--input", "bump", "--max-order", max_order], capsys)
        assert code == 0, err
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["samples"]["max_order"] == 64


def test_classify_with_one_unit_still_compares_two_slices(tmp_path, capsys):
    # x_2 / (1 + x_1^2 + x_2^2 + x_3^2) has a rational candidate stem, so the
    # sampled probe decides; one unit would give it no pair of slices to compare
    spec = {
        "representation": "rational",
        "numerator_terms": [{"exponents": [0, 0, 1, 0], "coefficient": {"1": "1"}}],
        "denominator_terms": [
            {"exponents": [0, 0, 0, 0], "coefficient": {"1": "1"}},
            {"exponents": [0, 2, 0, 0], "coefficient": {"1": "1"}},
            {"exponents": [0, 0, 2, 0], "coefficient": {"1": "1"}},
            {"exponents": [0, 0, 0, 2], "coefficient": {"1": "1"}},
        ],
    }
    path = tmp_path / "twisted_rational.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(["classify", "--input", str(path), "--units", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["samples"]["units"] == 2
    assert report["evidence"]["candidate_stem"] == "not polynomial"
    assert report["is_slice"] is False
    assert (report["witness"]["H"], report["witness"]["K"]) == ({"i": "1/1"}, {"j": "1/1"})


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


def test_classify_rejects_a_denominator_vanishing_on_a_whole_slice(tmp_path, capsys):
    # x_2^2 + x_3^2 is zero on the i-slice: the same broken contract as a single
    # vanishing point, so the same exit code, with the unit named
    spec = {
        "representation": "rational",
        "numerator_terms": [{"exponents": [0, 0, 0, 0], "coefficient": {"1": "1"}}],
        "denominator_terms": [
            {"exponents": [0, 0, 2, 0], "coefficient": {"1": "1"}},
            {"exponents": [0, 0, 0, 2], "coefficient": {"1": "1"}},
        ],
    }
    path = tmp_path / "slice_vanishing_denominator.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 2
    assert "vanishes identically on the slice of the unit (1, 0, 0)" in err
    assert out == ""


def _rational_spec(denominator_terms):
    return {
        "representation": "rational",
        "numerator_terms": [{"exponents": [0, 0, 0, 0], "coefficient": {"1": "1"}}],
        "denominator_terms": denominator_terms,
    }


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
        (_rational_spec([]), "zero denominator factor"),
        (_rational_spec([{"exponents": [0, 2, 0, 0], "coefficient": {"i": "1"}}]),
         "must be real-scalar"),
    ],
    ids=["exponent-65", "terms-1025", "m-9", "m-3.7", "m-string", "m-true", "m-missing"]
    + ["pair-null", "pair-float", "pair-true", "pair-zero-den"]
    + ["str-exponent", "str-decimal", "str-space", "str-underscore"]
    + ["blade-e21", "blade-arabic-indic-digit", "blade-underscore"]
    + ["denominator-zero", "denominator-not-real"],
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


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--units", "2", "--points", "1", "--select", "leibniz"],
        ["decompose", "--input", "xbar", "--order", "2"],
        ["classify", "--input", "v"],
    ],
    ids=["verify", "decompose", "classify"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_json_path_is_a_usage_error(tmp_path, capsys, args, where):
    target = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    code, _, err = run_cli([*args, "--json", str(target)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {target}")
    assert len(err.splitlines()) == 1
