import argparse
import hashlib
import importlib.util
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import slicecalc.cli
from slicecalc.algebra import AlgebraElement, clifford
from slicecalc.cli import build_parser, main
from slicecalc.named import BUILTINS
from slicecalc.serialize import digest, element_to_json

RUN = [sys.executable, "-m", "slicecalc"]
README = Path(__file__).parent.parent / "README.md"
GOLDEN_SMALL = Path(__file__).parent / "data" / "verify_seed7_small.json"
VERIFY_SEED7_SHA256 = "341e4a48488bbcd5d3f58159914174da17aae6e3832e2273f07d1e9424edfdca"
# sha256 of the --json output of `classify` and `decompose --order 3` on each
# builtin at the default seed; None where the command exits 2 and writes nothing
BUILTIN_OUTPUT_SHA256 = {
    ("classify", "x"): "dc5d144defbb505aa571cc1263a23d93021a3dbd95ea7ff4f3d344c0024d08f9",
    ("classify", "xbar"): "defd00857509cfcfade10ae5284711f460dd6461dd3366673b55a1b1f25bd424",
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


@pytest.mark.parametrize("value", [",", "", " , "], ids=["comma", "empty", "blank"])
def test_verify_rejects_a_selection_that_names_no_check(capsys, monkeypatch, value):
    # an empty selection is not "every check": it exits 2 before any check runs
    monkeypatch.setattr("slicecalc.cli.run_campaign", lambda config: pytest.fail("a check ran"))
    code, out, err = run_cli(["verify", "--select", value], capsys)
    assert code == 2
    assert err == f"error: --select {value!r} names no check id\n"
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


def subparser(command):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--units", "8", "--points", "16", "--select", "taylor-independence"],
        ["classify", "--input", "bump"],
    ],
    ids=["verify", "classify"],
)
def test_the_environment_sets_no_option(tmp_path, capsys, monkeypatch, args):
    # every option, --seed (default 0) among them, comes from the arguments
    # alone: SLICECALC_<OPTION>=11 exported for each changes no output byte
    names = [f"SLICECALC_{a.dest.upper()}" for a in subparser(args[0])._actions]
    outputs = []
    for value in (None, "11"):
        for name in names:
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        path = tmp_path / f"report_{value}.json"
        code, out, err = run_cli([*args, "--json", str(path)], capsys)
        assert code == 0 and err == ""
        outputs.append((out, path.read_bytes()))
    assert outputs[0] == outputs[1]


def readme_synopsis():
    """The README's `sh` block of `slicecalc` command lines, as command -> text."""
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = next(b for b in blocks if b.startswith("slicecalc ")).splitlines()
    synopsis = {}
    for line in lines:
        if line.startswith("slicecalc "):
            command = line.split()[1]
        synopsis[command] = synopsis.get(command, "") + line + "\n"
    return synopsis


@pytest.mark.parametrize("command", ["verify", "decompose", "classify"])
def test_the_readme_synopsis_lists_each_option(command):
    options = {
        flag
        for action in subparser(command)._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    assert set(re.findall(r"--[a-z-]+", readme_synopsis()[command])) == options
    # options come from the arguments alone, so the README names no variable
    assert "SLICECALC_" not in README.read_text(encoding="utf-8")


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


# inputs of serialize.digest, unicode among them, and their SHA-256 straight from hashlib
DIGEST_INPUTS = [
    {},
    [],
    "",
    {"b": [1, "2/3", None], "a": {"z": True}},
    "\u00e9\u2202 \U0001d53b",
    {"\u00fcnit": ["\u03b8\u0304", -7], "\u00e9": "\u4e2d"},
]


def hashlib_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_digest_takes_the_built_in_sha256(monkeypatch):
    # with hashlib unimportable, the digests are still hashlib's own
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("the interpreter has no built-in SHA-256 module")
    want = [hashlib_digest(obj) for obj in DIGEST_INPUTS]
    monkeypatch.setitem(sys.modules, "hashlib", None)
    assert [digest(obj) for obj in DIGEST_INPUTS] == want


def test_digest_falls_back_to_hashlib_without_the_built_in_sha256(tmp_path, child_env):
    # as on a build that strips _sha2 and _sha256: digest loads hashlib, and
    # its digests and the verify report bytes stay the same
    out = tmp_path / "report.json"
    code = f"""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
if "hashlib" in sys.modules:
    print("preloaded")
    sys.exit()
import contextlib, io, json
from slicecalc import cli
from slicecalc.serialize import digest
inputs = {ascii(DIGEST_INPUTS)}
got = [digest(obj) for obj in inputs]
print("hashlib" in sys.modules)
import hashlib
text = [json.dumps(obj, sort_keys=True, separators=(",", ":")) for obj in inputs]
print(got == [hashlib.sha256(t.encode()).hexdigest()[:16] for t in text])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--seed", "7", "--json", sys.argv[1]]) == 0
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out)],
        capture_output=True,
        text=True,
        env=child_env,
        check=True,
    )
    if proc.stdout == "preloaded\n":
        pytest.skip("the interpreter loads hashlib at startup")
    assert proc.stdout == "True\nTrue\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SEED7_SHA256


@pytest.mark.parametrize(
    "command, name", [(c, n) for c in ("classify", "decompose") for n in BUILTINS]
)
def test_builtin_outputs_match_their_digests(tmp_path, capsys, command, name):
    # a builtin missing from the table fails here, so every builtin stays pinned
    expected = BUILTIN_OUTPUT_SHA256[command, name]
    out = tmp_path / "report.json"
    order = ["--order", "3"] if command == "decompose" else []
    code, stdout, err = run_cli([command, "--input", name, *order, "--json", str(out)], capsys)
    if expected is None:
        assert code == 2 and "stem-represented" in err
        assert stdout == "" and not out.exists()
    else:
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def _ci_term(exponents, blade="1", value="1"):
    return {"exponents": exponents, "coefficient": {blade: value}}


_CI_S = [_ci_term([0, 2, 0, 0]), _ci_term([0, 0, 2, 0]), _ci_term([0, 0, 0, 2])]
_CI_XBAR = [_ci_term([1, 0, 0, 0]), _ci_term([0, 1, 0, 0], "i", "-1"),
            _ci_term([0, 0, 1, 0], "j", "-1"), _ci_term([0, 0, 0, 1], "k", "-1")]
# the two rational specs of the CI's installed-entry-point step, built as it
# builds them, and the sha256 of each one's `classify --units 2 --json` report
CI_RATIONAL_SPECS = {
    "inverse.json": (
        (_CI_XBAR, [_ci_term([2, 0, 0, 0])] + _CI_S),
        "fd32af59e5d14bbf3ad0068ce4d78e8d8978a4886323664c9a6dcff1ba45ffef",
    ),
    "x1x2-over-s-plus-1.json": (
        ([_ci_term([0, 1, 1, 0]), _ci_term([0, 0, 0, 0])], _CI_S + [_ci_term([0, 0, 0, 0])]),
        "a78f3dee0a20b8f12674f4267c2c35a36625b5cc8f7ea24396c45e2360de1a75",
    ),
}


@pytest.mark.parametrize("name", sorted(CI_RATIONAL_SPECS))
def test_the_ci_rational_specs_classify_to_their_digests(tmp_path, capsys, monkeypatch, name):
    # run from the spec's directory, so the report's input is the bare file name
    (numerator, denominator), expected = CI_RATIONAL_SPECS[name]
    spec = {"representation": "rational", "numerator_terms": numerator,
            "denominator_terms": denominator}
    monkeypatch.chdir(tmp_path)
    with open(name, "w") as out:
        json.dump(spec, out)
    args = ["classify", "--input", name, "--units", "2", "--json", "report.json"]
    code, _, err = run_cli(args, capsys)
    assert code == 0, err
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == expected


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
    code, out, _ = run_cli(["classify", "--input", "v", "--units", "50", "--points", "99"], capsys)
    assert code == 0
    assert json.loads(out)["samples"] == {"units": 12, "points": 16, "max_order": 4}


@pytest.mark.parametrize("points", ["8", "16"])
def test_classify_reports_distinct_plane_points(capsys, monkeypatch, points):
    # seed 0 draws a repeat within its first 8 and 16 points; the repeat is drawn again
    seen = []
    classify = slicecalc.cli.classify

    def recorded(g, max_order, units, pts):
        seen.extend(pts)
        return classify(g, max_order, units, pts)

    monkeypatch.setattr(slicecalc.cli, "classify", recorded)
    code, out, _ = run_cli(["classify", "--input", "v", "--points", points], capsys)
    assert code == 0
    assert json.loads(out)["samples"]["points"] == len(set(seen)) == int(points)


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


def test_classify_samples_the_inverse_and_finds_it_slice(tmp_path, capsys):
    # x^-1 = xbar / |x|^2 has a rational candidate stem, so the sampled probe runs
    # over its whole grid; its restrictions are holomorphic, so the order is 1
    numerator = [
        {"exponents": [1, 0, 0, 0], "coefficient": {"1": "1"}},
        {"exponents": [0, 1, 0, 0], "coefficient": {"i": "-1"}},
        {"exponents": [0, 0, 1, 0], "coefficient": {"j": "-1"}},
        {"exponents": [0, 0, 0, 1], "coefficient": {"k": "-1"}},
    ]
    norm = [
        {"exponents": [2 * (h == i) for i in range(4)], "coefficient": {"1": "1"}}
        for h in range(4)
    ]
    spec = {"representation": "rational", "numerator_terms": numerator, "denominator_terms": norm}
    path = tmp_path / "inverse.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert (report["sbs_order"], report["is_slice"], report["global_order"]) == (1, True, None)
    assert report["evidence"]["candidate_stem"] == "not polynomial"
    assert "witness" not in report


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


def test_classify_and_decompose_decide_a_wide_stem_on_the_stem(tmp_path, capsys, monkeypatch):
    # beta^64 over Cl(0,8) is s^32 in 8 coordinates, 15,380,937 terms, but both
    # commands read only its 65 stem levels and never build that form
    monkeypatch.setattr(
        "slicecalc.slicefn.SliceFunction.to_point_function",
        lambda self: pytest.fail("the coordinate form was built"),
    )
    spec = _stem_spec(
        [{"exponents": [0, 64], "coefficient": {"1": "1"}}], {"kind": "clifford", "m": 8}
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["classify", "--input", str(path), "--max-order", "64"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["sbs_order"], report["is_slice"]) == (None, True)
    assert report["evidence"] == {"global_order_exceeds_max": "65"}
    assert report["samples"] == {"units": 0, "points": 0, "max_order": 64}
    code, out, err = run_cli(["decompose", "--input", str(path), "--order", "65"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["component_count"], report["recomposition_verified"]) == (65, True)


def _cl8_term(exponents, coefficient=None):
    return {"exponents": [*exponents, 0, 0, 0, 0, 0, 0, 0, 0, 0][:9], "coefficient": coefficient}


def _wide_point_spec(name):
    """A Cl(0,8) point function whose candidate stem on e_1 expands to millions of terms."""
    one = {"1": "1"}
    blades = {}
    for mask in range(clifford(8).dim):
        blades.update(element_to_json(AlgebraElement.basis(clifford(8), mask)))
    # x_1^64: beta^64 on e_1, whose coordinate form s^32 has C(39, 7) = 15,380,937 terms
    numerator = [_cl8_term([0, 64], one)]
    if name == "1024-terms":
        numerator = [_cl8_term([2 * a, 2 * b], blades) for a in range(32) for b in range(32)]
    spec = {"representation": "rational", "signature": {"kind": "clifford", "m": 8}}
    spec["numerator_terms"] = numerator
    if name != "x1^64":
        # x_2^2 + 1 restricts to 1 on e_1, so the candidate stem is still a polynomial
        spec["denominator_terms"] = [_cl8_term([0, 0, 2], one), _cl8_term([], one)]
    return spec


@pytest.mark.parametrize("name", ["x1^64", "x1^64/(x2^2+1)", "1024-terms"])
def test_classify_refutes_a_wide_candidate_stem_without_expanding_it(
    name, tmp_path, capsys, monkeypatch
):
    # the exact slice-ness test (a rotation of x_1..x_8 that does not fix the
    # input) decides that the candidate stem does not reproduce the input
    monkeypatch.setattr(
        "slicecalc.slicefn.SliceFunction.to_point_function",
        lambda self: pytest.fail("the coordinate form was built"),
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_wide_point_spec(name)))
    code, out, err = run_cli(["classify", "--input", str(path)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["is_slice"] is False
    assert report["evidence"]["stem_reproduces_input"] == "False"


def test_decompose_below_the_order_of_a_dense_stem_fits_in_256_mb(tmp_path, child_env):
    # 64 seeded terms of total degree at most 64 over Cl(0,8), two of them of
    # degree 64, every coefficient on all 256 blades: the order is read off
    # one pass and only the residual dbar^64 is derived, one level at a time
    rng = random.Random(64)
    blades = [
        next(iter(element_to_json(AlgebraElement.basis(clifford(8), mask))))
        for mask in range(clifford(8).dim)
    ]
    terms = ([], [])
    for a, b in rng.sample([(a, b) for a in range(65) for b in range(65 - a)], 64):
        coefficient = {blade: str(rng.randint(1, 9)) for blade in blades}
        terms[b % 2].append({"exponents": [a, b], "coefficient": coefficient})
    spec = {"representation": "stem", "signature": {"kind": "clifford", "m": 8}}
    spec["f1_terms"], spec["f2_terms"] = terms
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(spec))
    limit = 256 * 2**20
    proc = subprocess.run(
        RUN + ["decompose", "--input", str(path), "--order", "64"],
        capture_output=True,
        text=True,
        env=child_env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"] == "not-polyanalytic-of-order"
    assert report["residual_stem"]["f1_terms"]


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


def _assert_one_stdout_error(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write the report to stdout: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this platform")
@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--input", "xbar"],
        ["decompose", "--input", "x", "--order", "3"],
        ["verify", "--units", "2", "--points", "1", "--select", "leibniz"],
    ],
    ids=["classify", "decompose", "verify"],
)
def test_a_full_stdout_is_one_error_line(child_env, args):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            RUN + args, stdout=full, stderr=subprocess.PIPE, text=True, env=child_env
        )
    _assert_one_stdout_error(proc)


def test_a_closed_stdout_pipe_is_one_error_line(child_env):
    # as `slicecalc decompose ... | head -c 0`: the reader is gone before the write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            RUN + ["decompose", "--input", "x", "--order", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env,
        )
    finally:
        os.close(write_end)
    _assert_one_stdout_error(proc)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this platform")
@pytest.mark.parametrize("args", [["--help"], ["verify", "--help"]], ids=["slicecalc", "verify"])
def test_help_on_a_full_stdout_is_one_error_line(child_env, args):
    # argparse drops a failed help write; the help goes through the report's writer
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            RUN + args, stdout=full, stderr=subprocess.PIPE, text=True, env=child_env
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write the help to stdout: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
