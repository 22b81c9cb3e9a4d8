"""A verify check's signatures run side by side in forked processes.

With one usable CPU every signature runs in this process; with two, each
after the first runs in a forked child.  The report bytes, an error's exit
code and stderr line, and the process table afterwards must not tell the two
paths apart.
"""

import contextlib
import hashlib
import os
import pickle
import signal

import pytest

from slicecalc import campaign
from slicecalc.algebra import clifford
from slicecalc.cli import main
from slicecalc.errors import (
    DenominatorVanishesError,
    NotPolyanalyticOfOrderError,
    ParityViolationError,
    SliceCalcError,
)
from slicecalc.stem import StemFunction

# sha256 of `slicecalc verify --seed 7` stdout: the PASS lines and the report
VERIFY_SEED7_STDOUT_SHA256 = "1f0c629a13ccbc62f312429eb385a32e282fa37e9870375a72fbaa5c98a88c05"
SMALL = ["--units", "2", "--points", "1", "--max-order", "2"]


@contextlib.contextmanager
def usable_cpus(monkeypatch, cpus):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        yield


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body after ``seconds``, so a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run(argv, capsys, monkeypatch, cpus):
    with usable_cpus(monkeypatch, cpus), deadline(120):
        if len(cpus) > 1:
            # the forked path is taken only in a single-threaded process
            assert campaign._can_fork()
        code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "exc",
    [
        ParityViolationError("F1", (1, 2)),
        DenominatorVanishesError([1, 2]),
        NotPolyanalyticOfOrderError(3),
        NotPolyanalyticOfOrderError(2, StemFunction.zbar(clifford(3))),
    ],
    ids=["parity", "denominator", "order", "order-with-residual"],
)
def test_errors_survive_a_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_report_bytes_do_not_depend_on_the_usable_cpus(capsys, monkeypatch):
    one = run(["verify", "--seed", "7"], capsys, monkeypatch, {0})
    two = run(["verify", "--seed", "7"], capsys, monkeypatch, {0, 1})
    assert one == two
    code, out, err = two
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED7_STDOUT_SHA256


def test_an_error_on_the_clifford_side_reads_the_same_on_both_paths(capsys, monkeypatch):
    def planted(sig, seed, **sizes):
        if sig.kind != "quaternion":
            raise ParityViolationError("F1", (1, 2))
        return 1, 0, None

    monkeypatch.setattr(campaign, "taylor_independence_trials", planted)
    argv = ["verify", "--select", "taylor-independence", *SMALL]
    one = run(argv, capsys, monkeypatch, {0})
    two = run(argv, capsys, monkeypatch, {0, 1})
    assert one == two
    assert two == (1, "", "error: F1 monomial alpha^1*beta^2 has odd beta-exponent\n")
    assert_no_child_left()


def plant_a_dying_clifford_side(monkeypatch):
    def planted(sig, seed, **sizes):
        if sig.kind != "quaternion":
            os._exit(3)
        return 1, 0, None

    monkeypatch.setattr(campaign, "taylor_independence_trials", planted)


def test_a_child_that_ends_without_a_result_is_named_and_reaped(monkeypatch):
    plant_a_dying_clifford_side(monkeypatch)
    config = campaign.CampaignConfig(
        unit_samples=2, point_samples=1, max_order=2, select=("taylor-independence",)
    )
    with usable_cpus(monkeypatch, {0, 1}), deadline(60):
        with pytest.raises(SliceCalcError, match="clifford_3 run ended with exit status 3"):
            campaign.run_campaign(config)
    assert_no_child_left()


def test_a_child_that_ends_without_a_result_exits_one_with_an_error_line(capsys, monkeypatch):
    plant_a_dying_clifford_side(monkeypatch)
    argv = ["verify", "--select", "taylor-independence", *SMALL]
    assert run(argv, capsys, monkeypatch, {0, 1}) == (
        1,
        "",
        "error: the clifford_3 run ended with exit status 3 before sending its result\n",
    )
    assert_no_child_left()


def test_verify_leaves_no_child_process(capsys, monkeypatch):
    code, _, _ = run(["verify", "--seed", "7", *SMALL], capsys, monkeypatch, {0, 1})
    assert code == 0
    assert_no_child_left()
