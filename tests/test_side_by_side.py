"""A verify run's signatures run side by side in forked processes.

With one usable CPU every check runs both signatures in this process; with
two, every quaternion side runs here and every Cl(0,3) side in one forked
child.  The report bytes, an error's exit code and stderr line, and the
process table afterwards must not tell the two paths apart.
"""

import contextlib
import hashlib
import os
import pickle
import signal
import time

import pytest

from slicecalc import campaign
from slicecalc.algebra import QUATERNION, AlgebraElement, clifford, sample_units
from slicecalc.cli import main
from slicecalc.errors import (
    DenominatorVanishesError,
    NotPolyanalyticOfOrderError,
    ParityViolationError,
    SliceCalcError,
)
from slicecalc.named import BUILTINS
from slicecalc.slicefn import CircularDomain, SliceFunction
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


def annulus_zbar():
    return SliceFunction(CircularDomain.annulus("1/2", "1/4", 2), StemFunction.zbar(clifford(3)))


# kernel values a check body may return or raise with, so a forked side pickles them
VALUES = {
    "element": lambda: AlgebraElement.one(QUATERNION),
    "unit": lambda: sample_units(QUATERNION, 0, 4)[3],
    "bump": lambda: BUILTINS["bump"](),  # a point function with a real-axis value
    "slice-function": annulus_zbar,
    "point-function": lambda: annulus_zbar().to_point_function(),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_kernel_values_survive_a_pickle_round_trip(name):
    value = VALUES[name]()
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value
    for slot in ("domain", "real_value"):
        assert getattr(back, slot, None) == getattr(value, slot, None)


def test_a_forked_side_sends_back_an_algebra_element(monkeypatch):
    with usable_cpus(monkeypatch, {0, 1}), deadline(60):
        assert campaign._can_fork()
        sides = campaign._side_by_side(lambda: 1, lambda: AlgebraElement.one(QUATERNION), "x")
    assert sides == (1, AlgebraElement.one(QUATERNION))
    assert_no_child_left()


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


def count_forks(monkeypatch):
    """The pids of the children ``os.fork`` starts in this process from now on."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("cpus, expected", [({0}, 0), ({0, 1}, 1)], ids=["one-cpu", "two-cpus"])
def test_a_full_verify_forks_once_with_two_cpus_and_never_with_one(
    cpus, expected, capsys, monkeypatch
):
    forks = count_forks(monkeypatch)
    code, _, _ = run(["verify", "--seed", "7", *SMALL], capsys, monkeypatch, cpus)
    assert code == 0
    assert len(forks) == expected
    assert_no_child_left()


def test_a_quaternion_error_kills_the_running_child_and_reads_the_same(capsys, monkeypatch):
    def planted(sig, seed, **sizes):
        if sig.kind == "quaternion":
            raise ParityViolationError("F1", (1, 2))
        time.sleep(600)  # still running when this process raises
        return 1, 0, None

    monkeypatch.setattr(campaign, "taylor_independence_trials", planted)
    statuses = []
    waitpid = os.waitpid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    argv = ["verify", "--select", "taylor-independence", *SMALL]
    one = run(argv, capsys, monkeypatch, {0})
    with monkeypatch.context() as patch:
        patch.setattr(os, "waitpid", recorded)
        two = run(argv, capsys, monkeypatch, {0, 1})
    assert one == two
    assert two == (1, "", "error: F1 monomial alpha^1*beta^2 has odd beta-exponent\n")
    # the child was killed while it slept, and reaped
    assert [os.WTERMSIG(status) for status in statuses] == [signal.SIGKILL]
    assert_no_child_left()


def test_a_quaternion_error_of_a_later_check_wins_over_an_earlier_clifford_one(
    capsys, monkeypatch
):
    # every quaternion side runs before any Cl(0,3) side, on both paths
    def fails_on(kind, exc):
        def planted(sig, seed, **sizes):
            if sig.kind == kind:
                raise exc
            return 1, 0, None

        return planted

    later = NotPolyanalyticOfOrderError(3)
    monkeypatch.setattr(
        campaign,
        "decomposition_roundtrip_trials",
        fails_on("clifford", ParityViolationError("F1", (1, 2))),
    )
    monkeypatch.setattr(campaign, "taylor_independence_trials", fails_on("quaternion", later))
    argv = ["verify", "--select", "decomposition-roundtrip,taylor-independence", *SMALL]
    one = run(argv, capsys, monkeypatch, {0})
    two = run(argv, capsys, monkeypatch, {0, 1})
    assert one == two == (1, "", f"error: {later}\n")
    assert_no_child_left()
