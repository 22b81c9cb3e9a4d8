"""Command-line front end: verify, decompose, classify.

Reports are JSON with rationals serialized as "p/q" strings, never floats,
and are byte-identical across runs for a fixed seed and configuration.
Exit codes: 0 all checks passed, 1 mathematical failure (with a witness in
the report) or a check run that could not finish, 2 usage or parse error or a
report or help that cannot be written (to a ``--json`` path or to stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .algebra import sample_units
from .campaign import CHECKS, CampaignConfig, run_campaign
from .errors import (
    DenominatorVanishesError,
    FunctionSpecError,
    NotPolyanalyticOfOrderError,
    SliceCalcError,
    ZeroDenominatorError,
)
from .named import BUILTINS
from .polyanalytic import classify, compose, decompose
from .sampling import rand_plane_points, rng_for
from .serialize import (
    domain_to_json,
    frac_to_str,
    function_spec_from_json,
    signature_to_json,
    stem_to_json,
    witness_to_json,
)
from .slicefn import SliceFunction

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_USAGE = 2

# classify probes each sampled (unit, point) pair, so it caps its samples, and on
# a restriction where no slice derivative vanishes each costs more than the last
_MAX_UNITS = 12
_MAX_POINTS = 16
_MAX_ORDER = 64


def _load_input(path_or_name: str):
    """Builtin name first, then a JSON spec file path."""
    if path_or_name in BUILTINS:
        return BUILTINS[path_or_name]()
    path = Path(path_or_name)
    if not path.exists():
        raise FunctionSpecError(
            f"{path_or_name!r} is neither a builtin ({', '.join(BUILTINS)}) "
            "nor an existing file"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integers over 4300 digits
        raise FunctionSpecError(f"cannot parse {path}: {exc}") from exc
    return function_spec_from_json(payload)


def _write_stdout(text: str, what: str = "the report") -> None:
    """Write and flush ``text``; a stdout that takes no more output is a usage error.

    stdout's descriptor then points at ``os.devnull``, so the interpreter's
    final flush of what is still buffered succeeds and prints nothing.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise FunctionSpecError(f"cannot write {what} to stdout: {exc}") from exc


def _emit(report: dict, json_path: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if json_path:
        try:
            Path(json_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise FunctionSpecError(f"cannot write {json_path}: {exc}") from exc
    else:
        _write_stdout(text)


def cmd_verify(args) -> int:
    select = ()
    if args.select is not None:
        select = tuple(s.strip() for s in args.select.split(",") if s.strip())
        if not select:
            raise FunctionSpecError(f"--select {args.select!r} names no check id")
    try:
        config = CampaignConfig(
            seed=args.seed,
            unit_samples=args.units,
            point_samples=args.points,
            max_order=args.max_order,
            select=select,
        )
    except ValueError as exc:
        raise FunctionSpecError(str(exc)) from exc
    report = run_campaign(config)
    _write_stdout(
        "".join(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['id']}\n" for c in report["checks"])
    )
    _emit(report, args.json)
    return EXIT_OK if report["all_passed"] else EXIT_MATH_FAILURE


def cmd_decompose(args) -> int:
    f = _load_input(args.input)
    if not isinstance(f, SliceFunction):
        raise FunctionSpecError("decompose needs a stem-represented (slice) function")
    if args.order < 1:
        raise FunctionSpecError("--order must be >= 1")
    try:
        components = decompose(f.stem, args.order)
    except NotPolyanalyticOfOrderError as exc:
        report = {
            "input": args.input,
            "order": args.order,
            "error": "not-polyanalytic-of-order",
            "residual_stem": stem_to_json(exc.residual),
        }
        _emit(report, args.json)
        return EXIT_MATH_FAILURE
    report = {
        "input": args.input,
        "order": args.order,
        "signature": signature_to_json(f.stem.signature),
        "domain": domain_to_json(f.domain),
        "components": [stem_to_json(c) for c in components],
        "component_count": len(components),
        "recomposition_verified": compose(components) == f.stem,
    }
    _emit(report, args.json)
    return EXIT_OK


def cmd_classify(args) -> int:
    sizes = {"--units": args.units, "--points": args.points, "--max-order": args.max_order}
    for flag, value in sizes.items():
        if value < 1:
            raise FunctionSpecError(f"{flag} must be >= 1")
    g = _load_input(args.input)
    # a slice function is decided on its stem, so only a point function is sampled
    units, points = [], []
    if not isinstance(g, SliceFunction):
        # is_slice compares pairs of units, so at least two are sampled
        units = sample_units(g.signature, args.seed, max(2, min(args.units, _MAX_UNITS)))
        rng = rng_for(args.seed, "classify-points")
        points = rand_plane_points(rng, min(args.points, _MAX_POINTS), g.domain)
    max_order = min(args.max_order, _MAX_ORDER)
    try:
        report_obj = classify(g, max_order, units, points)
    except DenominatorVanishesError as exc:
        # probes lie off the real axis, the only place a point function may be singular
        point = ", ".join(frac_to_str(c) for c in exc.point)
        raise FunctionSpecError(
            f"denominator vanishes at ({point}) off the real axis inside the domain"
        ) from exc
    except ZeroDenominatorError as exc:
        raise FunctionSpecError(f"{exc}, which meets the domain off the real axis") from exc
    report = {
        "input": args.input,
        "samples": {"units": len(units), "points": len(points), "max_order": max_order},
        "signature": signature_to_json(g.signature),
        "sbs_order": report_obj.sbs_polyanalytic_order,
        "is_slice": report_obj.is_slice,
        "global_order": len(report_obj.components) if report_obj.components else None,
        "evidence": {k: str(v) for k, v in report_obj.evidence.items()},
    }
    if report_obj.slice_witness is not None:
        report["witness"] = witness_to_json(report_obj.slice_witness)
    if report_obj.components is not None:
        report["components"] = [stem_to_json(c) for c in report_obj.components]
    _emit(report, args.json)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Writes its help through ``_write_stdout``, where argparse would drop a write error."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            return _write_stdout(message, "the help")
        super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slicecalc",
        description=(
            "Exact slice-function computer algebra: verification campaigns, "
            "polyanalytic decomposition and classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity/invariant campaigns")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--units", type=int, default=64, help="unit sample pool size")
    p_verify.add_argument("--points", type=int, default=128, help="trial budget per check")
    p_verify.add_argument("--max-order", type=int, default=4)
    p_verify.add_argument(
        "--select",
        default=None,
        help="comma-separated check ids: " + ", ".join(sorted(CHECKS)),
    )
    p_verify.add_argument("--json", default=None, help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="decompose a slice function")
    p_dec.add_argument("--input", required=True, help="builtin name or JSON spec file")
    p_dec.add_argument("--order", type=int, required=True)
    p_dec.add_argument("--json", default=None)
    p_dec.set_defaults(func=cmd_decompose)

    p_cls = sub.add_parser("classify", help="classify a function")
    p_cls.add_argument("--input", required=True, help="builtin name or JSON spec file")
    p_cls.add_argument("--seed", type=int, default=0, help="point-function sampling seed")
    p_cls.add_argument(
        "--units", type=int, default=8, help=f"point-function unit samples (2 to {_MAX_UNITS} used)"
    )
    p_cls.add_argument(
        "--points", type=int, default=8, help=f"point-function plane points (at most {_MAX_POINTS})"
    )
    p_cls.add_argument(
        "--max-order", type=int, default=4, help=f"highest order tried (at most {_MAX_ORDER} used)"
    )
    p_cls.add_argument("--json", default=None)
    p_cls.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except SliceCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, FunctionSpecError) else EXIT_MATH_FAILURE
