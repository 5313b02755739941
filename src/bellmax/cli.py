"""Command line interface.

Subcommands: ``violation`` (closed form and/or see-saw for one state),
``scan-k`` (table over every measurement index), ``threshold`` (noise
robustness of the isotropic family), ``gamma`` (operator dumps),
``optimize`` (raw see-saw) and ``verify`` (invariant suites). All output
is JSON on stdout (CSV for threshold grids); diagnostics go to stderr.

Exit codes: 0 success, 1 verification failure, 2 validation error,
3 I/O error, 4 closed form requested but not certified for the state,
5 internal error (arithmetic, type or LAPACK failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import reporting
from .operators import make_gamma_set
from .seesaw import SeesawConfig, seesaw_maximize
from .states import QuantumState, load_state
from .verify import run_all_checks
from .violation import (
    best_k,
    max_violation_closed_form,
    noise_threshold,
    oracle_report,
    scan_k,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_UNCERTIFIED = 4
EXIT_INTERNAL = 5

#: Published threshold quoted for the 3-dimensional isotropic family;
#: echoed in threshold reports next to the independently derived value
#: (0.2370257 at N=3). It equals the derived N=5 threshold 0.2566039,
#: which points to an offset in how dimensions are labelled.
PUBLISHED_N3_THRESHOLD = 0.2566

#: Largest ``threshold --grid``; checked before the grid is allocated.
MAX_GRID_POINTS = 100_001


class UncertifiedFormulaError(RuntimeError):
    """Closed-form output was requested for a state it does not certify."""


def _k_spec(text: str):
    if text == "best":
        return "best"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"k must be an integer or 'best', got {text!r}"
        ) from None


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomised work (default 0)")
    common.add_argument("--output", choices=("json", "csv"), default="json")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the manifest timestamp (golden files)")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellmax",
        description="Maximal violation of a CHSH-type inequality on NxN systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_options()

    p = sub.add_parser("violation", parents=[common],
                       help="closed-form and/or see-saw value for one state")
    p.add_argument("--state", required=True, help="path to a state JSON file")
    p.add_argument("--k", type=_k_spec, default="best",
                   help="measurement index (1-based) or 'best' (default)")
    p.add_argument("--method", choices=("closed", "oracle", "both"), default="closed")
    p.set_defaults(func=cmd_violation)

    p = sub.add_parser("scan-k", parents=[common],
                       help="closed-form table over every measurement index")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_scan_k)

    p = sub.add_parser("threshold", parents=[common],
                       help="noise threshold of the isotropic family")
    p.add_argument("--N", type=int, required=True, dest="N")
    p.add_argument("--grid", type=int, default=None,
                   help="also evaluate a uniform grid with this many points")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("gamma", parents=[common],
                       help="dump one generator or the corner projector")
    p.add_argument("--N", type=int, required=True, dest="N")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--axis", choices=("x", "y", "z", "pi"), required=True)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("optimize", parents=[common], help="raw see-saw run")
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=int, default=SeesawConfig.restarts)
    p.add_argument("--max-iters", type=int, default=SeesawConfig.max_iters)
    p.add_argument("--tol", type=float, default=SeesawConfig.tol)
    p.add_argument("--constrain-y", action="store_true",
                   help="project the y components out of every update")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", parents=[common],
                       help="check the closed form, see-saw, operators and states")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    return parser


def _manifest(args) -> dict:
    skip = ("command", "func", "seed", "no_timestamp", "output")
    parameters = {key: value for key, value in vars(args).items() if key not in skip}
    parameters["output"] = args.output  # after the subcommand's own options
    return reporting.build_manifest(
        args.command, parameters, args.seed,
        include_timestamp=not args.no_timestamp,
    )


def _read_state(path: str) -> QuantumState:
    return load_state(Path(path).read_text(encoding="utf-8"))


def cmd_violation(args) -> int:
    state = _read_state(args.state)
    cfg = SeesawConfig(seed=args.seed)
    reports = (scan_k(state) if args.k == "best"
               else [max_violation_closed_form(state, args.k)])
    if args.method == "closed" and not any(rep.formula_valid for rep in reports):
        raise UncertifiedFormulaError(  # before best_k runs the see-saw
            "closed form is not certified for this state; "
            "use --method oracle or --method both"
        )
    # best_k's choice, with the see-saw it ran if no report is certified
    chosen = best_k(state, cfg=cfg, reports=reports)
    closed = next(rep for rep in reports if rep.k == chosen.k)
    manifest = _manifest(args)
    if args.method == "closed":
        sys.stdout.write(reporting.to_json({"manifest": manifest, **closed.to_dict()}))
        return EXIT_OK
    oracle = chosen if chosen.method == "oracle" else oracle_report(state, closed, cfg)
    if args.method == "oracle":
        payload = {"manifest": manifest, **oracle.to_dict()}
    else:
        payload = {
            "manifest": manifest,
            "closed_form": closed.to_dict(),
            "oracle": oracle.to_dict(),
            "abs_difference": abs(closed.value - oracle.value),
        }
    sys.stdout.write(reporting.to_json(payload))
    return EXIT_OK


def cmd_scan_k(args) -> int:
    state = _read_state(args.state)
    cfg = SeesawConfig(seed=args.seed)
    reports = scan_k(state)
    best = best_k(state, cfg=cfg, reports=reports)
    payload = {
        "manifest": _manifest(args),
        "N": state.dim,
        "results": [rep.to_dict() for rep in reports],
        "best": best.to_dict(),
    }
    sys.stdout.write(reporting.to_json(payload))
    return EXIT_OK


def cmd_threshold(args) -> int:
    if args.grid is not None and not 2 <= args.grid <= MAX_GRID_POINTS:
        raise ValueError(f"--grid needs 2..{MAX_GRID_POINTS} points, got {args.grid}")
    result = noise_threshold(args.N)
    grid_rows = None
    if args.grid is not None:
        # The grid lies on the threshold's exact line: no closed form here.
        xs = np.linspace(0.0, 1.0, args.grid)
        values = (1.0 - xs) * result.value_at_zero + xs * result.value_at_one
        grid_rows = [(float(x), float(v), result.k_used) for x, v in zip(xs, values)]
    if args.output == "csv":
        sys.stdout.write(reporting.grid_csv(grid_rows))
        return EXIT_OK
    payload = {
        "manifest": _manifest(args),
        "N": args.N,
        "k_used": result.k_used,
        "x_star": result.x_star,
        "value_at_zero": result.value_at_zero,
    }
    if args.N == 3:
        payload["paper_reference_value"] = PUBLISHED_N3_THRESHOLD
    if grid_rows is not None:
        payload["grid"] = [{"x": x, "value": v, "k": k} for x, v, k in grid_rows]
    sys.stdout.write(reporting.to_json(payload))
    return EXIT_OK


def cmd_gamma(args) -> int:
    gamma = make_gamma_set(args.N, args.k)
    matrix = {"x": gamma.gx, "y": gamma.gy, "z": gamma.gz, "pi": gamma.pi}[args.axis]
    payload = {
        "manifest": _manifest(args),
        "N": args.N,
        "k": args.k,
        "axis": args.axis,
        "re": [[float(v) for v in row] for row in matrix.real],
        "im": [[float(v) for v in row] for row in matrix.imag],
    }
    sys.stdout.write(reporting.to_json(payload))
    return EXIT_OK


def cmd_optimize(args) -> int:
    state = _read_state(args.state)
    cfg = SeesawConfig(restarts=args.restarts, max_iters=args.max_iters,
                       tol=args.tol, seed=args.seed)
    result = seesaw_maximize(state, args.k, cfg, constrain_y=args.constrain_y)
    settings = result.settings
    payload = {
        "manifest": _manifest(args),
        "k": args.k,
        "value": result.value,
        "settings": {
            **{name: [float(v) for v in getattr(settings, name)]
               for name in ("a1", "a2", "b1", "b2")},
            "k": settings.k,
        },
        "iterations_used": result.iterations_used,
        "restarts_used": result.restarts_used,
        "converged": result.converged,
    }
    sys.stdout.write(reporting.to_json(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all_checks(args.seed, args.samples)
    failed = [r for r in results if not r.passed]
    payload = {
        "manifest": _manifest(args),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "total": len(results),
        "passed": len(results) - len(failed),
        "failed": len(failed),
    }
    sys.stdout.write(reporting.to_json(payload))
    if failed:
        first = failed[0]
        print(f"verify failed: {first.name}: {first.detail}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output == "csv" and getattr(args, "grid", None) is None:
            raise ValueError("csv output needs threshold --grid, the only CSV report")
        return args.func(args)
    except UncertifiedFormulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ArithmeticError, TypeError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError; it must not pass for bad input.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
