"""Command line interface.

Builds one of the two instances, runs the outer approximation, and writes
the report (CSV or JSON) to stdout. Exit status: 0 when the tolerance was
met, 2 on an inner-solver failure (explained on stderr), 3 when the outer
iteration cap was hit, 1 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .driver import INNER_FAILURE, MAX_OUTER, TOLERANCE_MET, SolverConfig, run_outer_approximation
from .instances import build_exact_instance, build_generic_instance
from .mesh_fem import build_friedrichs_keller
from .reporting import dump_field, serialize_report

_EXIT_BY_REASON = {TOLERANCE_MET: 0, INNER_FAILURE: 2, MAX_OUTER: 3}

#: the generic reference table stops one halving earlier (7 rows, eps down to 1.6e-7)
_DEFAULT_EPS_MIN = {"exact": 7.8e-8, "generic": 1.6e-7}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tvcontrol",
        description="Solve a TV-ball-constrained elliptic control problem by outer approximation.",
    )
    parser.add_argument("--instance", choices=("exact", "generic"), default="exact")
    parser.add_argument("--n", type=_positive_int, default=50, help="mesh subdivisions per side")
    parser.add_argument("--eps-start", type=_positive_float, default=1e-5)
    parser.add_argument("--eps-factor", type=_positive_float, default=0.5)
    parser.add_argument("--eps-min", type=_positive_float, default=None,
                        help="final regularization weight (default depends on the instance)")
    parser.add_argument("--tol", type=_positive_float, default=1e-2)
    parser.add_argument("--alpha", type=_positive_float, default=1.0)
    parser.add_argument("--depth", type=int, default=4, help="midpoint-quadrature subdivision depth")
    parser.add_argument("--output", choices=("csv", "json"), default="csv")
    parser.add_argument("--dump-fields", metavar="DIR", default=None,
                        help="write final control (and reference, if any) as field dumps")
    parser.add_argument("--no-warm-start", action="store_true",
                        help="start both inner solvers from zero in every outer iteration; "
                             "the oracle then solves directly at the current eps")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    eps_min = args.eps_min if args.eps_min is not None else _DEFAULT_EPS_MIN[args.instance]

    try:
        config = SolverConfig(
            eps_start=args.eps_start,
            eps_factor=args.eps_factor,
            eps_min=eps_min,
            tol=args.tol,
            alpha=args.alpha,
            n=args.n,
            subdivision_depth=args.depth,
            warm_start=not args.no_warm_start,
        )
    except ValueError as exc:
        parser.error(str(exc))

    mesh = build_friedrichs_keller(config.n)
    if args.instance == "exact":
        instance = build_exact_instance(mesh, alpha=config.alpha,
                                        subdivision_depth=config.subdivision_depth)
    else:
        instance = build_generic_instance(mesh, alpha=config.alpha,
                                          subdivision_depth=config.subdivision_depth)

    report = run_outer_approximation(instance, config)
    sys.stdout.buffer.write(serialize_report(report, args.output))
    sys.stdout.buffer.flush()
    if report.failure is not None:
        print(f"{parser.prog}: {report.failure}", file=sys.stderr)

    if args.dump_fields is not None and report.final_control is not None:
        out_dir = Path(args.dump_fields)
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_field(report.final_control, out_dir / "control.txt")
        if instance.reference_u is not None:
            dump_field(instance.reference_u, out_dir / "reference_control.txt")

    return _EXIT_BY_REASON[report.terminated]


if __name__ == "__main__":
    raise SystemExit(main())
