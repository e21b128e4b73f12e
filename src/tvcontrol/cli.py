"""Command line interface.

Builds one of the two instances, runs the outer approximation, and writes
the report (CSV or JSON) to stdout. Exit status: 0 when the tolerance was
met, 2 on an inner-solver failure (explained on stderr), 3 when the outer
iteration cap was hit, 1 on usage errors and on a field dump that cannot be
written.
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
_GENERIC_EPS_MIN = 1.6e-7


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tvcontrol",
        description="Solve a TV-ball-constrained elliptic control problem by outer approximation.",
        epilog="Solver settings left out take their defaults from tvcontrol.SolverConfig, "
               "which also checks their ranges.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--instance", choices=("exact", "generic"), default="exact")
    parser.add_argument("--n", type=int, help="mesh subdivisions per side")
    parser.add_argument("--eps-start", type=float)
    parser.add_argument("--eps-factor", type=float)
    parser.add_argument("--eps-min", type=float,
                        help="final regularization weight (default depends on the instance)")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--depth", type=int, dest="subdivision_depth", metavar="DEPTH",
                        help="midpoint-quadrature subdivision depth")
    parser.add_argument("--output", choices=("csv", "json"), default="csv")
    parser.add_argument("--dump-fields", metavar="DIR", default=None,
                        help="write final control (and reference, if any) as field dumps")
    parser.add_argument("--no-warm-start", action="store_false", dest="warm_start",
                        help="start both inner solvers from zero in every outer iteration; "
                             "the oracle then solves directly at the current eps")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    given = vars(parser.parse_args(argv))
    instance_name, output, dump_dir = (given.pop(k) for k in ("instance", "output", "dump_fields"))
    if instance_name == "generic":
        given.setdefault("eps_min", _GENERIC_EPS_MIN)
    try:
        config = SolverConfig(**given)
    except ValueError as exc:
        parser.error(str(exc))
    if dump_dir is not None:
        try:
            Path(dump_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(f"cannot create --dump-fields directory {dump_dir!r}: {exc.strerror}")

    mesh = build_friedrichs_keller(config.n)
    build = build_exact_instance if instance_name == "exact" else build_generic_instance
    instance = build(mesh, alpha=config.alpha, subdivision_depth=config.subdivision_depth)

    report = run_outer_approximation(instance, config)
    sys.stdout.buffer.write(serialize_report(report, output))
    sys.stdout.buffer.flush()
    if report.failure is not None:
        print(f"{parser.prog}: {report.failure}", file=sys.stderr)

    if dump_dir is not None and report.final_control is not None:
        out_dir = Path(dump_dir)
        try:
            dump_field(report.final_control, out_dir / "control.txt")
            if instance.reference_u is not None:
                dump_field(instance.reference_u, out_dir / "reference_control.txt")
        except OSError as exc:
            print(f"{parser.prog}: error: {exc}", file=sys.stderr)
            return 1

    return _EXIT_BY_REASON[report.terminated]


if __name__ == "__main__":
    raise SystemExit(main())
