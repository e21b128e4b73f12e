"""Outer loop: cutting-plane generation with path-following in eps.

Each iteration solves the current relaxation, evaluates the regularized TV
of its minimizer (which yields the next cutting plane), and shrinks eps
geometrically until the target value is reached; only then is the
termination test tv_eps(u_k) <= 1 + tol armed. It is certified by weak
duality: it reads the upper bound on tv_eps(u_k) that the oracle stopped
on (``OracleResult.upper_bound``). The oracle's field and energy go to
``MasterOperator.add_plane``, which owns the planes and drops a repeated
one. Every stored plane is re-tightened automatically because its
right-hand side carries the current eps. Both subproblems are
warm-started from the previous iteration; with ``warm_start=False`` they
start from zero, and the oracle solves directly at the current eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .master_problem import CuttingPlane, MasterOperator, MasterSolution
from .mesh_fem import Mesh, _depth, _integer, _positive_alpha, _real, l2_error_p0, l2_norm_p0
from .sparse_linalg import InnerSolverError
from .tv_oracle import OracleResult, eval_tv_eps, tv_lower_bound

TOLERANCE_MET = "tolerance_met"
MAX_OUTER = "max_outer"
INNER_FAILURE = "inner_failure"

#: eps values within 5% of eps_min snap onto it, so that rounded targets
#: (e.g. 7.8e-8 for the geometric value 1e-5 * 0.5^7) still end the path.
_EPS_SNAP = 0.05

#: the run ends with ``max_outer`` after this many outer iterations
MAX_OUTER_ITERATIONS = 50


@dataclass
class SolverConfig:
    """The settings a run varies, with the CLI's defaults and checks (NaN fails each), stored
    as the Python int, float or bool the report echoes; a wrong kind is a TypeError."""

    eps_start: float = 1e-5
    eps_factor: float = 0.5
    eps_min: float = 7.8e-8
    tol: float = 1e-2
    alpha: float = 1.0
    n: int = 50
    subdivision_depth: int = 4
    warm_start: bool = True

    def __post_init__(self):
        self.n = _integer(self.n, "n", "the number of subdivisions")
        self.subdivision_depth = _depth(self.subdivision_depth)
        for name in ("eps_start", "eps_factor", "eps_min", "tol"):
            setattr(self, name, _real(getattr(self, name), name))
        self.alpha = _positive_alpha(self.alpha)
        if not isinstance(self.warm_start, (bool, np.bool_)):
            raise TypeError(f"warm_start must be a bool, got warm_start={self.warm_start!r}")
        self.warm_start = bool(self.warm_start)
        if not 0.0 < self.eps_factor < 1.0:
            raise ValueError(f"eps_factor must lie in (0, 1), got {self.eps_factor}")
        if not 0.0 < self.eps_min <= self.eps_start < math.inf:
            raise ValueError(f"need 0 < eps_min <= eps_start < inf, got eps_min = {self.eps_min}, "
                             f"eps_start = {self.eps_start}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not self.n >= 1:
            raise ValueError(f"n must be at least 1, got {self.n}")


@dataclass
class IterationRecord:
    k: int
    eps: float
    objective: float
    it_master: int
    it_oracle: int
    tv_eps: float
    tv_lower_bound: float
    rel_error: float | None = None
    eoc: float | None = None


@dataclass
class RunReport:
    records: list[IterationRecord]
    terminated: str
    final_control: np.ndarray | None  # the last master's control, one value per cell
    planes: list[CuttingPlane]
    config: SolverConfig
    failure: str | None = None  # which inner solver failed, where, and how far off


def rel_error(mesh, u, reference) -> float:
    """||u - reference|| / ||reference|| in L2 over cell values."""
    denom = l2_norm_p0(mesh, reference)
    if denom == 0.0:
        raise ValueError("relative error needs a nonzero reference control")
    return l2_error_p0(mesh, u, reference) / denom


def compute_eoc(records: list[IterationRecord]) -> list[IterationRecord]:
    """Fill experimental orders of convergence in place.

    eoc_k = (log err_{k-1} - log err_k) / (log eps_{k-1} - log eps_k);
    undefined entries (missing errors, equal eps) stay empty.
    """
    for prev, rec in zip(records, records[1:]):
        defined = (
            prev.rel_error is not None
            and rec.rel_error is not None
            and prev.rel_error > 0.0
            and rec.rel_error > 0.0
            and prev.eps != rec.eps
        )
        if defined:
            rec.eoc = (math.log(prev.rel_error) - math.log(rec.rel_error)) / (
                math.log(prev.eps) - math.log(rec.eps)
            )
    return records


def _next_eps(eps: float, config: SolverConfig) -> float:
    reduced = eps * config.eps_factor
    if reduced <= config.eps_min * (1.0 + _EPS_SNAP):
        return config.eps_min
    return reduced


def _at_eps_min(eps: float, config: SolverConfig) -> bool:
    return eps <= config.eps_min * (1.0 + 1e-12)


def _raised_message(solver: str, k: int, eps: float, exc: Exception) -> str:
    return f"{solver} failed at outer iteration k = {k}, eps = {eps:.5e}: {exc}"


def run_outer_approximation(instance, config: SolverConfig, mesh: Mesh | None = None) -> RunReport:
    """Run the cutting-plane loop and collect one record per outer iteration.

    Each iteration makes one oracle call, at the current eps. From the
    second iteration on it is warm-started from the previous result when
    ``config.warm_start`` is set; otherwise every call starts cold, from
    phi = 0 with no active node. ``tolerance_met`` is returned only
    when the oracle's weak-duality bound ``upper_bound`` at the final eps is
    at most 1 + tol, so the returned control is certified feasible;
    otherwise the loop goes on cutting with the plane just computed. An
    ``inner_failure`` exit sets ``RunReport.failure`` to a message naming
    the solver, the outer iteration and eps, then the text of the
    InnerSolverError raised: the oracle's, including its Newton cap, or
    the master's from ``solve``, including its active-set cap, from its
    constructor, at k = 0, or from ``add_plane``. Raises ValueError when
    ``config.n``, ``config.alpha`` or ``config.subdivision_depth`` disagrees
    with the instance, since the report echoes the config, or when ``mesh``
    is not the instance's: an argument kept only for ``perfbench/sample.py``,
    which passes ``build_forms(mesh)``.
    """
    if config.n != instance.mesh.n:
        raise ValueError(f"config.n = {config.n} but the instance mesh has n = {instance.mesh.n}")
    if config.alpha != instance.alpha:
        raise ValueError(
            f"config.alpha = {config.alpha} but the instance has alpha = {instance.alpha}"
        )
    if config.subdivision_depth != instance.subdivision_depth:
        raise ValueError(
            f"config.subdivision_depth = {config.subdivision_depth} but the instance "
            f"was built with subdivision_depth = {instance.subdivision_depth}"
        )
    if mesh is not None and mesh != instance.mesh:
        raise ValueError(f"the forms were built for n = {mesh.n} "
                         f"but the instance mesh has n = {instance.mesh.n}")
    eps = config.eps_start
    try:
        master_op = MasterOperator(instance)
    except InnerSolverError as exc:
        return RunReport(records=[], terminated=INNER_FAILURE, final_control=None, planes=[],
                         config=config, failure=_raised_message("master problem", 0, eps, exc))

    records: list[IterationRecord] = []
    master_warm: MasterSolution | None = None
    oracle_warm: OracleResult | None = None
    final_control: np.ndarray | None = None
    terminated = MAX_OUTER
    failure: str | None = None

    for k in range(MAX_OUTER_ITERATIONS):
        try:
            master = master_op.solve(eps, warm_start=master_warm)
        except InnerSolverError as exc:
            terminated, failure = INNER_FAILURE, _raised_message("master problem", k, eps, exc)
            break
        final_control = master.u

        try:
            oracle = eval_tv_eps(master.u, eps, instance.mesh, warm_start=oracle_warm)
        except InnerSolverError as exc:
            terminated, failure = INNER_FAILURE, _raised_message("TV oracle", k, eps, exc)
            break

        err = (
            rel_error(instance.mesh, master.u, instance.reference_u)
            if instance.reference_u is not None
            else None
        )
        records.append(
            IterationRecord(
                k=k,
                eps=eps,
                objective=master.objective,
                it_master=master.inner_iterations,
                it_oracle=oracle.inner_iterations,
                tv_eps=oracle.value,
                tv_lower_bound=tv_lower_bound(oracle, eps),
                rel_error=err,
            )
        )

        if _at_eps_min(eps, config) and oracle.upper_bound <= 1.0 + config.tol:
            terminated = TOLERANCE_MET
            break

        try:
            master_op.add_plane(oracle.phi, oracle.energy)
        except InnerSolverError as exc:
            terminated, failure = INNER_FAILURE, _raised_message("master problem", k, eps, exc)
            break
        if not _at_eps_min(eps, config):
            eps = _next_eps(eps, config)
        if config.warm_start:
            master_warm, oracle_warm = master, oracle

    compute_eoc(records)
    return RunReport(
        records=records,
        terminated=terminated,
        final_control=final_control,
        planes=master_op.planes,
        config=config,
        failure=failure,
    )
