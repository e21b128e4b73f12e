"""The benchmark's workloads and the values a correct solve reproduces.

Every workload is a deterministic built-in instance with the default
SolverConfig apart from the fields set here; the benchmark seed never
reaches the program. The reference values were recorded on the code that
introduced the benchmark (see README.md for why each workload exists).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: relative tolerance for the final objective and relative error; the CSV
#: prints 6 significant digits, and a change to the linear algebra may move
#: digits well below this without changing the solution
VALUE_RTOL = 1e-6

#: counts that repeat exactly between runs of the same code
DETERMINISTIC_COUNTS = (
    "tv_oracle.newton_steps",
    "sparse_linalg.factorizations",
    "sparse_linalg.factor_nnz",
    "master_problem.iterations",
    "driver.outer_iterations",
    "tv_oracle.active_nodes_final",
)


@dataclass(frozen=True)
class Workload:
    name: str
    instance: str  # "exact" or "generic"
    n: int
    eps_min: float
    warm_start: bool
    why: str
    objective: float  # final J
    rel_error: float | None  # final relative L2 error, exact instance only
    csv_sha256: str  # serialize_report(report, "csv")
    counts: dict = field(default_factory=dict)  # DETERMINISTIC_COUNTS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-n100",
            instance="exact",
            n=100,
            eps_min=7.8e-8,
            warm_start=True,
            why="few Newton steps on large saddle factors: factorization size and fill dominate",
            objective=7.786465190340611,
            rel_error=0.02619330574749749,
            csv_sha256="90a193feb457c9b498ebfa61bb3d0f29bd665273524c1da41e099abeba2d1fe4",
            counts={
                "tv_oracle.newton_steps": 75,
                "sparse_linalg.factorizations": 76,
                "sparse_linalg.factor_nnz": 3721675,
                "master_problem.iterations": 19,
                "driver.outer_iterations": 8,
                "tv_oracle.active_nodes_final": 286,
            },
        ),
        Workload(
            name="generic-n50",
            instance="generic",
            n=50,
            eps_min=1.6e-7,
            warm_start=True,
            why="smooth data, many Newton steps on small factors: the step count dominates",
            objective=0.012701132744054947,
            rel_error=None,
            csv_sha256="a52b8055fd02a67ef99441a47e4cb5d4cef80c7e646091aacbb31fd7fbf839b5",
            counts={
                "tv_oracle.newton_steps": 166,
                "sparse_linalg.factorizations": 167,
                "sparse_linalg.factor_nnz": 562548,
                "master_problem.iterations": 25,
                "driver.outer_iterations": 10,
                "tv_oracle.active_nodes_final": 1777,
            },
        ),
        Workload(
            name="exact-n50-cold",
            instance="exact",
            n=50,
            eps_min=7.8e-8,
            warm_start=False,
            why="no warm starts: every outer iteration runs the oracle's cold eps ladder",
            objective=7.7552360540356435,
            rel_error=0.03927709542305605,
            csv_sha256="d0a59eab12e0b58e337c36b1bf660969c6e7c86729fad5fcf106817826b83a54",
            counts={
                "tv_oracle.newton_steps": 230,
                "sparse_linalg.factorizations": 231,
                "sparse_linalg.factor_nnz": 587020,
                "master_problem.iterations": 41,
                "driver.outer_iterations": 8,
                "tv_oracle.active_nodes_final": 136,
            },
        ),
    )
}
