"""The program's answer against an independent reference for the regularized optimum.

At a fixed eps (eps_start = eps_min) and a tight tolerance, the control a
run returns must attain J*_eps, computed by ``oracles.regularized_optimum``
without the master, the oracle or the outer loop; the reported J must be
that control's own J(u).
"""

from functools import lru_cache

import pytest

from oracles import reduced_objective, regularized_optimum
from tvcontrol.driver import TOLERANCE_MET, SolverConfig, run_outer_approximation
from tvcontrol.instances import build_exact_instance, build_generic_instance
from tvcontrol.mesh_fem import build_friedrichs_keller

INSTANCES = {"exact": build_exact_instance, "generic": build_generic_instance}

#: the reported J is not J(u) while an active plane's border column has the
#: wrong sign in the state rows (ROADMAP item 16)
BORDER_SIGN = pytest.mark.xfail(strict=True, reason="reported J is not J(u): ROADMAP item 16")

#: (instance, n, eps) of runs that meet their tolerance; at 1e-5 on exact
#: n = 4 the ball constraint is inactive
CASES = [("exact", 6, 7.8e-8), ("generic", 4, 1.6e-7), ("exact", 4, 1e-5)]

#: J*_eps of the two cases with an active constraint, as recorded when the
#: reference was first written (ROADMAP item 23)
RECORDED_OPTIMUM = {CASES[0]: 5.494610279075, CASES[1]: 0.000731667008}


@lru_cache(maxsize=None)
def _compared(label, n, eps):
    """The reference (SciPy result, violation, J*_eps) and the run's report and J(u)."""
    mesh = build_friedrichs_keller(n)
    instance = INSTANCES[label](mesh)
    report = run_outer_approximation(
        instance, SolverConfig(n=n, eps_start=eps, eps_min=eps, tol=1e-9))
    j_u = reduced_objective(report.final_control, instance, mesh)
    return regularized_optimum(instance, mesh, eps), report, j_u


@pytest.mark.parametrize("label, n, eps", CASES)
def test_returned_control_attains_the_regularized_optimum(label, n, eps):
    (result, violation, optimum), report, j_u = _compared(label, n, eps)
    assert result.success, result.message
    assert violation <= 1e-10
    if (label, n, eps) in RECORDED_OPTIMUM:
        assert optimum == pytest.approx(RECORDED_OPTIMUM[label, n, eps], rel=1e-9)
    assert report.terminated == TOLERANCE_MET
    assert j_u == pytest.approx(optimum, rel=1e-6)


@pytest.mark.parametrize("label, n, eps", [
    pytest.param(*CASES[0], marks=BORDER_SIGN),
    pytest.param(*CASES[1], marks=BORDER_SIGN),
    CASES[2],
])
def test_reported_objective_is_that_of_the_returned_control(label, n, eps):
    _, report, j_u = _compared(label, n, eps)
    assert report.records[-1].objective == pytest.approx(j_u, rel=1e-10)
