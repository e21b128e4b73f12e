"""One benchmark sample, run in a fresh process like a CLI call.

    python3 perfbench/sample.py --workload exact-n100 --mode solve

from the root of a checkout (the program is imported from ``src``). Modes:
``setup`` times mesh, instance and forms only; ``solve`` also times
``run_outer_approximation`` and checks its output; ``trace`` does the same
with spans around every layer and adds the per-layer metrics. The last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, duration, self_times, subtree
from workloads import DETERMINISTIC_COUNTS, VALUE_RTOL, WORKLOADS

#: spans of oracle calls made by the driver; their self time is tv_oracle's
ORACLE_SPANS = ("tv_oracle.warm", "tv_oracle.ladder")

#: solve_s of a traced sample is the sum of these layers' self times
SELF_TIME_METRICS = {
    "driver.solve": "driver.self_s",
    "master_problem.init": "master_problem.init_s",
    "master_problem.solve": "master_problem.solve_s",
    "sparse_linalg.bordered_solve": "sparse_linalg.bordered_solve_s",
    "tv_oracle.warm": "tv_oracle.self_s",
    "tv_oracle.ladder": "tv_oracle.self_s",
    "tv_oracle.newton_step": "tv_oracle.newton_step_s",
    "sparse_linalg.saddle_solve": "sparse_linalg.saddle_solve_s",
    "sparse_linalg.spd_solve": "sparse_linalg.spd_solve_s",
    "sparse_linalg.factorize": "sparse_linalg.factorize_s",
}


def import_program(root: Path):
    """Import tvcontrol from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import tvcontrol

    if Path(tvcontrol.__file__).resolve().parent != src / "tvcontrol":
        raise SystemExit(f"tvcontrol imported from {tvcontrol.__file__}, not from {src}")
    return tvcontrol


def install_spans(tracer: Tracer, tv) -> None:
    """Wrap the attributes each layer's callers look up."""
    import scipy.sparse.linalg as spla

    oracle = lambda r: {
        "steps": r.inner_iterations,
        "converged": bool(r.converged),
        "active": int(r.ball_state.active_nodes.sum()),
    }
    hooks = [
        (tv.mesh_fem, "build_friedrichs_keller", "mesh_fem.build_mesh", None),
        (tv.mesh_fem, "build_forms", "mesh_fem.build_forms", None),
        (tv.instances, "build_exact_instance", "instances.build", None),
        (tv.instances, "build_generic_instance", "instances.build", None),
        (tv.driver, "run_outer_approximation", "driver.solve", None),
        (tv.reporting, "serialize_report", "reporting.serialize", None),
        (tv.master_problem.MasterOperator, "__init__", "master_problem.init", None),
        (tv.master_problem.MasterOperator, "solve", "master_problem.solve",
         lambda s: {"iterations": s.inner_iterations}),
        (tv.master_problem, "solve_bordered", "sparse_linalg.bordered_solve", None),
        (tv.driver, "eval_tv_eps", "tv_oracle.warm", oracle),
        (tv.driver, "eval_tv_eps_path", "tv_oracle.ladder", oracle),
        (tv.tv_oracle, "_newton_step", "tv_oracle.newton_step", None),
        (tv.tv_oracle, "solve_symmetric", "sparse_linalg.saddle_solve", None),
        (tv.tv_oracle, "solve_spd", "sparse_linalg.spd_solve", None),
        # SuperLU.nnz: entries stored for L and U together
        (spla, "splu", "sparse_linalg.factorize", lambda lu: {"nnz": int(lu.nnz)}),
    ]
    for owner, attr, name, describe in hooks:
        tracer.wrap(owner, attr, name, describe)


def build(tv, workload):
    mesh = tv.mesh_fem.build_friedrichs_keller(workload.n)
    config = tv.SolverConfig(eps_min=workload.eps_min, n=workload.n,
                             warm_start=workload.warm_start)
    builder = {"exact": tv.instances.build_exact_instance,
               "generic": tv.instances.build_generic_instance}[workload.instance]
    instance = builder(mesh, alpha=config.alpha, subdivision_depth=config.subdivision_depth)
    forms = tv.mesh_fem.build_forms(mesh)
    return instance, forms, config


def _close(value, reference) -> bool:
    return value is not None and abs(value - reference) <= VALUE_RTOL * abs(reference)


def check_report(report, instance, config, workload, discrete_tv) -> list[str]:
    """Every output check that fails; an empty list means the sample is correct."""
    failed = []
    if report.terminated != "tolerance_met":
        failed.append(f"terminated {report.terminated!r}, not 'tolerance_met'")
    if not report.records or report.final_control is None:
        return failed + ["no iteration records or no final control"]
    last = report.records[-1]
    if not last.tv_eps <= 1.0 + config.tol:
        failed.append(f"final tv_eps {last.tv_eps!r} > 1 + {config.tol}")
    tv = discrete_tv(report.final_control, instance.mesh)
    if not last.tv_lower_bound <= tv * (1.0 + 1e-12):
        failed.append(f"tv_lb {last.tv_lower_bound!r} > discrete TV {tv!r}")
    if not _close(last.objective, workload.objective):
        failed.append(f"final J {last.objective!r} != seed {workload.objective!r}")
    if workload.rel_error is not None and not _close(last.rel_error, workload.rel_error):
        failed.append(f"final rel. error {last.rel_error!r} != seed {workload.rel_error!r}")
    return failed


def layer_metrics(spans: list[dict], report) -> tuple[dict, list[str]]:
    """Per-layer times and counts of one traced sample, and any accounting gap."""
    own = self_times(spans)
    total = defaultdict(float)
    for s in spans:
        total[s["name"]] += duration(s)
    (root,) = [s for s in spans if s["name"] == "driver.solve"]
    tree = subtree(spans, root)
    named = defaultdict(list)
    for s in tree:
        named[s["name"]].append(s)

    # an outer iteration starts with its master solve; a ladder call is the
    # first cut at k = 0, and the termination check when it is the second
    # oracle call of its outer iteration
    first_cut = termination_check = 0.0
    outer, calls = -1, 0
    for s in tree:
        if s["name"] == "master_problem.solve":
            outer, calls = outer + 1, 0
        elif s["name"] in ORACLE_SPANS:
            if s["name"] == "tv_oracle.ladder" and calls:
                termination_check += duration(s)
            elif s["name"] == "tv_oracle.ladder" and outer == 0:
                first_cut += duration(s)
            calls += 1

    metrics = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    for s in tree:
        metrics[SELF_TIME_METRICS.get(s["name"], "unattributed")] += own[s["id"]]
    unattributed = metrics.pop("unattributed", 0.0)
    gaps = []
    if unattributed or abs(sum(metrics.values()) - duration(root)) > 1e-9:
        gaps.append(f"self times miss {duration(root) - sum(metrics.values()):.3g} s of solve_s")

    oracle = [s for name in ORACLE_SPANS for s in named[name]]
    oracle.sort(key=lambda s: s["id"])
    factors = named["sparse_linalg.factorize"]
    metrics.update({
        "mesh_fem.build_mesh_s": total["mesh_fem.build_mesh"],
        "mesh_fem.build_forms_s": total["mesh_fem.build_forms"],
        "instances.build_s": total["instances.build"],
        "tv_oracle.warm_s": sum(map(duration, named["tv_oracle.warm"])),
        "tv_oracle.ladder_s": sum(map(duration, named["tv_oracle.ladder"])),
        "driver.first_cut_s": first_cut,
        "driver.termination_check_s": termination_check,
        "master_problem.iterations": sum(s["attrs"]["iterations"]
                                         for s in named["master_problem.solve"]),
        "sparse_linalg.bordered_solves": len(named["sparse_linalg.bordered_solve"]),
        "tv_oracle.warm_calls": len(named["tv_oracle.warm"]),
        "tv_oracle.ladder_calls": len(named["tv_oracle.ladder"]),
        "tv_oracle.newton_steps": sum(s["attrs"]["steps"] for s in oracle),
        "tv_oracle.max_steps_per_outer": max((r.it_oracle for r in report.records), default=0),
        "tv_oracle.active_nodes_final": oracle[-1]["attrs"]["active"] if oracle else 0,
        "tv_oracle.unconverged": sum(not s["attrs"]["converged"] for s in oracle),
        "sparse_linalg.saddle_solves": len(named["sparse_linalg.saddle_solve"]),
        "sparse_linalg.spd_solves": len(named["sparse_linalg.spd_solve"]),
        "sparse_linalg.factorizations": len(factors),
        "sparse_linalg.factorize_s_per_call": (metrics["sparse_linalg.factorize_s"]
                                               / max(len(factors), 1)),
        "sparse_linalg.factor_nnz": max((s["attrs"]["nnz"] for s in factors), default=0),
        "driver.outer_iterations": len(report.records),
        "driver.planes": len(report.planes),
        "reporting.serialize_s": total["reporting.serialize"],
        "trace.solve_s": duration(root),
    })
    return metrics, gaps


def run_sample(workload, mode: str, root: Path) -> dict:
    tv = import_program(root)
    tracer = Tracer()
    if mode == "trace":
        install_spans(tracer, tv)
    with tracer:
        start = time.perf_counter()
        instance, forms, config = build(tv, workload)
        out = {"setup_s": time.perf_counter() - start}
        if mode == "setup":
            return out

        start = time.perf_counter()
        report = tv.driver.run_outer_approximation(instance, config, forms)
        out["solve_s"] = time.perf_counter() - start
        csv = tv.reporting.serialize_report(report, "csv")

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = rss_kib * 1024 / 1e6
    out["failed_checks"] = check_report(report, instance, config, workload,
                                        tv.tv_oracle.discrete_tv)
    out["csv_matches_seed"] = hashlib.sha256(csv).hexdigest() == workload.csv_sha256
    if mode == "trace":
        layers, gaps = layer_metrics(tracer.spans, report)
        layers["reporting.csv_matches_seed"] = float(out["csv_matches_seed"])
        counts = {name: layers[name] for name in DETERMINISTIC_COUNTS}
        layers["trace.counts_match_seed"] = float(counts == workload.counts)
        out.update(layers=layers, spans=tracer.spans, missing_hooks=tracer.missing)
        out["failed_checks"] += gaps
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("setup", "solve", "trace"), required=True)
    args = parser.parse_args(argv)
    out = run_sample(WORKLOADS[args.workload], args.mode, Path.cwd())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
