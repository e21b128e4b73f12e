"""Solver benchmark: solve time, set-up time and peak memory per workload.

    python3 perfbench/run.py --workload exact-n100 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

Run from the root of a checkout. One client runs one solve at a time in a
closed loop; every sample is a fresh process (perfbench/sample.py) so that
its peak memory is its own. ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the same untraced samples first, then
one traced sample, and prints the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from workloads import WORKLOADS

SAMPLE = Path(__file__).with_name("sample.py")

#: set-up is timed in at least this many fresh processes per run
SETUPS_PER_RUN = 3

#: a run ends within 180 s; samples still going at this point are killed
DEADLINE_S = 170.0

#: SuperLU is single-threaded; one BLAS thread keeps samples from
#: oversubscribing the machine's cores
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

TRACE_DIR = ".bench_trace"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def run_sample(workload: str, mode: str, root: Path, deadline: float) -> dict:
    """One sample process; a crash or timeout is returned as a failed sample."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    start = time.monotonic()
    sample = {"mode": mode, "result": None}
    try:
        proc = subprocess.run(
            [sys.executable, str(SAMPLE), "--workload", workload, "--mode", mode],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired:
        sample["error"] = "timed out"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            sample["result"] = json.loads(lines[-1])
        else:
            sample["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    sample["wall_s"] = time.monotonic() - start
    return sample


def failed(sample: dict) -> bool:
    return sample["result"] is None or bool(sample["result"].get("failed_checks"))


def run_workload(name: str, seconds: float, trace: bool, rng: random.Random, root: Path):
    """Closed loop for ``seconds``: set-ups and solves, then the traced sample."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plan = ["setup"] * (SETUPS_PER_RUN - 1) + ["solve"]
    rng.shuffle(plan)
    samples = [run_sample(name, mode, root, deadline) for mode in plan]
    while True:
        longest = max(s["wall_s"] for s in samples if s["mode"] == "solve")
        if time.monotonic() - start + longest > seconds:
            break
        samples.append(run_sample(name, "solve", root, deadline))
    if trace:
        samples.append(run_sample(name, "trace", root, deadline))
    for s in samples:
        if failed(s):
            reason = s.get("error") or "; ".join(s["result"]["failed_checks"])
            print(f"{name}: {s['mode']} sample failed: {reason}", file=sys.stderr)
        elif s["result"].get("missing_hooks"):
            print(f"{name}: layers not traced, they read 0: {s['result']['missing_hooks']}",
                  file=sys.stderr)
    return samples


def summarize(samples: list[dict], trace: bool) -> dict:
    """Metrics of one workload; raises ValueError when nothing was measured."""
    ok = [s["result"] for s in samples if s["result"] is not None]
    solves = [s["result"] for s in samples if s["mode"] == "solve" and s["result"] is not None]
    if not solves:
        raise ValueError("no solve sample finished")
    solve_s = statistics.median(r["solve_s"] for r in solves)
    if not trace:
        return {
            "solve_s": solve_s,
            "setup_s": statistics.median(r["setup_s"] for r in ok if "layers" not in r),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in solves),
        }
    traced = [r for r in ok if "layers" in r]
    if not traced:
        raise ValueError("the traced sample did not finish")
    layers = dict(traced[-1]["layers"])
    layers["trace.overhead_s"] = layers["trace.solve_s"] - solve_s
    return layers


def write_trace(path: Path, env: dict, samples: list[dict]) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as out:
        out.write(json.dumps({"env": env}) + "\n")
        for sample_id, s in enumerate(samples):
            for span in (s["result"] or {}).get("spans", ()):
                out.write(json.dumps(dict(span, sample=sample_id)) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tvcontrol solver benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order of set-up and solve samples only")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tvcontrol" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/tvcontrol to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment(args.seed)
    print("# env " + json.dumps(env))
    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failures = 0
    metrics = {}
    for name in names:
        samples = run_workload(name, args.seconds, bool(args.trace), rng, root)
        attempted += len(samples)
        failures += sum(map(failed, samples))
        if args.trace:
            write_trace(root / TRACE_DIR / f"{name}-seed{args.seed}.jsonl", env, samples)
        try:
            values = summarize(samples, bool(args.trace))
        except ValueError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        shown = sum(map(failed, samples))
        print(f"{name}: {len(samples)} samples, fail_rate {shown}/{len(samples)}")
        for m in wanted:
            print(f"  {m['name']:38s} {values[m['name']]:14.6g} {m['unit']}")
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failures == 0, "attempted": attempted,
                      "failed": failures, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
