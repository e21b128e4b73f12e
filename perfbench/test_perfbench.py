"""Tests of the benchmark's own machinery: spans, wrappers, checks, counting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import sample
from tracing import Tracer, self_times, subtree
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tv():
    return sample.import_program(ROOT)


def _tiny(name: str):
    """A workload on an 8x8 mesh; its reference values are the n = 50 ones, so J fails."""
    return dataclasses.replace(WORKLOADS[name], n=8)


def _hooked(tv):
    spla = importlib.import_module("scipy.sparse.linalg")
    return {
        "driver.eval_tv_eps": (tv.driver, "eval_tv_eps"),
        "driver.eval_tv_eps_path": (tv.driver, "eval_tv_eps_path"),
        "MasterOperator.solve": (tv.master_problem.MasterOperator, "solve"),
        "MasterOperator.__init__": (tv.master_problem.MasterOperator, "__init__"),
        "tv_oracle.solve_symmetric": (tv.tv_oracle, "solve_symmetric"),
        "splu": (spla, "splu"),
    }


def test_wrappers_restore_the_originals(tv):
    hooked = _hooked(tv)
    before = {key: getattr(owner, attr) for key, (owner, attr) in hooked.items()}
    with Tracer() as tracer:
        sample.install_spans(tracer, tv)
        assert not tracer.missing
        for key, (owner, attr) in hooked.items():
            assert getattr(owner, attr) is not before[key], key
    for key, (owner, attr) in hooked.items():
        assert getattr(owner, attr) is before[key], key


def test_wrapper_closes_its_span_and_restores_when_the_call_raises():
    owner = SimpleNamespace(fn=lambda: 1 / 0)
    original = owner.fn
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            tracer.wrap(owner, "fn", "layer.fn")
            owner.fn()
    assert owner.fn is original
    (span,) = tracer.spans
    assert span["end"] is not None and not tracer._open


def test_missing_attribute_is_listed_not_raised():
    owner = SimpleNamespace(__name__="module")
    with Tracer() as tracer:
        assert not tracer.wrap(owner, "gone", "layer.gone")
    assert tracer.missing == ["module.gone"]


def test_self_times_subtract_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("child"):       # 1 .. 7
            with tracer.span("leaf"):    # 2 .. 5
                pass
    own = self_times(tracer.spans)
    assert [own[s["id"]] for s in tracer.spans] == [4.0, 3.0, 3.0]
    assert sum(own.values()) == 10.0
    assert [s["name"] for s in subtree(tracer.spans, tracer.spans[1])] == ["child", "leaf"]


def _report(terminated="tolerance_met", tv_eps=1.0, tv_lb=1.0, objective=7.0, rel_error=0.1):
    record = SimpleNamespace(tv_eps=tv_eps, tv_lower_bound=tv_lb, objective=objective,
                             rel_error=rel_error)
    return SimpleNamespace(terminated=terminated, records=[record], final_control=object())


def test_every_failed_check_is_reported():
    workload = dataclasses.replace(WORKLOADS["exact-n100"], objective=7.0, rel_error=0.1)
    config = SimpleNamespace(tol=1e-2)
    instance = SimpleNamespace(mesh=None)
    discrete_tv = lambda u, mesh: 1.5
    assert sample.check_report(_report(), instance, config, workload, discrete_tv) == []
    bad = _report(terminated="max_outer", tv_eps=1.02, tv_lb=1.6, objective=7.1, rel_error=0.2)
    failed = sample.check_report(bad, instance, config, workload, discrete_tv)
    assert len(failed) == 5


def test_failed_samples_are_counted_and_their_times_kept():
    good = {"mode": "solve", "result": {"setup_s": 1.0, "solve_s": 2.0, "peak_rss_mb": 10.0,
                                        "failed_checks": []}}
    wrong = {"mode": "solve", "result": {"setup_s": 1.0, "solve_s": 4.0, "peak_rss_mb": 10.0,
                                         "failed_checks": ["final J differs"]}}
    crashed = {"mode": "setup", "result": None, "error": "exit 1"}
    samples = [good, wrong, crashed]
    assert [run.failed(s) for s in samples] == [False, True, True]
    assert run.summarize(samples, trace=False)["solve_s"] == 3.0


def test_traced_sample_accounts_for_all_of_solve_s(tv):
    out = sample.run_sample(_tiny("exact-n50-cold"), "trace", ROOT)
    layers = out["layers"]
    partition = set(sample.SELF_TIME_METRICS.values())
    assert sum(layers[m] for m in partition) == pytest.approx(layers["trace.solve_s"], abs=1e-9)
    assert layers["sparse_linalg.factorizations"] == layers["tv_oracle.newton_steps"] + 1
    assert layers["tv_oracle.ladder_calls"] == layers["driver.outer_iterations"] + 1
    assert layers["driver.first_cut_s"] > 0.0 and layers["driver.termination_check_s"] > 0.0
    # the 8x8 run does not reproduce the n = 50 objective: counted, not skipped
    assert any("final J" in f for f in out["failed_checks"])
    assert layers["trace.counts_match_seed"] == 0.0
    assert tv.driver.eval_tv_eps_path is tv.tv_oracle.eval_tv_eps_path


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "generic-n50", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
