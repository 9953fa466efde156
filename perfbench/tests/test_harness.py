"""Self-test of the benchmark harness on magnetic_cantilever_lh10 (about 0.25 s).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import json
import statistics
from pathlib import Path

import numpy as np
import pytest

import answers
import bench
from layers import Tracer
from probe import Probe
from se3shell import outputs, scenario, solver
from se3shell.fem import FemModel

SCENARIO = "magnetic_cantilever_lh10"
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
PROBE_REF_S = 0.004


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    cfg = scenario.load_bundled(SCENARIO)
    report, model = outputs.run_scenario(cfg, out, quiet=True)
    assert report.converged
    return answers.read_answer(cfg, model, out)


def _measure(reference, tmp_path, trace):
    return bench.measure(SCENARIO, seconds=1, seed=3, trace=trace,
                         reference=reference, out_root=tmp_path,
                         probe_ref_s=PROBE_REF_S)


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_in_benchmark_json_is_emitted_with_its_unit(
        reference, tmp_path, trace, kind):
    metrics, runs, _ = _measure(reference, tmp_path, trace)
    declared = json.loads(BENCHMARK_JSON.read_text())[kind]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert np.isfinite(metrics[m["name"]]["value"])
    assert runs and all(r.ok for r in runs)


def test_each_run_is_scaled_by_its_own_probe(reference, tmp_path):
    metrics, runs, samples = _measure(reference, tmp_path, trace=False)
    assert runs and all(r.probe_iters > 0 and r.probe_s > 0 for r in runs)
    assert outputs.run is solver.run  # the interleaving wrapper is removed
    scales = [PROBE_REF_S / (r.probe_s / r.probe_iters) for r in runs]
    assert samples["probe_s_per_iteration"] == [r.probe_s / r.probe_iters for r in runs]
    # the probe takes about PROBE_SHARE of each solve
    for r in runs:
        assert r.probe_s == pytest.approx(bench.PROBE_SHARE * r.solve_s, abs=0.02)
    assert metrics["wall_s"]["value"] == pytest.approx(
        statistics.median(r.wall_s * k for r, k in zip(runs, scales)))
    assert metrics["setup_s"]["value"] == pytest.approx(
        statistics.median(samples["setup_s_scaled"]))
    assert len(samples["setup_s_scaled"]) == bench.SETUP_SAMPLES


def test_probe_runs_the_frozen_solver_not_se3shell(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the probe called se3shell")

    for name in ("newton_step", "update_configuration", "update_twists"):
        monkeypatch.setattr(solver, name, broken)
    monkeypatch.setattr(FemModel, "build_system", broken)
    probe = Probe(SCENARIO)
    probe.iteration()
    assert probe.model.mesh.state is not probe.state0


def test_wrong_reference_counts_as_failed_run(reference, tmp_path):
    wrong = copy.deepcopy(reference)
    wrong["steps"][-1]["position"][2] += 10 * answers.TOLERANCE * wrong["length"]
    _, runs, _ = _measure(wrong, tmp_path, trace=False)
    assert runs and not any(r.ok for r in runs)
    assert all("step 20" in r.problems[0] for r in runs)


def test_stopping_newton_one_iteration_early_fails_the_check(
        reference, tmp_path, monkeypatch):
    settings = scenario.load_bundled(SCENARIO).solver
    build = FemModel.build_system

    def build_stopping_early(self, lam=1.0):
        # report convergence one update before the solver would reach it
        system = build(self, lam)
        tol = max(settings.tol_residual,
                  settings.tol_relative * max(1.0, system.load_norm))
        if system.residual_norm > tol:
            saved = self.mesh.state.copy()
            eta = np.zeros(self.mesh.n_dofs)
            eta[system.free] = solver.newton_step(system.a, system.b)[0]
            try:
                solver.apply_increment_field(self, eta)
                if build(self, lam).residual_norm <= tol:
                    system.residual_norm = 0.0
            except solver.StepRejected:
                pass
            self.mesh.state = saved
        return system

    monkeypatch.setattr(FemModel, "build_system", build_stopping_early)
    run = bench.solve_once(SCENARIO, tmp_path, reference)
    assert run.converged
    assert run.builds < 79
    assert run.problems and run.answer_error > 10 * answers.TOLERANCE


def test_traced_self_times_sum_to_traced_wall_within_overhead(reference, tmp_path):
    metrics, runs, _ = _measure(reference, tmp_path, trace=True)
    overhead = metrics["trace.overhead_s"]["value"]
    traced = [r for r in runs if r.traced]
    assert traced
    for r in traced:
        gap = r.wall_s - r.span_self_total_s
        assert 0.0 <= gap <= max(overhead, 0.0) + 1e-3


def test_self_times_are_non_negative_and_spans_nest(tmp_path):
    tracer = Tracer()
    bench.solve_once(SCENARIO, tmp_path, None, tracer=tracer)
    assert all(t >= -1e-9 for t in tracer.self_times().values())
    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, name, start, end in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert by_id[parent][3] <= start and end <= by_id[parent][4]
    # every wrapper was restored
    assert FemModel.build_system.__qualname__ == "FemModel.build_system"
    assert solver.newton_step.__module__ == "se3shell.solver"


def test_attempt_accounting_matches_the_solver_on_rejections(tmp_path):
    tracer = Tracer()
    with tracer:
        report, _ = outputs.run_scenario(scenario.load_bundled("antiparallel"),
                                         tmp_path, quiet=True)
    m = tracer.metrics()
    assert report.converged
    accepted_builds = sum(rec.iterations for rec in report.steps)
    assert m["solver.attempts"] == len(report.steps) + 6
    assert m["solver.rejected_rotation"] == m["solver.rejected_attempts"] == 6
    assert m["fem.kernels_calls"] == 199
    assert m["solver.useful_build_ratio"] == pytest.approx(accepted_builds / 199)


def test_attempts_that_exhaust_max_iters_are_counted(tmp_path):
    cfg = scenario.with_overrides(scenario.load_bundled(SCENARIO), max_iters=2)
    tracer = Tracer()
    with tracer:
        report, _ = outputs.run_scenario(cfg, tmp_path, quiet=True)
    m = tracer.metrics()
    assert not report.converged
    assert m["solver.rejected_maxiter"] == m["solver.attempts"] - len(
        [r for r in report.steps if r.converged])
    assert m["solver.rejected_rotation"] == m["solver.rejected_nonfinite"] == 0
