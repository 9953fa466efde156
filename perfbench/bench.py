"""Measurement loop of the solve benchmark.

The load is a closed loop with one client: one bundled scenario at a time in
one process, each run the call `se3shell bench NAME` makes (`load_bundled`,
then `outputs.run_scenario` with its CSV, mesh-dump and report writes).  Runs
repeat until the next one would overrun the measuring time; every run's answer
is checked against the recorded reference.  Untraced runs give the end-to-end
metrics, their times scaled to a fixed machine speed by the probe that runs
inside each of them (probe.py).  With tracing on, traced and untraced runs
alternate, the traced ones give the per-layer metrics, and the difference of the two medians is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from se3shell import outputs, scenario

import answers
from layers import Tracer
from probe import Probe


class Workload(NamedTuple):
    scenario: str
    closure: float | None   # analytic accumulated edge rotation, if any
    probe_ref_s: float      # probe s/iteration that times are scaled to (probe.py)


WORKLOADS = {
    "rollup": Workload("rollup_6pi", 6.0 * np.pi, 0.020),
    "plate": Workload("magnetic_plate_A", None, 0.075),
    "arch": Workload("arch_transverse", None, 0.030),
    "antiparallel": Workload("antiparallel", None, 0.0135),
}
# Probe time inside a run, as a share of the run's own solve time.
PROBE_SHARE = 0.12
# Small scenario that runs every code path but sparse LU before timing starts.
WARMUP_SCENARIO = "magnetic_cantilever_lh10"
SETUP_SAMPLES = 41

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "iters_per_s": "1/s",
    "newton_iters": "count",
    "attempts": "count",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "scenario.load_s": "s",
    "scenario.build_model_s": "s",
    "mesh.build_s": "s",
    "constitutive.stiffness_blocks_s": "s",
    "fem.kernels_s": "s",
    "fem.kernels_calls": "count",
    "fem.kernel_bytes_computed": "B",
    "fem.assemble_s": "s",
    "fem.neumann_s": "s",
    "fem.bc_s": "s",
    "magnetics.force_s": "s",
    "magnetics.stiffness_s": "s",
    "solver.linsolve_s": "s",
    "solver.linsolve_calls": "count",
    "solver.linsolve_ms_per_call": "ms",
    "solver.dense_calls": "count",
    "solver.lu_fill_nnz": "count",
    "solver.max_linear_residual": "1",
    "solver.update_config_s": "s",
    "solver.update_twists_s": "s",
    "liegroup.dexp_se3_s": "s",
    "liegroup.exp_se3_s": "s",
    "liegroup.exp_so3_s": "s",
    "liegroup.Ad_s": "s",
    "liegroup.inv_pose_s": "s",
    "solver.attempts": "count",
    "solver.rejected_attempts": "count",
    "solver.rejected_rotation": "count",
    "solver.rejected_nonfinite": "count",
    "solver.rejected_maxiter": "count",
    "solver.useful_build_ratio": "1",
    "solver.run_self_s": "s",
    "outputs.emit_s": "s",
    "outputs.emit_calls": "count",
    "outputs.report_s": "s",
    "outputs.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class SolveRun:
    """One `load_bundled` + `run_scenario` call and what it produced."""

    traced: bool
    wall_s: float
    solve_s: float = 0.0
    builds: int = 0
    attempts: int = 0
    accepted_attempts: int = 0
    converged: bool = False
    answer_error: float = float("inf")
    answer_identical: bool = False
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0
    layers: dict | None = None
    span_self_total_s: float = 0.0
    probe_s: float = 0.0     # probe time inside the run, taken out of wall and solve
    probe_iters: int = 0

    @property
    def ok(self) -> bool:
        return self.converged and not self.problems


def solve_once(scenario_name: str, out_dir: Path, reference: dict | None,
               closure: float | None = None, tracer: Tracer | None = None,
               probe: Probe | None = None) -> SolveRun:
    """Time one run; check its answer afterwards, outside the timed region.

    With a probe, probe iterations run between the load steps; their time is
    taken out of the run's wall and solve times.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        tracer.install()
    probing = (probe.interleaved(PROBE_SHARE) if probe is not None
               else contextlib.nullcontext())
    t0 = time.perf_counter()
    try:
        with probing:
            cfg = scenario.load_bundled(scenario_name)
            report, model = outputs.run_scenario(cfg, out_dir, quiet=True)
    except Exception:  # a crashed run is a failed run; the loop goes on
        traceback.print_exc()
        return SolveRun(traced=tracer is not None, wall_s=time.perf_counter() - t0,
                        problems=["raised: " + traceback.format_exc(limit=1)])
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.close()
    probe_s = probe.elapsed_s if probe is not None else 0.0
    run = SolveRun(traced=tracer is not None, wall_s=wall - probe_s,
                   solve_s=report.wall_time - probe_s, probe_s=probe_s,
                   probe_iters=probe.iterations if probe is not None else 0,
                   converged=report.converged,
                   accepted_attempts=len(report.steps) if report.converged else 0)
    with open(out_dir / "solve_report.txt") as fh:
        log = fh.read().split("\nlog:\n", 1)[1].splitlines()
    run.builds = len(log)
    run.attempts = sum(1 for line in log if line.split()[1] == "1")
    run.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
    if reference is not None:
        answer = answers.read_answer(cfg, model, out_dir, closure)
        run.answer_error, run.problems = answers.answer_error(answer, reference)
        run.answer_identical = answer["csv_sha256"] == reference["csv_sha256"]
    if not run.converged:
        run.problems.insert(0, f"not converged: {report.message}")
    if tracer is not None:
        run.layers = tracer.metrics()
        run.layers["outputs.bytes_written"] = run.bytes_written
        run.span_self_total_s = sum(tracer.self_times().values())
    return run


def setup_once(scenario_name: str) -> float:
    """`load_bundled` plus `build_model`, the set-up part of a run."""
    t0 = time.perf_counter()
    cfg = scenario.load_bundled(scenario_name)
    outputs.build_model(cfg)
    return time.perf_counter() - t0


def run_record(workload: str, seed: int, seconds: int, trace: bool,
               root: Path) -> dict:
    """Machine, library versions, commit and seed of one benchmark run."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": workload, "scenario": WORKLOADS[workload].scenario,
        "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
    }


def measure(scenario_name: str, *, seconds: float, seed: int, trace: bool,
            reference: dict | None, out_root: Path, probe_ref_s: float,
            closure: float | None = None,
            spans_path: Path | None = None) -> tuple[dict, list[SolveRun], dict]:
    """Run the closed loop; return (metrics with units, runs, samples).

    The seed sets the order of traced and untraced runs and where the set-up
    samples fall between runs; the scenario inputs stay exactly as bundled.
    Without tracing, the probe (probe.py) runs inside each run, and the run's
    times are scaled by ``probe_ref_s`` over the probe's seconds per
    iteration in that run.
    Spans stay in memory until the loop ends, then go to ``spans_path``.
    """
    rng = random.Random(seed)
    solve_once(WARMUP_SCENARIO, out_root / "warmup", None)
    setup_once(scenario_name)
    probe = None if trace else Probe(scenario_name)

    def setup_sample() -> float:
        # scaled by a probe iteration right after it, as runs are
        return setup_once(scenario_name) * probe_ref_s / probe.timed_iteration()

    setup_times: list[float] = []
    runs: list[SolveRun] = []
    tracers: list[Tracer] = []
    longest = {False: 0.0, True: 0.0}
    kinds = [True, False] if trace else [False]

    t_start = time.perf_counter()
    while True:
        order = rng.sample(kinds, len(kinds))
        elapsed = time.perf_counter() - t_start
        if runs and elapsed + sum(longest[k] for k in order) > seconds:
            break
        for traced in order:
            if not trace:
                for _ in range(rng.randint(0, 3)):
                    if len(setup_times) < SETUP_SAMPLES:
                        setup_times.append(setup_sample())
            tracer = Tracer() if traced else None
            t0 = time.perf_counter()
            run = solve_once(scenario_name, out_root / "run", reference, closure,
                             tracer, probe)
            runs.append(run)
            if tracer is not None:
                tracers.append(tracer)
            longest[traced] = max(longest[traced], time.perf_counter() - t0)
    while not trace and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_sample())
    if spans_path is not None:
        spans_path.unlink(missing_ok=True)
        for i, tracer in enumerate(tracers):
            tracer.dump(spans_path, i)

    # a run that raised has no timings; it only counts as failed
    plain = [r for r in runs if not r.traced and r.solve_s > 0]
    med = statistics.median
    probe_times = [r.probe_s / r.probe_iters for r in plain if r.probe_iters]
    if not trace:
        # (run, factor to seconds of a machine where one probe iteration
        # takes probe_ref_s)
        scaled = [(r, probe_ref_s * r.probe_iters / r.probe_s)
                  for r in plain if r.probe_iters]
        metrics = {
            "wall_s": med(r.wall_s * k for r, k in scaled),
            "setup_s": med(setup_times),
            "solve_s": med(r.solve_s * k for r, k in scaled),
            "iters_per_s": med(r.builds / (r.solve_s * k) for r, k in scaled),
            "newton_iters": med(r.builds for r in plain),
            "attempts": med(r.attempts for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        traced = [r for r in runs if r.layers is not None]
        metrics = {name: med(r.layers[name] for r in traced)
                   for name in traced[0].layers}
        metrics["trace.wall_s"] = med(r.wall_s for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - med(r.wall_s for r in plain)
        units = PER_LAYER_UNITS
    with_units = {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}
    samples = {"setup_s_scaled": setup_times, "probe_s_per_iteration": probe_times}
    return with_units, runs, samples


def run_workload(workload: str, *, seed: int, seconds: int, trace: bool,
                 root: Path) -> dict:
    """Measure one workload, write its run record and spans, return the result."""
    w = WORKLOADS[workload]
    reference = answers.load_reference(
        Path(__file__).parent / "reference" / f"{workload}.json")
    out_root = root / ".perfbench_out" / workload
    out_root.mkdir(parents=True, exist_ok=True)
    record = run_record(workload, seed, seconds, trace, root)
    print("# " + json.dumps(record), flush=True)

    metrics, runs, samples = measure(
        w.scenario, seconds=seconds, seed=seed, trace=trace, reference=reference,
        out_root=out_root, closure=w.closure, probe_ref_s=w.probe_ref_s,
        spans_path=out_root / f"spans_seed{seed}.jsonl" if trace else None)

    failed = sum(1 for r in runs if not r.ok)
    for i, r in enumerate(runs):
        print(f"# run {i} {'traced' if r.traced else 'untraced'}: wall {r.wall_s:.4f} s, "
              f"solve {r.solve_s:.4f} s, {r.builds} builds, {r.attempts} attempts "
              f"({r.attempts - r.accepted_attempts} rejected), answer error "
              f"{r.answer_error:.2e}{'' if r.answer_identical else ' (not bit-identical)'}"
              f"{'' if r.ok else ' FAILED: ' + '; '.join(r.problems[:3])}", flush=True)
    if not trace:
        probe_s = statistics.median(samples["probe_s_per_iteration"])
        print(f"# probe: median {1e3 * probe_s:.3f} ms per iteration, times scaled by "
              f"about {w.probe_ref_s / probe_s:.4f}", flush=True)
    record.update(metrics=metrics, samples=samples,
                  runs=[{k: v for k, v in asdict(r).items() if k != "layers"}
                        for r in runs])
    with open(out_root / f"record_seed{seed}_trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def record_reference(workload: str, root: Path) -> Path:
    """Run the workload once and store its answer as the reference."""
    scenario_name, closure = WORKLOADS[workload][:2]
    out_dir = root / ".perfbench_out" / workload / "reference_run"
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = scenario.load_bundled(scenario_name)
    report, model = outputs.run_scenario(cfg, out_dir, quiet=True)
    if not report.converged:
        raise RuntimeError(f"{scenario_name} did not converge: {report.message}")
    path = Path(__file__).parent / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    answers.save_reference(answers.read_answer(cfg, model, out_dir, closure), path)
    return path
