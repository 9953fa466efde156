"""Spans and counters around the public calls of each se3shell layer.

The tracer wraps functions from outside the package: it replaces the binding
a caller looks up (``outputs.run``, ``solver.newton_step``, the ``FemModel``
methods, ...) with a wrapper that records a span ``[id, parent, name, start,
end]`` in memory, and restores every binding on ``close``.  Nothing under
``src/`` is edited.

Lie-group kernels are wrapped only where the solver's update calls them, so
``liegroup.*`` spans are the multiplicative update, while the surface sampling
of the mesh build (which also uses them) stays inside ``mesh.build``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import scipy.linalg
import scipy.sparse.linalg

from se3shell import fem, outputs, scenario, solver
from se3shell.fem import FemModel

# (owner, attribute, span name); the owner is the namespace the caller uses.
SPANS = [
    (scenario, "load_bundled", "scenario.load"),
    (outputs, "run_scenario", "outputs.run_scenario"),
    (outputs, "build_model", "scenario.build_model"),
    (scenario, "build_mesh", "mesh.build"),
    (fem, "stiffness_blocks", "constitutive.stiffness_blocks"),
    (outputs, "run", "solver.run"),
    (FemModel, "build_system", "fem.build_system"),
    (FemModel, "element_kernels", "fem.kernels"),
    (fem, "element_magnetic_force", "magnetics.force"),
    (fem, "element_magnetic_stiffness", "magnetics.stiffness"),
    (FemModel, "assemble", "fem.assemble"),
    (FemModel, "apply_boundary_conditions", "fem.bc"),
    (FemModel, "neumann_terms", "fem.neumann"),
    (solver, "newton_step", "solver.linsolve"),
    (solver, "update_configuration", "solver.update_config"),
    (solver, "update_twists", "solver.update_twists"),
    (solver, "dexp_se3", "liegroup.dexp_se3"),
    (solver, "exp_se3", "liegroup.exp_se3"),
    (solver, "exp_so3", "liegroup.exp_so3"),
    (solver, "Ad", "liegroup.Ad"),
    (solver, "inv_pose", "liegroup.inv_pose"),
    (outputs, "emit_deformed_geometry", "outputs.emit"),
    (outputs, "tip_displacement", "outputs.tip"),
    (outputs, "tip_rotation_angle", "outputs.tip"),
]

# Per-layer time metric -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "scenario.load_s": ["scenario.load"],
    "scenario.build_model_s": ["scenario.build_model"],
    "mesh.build_s": ["mesh.build"],
    "constitutive.stiffness_blocks_s": ["constitutive.stiffness_blocks"],
    "fem.kernels_s": ["fem.kernels"],
    "fem.assemble_s": ["fem.assemble"],
    "fem.neumann_s": ["fem.neumann"],
    "fem.bc_s": ["fem.bc", "fem.build_system"],
    "magnetics.force_s": ["magnetics.force"],
    "magnetics.stiffness_s": ["magnetics.stiffness"],
    "solver.linsolve_s": ["solver.linsolve"],
    "solver.update_config_s": ["solver.update_config"],
    "solver.update_twists_s": ["solver.update_twists"],
    "liegroup.dexp_se3_s": ["liegroup.dexp_se3"],
    "liegroup.exp_se3_s": ["liegroup.exp_se3"],
    "liegroup.exp_so3_s": ["liegroup.exp_so3"],
    "liegroup.Ad_s": ["liegroup.Ad"],
    "liegroup.inv_pose_s": ["liegroup.inv_pose"],
    "solver.run_self_s": ["solver.run"],
    "outputs.emit_s": ["outputs.emit"],
    "outputs.report_s": ["outputs.run_scenario", "outputs.tip"],
}


class Tracer:
    """Installs the wrappers; one instance per traced scenario run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.lu_fill_nnz = 0
        self.max_linear_residual = 0.0
        self.kernel_bytes = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        # attempt accounting: builds of the open attempt and how it would end
        self._attempt_builds = 0
        self._attempt_end = None
        self._before_build = (None, 0)
        self._accepted_builds = 0

    # --- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        hooks = {
            "fem.build_system": self._on_build,
            "fem.kernels": self._on_kernels,
            "solver.linsolve": self._on_linsolve,
            "solver.update_config": self._on_update,
        }
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self._wrap(name, vars(owner)[attr],
                                                  hooks.get(name)))
        self._replace(outputs, "run", self._interpose_log(outputs.run))
        self._replace(scipy.linalg, "lu_factor",
                      self._count_lu(scipy.linalg.lu_factor, dense=True))
        self._replace(scipy.sparse.linalg, "splu",
                      self._count_lu(scipy.sparse.linalg.splu, dense=False))
        return self

    def close(self) -> None:
        """Restore every replaced binding and close the last attempt."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._finish(self._attempt_end, self._attempt_builds)
        self._attempt_end, self._attempt_builds = None, 0

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.close()

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(None, exc)
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                hook(result, None)
            return result

        return wrapper

    def _interpose_log(self, run_fn):
        """Pass the solver's `step iter residual` lines through the accounting."""

        def run(*args, log=None, **kwargs):
            def counted_log(line):
                # the line follows the build it reports, so an `iter == 1`
                # line closes the attempt as it stood before that build
                if line.split()[1] == "1":
                    self._finish(*self._before_build)
                    self._attempt_builds = 1
                    self.counts["attempts"] += 1
                if log is not None:
                    log(line)

            return run_fn(*args, log=counted_log, **kwargs)

        return run

    def _count_lu(self, fn, *, dense: bool):
        def factor(a, *args, **kwargs):
            result = fn(a, *args, **kwargs)
            self.counts["dense_calls"] += dense
            nnz = result[0].size if dense else result.L.nnz + result.U.nnz
            self.lu_fill_nnz = max(self.lu_fill_nnz, int(nnz))
            return result

        return factor

    # --- hooks -----------------------------------------------------------------
    # A converged attempt ends on a build that no linear solve follows; an
    # attempt that exhausts max_iters ends on an update.  Rejections by
    # exception are seen as StepRejected / FloatingPointError in the wrappers.

    def _on_build(self, result, exc):
        self._before_build = (self._attempt_end, self._attempt_builds)
        self._attempt_builds += 1
        self._attempt_end = "accepted" if exc is None else "rejected_nonfinite"

    def _on_kernels(self, kern, exc):
        if kern is not None:
            self.kernel_bytes += sum(a.nbytes for a in (
                kern.kmat, kern.kgeo, kern.kmag, kern.f_int, kern.f_ext, kern.f_mag))

    def _on_linsolve(self, result, exc):
        if result is not None:
            self.max_linear_residual = max(self.max_linear_residual, result[1])
        self._attempt_end = "rejected_maxiter"

    def _on_update(self, result, exc):
        if isinstance(exc, solver.StepRejected):
            self._attempt_end = ("rejected_rotation" if "rotation" in str(exc)
                                 else "rejected_nonfinite")

    def _finish(self, end, builds) -> None:
        if end is not None:
            self.counts[end] += 1
            if end == "accepted":
                self._accepted_builds += builds

    # --- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part covered by its children, summed by name."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of one traced scenario run (close() first)."""
        selfs = self.self_times()
        out = {m: sum(selfs.get(n, 0.0) for n in names)
               for m, names in SELF_TIME_METRICS.items()}
        calls = Counter(s[2] for s in self.spans)
        c = self.counts
        builds = calls["fem.build_system"]
        rejected = (c["rejected_rotation"] + c["rejected_nonfinite"]
                    + c["rejected_maxiter"])
        out.update({
            "fem.kernels_calls": calls["fem.kernels"],
            "fem.kernel_bytes_computed": self.kernel_bytes / max(calls["fem.kernels"], 1),
            "solver.linsolve_calls": calls["solver.linsolve"],
            "solver.linsolve_ms_per_call":
                1e3 * out["solver.linsolve_s"] / max(calls["solver.linsolve"], 1),
            "solver.dense_calls": c["dense_calls"],
            "solver.lu_fill_nnz": self.lu_fill_nnz,
            "solver.max_linear_residual": self.max_linear_residual,
            "solver.attempts": c["attempts"],
            "solver.rejected_attempts": rejected,
            "solver.rejected_rotation": c["rejected_rotation"],
            "solver.rejected_nonfinite": c["rejected_nonfinite"],
            "solver.rejected_maxiter": c["rejected_maxiter"],
            "solver.useful_build_ratio": self._accepted_builds / max(builds, 1),
            "outputs.emit_calls": calls["outputs.emit"],
        })
        return out

    def dump(self, path, run_index: int) -> None:
        """Append this run's spans as JSON lines."""
        with open(path, "a") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": run_index, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
