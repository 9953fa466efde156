"""Machine-speed probe: fixed Newton iterations of the frozen seed solver.

On a shared host the same solve runs up to 2x slower, for seconds or for
minutes, with no steal time: the process is on the CPU but gets less done.
So while a scenario solves, the benchmark also times Newton iterations of the
same scenario run by ``seed_se3shell``, a frozen copy of the solver, between
its load steps.  They do the same kinds of work as the solve (element
kernels, assembly, boundary conditions, the dense or sparse LU, the Lie-group
update) in the same seconds, so the host's slowdowns hit both alike.  A
change to ``se3shell`` cannot change the probe, so dividing by it cancels only
the host's speed.

Every probe iteration starts from the same state: the reference configuration
at a quarter of the first load step.  It builds the system, solves it and
applies the update, then restores the state, so each iteration repeats the
same arithmetic.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from se3shell import outputs
from seed_se3shell import scenario as seed_scenario
from seed_se3shell import solver as seed_solver


class Probe:
    """Newton iterations of one bundled scenario in the frozen solver."""

    def __init__(self, scenario_name: str):
        cfg = seed_scenario.load_bundled(scenario_name)
        self.model = seed_scenario.build_model(cfg)
        self.state0 = self.model.mesh.state.copy()
        self.load_factor = 0.25 / cfg.solver.load_steps
        self.elapsed_s = 0.0
        self.iterations = 0
        self.iteration()  # warm-up, untimed

    def iteration(self) -> None:
        model, mesh = self.model, self.model.mesh
        mesh.state = self.state0.copy()
        system = model.build_system(self.load_factor)
        eta_free, _ = seed_solver.newton_step(system.a, system.b)
        eta = np.zeros(mesh.n_dofs)
        eta[system.free] = eta_free
        seed_solver.update_configuration(mesh, eta)
        seed_solver.update_twists(mesh, eta)

    def timed_iteration(self) -> float:
        t0 = time.perf_counter()
        self.iteration()
        return time.perf_counter() - t0

    @contextlib.contextmanager
    def interleaved(self, share: float):
        """Probe inside each solve, for ``share`` of the solve's own time.

        Wraps the ``solver.run`` that ``outputs.run_scenario`` calls.  After each
        converged load step, probe iterations run until the probe time reaches
        ``share`` times the solve time so far, so the probe samples the solve
        where its time goes.  Probe time accumulates in ``elapsed_s``, the
        count in ``iterations``; both start at 0 on entry.
        """
        original = outputs.run
        self.elapsed_s, self.iterations = 0.0, 0

        def run(model, settings, *, on_step=None, **kwargs):
            start = time.perf_counter()

            def step(load_factor, mdl):
                if on_step is not None:
                    on_step(load_factor, mdl)
                solve_s = time.perf_counter() - start - self.elapsed_s
                while self.elapsed_s < share * solve_s:
                    self.elapsed_s += self.timed_iteration()
                    self.iterations += 1

            return original(model, settings, on_step=step, **kwargs)

        outputs.run = run
        try:
            yield self
        finally:
            outputs.run = original
