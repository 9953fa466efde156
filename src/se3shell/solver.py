"""Newton iteration with load stepping and multiplicative updates.

Each iteration solves (Kmat + Kgeo - Kdead - Kmag) eta = f_ext + f_mag - f_int
on the free DOFs by one sparse LU factorization, then updates

    nodal poses:      g_i <- g_i exp(eta_i^),
    carried twists:   zeta <- Ad(exp(eta^))^-1 zeta + dexp(eta) d_alpha(eta),
    carried rotations R <- R exp(eta_w^),

with eta interpolated bilinearly at each carried point.  The twist rule is the
exact body-frame derivative field of the multiplicatively updated pose field,
so twists never need to be re-derived from poses.  Convergence is measured on
the residual 2-norm over free DOFs against tol_relative * max(1, |load|).

Loads (boundary wrenches and the applied magnetic field) ramp linearly over
the configured number of steps.  An increment whose largest nodal rotation
exceeds pi/2, a non-finite system, a singular tangent, or a Newton loop that
exhausts max_iters all reject the attempt: the state is restored and the load
increment halved, up to max_halvings, after which the run fails with the last
attempt's rejection reason or residual history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import FemModel
from .liegroup import Ad, dexp_se3, exp_se3, exp_so3, inv_pose, log_so3
from .mesh import DN_PTS_PARENT, N_PTS, ShellMesh

MAX_ROTATION_INCREMENT = np.pi / 2


class StepRejected(RuntimeError):
    """Increment too large for the multiplicative update; halve the load step."""


class SingularSystemError(RuntimeError):
    """Tangent is singular (bifurcation or ill-posed boundary conditions)."""


@dataclass(frozen=True)
class SolverSettings:
    tol_relative: float = 1e-8
    tol_residual: float = 1e-12  # absolute floor
    max_iters: int = 50
    load_steps: int = 20
    damping: float = 1.0

    def __post_init__(self):
        if self.tol_relative <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1 or self.load_steps < 1:
            raise ValueError("max_iters and load_steps must be at least 1")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class StepRecord:
    step: int
    load_factor: float
    iterations: int
    residuals: list[float]
    converged: bool


@dataclass
class SolveReport:
    steps: list[StepRecord] = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    message: str = ""
    max_linear_residual: float = 0.0
    snapshots: list = field(default_factory=list)

    def log_lines(self) -> list[str]:
        out = []
        for rec in self.steps:
            for it, r in enumerate(rec.residuals, start=1):
                out.append(f"{rec.step} {it} {r:.6e}")
        return out


def newton_step(a, b: np.ndarray, refine: int = 3) -> tuple[np.ndarray, float]:
    """Solve the tangent system by sparse LU (SuperLU, COLAMD ordering).

    Returns (eta, relative linear residual); iterative refinement drives the
    residual below 1e-10 relative on reasonably conditioned systems.  Raises
    SingularSystemError with a 1-norm estimate when factorization fails or
    produces non-finite results.
    """
    b = np.asarray(b, dtype=float)
    if b.size == 0:
        return b.copy(), 0.0
    try:
        solve = spla.splu(sp.csc_matrix(a)).solve
        eta = solve(b)
    except (RuntimeError, ValueError) as exc:
        raise SingularSystemError(_singular_message(a)) from exc
    if not np.all(np.isfinite(eta)):
        raise SingularSystemError(_singular_message(a))
    bnorm = max(float(np.linalg.norm(b)), 1e-300)
    rel = float(np.linalg.norm(b - a @ eta)) / bnorm
    for _ in range(refine):
        if rel < 1e-12:
            break
        eta = eta + solve(b - a @ eta)
        rel = float(np.linalg.norm(b - a @ eta)) / bnorm
    return eta, rel


def _singular_message(a) -> str:
    try:
        est = spla.onenormest(a)
    except Exception:
        est = float("nan")
    return f"singular or ill-posed tangent (1-norm estimate {est:.3e})"


def update_configuration(mesh: ShellMesh, eta_nodes: np.ndarray) -> None:
    """Right-multiply nodal poses by exp of the nodal increments.

    Rejects the whole increment if any nodal rotation exceeds pi/2 (the load
    step is then halved by the caller).  Rotations are re-orthonormalized by
    polar projection when drift exceeds 1e-12.
    """
    eta = np.asarray(eta_nodes, dtype=float).reshape(mesh.n_nodes, 6)
    if not np.all(np.isfinite(eta)):
        raise StepRejected("non-finite increment")
    wmax = float(np.max(np.linalg.norm(eta[:, 3:], axis=1)))
    if wmax > MAX_ROTATION_INCREMENT:
        raise StepRejected(f"rotation increment {wmax:.3f} rad exceeds pi/2")
    mesh.state.g_nodes = mesh.state.g_nodes @ exp_se3(eta)
    r = mesh.state.g_nodes[:, :3, :3]
    drift = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max()
    if drift > 1e-12:
        u, _, vt = np.linalg.svd(r)
        mesh.state.g_nodes[:, :3, :3] = u @ vt


def update_twists(mesh: ShellMesh, eta_nodes: np.ndarray) -> None:
    """Evolve carried twists and rotations at all element points.

    With eta the bilinear increment field, each carried point receives

        zeta_alpha <- Ad(exp(eta^))^-1 zeta_alpha + dexp_se3(eta) d_alpha eta,

    which equals vee((g exp(eta^))^-1 d_alpha (g exp(eta^))) for the carried
    pose field; spatially constant eta reduces to the pure frame change.
    """
    eta = np.asarray(eta_nodes, dtype=float).reshape(mesh.n_nodes, 6)
    le1, le2 = mesh.le
    dn_pts = DN_PTS_PARENT * np.array([2.0 / le1, 2.0 / le2])
    eta_el = eta[mesh.conn]                                    # (nel, 4, 6)
    eta_p = np.einsum("pi,eik->epk", N_PTS, eta_el)            # (nel, 5, 6)
    deta_p = np.einsum("pia,eik->epak", dn_pts, eta_el)        # (nel, 5, 2, 6)
    ad_inv = Ad(inv_pose(exp_se3(eta_p)))                      # (nel, 5, 6, 6)
    dx = dexp_se3(eta_p)                                       # (nel, 5, 6, 6)
    mesh.state.zeta_pts = (
        np.einsum("epqr,epar->epaq", ad_inv, mesh.state.zeta_pts)
        + np.einsum("epqr,epar->epaq", dx, deta_p)
    )
    mesh.state.r_pts = mesh.state.r_pts @ exp_so3(eta_p[..., 3:])


def apply_increment_field(model: FemModel, eta_nodes: np.ndarray) -> None:
    """One multiplicative update of the whole state (poses, twists, rotations)."""
    update_configuration(model.mesh, eta_nodes)
    update_twists(model.mesh, eta_nodes)


def perturb_tip_rotation(model: FemModel, magnitude: float, axis: np.ndarray) -> None:
    """Seed a small rotation field growing linearly in xi1 (symmetry breaking)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    mesh = model.mesh
    x1 = mesh.param[:, 0]
    span = max(float(x1.max()), 1e-300)
    eta = np.zeros((mesh.n_nodes, 6))
    eta[:, 3:] = (magnitude * x1 / span)[:, None] * axis
    apply_increment_field(model, eta)


def accumulated_edge_rotation(mesh: ShellMesh, axis: np.ndarray,
                              row: int | None = None) -> float:
    """Total rotation about `axis` accumulated along a xi1 node row.

    Sums the logs of consecutive relative rotations, so multi-turn states are
    measured without 2*pi wrapping (each inter-node rotation must stay under
    pi, true for any reasonable mesh).
    """
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    j = mesh.ny // 2 if row is None else row
    nodes = [mesh.node_index(i, j) for i in range(mesh.nx + 1)]
    total = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        ra = mesh.state.g_nodes[a, :3, :3]
        rb = mesh.state.g_nodes[b, :3, :3]
        total += float(log_so3(ra.T @ rb) @ axis)
    return total


def _newton_loop(model: FemModel, lam: float, step_no: int,
                 settings: SolverSettings, report: SolveReport, emit) -> StepRecord:
    residuals: list[float] = []
    mesh = model.mesh
    for it in range(1, settings.max_iters + 1):
        try:
            system = model.build_system(lam)
        except FloatingPointError as exc:
            raise StepRejected(str(exc)) from exc
        residuals.append(system.residual_norm)
        emit(step_no, it, system.residual_norm)
        tol = max(settings.tol_residual,
                  settings.tol_relative * max(1.0, system.load_norm))
        if system.residual_norm <= tol:
            return StepRecord(step=step_no, load_factor=lam, iterations=it,
                              residuals=residuals, converged=True)
        try:
            eta_free, lin_res = newton_step(system.a, system.b)
        except SingularSystemError as exc:
            raise StepRejected(str(exc)) from exc
        report.max_linear_residual = max(report.max_linear_residual, lin_res)
        eta = np.zeros(mesh.n_dofs)
        eta[system.free] = settings.damping * eta_free
        update_configuration(mesh, eta)
        update_twists(mesh, eta)
    return StepRecord(step=step_no, load_factor=lam, iterations=settings.max_iters,
                      residuals=residuals, converged=False)


def run(model: FemModel, settings: SolverSettings | None = None, *,
        record_snapshots: bool = False,
        on_step=None,
        log=None,
        max_halvings: int = 8) -> SolveReport:
    """Load-stepped Newton solve; never silently accepts non-convergence.

    ``on_step(load_factor, model)`` fires after each scheduled load step
    converges (used for CSV rows and mesh dumps); ``log`` receives one
    `step iter residual` line per iteration.
    """
    settings = settings or SolverSettings()
    report = SolveReport()
    t0 = time.perf_counter()
    mesh = model.mesh

    def emit(step_no, it, res):
        if log is not None:
            log(f"{step_no} {it} {res:.6e}")

    lam = 0.0
    for step_no in range(1, settings.load_steps + 1):
        lam_target = step_no / settings.load_steps
        while lam < lam_target - 1e-14:
            dlam = lam_target - lam
            halvings = 0
            while True:
                snapshot = mesh.state.copy()
                rec = None
                try:
                    rec = _newton_loop(model, lam + dlam, step_no, settings,
                                       report, emit)
                except StepRejected as exc:
                    reason = str(exc)
                if rec is not None and rec.converged:
                    report.steps.append(rec)
                    lam += dlam
                    break
                mesh.state = snapshot
                halvings += 1
                if halvings > max_halvings:
                    if rec is not None:
                        report.steps.append(rec)
                    report.converged = False
                    report.message = (
                        f"no convergence at load factor {lam + dlam:.6g} "
                        f"after {max_halvings} halvings; "
                        + (f"last attempt rejected: {reason}" if rec is None else
                           f"last residual {rec.residuals[-1]:.3e} "
                           f"in {rec.iterations} iterations"))
                    report.wall_time = time.perf_counter() - t0
                    return report
                dlam /= 2.0
        if record_snapshots:
            report.snapshots.append((lam, mesh.state.copy()))
        if on_step is not None:
            on_step(lam, model)
    report.converged = True
    report.wall_time = time.perf_counter() - t0
    return report
