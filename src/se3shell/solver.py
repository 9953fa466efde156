"""Newton iteration with load stepping and multiplicative updates.

Each iteration solves (Kmat + Kgeo - Kdead - Kmag) eta = f_ext + f_mag - f_int
on the free DOFs by one banded LU factorization (LAPACK dgbtrf with partial
pivoting, on the band that `build_system` scatters in the grid order of the
mesh), then applies one multiplicative update of the whole state
(`apply_increment_field`):

    nodal poses:      g_i <- g_i exp(eta_i^),
    carried twists:   zeta <- Ad(exp(eta^))^-1 zeta + dexp(eta) d_alpha(eta),
    carried rotations R <- R exp(eta_w^),

with eta interpolated bilinearly at each carried point.  The twist rule is the
exact body-frame derivative field of the multiplicatively updated pose field,
so twists never need to be re-derived from poses.  Twists are carried only at
the strain sample points of the model's scheme (the centroid, or the four
Gauss points), rotations only at the Gauss points of a magnetized mesh.  Both
point rules are closed form (no series) and evaluated together, one
coefficient pass over the union of those points.  Convergence is measured on
the residual 2-norm over free DOFs against tol_relative * max(1, |load|); the
tangent is assembled only for an iteration that goes on to a linear solve.

The load factor ramps linearly over the configured number of steps; boundary
wrenches scale with it and the applied magnetic field follows the model's
field program.  An increment whose largest nodal rotation exceeds pi/2, a
non-finite system, a singular tangent, a linear solve whose refined relative
residual exceeds 1e-6, or a Newton loop that exhausts max_iters all reject
the attempt: the state is restored together with its memoized kernels
(`FemModel.snapshot`/`restore`), the reason recorded in
SolveReport.rejections and the load increment halved, up to max_halvings,
after which the run fails with the last attempt's rejection reason.
SolveReport counts every Newton iteration and attempt, rejected ones too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .fem import FemModel
from .liegroup import carried_update, exp_se3, log_so3
# Bound here, though the update no longer calls them, so that perfbench/layers.py
# can wrap them by name.
from .liegroup import Ad, dexp_se3, exp_so3, inv_pose  # noqa: F401
from .mesh import DN_PTS_PARENT, GAUSS_POINTS, N_PTS, ShellMesh

MAX_ROTATION_INCREMENT = np.pi / 2
# Relative residual of the refined linear solve above which the increment is
# not a Newton step.  Accepted iterations of the bundled scenarios stay below
# 4e-8; the near-singular systems of rejected roll-up attempts reach 1e2-1e6.
MAX_LINEAR_RESIDUAL = 1e-6
# Iterative refinement sweeps at most; each one costs a solve and a residual.
REFINEMENT_SWEEPS = 3


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

    def __post_init__(self):
        if not (0 < self.tol_relative < np.inf and 0 < self.tol_residual < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_iters < 1 or self.load_steps < 1:
            raise ValueError("max_iters and load_steps must be at least 1")


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
    # Newton iterations (system builds) and attempts, accepted and rejected
    iterations: int = 0
    attempts: int = 0
    # (step, load_factor, reason) of every rejected attempt, in order
    rejections: list[tuple[int, float, str]] = field(default_factory=list)


def newton_step(a, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve the tangent system by banded LU (LAPACK dgbtrf/dgbtrs).

    `build_system` returns the tangent as a `dia_matrix` with strictly
    descending offsets over grid-ordered DOFs, holding only the diagonals the
    elements write, so the only per-call work before the factorization is the
    copy of each stored diagonal with offset o into row kl + ku - o of the
    (2 kl + ku + 1, m) work array (LAPACK's band layout), whose first kl rows
    take the fill of partial pivoting; the diagonals not stored stay zero.
    Any other sparse or dense matrix is converted through COO to band, with
    kl and ku taken from its entries.  The factorization
    costs about m kl^2 with kl = 6 (min(nx, ny) + 3) - 1, so it grows with
    the square of the shorter grid side: a general sparse LU with a
    minimum-degree order would win again once min(nx, ny) is well above 15,
    which no bundled scenario is near.

    Returns (eta, relative linear residual).  Up to REFINEMENT_SWEEPS sweeps
    of iterative refinement follow; they stop once the residual is below 1e-12
    relative or a sweep fails to halve it (the roundoff floor eps*cond of the
    tangent).  The caller rejects the step when the residual stays above
    MAX_LINEAR_RESIDUAL.  Raises SingularSystemError with a 1-norm estimate
    when the factorization meets an exactly zero pivot (info > 0) or produces
    non-finite results.
    """
    b = np.asarray(b, dtype=float)
    if b.size == 0:
        return b.copy(), 0.0
    band, offsets = _band(a)
    ku, kl = int(offsets[0]), -int(offsets[-1])
    work = np.zeros((2 * kl + ku + 1, b.size), order="F")
    # diagonal i (offset o) goes to row kl + ku - o; each run of consecutive
    # offsets is one slice copy, which numpy makes in the work array's memory
    # order (a fancy row index took twice as long on the strips)
    offs, start = offsets.tolist(), 0
    for end in range(1, len(offs) + 1):
        if end == len(offs) or offs[end] != offs[end - 1] - 1:
            row = kl + ku - offs[start]
            work[row:row + end - start] = band[start:end]
            start = end
    lu, piv, info = lapack.dgbtrf(work, kl, ku, overwrite_ab=True)
    if info > 0:
        raise SingularSystemError(_singular_message(a))

    def solve(rhs):
        return lapack.dgbtrs(lu, kl, ku, rhs, piv)[0]

    eta = solve(b)
    if not np.all(np.isfinite(eta)):
        raise SingularSystemError(_singular_message(a))
    bnorm = max(float(np.linalg.norm(b)), 1e-300)
    r = b - a @ eta
    rel = float(np.linalg.norm(r)) / bnorm
    for _ in range(REFINEMENT_SWEEPS):
        if rel < 1e-12:
            break
        eta = eta + solve(r)
        r = b - a @ eta
        prev, rel = rel, float(np.linalg.norm(r)) / bnorm
        if rel > 0.5 * prev:
            break
    return eta, rel


def _band(a) -> tuple[np.ndarray, np.ndarray]:
    """(data, offsets) of `a` as column-indexed diagonals: A[i, j] at data[d, j]
    with offsets[d] == j - i, offsets strictly descending from ku >= 0 to -kl <= 0."""
    if sp.issparse(a) and a.format == "dia":
        offsets = a.offsets
        if (offsets[0] >= 0 >= offsets[-1] and np.all(np.diff(offsets) < 0)
                and a.data.shape[1] == a.shape[1]):
            return a.data, offsets
    coo = sp.coo_matrix(a)
    offset = coo.col - coo.row
    ku = int(offset.max(initial=0))
    kl = -int(offset.min(initial=0))
    data = np.zeros((kl + ku + 1, coo.shape[1]))
    np.add.at(data, (ku - offset, coo.col), coo.data)
    return data, np.arange(ku, -kl - 1, -1)


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
    """Evolve the twists and rotations the state carries.

    With eta the bilinear increment field, each carried point receives

        zeta_alpha <- Ad(exp(eta^))^-1 zeta_alpha + dexp_se3(eta) d_alpha eta,
        R <- R exp_so3(eta_w),

    which equals vee((g exp(eta^))^-1 d_alpha (g exp(eta^))) for the carried
    pose field; spatially constant eta reduces to the pure frame change.  The
    twists are evolved at `ShellState.twist_points` only and the rotations at
    the Gauss points only when the state carries them; all three maps come in
    closed form from one `carried_update` pass over the union of those points.
    """
    eta = np.asarray(eta_nodes, dtype=float).reshape(mesh.n_nodes, 6)
    state = mesh.state
    twist_pts = state.twist_points
    rotations = state.r_pts.shape[1] > 0
    # twist points first: carried_update evaluates twists at the leading points
    pts = (np.concatenate([twist_pts, np.setdiff1d(GAUSS_POINTS, twist_pts)])
           if rotations else twist_pts)
    nel, n, m = mesh.n_elements, len(pts), len(twist_pts)
    le1, le2 = mesh.le
    dn = DN_PTS_PARENT[twist_pts] * np.array([2.0 / le1, 2.0 / le2])   # (m, 4, 2)
    interp = np.concatenate([N_PTS[pts], np.swapaxes(dn, 1, 2).reshape(2 * m, 4)])
    at_pts = interp @ eta[mesh.conn]                                  # (nel, n + 2m, 6)
    rot, state.zeta_pts = carried_update(
        at_pts[:, :n], state.zeta_pts, at_pts[:, n:].reshape(nel, m, 2, 6))
    if rotations:
        state.r_pts = state.r_pts @ rot[:, np.argsort(pts)[-len(GAUSS_POINTS):]]


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
        except (FloatingPointError, SingularSystemError) as exc:
            raise StepRejected(str(exc)) from exc
        report.max_linear_residual = max(report.max_linear_residual, lin_res)
        if lin_res > MAX_LINEAR_RESIDUAL:
            raise StepRejected(f"linear residual {lin_res:.3e} exceeds "
                               f"{MAX_LINEAR_RESIDUAL:.0e}: tangent system not solved")
        eta = np.zeros(model.mesh.n_dofs)
        eta[system.free] = eta_free
        apply_increment_field(model, eta)
    return StepRecord(step=step_no, load_factor=lam, iterations=settings.max_iters,
                      residuals=residuals, converged=False)


def run(model: FemModel, settings: SolverSettings | None = None, *,
        on_step=None,
        log=None,
        max_halvings: int = 8) -> SolveReport:
    """Load-stepped Newton solve; never silently accepts non-convergence.

    ``on_step(load_factor, model)`` fires after each scheduled load step
    converges (used for CSV rows and mesh dumps); ``log`` receives one
    `step iter residual` line per iteration.  Every rejected attempt is
    recorded in ``report.rejections`` with its reason.
    """
    settings = settings or SolverSettings()
    report = SolveReport()
    t0 = time.perf_counter()

    def emit(step_no, it, res):
        report.iterations += 1
        if log is not None:
            log(f"{step_no} {it} {res:.6e}")

    lam = 0.0
    for step_no in range(1, settings.load_steps + 1):
        lam_target = step_no / settings.load_steps
        while lam < lam_target - 1e-14:
            dlam = lam_target - lam
            halvings = 0
            while True:
                snapshot = model.snapshot()
                report.attempts += 1
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
                if rec is not None:
                    reason = (f"no convergence in {rec.iterations} iterations, "
                              f"last residual {rec.residuals[-1]:.3e}")
                report.rejections.append((step_no, lam + dlam, reason))
                model.restore(snapshot)
                halvings += 1
                if halvings > max_halvings:
                    if rec is not None:
                        report.steps.append(rec)
                    report.converged = False
                    report.message = (
                        f"no convergence at load factor {lam + dlam:.6g} "
                        f"after {max_halvings} halvings; "
                        f"last attempt rejected: {reason}")
                    report.wall_time = time.perf_counter() - t0
                    return report
                dlam /= 2.0
        if on_step is not None:
            on_step(lam, model)
    report.converged = True
    report.wall_time = time.perf_counter() - t0
    return report
