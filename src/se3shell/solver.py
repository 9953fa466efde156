"""Newton iteration with load stepping and multiplicative updates.

Each iteration solves (Kmat + Kgeo - Kdead - Kmag) eta = f_ext + f_mag - f_int
on the free DOFs by one banded LU factorization (LAPACK dgbtrf with partial
pivoting, on the band that `build_system` scatters in the grid order of the
mesh), then applies one multiplicative update of the whole state
(`apply_increment_field`):

    nodal poses:      g_i <- g_i exp(eta_i^),
    carried twists:   zeta <- Ad(exp(eta^))^-1 zeta + dexp(eta) d_alpha(eta),
    carried rotations R <- R exp_so3(eta_w),

with eta interpolated bilinearly at each carried point.  The twist rule is the
exact body-frame derivative field of the multiplicatively updated pose field,
so twists never need to be re-derived from poses.  Twists are carried only at
the strain sample points of the model's scheme (the centroid, or the four
Gauss points) and updated in closed form (no series) by `carried_update`;
rotations are carried only at the Gauss points of a magnetized mesh, and only
there is `exp_so3` evaluated.  Convergence is measured on the residual 2-norm
over free DOFs against tol_relative * max(1, |load|); the tangent is
assembled only for an iteration that goes on to a linear solve.

The load factor ramps linearly over the configured number of steps; boundary
wrenches scale with it and the applied magnetic field follows the model's
field program.  An increment whose largest nodal rotation exceeds pi/2, a
non-finite system, a singular tangent, a linear solve whose refined relative
residual exceeds 1e-6, or a Newton loop that exhausts max_iters all reject
the attempt with an exception: the state is restored together with its
memoized kernels from the snapshot taken once per load increment
(`FemModel.snapshot`/`restore`), the message kept as the attempt's reason
(with a category, set where the exception is raised) and the increment
halved, up to MAX_HALVINGS times, after which the run fails with the last
attempt's reason.  Every solve assembles and factors its own tangent, and the
factor lives only for that solve.  SolveReport keeps one Attempt record per
attempt, and reads every tally from them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .fem import FemModel
from .liegroup import carried_update, exp_se3, exp_so3, log_so3
# Bound here, though the update no longer calls them, so that perfbench/layers.py
# can wrap them by name.
from .liegroup import Ad, dexp_se3, inv_pose  # noqa: F401
from .mesh import DN_PTS_PARENT, GAUSS_POINTS, N_PTS, ShellMesh

MAX_ROTATION_INCREMENT = np.pi / 2
# Relative residual of the refined linear solve above which the increment is
# not a Newton step.  Accepted iterations of the bundled scenarios stay below
# 4e-8; the near-singular systems of rejected roll-up attempts reach 1e2-1e6.
MAX_LINEAR_RESIDUAL = 1e-6
# Halvings of a load increment after rejected attempts before the run fails.
MAX_HALVINGS = 8
# Iterative refinement sweeps at most; each one costs a solve and a residual.
REFINEMENT_SWEEPS = 3


class StepRejected(RuntimeError):
    """The attempt cannot go on; halve the load step.

    `category` names the cause: "rotation_increment", "linear_residual",
    "nonfinite" or "max_iters".
    """

    def __init__(self, reason: str, category: str):
        super().__init__(reason)
        self.category = category


class SingularSystemError(RuntimeError):
    """Tangent is singular (bifurcation or ill-posed boundary conditions)."""

    category = "singular_tangent"


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
class Attempt:
    """One Newton attempt: its load increment `dlam` up to `load_factor`, a
    residual per system build, a linear residual per solve and, if it was
    rejected, the reason and its category, one of "rotation_increment",
    "linear_residual", "singular_tangent", "nonfinite" (a non-finite
    increment or system) and "max_iters"."""

    step: int
    load_factor: float
    dlam: float
    residuals: list[float] = field(default_factory=list)
    linear_residuals: list[float] = field(default_factory=list)
    converged: bool = False
    reason: str = ""
    category: str = ""

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    def log_line(self, it: int) -> str:
        """The `step iter residual` line of iteration `it` (from 1)."""
        return f"{self.step} {it} {self.residuals[it - 1]:.6e}"


@dataclass
class SolveReport:
    """Every attempt of a run in order; the tallies below are read from them."""

    attempts: list[Attempt] = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    message: str = ""

    @property
    def steps(self) -> list[Attempt]:  # the accepted attempts
        return [a for a in self.attempts if a.converged]

    @property
    def rejections(self) -> list[tuple[int, float, str]]:
        return [(a.step, a.load_factor, a.reason) for a in self.attempts if not a.converged]

    @property
    def iterations(self) -> int:  # Newton iterations (system builds)
        return sum(a.iterations for a in self.attempts)

    @property
    def max_linear_residual(self) -> float:
        return max((r for a in self.attempts for r in a.linear_residuals), default=0.0)


def newton_step(a, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve the tangent system by banded LU (LAPACK dgbtrf/dgbtrs).

    `a` is the band tangent of `build_system`, factored once here.  Returns
    (eta, relative linear residual).  Up to REFINEMENT_SWEEPS sweeps of
    iterative refinement follow; they stop once the residual is below 1e-12
    relative or a sweep fails to halve it (the roundoff floor eps*cond of the
    tangent).  The caller rejects the step when the residual stays above
    MAX_LINEAR_RESIDUAL.  Raises SingularSystemError with a 1-norm estimate
    when the factorization meets an exactly zero pivot (info > 0) or produces
    non-finite results, and TypeError for a matrix that is not such a band.
    """
    b = np.asarray(b, dtype=float)
    lu, piv, kl, ku = _band_factor(a)
    eta = lapack.dgbtrs(lu, kl, ku, b, piv)[0]
    if not np.all(np.isfinite(eta)):
        raise SingularSystemError(_singular_message(a))
    bnorm = max(float(np.linalg.norm(b)), 1e-300)
    r = b - a @ eta
    rel = float(np.linalg.norm(r)) / bnorm
    for _ in range(REFINEMENT_SWEEPS):
        if rel < 1e-12:
            break
        eta = eta + lapack.dgbtrs(lu, kl, ku, r, piv)[0]
        r = b - a @ eta
        prev, rel = rel, float(np.linalg.norm(r)) / bnorm
        if rel > 0.5 * prev:
            break
    return eta, rel


def _band_factor(a):
    """(lu, piv, kl, ku): the LAPACK dgbtrf factor of a band of `build_system`.

    `a` is a `dia_matrix` with strictly descending offsets from ku >= 0 to
    -kl <= 0 over grid-ordered DOFs, holding only the diagonals the elements
    write; any other matrix raises TypeError.  Each stored diagonal with
    offset o is copied into row kl + ku - o of the (2 kl + ku + 1, m) work
    array (LAPACK's band layout), whose first kl rows take the fill of
    partial pivoting; the diagonals not stored stay zero.  The factorization
    costs about m kl^2 with kl = 6 (min(nx, ny) + 3) - 1, so it grows with
    the square of the shorter grid side; measured on square plates up to
    60x60 it still beats a sparse LU with a minimum-degree order at every
    size (617 ms against 5.25 s at 60x60).  An exactly zero pivot (info > 0)
    raises SingularSystemError with a 1-norm estimate.
    """
    if not (sp.issparse(a) and a.format == "dia" and a.shape[0] == a.shape[1]
            and a.data.shape[1] == a.shape[0]
            and a.offsets[0] >= 0 >= a.offsets[-1] and np.all(np.diff(a.offsets) < 0)):
        raise TypeError("newton_step takes the band of build_system: a dia_matrix "
                        "with full-length diagonals, offsets strictly descending "
                        f"through 0; got {type(a).__name__}")
    ku, kl = int(a.offsets[0]), -int(a.offsets[-1])
    work = np.zeros((2 * kl + ku + 1, a.shape[0]), order="F")
    # diagonal i (offset o) goes to row kl + ku - o; each run of consecutive
    # offsets is one slice copy, which numpy makes in the work array's memory
    # order (a fancy row index took twice as long on the strips)
    offs, start = a.offsets.tolist(), 0
    for end in range(1, len(offs) + 1):
        if end == len(offs) or offs[end] != offs[end - 1] - 1:
            row = kl + ku - offs[start]
            work[row:row + end - start] = a.data[start:end]
            start = end
    lu, piv, info = lapack.dgbtrf(work, kl, ku, overwrite_ab=True)
    if info > 0:
        raise SingularSystemError(_singular_message(a))
    return lu, piv, kl, ku


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
        raise StepRejected("non-finite increment", "nonfinite")
    wmax = float(np.max(np.linalg.norm(eta[:, 3:], axis=1)))
    if wmax > MAX_ROTATION_INCREMENT:
        raise StepRejected(f"rotation increment {wmax:.3f} rad exceeds pi/2",
                           "rotation_increment")
    mesh.state.g_nodes = mesh.state.g_nodes @ exp_se3(eta)
    r = mesh.state.g_nodes[:, :3, :3]
    drift = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max()
    if drift > 1e-12:
        u, _, vt = np.linalg.svd(r)
        mesh.state.g_nodes[:, :3, :3] = u @ vt


def update_twists(mesh: ShellMesh, eta_nodes: np.ndarray) -> None:
    """Evolve the twists and rotations the state carries.

    With eta the bilinear increment field, each carried twist point receives

        zeta_alpha <- Ad(exp(eta^))^-1 zeta_alpha + dexp_se3(eta) d_alpha eta,

    which equals vee((g exp(eta^))^-1 d_alpha (g exp(eta^))) for the carried
    pose field; spatially constant eta reduces to the pure frame change.  The
    twists are evolved at `ShellState.twist_points` by `carried_update`; when
    the state carries the Gauss-point rotations, each becomes R exp_so3(eta_w).
    """
    eta = np.asarray(eta_nodes, dtype=float).reshape(mesh.n_nodes, 6)
    state = mesh.state
    twist_pts = state.twist_points
    rotations = state.r_pts.shape[1] > 0
    nel, m = mesh.n_elements, len(twist_pts)
    le1, le2 = mesh.le
    dn = DN_PTS_PARENT[twist_pts] * np.array([2.0 / le1, 2.0 / le2])   # (m, 4, 2)
    rows = [N_PTS[twist_pts], np.swapaxes(dn, 1, 2).reshape(2 * m, 4)]
    if rotations:
        rows.append(N_PTS[GAUSS_POINTS])
    at_pts = np.concatenate(rows) @ eta[mesh.conn]                    # (nel, 3m [+ 4], 6)
    state.zeta_pts = carried_update(
        at_pts[:, :m], state.zeta_pts, at_pts[:, m:3 * m].reshape(nel, m, 2, 6))
    if rotations:
        state.r_pts = state.r_pts @ exp_so3(at_pts[:, 3 * m:, 3:])


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


def accumulated_edge_rotation(mesh: ShellMesh, axis: np.ndarray) -> float:
    """Total rotation about `axis` accumulated along the middle xi1 node row.

    Sums the logs of consecutive relative rotations, so multi-turn states are
    measured without 2*pi wrapping (each inter-node rotation must stay under
    pi, true for any reasonable mesh).
    """
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    j = mesh.ny // 2
    nodes = [mesh.node_index(i, j) for i in range(mesh.nx + 1)]
    total = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        ra = mesh.state.g_nodes[a, :3, :3]
        rb = mesh.state.g_nodes[b, :3, :3]
        total += float(log_so3(ra.T @ rb) @ axis)
    return total


def _newton_loop(model: FemModel, attempt: Attempt, settings: SolverSettings, log) -> None:
    """Iterate at the attempt's load factor, filling its record, until the
    residual converges; any rejection of the attempt raises."""
    for it in range(1, settings.max_iters + 1):
        system = model.build_system(attempt.load_factor)
        attempt.residuals.append(system.residual_norm)
        if log is not None:
            log(attempt.log_line(it))
        tol = max(settings.tol_residual,
                  settings.tol_relative * max(1.0, system.load_norm))
        if system.residual_norm <= tol:
            attempt.converged = True
            return
        eta_free, lin_res = newton_step(system.a, system.b)
        attempt.linear_residuals.append(lin_res)
        if lin_res > MAX_LINEAR_RESIDUAL:
            raise StepRejected(f"linear residual {lin_res:.3e} exceeds "
                               f"{MAX_LINEAR_RESIDUAL:.0e}: tangent system not solved",
                               "linear_residual")
        eta = np.zeros(model.mesh.n_dofs)
        eta[system.free] = eta_free
        apply_increment_field(model, eta)
    raise StepRejected(f"no convergence in {settings.max_iters} iterations, "
                       f"last residual {attempt.residuals[-1]:.3e}", "max_iters")


def run(model: FemModel, settings: SolverSettings | None = None, *,
        on_step=None, log=None) -> SolveReport:
    """Load-stepped Newton solve; never silently accepts non-convergence.

    ``on_step(load_factor, model)`` fires after each scheduled load step
    converges (used for CSV rows and mesh dumps); ``log`` receives the
    `step iter residual` line of each iteration as it is made.  Every
    attempt, accepted or rejected with its reason, is in ``report.attempts``.
    """
    settings = settings or SolverSettings()
    report = SolveReport()
    t0 = time.perf_counter()
    lam = 0.0
    for step_no in range(1, settings.load_steps + 1):
        lam_target = step_no / settings.load_steps
        while lam < lam_target - 1e-14:
            dlam = lam_target - lam
            snapshot = model.snapshot()
            for _ in range(MAX_HALVINGS + 1):
                attempt = Attempt(step_no, lam + dlam, dlam)
                report.attempts.append(attempt)
                try:
                    _newton_loop(model, attempt, settings, log)
                except (StepRejected, SingularSystemError, FloatingPointError) as exc:
                    attempt.reason = str(exc)
                    # a FloatingPointError is a non-finite system (or, under
                    # np.seterr(all="raise"), any non-finite operation)
                    attempt.category = getattr(exc, "category", "nonfinite")
                    model.restore(snapshot)
                    dlam /= 2.0
                else:
                    lam += dlam
                    break
            else:
                report.message = (f"no convergence at load factor {attempt.load_factor:.6g} "
                                  f"after {MAX_HALVINGS} halvings; "
                                  f"last attempt rejected: {attempt.reason}")
                report.wall_time = time.perf_counter() - t0
                return report
        if on_step is not None:
            on_step(lam, model)
    report.converged = True
    report.wall_time = time.perf_counter() - t0
    return report
