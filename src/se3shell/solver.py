"""Newton iteration with load stepping and multiplicative updates.

Each iteration solves (Kmat + Kgeo - Kdead - Kmag) eta = f_ext + f_mag - f_int
on the free DOFs by one banded LU factorization (LAPACK dgbtrf with partial
pivoting, in place on the work array that `build_system` scatters in the
grid order of the mesh), then applies one multiplicative update of the whole state
(`apply_increment_field`).  The factored band is A itself on a band of
half-bandwidth kl below JACOBI_MIN_HALF_BANDWIDTH, and its symmetric Jacobi
scaling D A D, D = |diag A|^-1/2 of that tangent, from there on (see
`band_scaling`): six DOFs per node in SI units put the rotational diagonals
of a mm-scale shell about 1e-7 below the translational ones, so partial
pivoting of a wide band swaps almost every row and widens each trailing
update, while D A D pivots near its diagonal.  The choice reads only the
band's width.  Each iteration makes one triangular solve with that factor,
and its relative residual is always that of the unscaled A, from the copies
of the stored diagonals the `Band` keeps.  The update is:

    nodal poses:      g_i <- g_i exp(eta_i^),
    carried twists:   zeta <- Ad(exp(eta^))^-1 zeta + dexp(eta) d_alpha(eta),
    carried rotations R <- R exp_so3(eta_w),

with eta interpolated bilinearly at each carried point.  The twist rule is the
exact body-frame derivative field of the multiplicatively updated pose field,
so twists never need to be re-derived from poses.  Twists are carried only at
the strain sample points of the model's scheme (the centroid, or the four
Gauss points), and rotations only at the Gauss points of a magnetized model;
the model fixes those points when it is built and owns the interpolation
rows to them (`FemModel.interpolation_rows`).
Each update first interpolates eta to those points, then takes the rotation
angles once and evaluates the rotation coefficients once from them, in one
pass over the nodes, the twist points and the Gauss points
(`liegroup.increment_maps`): a and b at every point, c at the nodes and
twist points, c2 and c3 at the twist points only, and one Rodrigues
evaluation for the nodal and Gauss-point rotations.  The three maps are
closed form (no series) and equal exp_se3, carried_update and exp_so3 bit
for bit; the nodal angles of the same pass decide the pi/2 rejection below,
before the coefficients are evaluated.
The nodal rotations are checked for drift off SO(3) once per accepted
attempt, not per update (`project_rotations`), and polar-projected past
1e-12.  Convergence is measured on the residual 2-norm over free DOFs
against max(TOL_RESIDUAL, tol_relative * max(1, |load|)); the tangent is
assembled only for an iteration that goes on to a linear solve.

The load factor ramps linearly over the configured number of steps; boundary
wrenches scale with it and the applied magnetic field follows the model's
field program.  An increment whose largest nodal rotation exceeds pi/2, a
non-finite system, a singular tangent, a linear solve whose relative
residual |b - A eta| / |b| exceeds 1e-6, or a Newton loop that exhausts
max_iters all reject the attempt with a StepRejected (or a
FloatingPointError, for a non-finite system: `build_system` tests the
residual, and `newton_step` tests the tangent only when its solve fails,
since a non-finite entry makes the factorization, the increment or the
linear residual non-finite): the state is restored
together with its memoized kernels from the snapshot taken once per load
increment (`FemModel.snapshot`/`restore`), the message kept as the attempt's
reason (with a category, set where the exception is raised) and the
increment halved, up to MAX_HALVINGS times, after which the run fails with
the last attempt's reason.  Every solve assembles and factors its own tangent, and
the factor lives only for that solve.  SolveReport keeps one Attempt record
per attempt, with the row interchanges of each solve's factor, and reads
every tally from them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.linalg import lapack

from .fem import Band, FemModel
from .liegroup import increment_maps, log_so3
# Bound here, though the update no longer calls them, so that perfbench/layers.py
# can wrap them by name.
from .liegroup import Ad, dexp_se3, exp_se3, exp_so3, inv_pose  # noqa: F401
from .mesh import ShellMesh

MAX_ROTATION_INCREMENT = np.pi / 2
# Absolute floor of the Newton stop test |b| <= max(TOL_RESIDUAL,
# tol_relative max(1, |load|)).
TOL_RESIDUAL = 1e-12
# Relative residual |b - A eta| / |b| of the linear solve above which the
# increment is not a Newton step.  The other solves of the bundled scenarios
# stay below 2.3e-8 on 17 of them and reach 7.7e-8, 8.1e-7 and 4.3e-7 on
# rollup_2pi/4pi/6pi; the near-singular systems of rejected roll-up attempts
# read 3.4e-6 to 3.4.
MAX_LINEAR_RESIDUAL = 1e-6
# Halvings of a load increment after rejected attempts before the run fails.
MAX_HALVINGS = 8
# Half-bandwidth from which the band LU factors D A D in place of A: four or
# more elements across the shorter grid side (kl = 6 (min(nx, ny) + 3) - 1).
# Measured by dgbtrf time on the bundled meshes and their 2-10 wide variants
# (ROADMAP standing notes): D A D is never faster on the strips (kl 23), about
# even at kl 29-35, and 25-40% faster from kl 41 on.
JACOBI_MIN_HALF_BANDWIDTH = 41
_IDENTITY3 = np.eye(3)


class StepRejected(RuntimeError):
    """The attempt cannot go on; halve the load step.

    `category` names the cause: "rotation_increment", "linear_residual",
    "singular_tangent" (a bifurcation or ill-posed boundary conditions),
    "nonfinite" (a non-finite increment or system; `run` books a
    FloatingPointError under it too) or "max_iters".
    """

    def __init__(self, reason: str, category: str):
        super().__init__(reason)
        self.category = category


@dataclass(frozen=True)
class SolverSettings:
    tol_relative: float = 1e-8
    max_iters: int = 50
    load_steps: int = 20
    # TOL_RESIDUAL, not a setting: for callers that form the stop test from
    # a settings object
    tol_residual: ClassVar[float] = TOL_RESIDUAL

    def __post_init__(self):
        if not 0 < self.tol_relative < np.inf:
            raise ValueError("tol_relative must be positive and finite")
        if not all(isinstance(n, (int, np.integer)) and n >= 1
                   for n in (self.max_iters, self.load_steps)):
            raise ValueError("max_iters and load_steps must be whole numbers, at least 1")


@dataclass
class Attempt:
    """One Newton attempt: its load increment `dlam` up to `load_factor`, a
    residual per system build, a linear residual and the row interchanges of
    the band LU factor per solve and, if it was rejected, the reason and its
    category (see `StepRejected`)."""

    step: int
    load_factor: float
    dlam: float
    residuals: list[float] = field(default_factory=list)
    linear_residuals: list[float] = field(default_factory=list)
    interchanges: list[int] = field(default_factory=list)
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

    @property
    def row_interchanges(self) -> int:  # of the factors of every solve
        return sum(sum(a.interchanges) for a in self.attempts)


def band_scaling(kl: int) -> str:
    """The variant the band LU factors on a band of half-bandwidth `kl`:
    "jacobi" (D A D) from JACOBI_MIN_HALF_BANDWIDTH on, "none" (A) below."""
    return "jacobi" if kl >= JACOBI_MIN_HALF_BANDWIDTH else "none"


def newton_step(a: Band, b: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Solve the tangent system by banded LU (LAPACK dgbtrf/dgbtrs).

    The work array of the band `a` of `build_system` is factored once, in
    place, and solved once with that factor (one dgbtrs).  Where
    `band_scaling(kl)` picks "jacobi" its stored runs are first made those
    of D A D (`Band.scale_jacobi`), and the solve is for D^-1 eta:
    eta = D (D A D)^-1 D b.  The factorization costs about m kl^2, plus a
    share per row interchange, which widens the trailing update from ku to
    kl + ku columns: unscaled, a thin plate interchanges almost every row
    (`magnetic_plate_A`: 1854 of 1920, about 70 under D A D), while on the
    one-element strips D A D never factors faster.  On square plates up to
    60x60 the band LU beats a sparse LU with a minimum-degree order at every
    size (617 ms against 5.25 s at 60x60).  Returns (eta, relative linear
    residual |b - A eta| / |b| of the unscaled A, row interchanges of the
    factor).  No refinement follows: on the bundled scenarios a refinement
    sweep halved the residual in under 1% of solves and never brought a
    solve under MAX_LINEAR_RESIDUAL, above which the caller rejects the
    step.  A non-finite stored entry of A ends the factorization at a
    zero pivot (info > 0) or makes eta or the linear residual non-finite;
    only on those paths are the stored entries scanned (`Band.is_finite`),
    and a non-finite one raises FloatingPointError("non-finite entries in
    the assembled system").  Otherwise a zero pivot or a non-finite eta
    raises StepRejected ("singular_tangent") with the 1-norm of A.
    """
    b = np.asarray(b, dtype=float)
    d = a.scale_jacobi() if band_scaling(a.kl) == "jacobi" else 1.0  # 1.0 changes no bit
    lu, piv, info = lapack.dgbtrf(a.ab, a.kl, a.ku, overwrite_ab=True)
    # info > 0: an exactly zero pivot, no solve
    eta = d * lapack.dgbtrs(lu, a.kl, a.ku, d * b, piv)[0] if info == 0 else None
    solved = eta is not None and np.isfinite(eta).all()
    rel = math.nan
    if solved:
        r = a.residual(b, eta)
        rel = math.sqrt(r.dot(r)) / max(math.sqrt(b.dot(b)), 1e-300)
    if not math.isfinite(rel) and not a.is_finite():
        raise FloatingPointError("non-finite entries in the assembled system")
    if not solved:
        raise StepRejected(f"singular or ill-posed tangent (1-norm {a.one_norm():.3e})",
                           "singular_tangent")
    return eta, rel, int(np.count_nonzero(piv != np.arange(len(piv))))


def update_configuration(mesh: ShellMesh, eta_nodes: np.ndarray,
                         at_pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-multiply the nodal poses by exp of the nodal increments, from the
    one angle pass and one rotation-coefficient pass of the update.

    `eta_nodes` (n_nodes, 6) are the nodal increments and `at_pts` their
    interpolation to the carried points (`apply_increment_field`).
    `liegroup.increment_maps` takes the rotation angles once, over the twist
    points, the nodes and, for a magnetized model, the Gauss points, and
    evaluates the rotation coefficients once from them.  The whole increment
    is rejected, before the state changes, if it is not finite or, between
    the angle and the coefficient pass, if any nodal angle exceeds pi/2 (the
    load step is then halved by the caller); otherwise the poses take their
    exponentials.  Drift off SO(3) is checked once per accepted attempt, by
    `run` (`project_rotations`), not here.  Returns the evolved twists and
    the Gauss-point rotation increments (none for an unmagnetized model)
    for `update_twists`.
    """
    if not np.isfinite(eta_nodes).all():
        raise StepRejected("non-finite increment", "nonfinite")
    state = mesh.state
    nel, m = mesh.n_elements, state.zeta_pts.shape[1]
    points = nel * m
    poses, twists, rotations = increment_maps(
        eta_nodes, at_pts[:, :m].reshape(points, 6), state.zeta_pts.reshape(points, 2, 6),
        at_pts[:, m:3 * m].reshape(points, 2, 6), at_pts[:, 3 * m:, 3:].reshape(-1, 3),
        _check_rotation_increment)
    state.g_nodes = state.g_nodes @ poses
    return twists.reshape(state.zeta_pts.shape), rotations.reshape(state.r_pts.shape)


def _check_rotation_increment(angles: np.ndarray) -> None:
    """Reject an update whose largest nodal rotation angle exceeds pi/2."""
    wmax = float(angles.max())
    if wmax > MAX_ROTATION_INCREMENT:
        raise StepRejected(f"rotation increment {wmax:.3f} rad exceeds pi/2",
                           "rotation_increment")


def project_rotations(mesh: ShellMesh) -> None:
    """Re-orthonormalize the nodal rotations by polar projection when any has
    drifted off SO(3) by more than 1e-12 (max |R^T R - I|).

    `run` calls it once per accepted attempt.  One update moves a rotation
    off SO(3) by about 2e-16, so an attempt of max_iters updates (50 by
    default) stays far below the threshold; no bundled scenario reaches it.
    """
    state = mesh.state
    r = state.g_nodes[:, :3, :3]
    drift = np.abs(np.swapaxes(r, -1, -2) @ r - _IDENTITY3).max()
    if drift > 1e-12:
        u, _, vt = np.linalg.svd(r)
        state.g_nodes[:, :3, :3] = u @ vt


def update_twists(mesh: ShellMesh, twists: np.ndarray, rotations: np.ndarray) -> None:
    """Evolve the twists and rotations the state carries, from the update
    `update_configuration` evaluated.

    With eta the bilinear increment field, each carried twist point has
    received

        zeta_alpha <- Ad(exp(eta^))^-1 zeta_alpha + dexp_se3(eta) d_alpha eta,

    which equals vee((g exp(eta^))^-1 d_alpha (g exp(eta^))) for the carried
    pose field; spatially constant eta reduces to the pure frame change.  The
    carried twists become `twists`; when the state carries the Gauss-point
    rotations, each R becomes R exp_so3(eta_w), with the increments
    `rotations`.
    """
    state = mesh.state
    state.zeta_pts = twists
    if rotations.size:
        state.r_pts = state.r_pts @ rotations


def apply_increment_field(model: FemModel, eta_nodes: np.ndarray) -> None:
    """One multiplicative update of the whole state (poses, twists, rotations).

    The nodal increments are first interpolated to the carried points (the
    model's sample points, then the Gauss points of a magnetized model) by
    the model's `interpolation_rows`, built on its first update;
    `update_configuration` then evaluates the rotation coefficients of nodes
    and carried points in one pass and `update_twists` stores the carried
    points' share.
    """
    mesh = model.mesh
    eta = np.asarray(eta_nodes, dtype=float).reshape(mesh.n_nodes, 6)
    at_pts = model.interpolation_rows @ eta[mesh.conn]                 # (nel, 3m [+ 4], 6)
    update_twists(mesh, *update_configuration(mesh, eta, at_pts))


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
        tol = max(TOL_RESIDUAL, settings.tol_relative * max(1.0, system.load_norm))
        if system.residual_norm <= tol:
            attempt.converged = True
            return
        eta_free, lin_res, interchanges = newton_step(system.a, system.b)
        attempt.linear_residuals.append(lin_res)
        attempt.interchanges.append(interchanges)
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

    Each accepted attempt ends with one drift check of the nodal rotations
    (`project_rotations`).  ``on_step(load_factor, model)`` fires after each
    scheduled load step converges (used for CSV rows and mesh dumps);
    ``log`` receives the `step iter residual` line of each iteration as it
    is made.  Every attempt, accepted or rejected with its reason, is in
    ``report.attempts``.
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
                except (StepRejected, FloatingPointError) as exc:
                    attempt.reason = str(exc)
                    # a FloatingPointError is a non-finite system (or, under
                    # np.seterr(all="raise"), any non-finite operation)
                    attempt.category = getattr(exc, "category", "nonfinite")
                    model.restore(snapshot)
                    dlam /= 2.0
                else:
                    project_rotations(model.mesh)
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
