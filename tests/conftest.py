"""Shared helpers for the test suite."""

from functools import partial
from types import SimpleNamespace
from typing import Callable
from unittest import mock

import numpy as np
import scipy.sparse as sp

from se3shell import scenario, solver
from se3shell.fem import FemModel
from se3shell.kinematics import ReferenceSurface
from se3shell.liegroup import (Ad, _rot_coeffs, ad, exp_se3, inv_pose, make_pose,
                               skew, unskew)
from se3shell.mesh import shape_gradients, shape_values
from se3shell.solver import SingularSystemError, update_configuration, update_twists

SINGULAR_REASON = "singular or ill-posed tangent (1-norm estimate 0.000e+00)"


def hat_se3(t: np.ndarray) -> np.ndarray:
    """Twist (v; w) -> 4x4 algebra element [[skew(w), v], [0, 0]]."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape[:-1] + (4, 4))
    out[..., :3, :3] = skew(t[..., 3:])
    out[..., :3, 3] = t[..., :3]
    return out


def vee_se3(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Inverse of hat_se3.

    Raises ValueError if the upper-left block is not skew-symmetric or the
    last row is not zero (within ``tol``, scaled by the matrix magnitude).
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError("vee_se3 expects (..., 4, 4) matrices")
    scale = max(1.0, float(np.max(np.abs(m))))
    sym = m[..., :3, :3] + np.swapaxes(m[..., :3, :3], -1, -2)
    if np.max(np.abs(sym)) > tol * scale or np.max(np.abs(m[..., 3, :])) > tol * scale:
        raise ValueError("vee_se3: matrix is not an se(3) element")
    return np.concatenate([m[..., :3, 3], unskew(m[..., :3, :3])], axis=-1)


def so3_tangent(w: np.ndarray) -> np.ndarray:
    """T(w) = I + (1-cos|w|)/|w|^2 w^ + (|w|-sin|w|)/|w|^3 w^ w^.

    Maps the linear twist part to the translation of exp_se3; equals the
    series sum_k (skew w)^k / (k+1)!.
    """
    w = np.asarray(w, dtype=float)
    _, b, c, *_ = _rot_coeffs(np.linalg.norm(w, axis=-1))
    wh = skew(w)
    return np.eye(3) + b[..., None, None] * wh + c[..., None, None] * (wh @ wh)


def trans_of(g: np.ndarray) -> np.ndarray:
    return np.asarray(g, dtype=float)[..., :3, 3]


def is_rotation(r: np.ndarray, tol: float = 1e-10) -> bool:
    r = np.asarray(r, dtype=float)
    ortho = np.max(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)))
    return bool(ortho <= tol and np.max(np.abs(np.linalg.det(r) - 1.0)) <= tol)


def ad_dual(t: np.ndarray) -> np.ndarray:
    """Co-adjoint, the transpose of ad(t)."""
    return np.swapaxes(ad(t), -1, -2)


DEGENERATE_TOL = 1e-12


def deformation_twists(g_field: Callable[[float, float], np.ndarray],
                       x1: float, x2: float,
                       step: float = 1e-7) -> tuple[np.ndarray, np.ndarray]:
    """Body-frame twists of a differentiable pose field by central differences.

    Used for analytic fields in tests; the solver carries and evolves twists
    instead of re-deriving them from poses.
    """
    g_inv = inv_pose(g_field(x1, x2))
    d1 = (g_field(x1 + step, x2) - g_field(x1 - step, x2)) / (2 * step)
    d2 = (g_field(x1, x2 + step) - g_field(x1, x2 - step)) / (2 * step)
    return (vee_se3(g_inv @ d1, tol=1e-5), vee_se3(g_inv @ d2, tol=1e-5))


def _as_columns(zeta: np.ndarray | tuple) -> np.ndarray:
    z = np.asarray(zeta, dtype=float)
    if z.shape == (2, 6):
        return z.T
    if z.shape == (6, 2):
        return z
    raise ValueError("expected a pair of twists (2,6) or a 6x2 matrix")


def dual_basis(zeta_0) -> np.ndarray:
    """Rows of the Moore-Penrose pseudo-inverse of the 6x2 reference basis."""
    x0 = _as_columns(zeta_0)
    gram = x0.T @ x0
    if abs(np.linalg.det(gram)) < DEGENERATE_TOL:
        raise ValueError("degenerate reference twists: columns nearly dependent")
    return np.linalg.solve(gram, x0.T)


def local_deformation_gradient(zeta_t, zeta_0) -> np.ndarray:
    """F_e = X_t (X_0^T X_0)^-1 X_0^T, a rank-2 two-point map on twists."""
    return _as_columns(zeta_t) @ dual_basis(zeta_0)


def strain(zeta_t, zeta_0) -> np.ndarray:
    """6x2 strain matrix, columns zeta_t_alpha - zeta_0_alpha."""
    return _as_columns(zeta_t) - _as_columns(zeta_0)


def transform_reference(surface: ReferenceSurface, h: np.ndarray) -> ReferenceSurface:
    """Rigidly pre-transformed copy: poses become h @ g, twists are unchanged
    (left invariance), as is the area jacobian."""
    h = np.asarray(h, dtype=float)
    return ReferenceSurface(
        chart=surface.chart,
        pose_at=lambda x1, x2: h @ surface.pose_at(x1, x2),
        twists_at=surface.twists_at,
        jac_at=surface.jac_at,
    )


def rollup_family(kappa: float, reference: ReferenceSurface | None = None):
    """Pose field of a flat strip bent to constant curvature kappa about d2.

    g(x1, x2) = g_0(0, x2) @ exp(x1 * ((1,0,0); (0,kappa,0))^); used as an
    analytic deformation in tests.
    """
    gen = np.array([1.0, 0.0, 0.0, 0.0, kappa, 0.0])

    def g(x1, x2):
        base = make_pose(np.eye(3), np.array([0.0, x2, 0.0]))
        return base @ exp_se3(x1 * gen)

    return g


def dexp_series(t, max_terms=60, rtol=1e-17):
    """dexp as the series sum_k (-ad_t)^k / (k+1)!, summed to convergence.

    The reference for the closed form in `liegroup.dexp_se3`.
    """
    a = -ad(t)
    total = np.broadcast_to(np.eye(6), t.shape[:-1] + (6, 6)).copy()
    term = total.copy()
    for k in range(1, max_terms):
        term = (term @ a) / (k + 1.0)
        total = total + term
        if np.max(np.abs(term)) < rtol * max(1.0, np.max(np.abs(total))):
            break
    return total


def shape_functions(x: float, y: float, le1: float = 2.0, le2: float = 2.0):
    """Bilinear N^i and chart-coordinate gradients at one parent point.

    ``le1``/``le2`` are the chart extents of the element; the parent square
    is [-1, 1]^2, so gradients scale by 2/le.  A per-point reference for the
    batched kernels of `FemModel`.
    """
    if le1 <= 0.0 or le2 <= 0.0:
        raise ValueError("degenerate chart jacobian: non-positive element size")
    pt = np.array([[x, y]])
    n = shape_values(pt)[0]
    dn = shape_gradients(pt)[0] * np.array([2.0 / le1, 2.0 / le2])
    return n, dn


def k_operator(n_i: float, dn_i: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Strain operator of one node: (dN^i_alpha) I + N^i ad(zeta_alpha), (2,6,6).

    The per-node reference for the factored kernels of `FemModel`.
    """
    z = np.asarray(zeta, dtype=float).reshape(2, 6)
    return np.asarray(dn_i, dtype=float)[:, None, None] * np.eye(6) + n_i * ad(z)


def rigid_modes(mesh):
    """Six discrete rigid-motion fields u_i = Ad(g_i^-1) mu, shape (6, n_dofs).

    The null space the assembled tangent of an unsupported mesh must have.
    """
    ad_inv = Ad(inv_pose(mesh.state.g_nodes))  # (n_nodes, 6, 6)
    modes = np.zeros((6, mesh.n_dofs))
    for k in range(6):
        mu = np.zeros(6)
        mu[k] = 1.0
        modes[k] = (ad_inv @ mu).ravel()
    return modes


def rotated_remanent(r_t, r_0, b_r0):
    """Remanent field carried by the deformed frame: R_t R_0^T B_0^r.

    The spatial-frame reference for `magnetics.local_fields`.
    """
    r_t = np.asarray(r_t, dtype=float)
    r_0 = np.asarray(r_0, dtype=float)
    b = np.asarray(b_r0, dtype=float)
    return np.einsum("...ij,...kj,...k->...i", r_t, r_0, b)


def magnetic_couple(b_rt, env):
    """Couple per unit reference area, inertial frame: (1/mu0) B_t^r x B^a.

    The spatial-frame reference for the local couple of the magnetic kernels.
    """
    return np.cross(np.asarray(b_rt, dtype=float), env.b_applied) / env.mu0


def dump_mesh_loop(mesh, path) -> None:
    """Per-value writer of `mesh.dump_mesh`, the byte-for-byte reference."""
    with open(path, "w") as fh:
        fh.write(f"# nodes {mesh.n_nodes}\n")
        for n in range(mesh.n_nodes):
            g = mesh.state.g_nodes[n]
            r = g[:3, :3].reshape(-1)
            p = g[:3, 3]
            fields = [f"{n}", f"{mesh.param[n, 0]:.17g}", f"{mesh.param[n, 1]:.17g}"]
            fields += [f"{v:.17g}" for v in p] + [f"{v:.17g}" for v in r]
            fh.write(" ".join(fields) + "\n")
        fh.write(f"# elements {mesh.n_elements}\n")
        for e in range(mesh.n_elements):
            fh.write(" ".join(str(v) for v in [e, *mesh.conn[e]]) + "\n")


def dump_triangles_loop(mesh, path) -> None:
    """Per-element writer of `mesh.dump_triangles`, the byte-for-byte reference."""
    with open(path, "w") as fh:
        fh.write(f"# triangles {2 * mesh.n_elements}\n")
        t = 0
        for e in range(mesh.n_elements):
            a, b, c, d = mesh.conn[e]
            fh.write(f"{t} {a} {b} {c}\n")
            fh.write(f"{t + 1} {a} {c} {d}\n")
            t += 2


def mechanical_tangent(model):
    """BC-reduced Kmat + Kgeo (no magnetic or load-stiffness parts) on the
    free DOFs in ascending order."""
    return model.assemble(model.element_kernels(0.0), model.mesh.free_dofs())


def assembled_residual(model, lam=1.0):
    kern = model.element_kernels(lam)
    b, _ = model.residual(kern)
    return b


def fd_residual_jacobian(model, lam=1.0, eps=1e-7):
    """Central-difference jacobian of the assembled residual under
    multiplicative nodal updates (configuration + carried twists)."""
    mesh = model.mesh
    n = mesh.n_dofs
    jac = np.zeros((n, n))
    base = mesh.state.copy()
    for j in range(n):
        eta = np.zeros(n)
        eta[j] = eps
        mesh.state = base.copy()
        update_configuration(mesh, eta)
        update_twists(mesh, eta)
        bp = assembled_residual(model, lam)
        eta[j] = -eps
        mesh.state = base.copy()
        update_configuration(mesh, eta)
        update_twists(mesh, eta)
        bm = assembled_residual(model, lam)
        jac[:, j] = (bp - bm) / (2 * eps)
    mesh.state = base
    return jac


def random_state_perturbation(model, scale, seed):
    rng = np.random.default_rng(seed)
    eta = scale * rng.normal(size=(model.mesh.n_nodes, 6))
    update_configuration(model.mesh, eta)
    update_twists(model.mesh, eta)


def reject_first_solve(monkeypatch):
    """Make the first `solver.newton_step` call raise SingularSystemError
    with SINGULAR_REASON; later calls solve as usual."""
    solve = solver.newton_step
    calls = []

    def singular_once(a, b):
        calls.append(b)
        if len(calls) == 1:
            raise SingularSystemError(SINGULAR_REASON)
        return solve(a, b)

    monkeypatch.setattr(solver, "newton_step", singular_once)


def capture_factors(monkeypatch):
    """Record every band LU factorization made from now on as a namespace
    with the half-bandwidths `kl`, `ku`, the factor `lu`, the pivot rows
    `piv` (0-based, as SciPy returns them) and `info`."""
    factors = []
    dgbtrf = solver.lapack.dgbtrf

    def capture(ab, kl, ku, *args, **kwargs):
        lu, piv, info = dgbtrf(ab, kl, ku, *args, **kwargs)
        factors.append(SimpleNamespace(kl=kl, ku=ku, lu=lu.copy(), piv=piv, info=info))
        return lu, piv, info

    monkeypatch.setattr(solver.lapack, "dgbtrf", capture)
    return factors


def band_matrix(a) -> sp.dia_matrix:
    """Any sparse or dense matrix as the band `newton_step` takes: one
    full-length row per diagonal from ku to -kl, strictly descending, with
    kl and ku taken from the entries."""
    coo = sp.coo_matrix(a)
    offset = coo.col - coo.row
    ku = int(offset.max(initial=0))
    kl = -int(offset.min(initial=0))
    data = np.zeros((kl + ku + 1, coo.shape[1]))
    np.add.at(data, (ku - offset, coo.col), coo.data)
    return sp.dia_matrix((data, np.arange(ku, -kl - 1, -1)), shape=coo.shape)


def build_gauss_model(cfg):
    """`scenario.build_model` with the fully Gauss-sampled strain,
    `FemModel(scheme="gauss")`, which no scenario file can select."""
    with mock.patch.object(scenario, "FemModel", partial(FemModel, scheme="gauss")):
        return scenario.build_model(cfg)
