"""Shared helpers for the test suite."""

from functools import partial
from types import SimpleNamespace
from typing import Callable
from unittest import mock

import numpy as np
import scipy.sparse as sp

from se3shell import liegroup, scenario, solver
from se3shell.fem import Band, FemModel
from se3shell.kinematics import ReferenceSurface
from se3shell.liegroup import (Ad, _rot_coeffs, ad, exp_se3, inv_pose, make_pose,
                               skew, unskew)
from se3shell.mesh import shape_gradients, shape_values
from se3shell.outputs import emit_deformed_geometry
from se3shell.solver import StepRejected, apply_increment_field

SINGULAR_REASON = "singular or ill-posed tangent (1-norm 0.000e+00)"


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
    theta = np.linalg.norm(w, axis=-1)
    _, b, c, *_ = _rot_coeffs(theta.reshape(-1), theta.size, 0)
    b, c = b.reshape(theta.shape), c.reshape(theta.shape)
    wh = skew(w)
    return np.eye(3) + b[..., None, None] * wh + c[..., None, None] * (wh @ wh)


def horner(rows: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Horner sum of the Taylor rows (row j for theta^2j) at theta^2 = t2,
    each row broadcast over t2."""
    rows = rows.reshape(rows.shape + (1,) * t2.ndim)
    series = rows[-1] * t2 + rows[-2]
    for row in rows[-3::-1]:
        series *= t2
        series += row
    return series


def per_row_rot_coeffs(theta: np.ndarray, n_c: int, n_q: int) -> tuple[np.ndarray, ...]:
    """`liegroup._rot_coeffs` with its series summed per coefficient: c by one
    `horner` call over its row, c2 and c3 by a second over their (10, 2)
    rows, each against its own slice of theta^2."""
    a, b, safe, sin, t2 = liegroup._sinc_coeffs(theta)
    s = safe[:n_c]
    s2 = s * s
    direct_c = (s - sin[:n_c]) / (s2 * s)
    rows = liegroup._SERIES
    c = np.where(theta[:n_c] < liegroup.SERIES_ANGLE, horner(rows[:, 0], t2[:n_c]), direct_c)
    s2, bq = s2[:n_q], b[:n_q]
    direct = np.stack([(0.5 - bq) / s2, (1.5 * direct_c[:n_q] - 0.5 * bq) / s2])
    c2, c3 = np.where(theta[:n_q] < liegroup.SERIES_ANGLE, horner(rows[:, 1:], t2[:n_q]),
                      direct)
    return a, b, c, c2, c3


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
    """Per-value writer of the `.txt` file of `outputs.emit_deformed_geometry`,
    the byte-for-byte reference."""
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
    """Per-element writer of the `.tri` file of `outputs.emit_deformed_geometry`,
    the byte-for-byte reference."""
    with open(path, "w") as fh:
        fh.write(f"# triangles {2 * mesh.n_elements}\n")
        t = 0
        for e in range(mesh.n_elements):
            a, b, c, d = mesh.conn[e]
            fh.write(f"{t} {a} {b} {c}\n")
            fh.write(f"{t + 1} {a} {c} {d}\n")
            t += 2


def assert_dump_matches_oracles(mesh, text, tmp_path):
    """Dump `mesh` from the run text `text` to `tmp_path`/got.txt and .tri,
    assert both equal the per-value writers' files byte for byte and return
    the base path `tmp_path`/got."""
    base = tmp_path / "got"
    emit_deformed_geometry(mesh, base, text)
    dump_mesh_loop(mesh, tmp_path / "expected.txt")
    dump_triangles_loop(mesh, tmp_path / "expected.tri")
    for suffix in (".txt", ".tri"):
        got = base.with_suffix(suffix).read_bytes()
        assert got == (tmp_path / "expected").with_suffix(suffix).read_bytes()
    return base


def mechanical_tangent(model):
    """BC-reduced Kmat + Kgeo on the free DOFs in band (grid) order, dense:
    the production tangent at load factor 0, where the magnetic and
    dead-load parts vanish."""
    return band_to_dense(model.build_system(0.0).a)


def natural_order(free, x, n_dofs):
    """`x`, a vector, matrix or `Band` over the band-ordered DOFs `free` of a
    `GlobalSystem` (its `b` or `a`), in natural DOF order over all `n_dofs`
    DOFs, with zeros on the fixed DOFs."""
    x = band_to_dense(x) if isinstance(x, Band) else np.asarray(x)
    out = np.zeros((n_dofs,) * x.ndim)
    out[np.ix_(*(free,) * x.ndim)] = x
    return out


def dense_loop(model, blocks):
    """(nel,4,4,6,6) element blocks summed into a dense (n_dofs, n_dofs)
    matrix in natural DOF order, one block at a time."""
    n = model.mesh.n_dofs
    out = np.zeros((n, n))
    for e, nodes in enumerate(model.mesh.conn):
        for i, gi in enumerate(nodes):
            for j, gj in enumerate(nodes):
                out[6 * gi:6 * gi + 6, 6 * gj:6 * gj + 6] += blocks[e, i, j]
    return out


def dense_kdead(model, kdead):
    """(n_nodes,6,6) nodal blocks on the diagonal of a dense (n_dofs, n_dofs)
    matrix in natural DOF order."""
    out = np.zeros((model.mesh.n_dofs, model.mesh.n_dofs))
    for node, blk in enumerate(kdead):
        out[6 * node:6 * node + 6, 6 * node:6 * node + 6] = blk
    return out


def natural_tangent(model, lam=1.0):
    """The tangent `build_system(lam)` assembles, in natural DOF order over
    every DOF (dense)."""
    system = model.build_system(lam)
    return natural_order(system.free, system.a, model.mesh.n_dofs)


def element_tangent(kern):
    """Element blocks Kmat + Kgeo - Kmag, (nel,4,4,6,6), from the production
    fill `ElementKernels.blocks` into a fresh buffer."""
    return kern.blocks(np.empty(kern.k0.shape))


def magnetic_stiffness_einsum(r0_pts, r_pts, b_r0, env, shape_vals, weights):
    """Rotation-rotation magnetic blocks by one four-operand einsum, with both
    local fields formed here: the reference for
    `magnetics.element_magnetic_stiffness`, which must equal it exactly."""
    b_mat = np.einsum("...ji,...j->...i", r0_pts, np.asarray(b_r0, dtype=float)[..., None, :])
    b_app = np.einsum("...ji,j->...i", r_pts, env.b_applied)
    prod = skew(b_mat) @ skew(b_app) / env.mu0
    n = np.asarray(shape_vals, dtype=float)
    return np.einsum("...g,gi,gj,...gkl->...ijkl", np.asarray(weights, float), n, n, prod)


def magnetic_force_cross(b_mat, b_app, mu0, shape_vals, weights):
    """Nodal magnetic wrenches with the couple from `np.cross`: the reference
    for `magnetics.element_magnetic_force`, which must equal it exactly."""
    m_loc = np.cross(b_mat, b_app) / mu0
    out = np.zeros(m_loc.shape[:-2] + (4, 6))
    out[..., :, 3:] = np.einsum("...g,gi,...gk->...ik", np.asarray(weights, float),
                                np.asarray(shape_vals, float), m_loc)
    return out


def assembled_residual(model, lam=1.0):
    """The residual `build_system(lam)` forms, in natural DOF order."""
    system = model.build_system(lam)
    return natural_order(system.free, system.b, model.mesh.n_dofs)


def fd_residual_jacobian(model, lam=1.0, eps=1e-7):
    """Central-difference jacobian of the assembled residual under
    multiplicative nodal updates (configuration + carried twists), in natural
    DOF order; zero in the rows of fixed DOFs, so an unsupported model checks
    every DOF."""
    mesh = model.mesh
    n = mesh.n_dofs
    jac = np.zeros((n, n))
    base = mesh.state.copy()
    for j in range(n):
        eta = np.zeros(n)
        eta[j] = eps
        mesh.state = base.copy()
        apply_increment_field(model, eta)
        bp = assembled_residual(model, lam)
        eta[j] = -eps
        mesh.state = base.copy()
        apply_increment_field(model, eta)
        bm = assembled_residual(model, lam)
        jac[:, j] = (bp - bm) / (2 * eps)
    mesh.state = base
    return jac


def random_state_perturbation(model, scale, seed):
    rng = np.random.default_rng(seed)
    eta = scale * rng.normal(size=(model.mesh.n_nodes, 6))
    apply_increment_field(model, eta)


def increment_mesh(mesh, eta):
    """`solver.apply_increment_field` on a bare mesh, whose state carries the
    twists at all five element points and the Gauss-point rotations."""
    apply_increment_field(SimpleNamespace(mesh=mesh), eta)


def reject_first_solve(monkeypatch):
    """Make the first `solver.newton_step` call reject the attempt as a
    singular tangent with SINGULAR_REASON; later calls solve as usual."""
    solve = solver.newton_step
    calls = []

    def singular_once(a, b):
        calls.append(b)
        if len(calls) == 1:
            raise StepRejected(SINGULAR_REASON, "singular_tangent")
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


def band_to_dense(a):
    """The (m, m) matrix of a `Band`, entry by entry from the copies of its
    stored diagonals: the unscaled tangent, also after a solve."""
    m = a.ab.shape[1]
    out = np.zeros((m, m))
    for top, run in a.runs:
        for offset, diag in zip(range(top, top - len(run), -1), run):
            cols = np.arange(max(offset, 0), min(m, m + offset))
            out[cols - offset, cols] = diag[cols]
    return out


def dense_to_band(a, full=False) -> Band:
    """Any dense or sparse square matrix as the `Band` `newton_step` takes,
    with kl and ku read from its entries: the main diagonal and the
    diagonals that hold a nonzero entry stored, in runs of consecutive
    offsets, or with `full` every diagonal from ku to -kl, in one run."""
    coo = sp.coo_matrix(a)
    offset = coo.col - coo.row
    stored = np.union1d(offset, [0])[::-1]
    ku, kl = int(stored[0]), int(-stored[-1])
    if full:
        stored = np.arange(ku, -kl - 1, -1)
    ab = np.zeros((2 * kl + ku + 1, coo.shape[1]), order="F")
    np.add.at(ab, (kl + ku - offset, coo.col), coo.data)
    runs = np.split(stored, np.flatnonzero(np.diff(stored) != -1) + 1)
    return Band(ab, kl, ku, tuple((int(run[0]), np.array(ab[kl + ku - run], order="F"))
                                  for run in runs))


def build_gauss_model(cfg):
    """`scenario.build_model` with the fully Gauss-sampled strain,
    `FemModel(scheme="gauss")`, which no scenario file can select."""
    with mock.patch.object(scenario, "FemModel", partial(FemModel, scheme="gauss")):
        return scenario.build_model(cfg)
