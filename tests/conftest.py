"""Shared helpers for the test suite."""

import numpy as np

from se3shell.liegroup import ad
from se3shell.mesh import shape_gradients, shape_values
from se3shell.solver import update_configuration, update_twists


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


def assembled_residual(model, lam=1.0):
    kern = model.element_kernels(lam)
    _, b, _ = model.assemble(kern)
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
