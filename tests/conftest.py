"""Shared helpers for the test suite."""

import numpy as np

from se3shell.liegroup import ad
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
