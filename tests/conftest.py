"""Shared helpers for the test suite."""

import numpy as np

from se3shell import solver
from se3shell.liegroup import Ad, ad, inv_pose
from se3shell.mesh import shape_gradients, shape_values
from se3shell.solver import SingularSystemError, update_configuration, update_twists

SINGULAR_REASON = "singular or ill-posed tangent (1-norm estimate 0.000e+00)"


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
    """Record every SuperLU factorization made from now on, the fill-reducing
    ordering of `fem` included (it shares `scipy.sparse.linalg` with `solver`)."""
    factors = []
    splu = solver.spla.splu

    def capture(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(solver.spla, "splu", capture)
    return factors
