"""Discrete weak form: element kernels, boundary conditions, global assembly.

Per element and chart direction alpha the discrete strain operator is

    Kbar^i_alpha(x) = dN^i/dxi^alpha I_6 + N^i(x) ad(zeta_alpha),

the derivative of the carried twists under interpolated nodal increments.
The default scheme samples the twists entering both the stress and the
ad-term at the element centroid (the locking treatment); with centroid
sampling on rectangular charts every kernel reduces exactly to its
centroid value times the element area, and the assembled tangent is the
exact jacobian of the assembled residual.  `scheme="gauss"` instead samples
everything at the 2x2 Gauss points (fully consistent as well, but it shear
locks for thin elements; kept as a diagnostic).

Global system convention (tangent times increment = residual):

    A = Kmat + Kgeo - Kdead - Kmag,   b = f_ext + f_mag - f_int,

which is the (K_MG - KM) eta = FU - FM structure with FU the unbalanced
mechanical force f_ext - f_int.

Assembly has one fixed-pattern path.  On the first build for a given set of
free DOFs the model builds the CSR pattern of the BC-reduced tangent and
int32 maps from every element-block, element-force and nodal dead-load entry
to its `data` or vector slot, with fixed DOFs already dropped; each later
build is then one `np.bincount` per array.  The full unreduced system used by
diagnostics is the same scatter over all DOFs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .constitutive import Material, metric_inverse, stiffness_blocks
from .liegroup import ad, ad_tilde, skew
from .magnetics import (
    MagneticEnvironment,
    element_magnetic_force,
    element_magnetic_stiffness,
)
from .mesh import DN_PTS_PARENT, N_PTS, ShellMesh, shape_gradients, shape_values

_EYE6 = np.eye(6)


def shape_functions(x: float, y: float, le1: float = 2.0, le2: float = 2.0):
    """Bilinear N^i and chart-coordinate gradients at a parent point.

    ``le1``/``le2`` are the chart extents of the element; the parent square
    is [-1, 1]^2, so gradients scale by 2/le.
    """
    if le1 <= 0.0 or le2 <= 0.0:
        raise ValueError("degenerate chart jacobian: non-positive element size")
    pt = np.array([[x, y]])
    n = shape_values(pt)[0]
    dn = shape_gradients(pt)[0] * np.array([2.0 / le1, 2.0 / le2])
    return n, dn


def k_operator(n_i: float, dn_i: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Strain operator of one node: (dN^i_alpha) I + N^i ad(zeta_alpha), (2,6,6)."""
    z = np.asarray(zeta, dtype=float).reshape(2, 6)
    return np.asarray(dn_i, dtype=float)[:, None, None] * _EYE6 + n_i * ad(z)


@dataclass
class ElementKernels:
    """Batched element arrays; forces (nel,4,6), matrices (nel,4,4,6,6)."""

    kmat: np.ndarray
    kgeo: np.ndarray
    kmag: np.ndarray
    f_int: np.ndarray
    f_ext: np.ndarray
    f_mag: np.ndarray


@dataclass
class GlobalSystem:
    """BC-reduced Newton system A eta = b plus bookkeeping for tolerances."""

    a: sp.csr_matrix
    b: np.ndarray
    free: np.ndarray
    load_norm: float
    residual_norm: float = field(init=False)

    def __post_init__(self):
        self.residual_norm = float(np.linalg.norm(self.b))


class FemModel:
    """Mesh + material + loading, able to produce the Newton system."""

    def __init__(self, mesh: ShellMesh, material: Material,
                 env: MagneticEnvironment | None = None,
                 scheme: str = "centroid",
                 body_wrench: np.ndarray | None = None,
                 field_program=None):
        if scheme not in ("centroid", "gauss"):
            raise ValueError("scheme must be 'centroid' or 'gauss'")
        self.mesh = mesh
        self.material = material
        self.env = env
        self.scheme = scheme
        self.body_wrench = None if body_wrench is None else np.asarray(body_wrench, float)
        # field_program(load_factor) -> MagneticEnvironment; default linear ramp
        self.field_program = field_program
        self.d_blocks = self._build_d_blocks()
        self._scatters: dict[bytes, _Scatter] = {}

    def _env_at(self, load_factor: float) -> MagneticEnvironment | None:
        if self.field_program is not None:
            return self.field_program(load_factor)
        if self.env is None:
            return None
        return self.env.scaled(load_factor)

    def _build_d_blocks(self) -> np.ndarray:
        """Per-element stiffness blocks, one evaluation per distinct metric."""
        nel = self.mesh.n_elements
        tangents = self.mesh.zeta0_pts[:, 0, :, :3].reshape(nel, 6)
        uniq, inv = np.unique(tangents, axis=0, return_inverse=True)
        d = np.stack([stiffness_blocks(self.material, metric_inverse(t[:3], t[3:]))
                      for t in uniq])
        return d[inv.reshape(-1)]

    # --- element level -----------------------------------------------------

    def element_kernels(self, load_factor: float = 1.0) -> ElementKernels:
        mesh = self.mesh
        le1, le2 = mesh.le
        dn_pts = DN_PTS_PARENT * np.array([2.0 / le1, 2.0 / le2])
        w_gauss = (le1 * le2 / 4.0) * mesh.jac0_pts[:, 1:]  # (nel, 4)
        area_w = le1 * le2 * mesh.jac0_pts[:, 0]            # (nel,)
        state = mesh.state

        if self.scheme == "centroid":
            zc = state.zeta_pts[:, 0]
            strain = zc - mesh.zeta0_pts[:, 0]
            s = np.einsum("eabpq,ebq->eap", self.d_blocks, strain)
            adc = ad(zc)
            kbar = (dn_pts[0][None, :, :, None, None] * _EYE6
                    + 0.25 * adc[:, None, :, :, :])  # (nel, 4, 2, 6, 6)
            f_int = area_w[:, None, None] * np.einsum("eiapq,eap->eiq", kbar, s)
            kmat = area_w[:, None, None, None, None] * np.einsum(
                "eiapq,eabpr,ejbrs->eijqs", kbar, self.d_blocks, kbar, optimize=True)
            geo = np.einsum("eapq,ejaqr->ejpr", ad_tilde(s), kbar)
            kgeo = np.broadcast_to(
                (0.25 * area_w)[:, None, None, None, None] * geo[:, None],
                kmat.shape).copy()
        else:
            zg = state.zeta_pts[:, 1:]
            strain = zg - mesh.zeta0_pts[:, 1:]
            s = np.einsum("eabpq,egbq->egap", self.d_blocks, strain)
            adg = ad(zg)
            kbar = (dn_pts[1:][None, :, :, :, None, None] * _EYE6
                    + N_PTS[1:][None, :, :, None, None, None]
                    * adg[:, :, None, :, :, :])  # (nel, 4, 4, 2, 6, 6)
            f_int = np.einsum("eg,egiapq,egap->eiq", w_gauss, kbar, s, optimize=True)
            kmat = np.einsum("eg,egiapq,eabpr,egjbrs->eijqs",
                             w_gauss, kbar, self.d_blocks, kbar, optimize=True)
            kgeo = np.einsum("eg,gi,egapq,egjaqr->eijpr",
                             w_gauss, N_PTS[1:], ad_tilde(s), kbar, optimize=True)

        nel = mesh.n_elements
        f_ext = np.zeros((nel, 4, 6))
        if self.body_wrench is not None:
            f_ext += (0.25 * area_w)[:, None, None] * (load_factor * self.body_wrench)

        env = self._env_at(load_factor)
        if env is not None and mesh.b_r is not None:
            f_mag = element_magnetic_force(mesh.r0_pts[:, 1:], state.r_pts[:, 1:],
                                           mesh.b_r, env, N_PTS[1:], w_gauss)
            kmag = element_magnetic_stiffness(mesh.r0_pts[:, 1:], state.r_pts[:, 1:],
                                              mesh.b_r, env, N_PTS[1:], w_gauss)
        else:
            f_mag = np.zeros((nel, 4, 6))
            kmag = np.zeros((nel, 4, 4, 6, 6))

        return ElementKernels(kmat=kmat, kgeo=kgeo, kmag=kmag,
                              f_int=f_int, f_ext=f_ext, f_mag=f_mag)

    # --- global level ------------------------------------------------------

    def _scatter(self, dofs: np.ndarray) -> "_Scatter":
        """Fixed-pattern scatter onto `dofs`, built on first use per DOF set."""
        key = dofs.tobytes()
        sc = self._scatters.get(key)
        if sc is None:
            sc = self._scatters[key] = _Scatter(self.mesh.conn, self.mesh.n_nodes, dofs)
        return sc

    def assemble(self, kern: ElementKernels, dofs: np.ndarray | None = None
                 ) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Scatter-add element kernels into (A, b) plus the external-load part.

        Returns the tangent A = Kmat + Kgeo - Kmag, the residual
        b = f_ext + f_mag - f_int, and separately the external load vector
        f_ext + f_mag used for tolerance scaling, all restricted to `dofs`
        (default: every DOF, i.e. the full unreduced system).
        """
        if dofs is None:
            dofs = np.arange(self.mesh.n_dofs)
        sc = self._scatter(dofs)
        load_el = kern.f_ext + kern.f_mag
        a = sc.matrix(kern.kmat + kern.kgeo - kern.kmag)
        return a, sc.vector(load_el - kern.f_int), sc.vector(load_el)

    def neumann_terms(self, load_factor: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Nodal boundary wrenches (n_dofs,) and dead-load tangent blocks.

        Dead loads keep constant spatial components and are re-expressed in
        each node's current frame; followers are constant local components.
        The dead-load tangent is block diagonal, returned as one 6x6 block
        per node, shape (n_nodes, 6, 6).
        """
        mesh = self.mesh
        b = np.zeros((mesh.n_nodes, 6))
        kdead = np.zeros((mesh.n_nodes, 6, 6))
        for ld in mesh.neumann:
            w = ld.wrench * load_factor
            weight = ld.weights[:, None]
            if ld.frame == "follower":
                np.add.at(b, ld.nodes, weight * w)
                continue
            r = mesh.state.g_nodes[ld.nodes, :3, :3]
            n_loc = np.einsum("kji,j->ki", r, w[:3])
            m_loc = np.einsum("kji,j->ki", r, w[3:])
            np.add.at(b, ld.nodes, weight * np.hstack([n_loc, m_loc]))
            blk = np.zeros((len(ld.nodes), 6, 6))
            blk[:, :3, 3:] = weight[:, :, None] * skew(n_loc)
            blk[:, 3:, 3:] = weight[:, :, None] * skew(m_loc)
            np.add.at(kdead, ld.nodes, blk)
        return b.ravel(), kdead

    def apply_boundary_conditions(self, a: sp.csr_matrix, b: np.ndarray,
                                  load: np.ndarray, free: np.ndarray,
                                  load_factor: float = 1.0) -> GlobalSystem:
        """Add boundary loads and the dead-load tangent to the reduced system.

        `a`, `b` and `load` come from `assemble(kern, free)`; the dead-load
        blocks are subtracted in place in the slots of `a`'s fixed pattern.
        """
        b_neu, kdead = self.neumann_terms(load_factor)
        a.data -= self._scatter(free).node_data(kdead)
        b_neu = b_neu[free]
        b = b + b_neu
        if not np.all(np.isfinite(a.data)) or not np.all(np.isfinite(b)):
            raise FloatingPointError("non-finite entries in the assembled system")
        return GlobalSystem(a=a, b=b, free=free,
                            load_norm=float(np.linalg.norm(load + b_neu)))

    def build_system(self, load_factor: float = 1.0) -> GlobalSystem:
        kern = self.element_kernels(load_factor)
        free = self.mesh.free_dofs()
        a, b, load = self.assemble(kern, free)
        return self.apply_boundary_conditions(a, b, load, free, load_factor)

    # --- diagnostics --------------------------------------------------------

    def mechanical_tangent(self) -> sp.csr_matrix:
        """BC-reduced Kmat + Kgeo (no magnetic or load-stiffness parts)."""
        kern = self.element_kernels(0.0)
        return self._scatter(self.mesh.free_dofs()).matrix(kern.kmat + kern.kgeo)

    def energies(self, load_factor: float = 1.0) -> tuple[float, float]:
        """(elastic stored energy, magnetic potential) of the current state.

        Elastic part integrates -l0 = 1/2 <S, E> over the strain sampling of
        the active scheme; magnetic part is -(1/mu0) B_t^r . B^a per area.
        """
        mesh = self.mesh
        le1, le2 = mesh.le
        if self.scheme == "centroid":
            strain = mesh.state.zeta_pts[:, 0] - mesh.zeta0_pts[:, 0]
            s = np.einsum("eabpq,ebq->eap", self.d_blocks, strain)
            dens = 0.5 * np.einsum("eap,eap->e", s, strain)
            elastic = float(np.sum(le1 * le2 * mesh.jac0_pts[:, 0] * dens))
        else:
            strain = mesh.state.zeta_pts[:, 1:] - mesh.zeta0_pts[:, 1:]
            s = np.einsum("eabpq,egbq->egap", self.d_blocks, strain)
            dens = 0.5 * np.einsum("egap,egap->eg", s, strain)
            elastic = float(np.sum((le1 * le2 / 4.0) * mesh.jac0_pts[:, 1:] * dens))
        magnetic = 0.0
        env = self._env_at(load_factor)
        if env is not None and mesh.b_r is not None:
            b_mat = np.einsum("egji,ej->egi", mesh.r0_pts[:, 1:], mesh.b_r)
            b_app = np.einsum("egji,j->egi", mesh.state.r_pts[:, 1:], env.b_applied)
            dots = np.einsum("egi,egi->eg", b_mat, b_app) / env.mu0
            w_gauss = (le1 * le2 / 4.0) * mesh.jac0_pts[:, 1:]
            magnetic = float(-np.sum(w_gauss * dots))
        return elastic, magnetic


class _Scatter:
    """Fixed CSR pattern of the tangent on a DOF subset, with int32 slot maps.

    Every entry of the (nel,4,4,6,6) element blocks (`k_slot`), the (nel,4,6)
    element forces (`f_slot`) and the (n_nodes,6,6) nodal blocks
    (`node_slot`) owns one slot of the matrix `data` or of the vector.
    Entries on dropped DOFs go to a spare slot one past the end, which is
    cut off, so each assembly is a single `np.bincount`.
    """

    def __init__(self, conn: np.ndarray, n_nodes: int, dofs: np.ndarray):
        m = len(dofs)
        pos = np.full(6 * n_nodes, m, dtype=np.int64)
        pos[dofs] = np.arange(m)
        el = pos[6 * conn[:, :, None] + np.arange(6)]        # (nel, 4, 6)
        node = pos[6 * np.arange(n_nodes)[:, None] + np.arange(6)]  # (n_nodes, 6)
        keys = el[:, :, None, :, None] * m + el[:, None, :, None, :]
        kept = (el[:, :, None, :, None] < m) & (el[:, None, :, None, :] < m)
        uniq, inv = np.unique(keys[kept], return_inverse=True)
        nnz = len(uniq)
        k_slot = np.full(keys.shape, nnz, dtype=np.int32)
        k_slot[kept] = inv
        node_keys = node[:, :, None] * m + node[:, None, :]
        node_kept = (node[:, :, None] < m) & (node[:, None, :] < m)
        node_slot = np.full(node_keys.shape, nnz, dtype=np.int32)
        node_slot[node_kept] = np.searchsorted(uniq, node_keys[node_kept])
        self.m, self.nnz = m, nnz
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(uniq // m, minlength=m))]).astype(np.int32)
        self.indices = (uniq % m).astype(np.int32)
        self.k_slot = k_slot.ravel()
        self.f_slot = el.astype(np.int32).ravel()
        self.node_slot = node_slot.ravel()

    def matrix(self, blocks: np.ndarray) -> sp.csr_matrix:
        """Sum (nel,4,4,6,6) element blocks into a fresh CSR matrix."""
        data = np.bincount(self.k_slot, weights=blocks.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.m, self.m))

    def vector(self, forces: np.ndarray) -> np.ndarray:
        """Sum (nel,4,6) element forces into a vector over the DOF subset."""
        return np.bincount(self.f_slot, weights=forces.ravel(),
                           minlength=self.m + 1)[:self.m]

    def node_data(self, blocks: np.ndarray) -> np.ndarray:
        """(n_nodes,6,6) nodal diagonal blocks as an array aligned with `data`."""
        return np.bincount(self.node_slot, weights=blocks.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]


def rigid_modes(mesh: ShellMesh) -> np.ndarray:
    """Six discrete rigid-motion fields u_i = Ad(g_i^-1) mu, shape (6, n_dofs)."""
    from .liegroup import Ad, inv_pose

    ad_inv = Ad(inv_pose(mesh.state.g_nodes))  # (n_nodes, 6, 6)
    modes = np.zeros((6, mesh.n_dofs))
    for k in range(6):
        mu = np.zeros(6)
        mu[k] = 1.0
        modes[k] = (ad_inv @ mu).ravel()
    return modes
