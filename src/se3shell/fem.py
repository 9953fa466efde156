"""Discrete weak form: element kernels, boundary conditions, global assembly.

Per element, sample point g and chart direction a the discrete strain
operator is

    Kbar^i_ga = dN^i/dxi^a (x_g) I_6 + N^i(x_g) ad(zeta_ga),

the derivative of the carried twists under interpolated nodal increments.
Both strain samplings run through one factored kernel over their sample
points.  The default `scheme="centroid"` samples the twists entering both the
stress and the ad-term once, at the element centroid, weighted by the element
area (the locking treatment); `scheme="gauss"` samples them at the 2x2 Gauss
points (fully consistent as well, but it shear locks for thin elements; kept
as a diagnostic).  In both the assembled tangent is the exact jacobian of the
assembled residual.  The magnetic terms always use the Gauss points, at the
rotations the solver carries there on a magnetized mesh.

Global system convention (tangent times increment = residual):

    A = Kmat + Kgeo - Kdead - Kmag,   b = f_ext + f_mag - f_int,

which is the (K_MG - KM) eta = FU - FM structure with FU the unbalanced
mechanical force f_ext - f_int; f_ext holds the boundary wrenches of
`neumann_terms`, and the applied field B^a(lambda) of the model's field
program enters through f_mag and Kmag.

A build evaluates only what the Newton iteration reads.  The mechanical
kernels depend on the sampled twists alone, so the model keeps the last
evaluation and reuses it while the twists are exactly equal (the first build
of an attempt starts from the state the last one converged at, or from a
restored snapshot, which carries its kernels).  `build_system` forms the
residual and its norms; the tangent, with the magnetic stiffness and the
dead-load blocks, is assembled only when the solver reads `GlobalSystem.a`,
so the check that finds a step converged assembles none.

Assembly has one fixed-pattern path, straight into band storage.  On the
first build for a given set of free DOFs the model orders those DOFs along
the mesh grid (nodes along the longer of nx and ny, each node's six DOFs
together), so the tangent has half-bandwidth 6 (min(nx, ny) + 3) - 1: 23 on
a one-element-wide strip, 107 on a 20x15 plate.  The scatter of a DOF list
holds maps from every element-block, element-force and nodal dead-load
entry to its slot in the data of a `dia_matrix` that stores only the
diagonals some block writes (all 47 on a strip, 69 of 215 on the 20x15
plate), with fixed DOFs already dropped; each later build is then one
`np.bincount` per array.  The full unreduced system used by diagnostics is
the same scatter over all DOFs, in natural order (a wider band).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .constitutive import (Material, internal_energy_density, metric_inverse,
                           stiffness_blocks, stress)
from .liegroup import ad, ad_tilde, skew
from .magnetics import (MagneticEnvironment, element_magnetic_force,
                        element_magnetic_stiffness, local_fields)
from .mesh import DN_PTS_PARENT, GAUSS_POINTS, N_PTS, ShellMesh

# sample points of each strain sampling and their weight per unit chart area
_SAMPLINGS = {"centroid": (np.array([0]), 1.0), "gauss": (GAUSS_POINTS, 0.25)}
# backs the all-zero ElementKernels fields
_ZERO = np.zeros(())


@dataclass
class ElementKernels:
    """Batched element arrays; forces (nel,4,6), matrices (nel,4,4,6,6).

    kmag is evaluated on first access from the arguments `magnetic_args` of
    `element_magnetic_stiffness`, so a system that is never factored never
    evaluates it.  f_ext is a read-only all-zero broadcast view (boundary
    loads enter through `neumann_terms`); so are f_mag and kmag without
    magnetics (`magnetic_args` None).  kmat, kgeo and f_int are read-only: they
    are the model's memoized mechanical kernels.
    """

    kmat: np.ndarray
    kgeo: np.ndarray
    f_int: np.ndarray
    f_ext: np.ndarray
    f_mag: np.ndarray
    magnetic_args: tuple | None

    @cached_property
    def kmag(self) -> np.ndarray:
        if self.magnetic_args is None:
            return np.broadcast_to(_ZERO, self.kmat.shape)
        return element_magnetic_stiffness(*self.magnetic_args)


@dataclass
class GlobalSystem:
    """BC-reduced Newton system A eta = b plus bookkeeping for tolerances.

    `free` lists the free DOFs in the row order of `a` and `b`, which is the
    grid order of the band, not ascending DOF order.  The tangent `a` is
    assembled by `tangent` on first access, so a converged check never forms
    it; a non-finite tangent raises FloatingPointError there.
    """

    b: np.ndarray
    free: np.ndarray
    load_norm: float
    tangent: Callable[[], sp.dia_matrix]
    residual_norm: float = field(init=False)

    def __post_init__(self):
        self.residual_norm = float(np.linalg.norm(self.b))

    @cached_property
    def a(self) -> sp.dia_matrix:
        return self.tangent()


class FemModel:
    """Mesh + material + applied-field program, able to produce the Newton system.

    `field(load_factor) -> MagneticEnvironment` is the magnetic load path; the
    magnetic terms are active when both it and `mesh.b_r` are set.
    """

    def __init__(self, mesh: ShellMesh, material: Material,
                 field: Callable[[float], MagneticEnvironment] | None = None,
                 scheme: str = "centroid"):
        if scheme not in _SAMPLINGS:
            raise ValueError("scheme must be 'centroid' or 'gauss'")
        self.mesh = mesh
        self.material = material
        self.field = field
        self.scheme = scheme
        # the state keeps only what the model reads
        mesh.state = mesh.state.carrying(_SAMPLINGS[scheme][0],
                                         rotations=mesh.b_r is not None)
        self.d_blocks = self._build_d_blocks()
        self._scatters: dict[bytes, _Scatter] = {}
        self._band_orders: dict[bytes, np.ndarray] = {}
        # constants of the strain sampling, built on the first build;
        # the reference geometry and d_blocks are fixed after construction
        self._sampling_consts = None
        # (sampled twists, (kmat, kgeo, f_int)) of the last kernel evaluation
        self._kernels = None

    def _env_at(self, load_factor: float) -> MagneticEnvironment | None:
        if self.field is None or self.mesh.b_r is None:
            return None
        if self.mesh.state.r_pts.shape[1] == 0:
            raise ValueError("mesh.b_r was set after the model was built: "
                             "the state carries no Gauss-point rotations")
        return self.field(load_factor)

    def snapshot(self):
        """A copy of the state together with its memoized kernels."""
        return self.mesh.state.copy(), self._kernels

    def restore(self, snapshot) -> None:
        """Return to a `snapshot`; each snapshot is restored at most once.

        A snapshot taken before any kernel evaluation keeps the current memo,
        which is still checked against the restored twists.
        """
        self.mesh.state, kernels = snapshot
        if kernels is not None:
            self._kernels = kernels

    def _build_d_blocks(self) -> np.ndarray:
        """Per-element stiffness blocks, one evaluation per distinct metric."""
        nel = self.mesh.n_elements
        tangents = self.mesh.zeta0_pts[:, 0, :, :3].reshape(nel, 6)
        uniq, inv = np.unique(tangents, axis=0, return_inverse=True)
        d = np.stack([stiffness_blocks(self.material, metric_inverse(t[:3], t[3:]))
                      for t in uniq])
        return d[inv.reshape(-1)]

    def _gauss_weights(self) -> np.ndarray:
        le1, le2 = self.mesh.le
        return (le1 * le2 / 4.0) * self.mesh.jac0_pts[:, 1:]  # (nel, 4)

    # --- element level -----------------------------------------------------

    def _sampling(self):
        """(points, N, dN, w D_ab, w D as (nel,G,12,12), K0) of the G sample points.

        w D_ab is the (nel,G,2,2,6,6) view of the stacked 12x12 blocks times the
        quadrature weight, and K0_ij = sum_gab dN_gia dN_gjb w_g D_ab.
        """
        if self._sampling_consts is None:
            mesh = self.mesh
            le1, le2 = mesh.le
            pts, w_area = _SAMPLINGS[self.scheme]
            n = N_PTS[pts]
            dn = DN_PTS_PARENT[pts] * np.array([2.0 / le1, 2.0 / le2])
            w = le1 * le2 * w_area * mesh.jac0_pts[:, pts]
            wd = w[..., None, None, None, None] * self.d_blocks[:, None]
            nel, g = w.shape
            d12 = wd.transpose(0, 1, 2, 4, 3, 5).reshape(nel, g, 12, 12)
            self._sampling_consts = (
                pts, n, dn, d12.reshape(nel, g, 2, 6, 2, 6).swapaxes(3, 4), d12,
                np.einsum("gia,gjb,egabpq->eijpq", dn, dn, wd))
        return self._sampling_consts

    def _strain_stress(self, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Strains and weighted stresses of twists at the sample points, (nel,G,2,6)."""
        pts, _, _, wd, _, _ = self._sampling()
        strain = zeta - self.mesh.zeta0_pts[:, pts]
        return strain, stress(wd, strain)

    def _mechanical_kernels(self):
        """(kmat, kgeo, f_int) of the current twists, evaluated once per state.

        The last evaluation is kept with a copy of the twists it read and
        reused while the state's twists equal them exactly, so an in-place
        edit or a NaN evaluates anew.
        """
        zeta = self.mesh.state.zeta_pts
        if self._kernels is None or not np.array_equal(self._kernels[0], zeta):
            kernels = self._evaluate_kernels(zeta)
            for arr in kernels:
                arr.flags.writeable = False
            self._kernels = (zeta.copy(), kernels)
        return self._kernels[1]

    def _evaluate_kernels(self, zeta: np.ndarray):
        """(kmat, kgeo, f_int) through the factored tangent over the sample points.

        With A_ga = ad(zeta_ga) the strain operator is kbar_gia = dN_gia I + N_gi A_ga,
        so that, with D_ab the (pair-symmetric) stiffness blocks times the
        point's quadrature weight,

            kmat_ij = K0_ij + P_ij + P_ji^T,  P_ij = sum_g N_gj (X_gi + N_gi S_g / 2),
            U_ga = sum_b D_ab A_gb,  X_gi = sum_a dN_gia U_ga,  S_g = sum_a A_ga^T U_ga,
            f_int_i = sum_g (sum_a dN_gia s_ga + N_gi sum_a A_ga^T s_ga),
            kgeo_ij = sum_g N_gi (sum_a dN_gja T_ga + N_gj sum_a T_ga A_ga),
            T_ga = ad_tilde(s_ga),

        where s_ga = sum_b D_ab (zeta_gb - zeta_0,gb) is the weighted stress.  At
        the single centroid point N_i = 1/4 for every node, so kgeo does not
        depend on i and is returned as a broadcast view.
        """
        _, n, dn, _, d12, k0 = self._sampling()
        _, s = self._strain_stress(zeta)
        nel, g = s.shape[:2]
        adz = ad(zeta).reshape(nel, g, 12, 6)              # A_ga stacked over a
        adz_t = np.swapaxes(adz, -1, -2)
        u = d12 @ adz                                      # U_ga stacked over a
        z = (dn @ u.reshape(nel, g, 2, 36)).reshape(nel, g, 4, 6, 6)
        z += (0.5 * n)[..., None, None] * (adz_t @ u)[:, :, None]
        p = np.einsum("gj,egipq->eijpq", n, z)             # P_ij
        kmat = k0 + p
        kmat += p.transpose(0, 2, 1, 4, 3)
        f_int = dn @ s + n[..., None] * (adz_t @ s.reshape(nel, g, 12, 1)).reshape(nel, g, 1, 6)
        t = ad_tilde(s)                                    # (nel, G, 2, 6, 6)
        q = (dn @ t.reshape(nel, g, 2, 36)).reshape(nel, g, 4, 6, 6)
        q += n[..., None, None] * (t.transpose(0, 1, 3, 2, 4).reshape(nel, g, 6, 12)
                                   @ adz)[:, :, None]
        if g == 1:
            kgeo = np.broadcast_to(n[0, 0] * q, kmat.shape)
        else:
            kgeo = np.einsum("gi,egjpq->eijpq", n, q)
        return kmat, kgeo, f_int.sum(axis=1)

    def element_kernels(self, load_factor: float = 1.0) -> ElementKernels:
        mesh = self.mesh
        kmat, kgeo, f_int = self._mechanical_kernels()
        env = self._env_at(load_factor)
        args = None
        if env is not None:
            args = (mesh.r0_pts[:, 1:], mesh.state.r_pts, mesh.b_r, env,
                    N_PTS[1:], self._gauss_weights())
            f_mag = element_magnetic_force(*args)
        else:
            f_mag = np.broadcast_to(_ZERO, f_int.shape)
        return ElementKernels(kmat=kmat, kgeo=kgeo, f_int=f_int,
                              f_ext=np.broadcast_to(_ZERO, f_int.shape), f_mag=f_mag,
                              magnetic_args=args)

    # --- global level ------------------------------------------------------

    def _scatter(self, dofs: np.ndarray | None) -> "_Scatter":
        """Fixed-pattern scatter onto `dofs` (None: every DOF), built on first
        use per DOF set."""
        if dofs is None:
            dofs = np.arange(self.mesh.n_dofs)
        key = dofs.tobytes()
        sc = self._scatters.get(key)
        if sc is None:
            sc = self._scatters[key] = _Scatter(self.mesh.conn, self.mesh.n_nodes, dofs)
        return sc

    def residual(self, kern: ElementKernels, dofs: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Scatter-add element forces into the residual b = f_mag - f_int and,
        separately, the magnetic load vector f_mag used for tolerance scaling,
        both restricted to `dofs` (default: every DOF)."""
        sc = self._scatter(dofs)
        return sc.vector(kern.f_mag - kern.f_int), sc.vector(kern.f_mag)

    def assemble(self, kern: ElementKernels, dofs: np.ndarray | None = None
                 ) -> sp.dia_matrix:
        """Scatter-add element blocks into the tangent A = Kmat + Kgeo - Kmag.

        Restricted to `dofs` (default: every DOF, i.e. the full unreduced
        tangent).
        """
        sc = self._scatter(dofs)
        blocks = kern.kmat + kern.kgeo
        if kern.magnetic_args is not None:
            blocks -= kern.kmag
        return sc.matrix(blocks)

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

    def apply_boundary_conditions(self, a: sp.dia_matrix, kdead: np.ndarray,
                                  free: np.ndarray) -> sp.dia_matrix:
        """Subtract the dead-load tangent blocks from the reduced tangent.

        `a` comes from `assemble(kern, free)` and `kdead` from `neumann_terms`;
        the blocks are subtracted in place in the slots of `a`'s band.
        """
        self._scatter(free).subtract_node_blocks(a.data, kdead)
        if not np.all(np.isfinite(a.data)):
            raise FloatingPointError("non-finite entries in the assembled system")
        return a

    def build_system(self, load_factor: float = 1.0) -> GlobalSystem:
        """The BC-reduced system on the free DOFs in band (grid) order.

        The residual side is formed here; the tangent only when the solver
        reads `a`, so the check that finds a step converged assembles none.
        """
        kern = self.element_kernels(load_factor)
        free = self._band_order(self.mesh.free_dofs())
        b, load = self.residual(kern, free)
        b_neu, kdead = self.neumann_terms(load_factor)
        b_neu = b_neu[free]
        b = b + b_neu
        if not np.all(np.isfinite(b)):
            raise FloatingPointError("non-finite entries in the assembled system")
        return GlobalSystem(
            b=b, free=free, load_norm=float(np.linalg.norm(load + b_neu)),
            tangent=lambda: self.apply_boundary_conditions(self.assemble(kern, free),
                                                           kdead, free))

    def _band_order(self, free: np.ndarray) -> np.ndarray:
        """`free` with nodes along the longer grid side, made once per free-DOF set."""
        key = free.tobytes()
        order = self._band_orders.get(key)
        if order is None:
            mesh = self.mesh
            nodes = np.arange(mesh.n_nodes).reshape(mesh.ny + 1, mesh.nx + 1)
            if mesh.nx > mesh.ny:
                nodes = nodes.T  # node_index runs along xi1 first
            dofs = (6 * nodes.reshape(-1, 1) + np.arange(6)).ravel()
            kept = np.zeros(mesh.n_dofs, dtype=bool)
            kept[free] = True
            order = self._band_orders[key] = dofs[kept[dofs]]
        return order

    # --- diagnostics --------------------------------------------------------

    def energies(self, load_factor: float = 1.0) -> tuple[float, float]:
        """(elastic stored energy, magnetic potential) of the current state.

        Elastic part integrates -l0 = 1/2 <S, E> over the strain sampling of
        the active scheme; magnetic part is -(1/mu0) B_t^r . B^a per area.
        """
        strain, s = self._strain_stress(self.mesh.state.zeta_pts)
        elastic = -internal_energy_density(s, strain)
        magnetic = 0.0
        env = self._env_at(load_factor)
        mesh = self.mesh
        if env is not None:
            b_mat, b_app = local_fields(mesh.r0_pts[:, 1:], mesh.state.r_pts, mesh.b_r, env)
            dots = np.sum(b_mat * b_app, axis=-1) / env.mu0
            magnetic = float(-np.sum(self._gauss_weights() * dots))
        return elastic, magnetic


class _Scatter:
    """Band storage of the tangent on a DOF list, with its slot maps.

    Row and column i of the matrix is DOF `dofs[i]`.  The band keeps only the
    diagonals that some element or nodal block writes, as `offsets`
    (col - row) in strictly descending order, not necessarily contiguous:
    on a 2-D grid most diagonals inside the half-bandwidth k are structurally
    empty (146 of 215 on a 20x15 plate), on a strip none is.  Entry (r, c)
    lives at `data[i, c]` of the (len(offsets), m) data with
    `offsets[i] == c - r`, the layout of `dia_matrix`; row i is LAPACK's band
    row ku - offsets[i].  Every entry of the (nel,4,4,6,6) element blocks
    (`k_slot`) and the (nel,4,6) element forces (`f_slot`) owns one slot of
    the flat data or of the vector; entries on dropped DOFs go to a spare
    slot one past the end, which is cut off, so each assembly is a single
    `np.bincount`.  The (n_nodes,6,6) nodal blocks touch distinct entries,
    addressed by their flat slots `node_at`.
    """

    def __init__(self, conn: np.ndarray, n_nodes: int, dofs: np.ndarray):
        m = len(dofs)
        pos = np.full(6 * n_nodes, m, dtype=np.int64)
        pos[dofs] = np.arange(m)
        el = pos[6 * conn[:, :, None] + np.arange(6)]        # (nel, 4, 6)
        node = pos[6 * np.arange(n_nodes)[:, None] + np.arange(6)]  # (n_nodes, 6)
        # block (i, j) is row node i, column node j
        rows, cols = el[:, :, None, :, None], el[:, None, :, None, :]
        kept = (rows < m) & (cols < m)
        node_rows, node_cols = np.broadcast_arrays(node[:, :, None], node[:, None, :])
        node_kept = (node_rows < m) & (node_cols < m)
        self.offsets = np.union1d((cols - rows)[kept], (node_cols - node_rows)[node_kept])[::-1]
        k = int(np.abs(self.offsets).max())
        band_row = np.zeros(2 * k + 1, dtype=np.int64)       # of offset o at k - o
        band_row[k - self.offsets] = np.arange(len(self.offsets))
        self.m, self.size = m, len(self.offsets) * m
        slot = band_row[np.where(kept, k + rows - cols, 0)] * m + cols
        self.k_slot = np.where(kept, slot, self.size).ravel()
        self.f_slot = el.ravel()
        self.node_kept = np.flatnonzero(node_kept)
        self.node_at = (band_row[(k + node_rows - node_cols)[node_kept]] * m
                        + node_cols[node_kept])

    def matrix(self, blocks: np.ndarray) -> sp.dia_matrix:
        """Sum (nel,4,4,6,6) element blocks into a fresh band matrix."""
        data = np.bincount(self.k_slot, weights=blocks.ravel(), minlength=self.size + 1)
        return sp.dia_matrix((data[:self.size].reshape(-1, self.m), self.offsets),
                             shape=(self.m, self.m))

    def vector(self, forces: np.ndarray) -> np.ndarray:
        """Sum (nel,4,6) element forces into a vector over the DOF subset."""
        return np.bincount(self.f_slot, weights=forces.ravel(),
                           minlength=self.m + 1)[:self.m]

    def subtract_node_blocks(self, data: np.ndarray, blocks: np.ndarray) -> None:
        """Subtract (n_nodes,6,6) nodal diagonal blocks from band `data` in place.

        `data` is C-ordered, as `matrix` makes it, so its flat view is the
        one `node_at` indexes.
        """
        np.subtract.at(data.reshape(-1), self.node_at, blocks.reshape(-1)[self.node_kept])
