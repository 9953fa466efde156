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

A build evaluates only what the Newton iteration reads.  The kernel memo
holds what depends on the sampled twists alone: the factor P of the
material stiffness Kmat = K0 + P + P^T with a contiguous copy of P^T, the
internal forces, the weighted stress and ad(zeta).  The model keeps the last
evaluation and reuses it while the twists are exactly equal (the first build
of an attempt starts from a load increment's snapshot, which carries the
memo of its state).  `build_system` forms the residual and its norms; the
tangent is assembled only when the solver reads `GlobalSystem.a`, so the
check that finds a step converged assembles none.  Only then are the
geometric stiffness (from the memo's stress) and the magnetic stiffness
formed, and each element block is written once, straight into the scatter's
weight buffer, as ((K0 + P_i) + P_j^T) + Kgeo - Kmag.

Assembly has one fixed-pattern path, straight into band storage.  On the
first build for a given set of free DOFs the model orders those DOFs along
the mesh grid (nodes along the longer of nx and ny, each node's six DOFs
together), so the tangent has half-bandwidth 6 (min(nx, ny) + 3) - 1: 23 on
a one-element-wide strip, 107 on a 20x15 plate.  The scatter of a DOF list
holds maps from every element-block, element-force and nodal dead-load
entry to its slot in the data of a `dia_matrix` that stores only the
diagonals some block writes (all 47 on a strip, 69 of 215 on the 20x15
plate), with fixed DOFs already dropped; each later build is then one
`np.bincount` per array, the tangent's over the element blocks followed by
the negated dead-load blocks.  The full unreduced system used by diagnostics
is the same scatter over all DOFs, in natural order (a wider band).
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
from .magnetics import (MagneticEnvironment, applied_field, element_magnetic_force,
                        element_magnetic_stiffness, remanent_field)
from .mesh import DN_PTS_PARENT, GAUSS_POINTS, N_PTS, ShellMesh, ShellState

# sample points of each strain sampling and their weight per unit chart area
_SAMPLINGS = {"centroid": (np.array([0]), 1.0), "gauss": (GAUSS_POINTS, 0.25)}
# backs the all-zero ElementKernels fields
_ZERO = np.zeros(())


@dataclass
class ElementKernels:
    """Batched element arrays of one build; forces (nel,4,6), blocks (nel,4,4,6,6).

    Only `blocks` forms the element blocks Kmat + Kgeo - Kmag, into the
    buffer it is given.  Kmat = K0 + P + P^T is not stored: kmat holds the
    memoized factor P and kmat_t a contiguous P^T, broadcastable to the block
    shape ((nel,4,1,6,6) and (nel,1,4,6,6) for the centroid sampling, where
    P_ij does not depend on j), and k0 is the sampling's constant K0.  kmat,
    kmat_t and f_int are the model's read-only memo.

    kgeo and kmag are formed on first access, from `geometric_args` (the
    memo's ad(zeta) and stress, with the shape functions) and
    `magnetic_args`, so a build whose tangent is never assembled forms
    neither.  kmag holds only the rotation-rotation 3x3 sub-blocks,
    (nel,4,4,3,3).  f_ext is a read-only all-zero broadcast view (boundary
    loads enter through `neumann_terms`); so are f_mag and kmag without
    magnetics (`magnetic_args` None).
    """

    k0: np.ndarray
    kmat: np.ndarray
    kmat_t: np.ndarray
    f_int: np.ndarray
    f_ext: np.ndarray
    f_mag: np.ndarray
    geometric_args: tuple
    magnetic_args: tuple | None

    @cached_property
    def kgeo(self) -> np.ndarray:
        return element_geometric_stiffness(*self.geometric_args)

    @cached_property
    def kmag(self) -> np.ndarray:
        if self.magnetic_args is None:
            return np.broadcast_to(_ZERO, self.k0.shape[:3] + (3, 3))
        return element_magnetic_stiffness(*self.magnetic_args)

    def blocks(self, out: np.ndarray) -> np.ndarray:
        """Write the element blocks ((K0 + P_i) + P_j^T) + Kgeo - Kmag into `out`,
        (nel,4,4,6,6), and return it."""
        np.add(self.k0, self.kmat, out=out)
        out += self.kmat_t
        out += self.kgeo
        if self.magnetic_args is not None:
            out[..., 3:, 3:] -= self.kmag
        return out


def element_geometric_stiffness(adz: np.ndarray, s: np.ndarray, n: np.ndarray,
                                dn: np.ndarray) -> np.ndarray:
    """Kgeo of the twists and weighted stresses `s` at the G sample points.

    With A_ga = ad(zeta_ga) stacked over a in `adz` (nel,G,12,6),
    T_ga = ad_tilde(s_ga) and the shape-function values n (G,4) and
    derivatives dn (G,4,2) there,

        kgeo_ij = sum_g N_gi (sum_a dN_gja T_ga + N_gj sum_a T_ga A_ga).

    At the single centroid point N_i = 1/4 for every node, so kgeo does not
    depend on i and is returned as a read-only broadcast view.
    """
    nel, g = s.shape[:2]
    t = ad_tilde(s)                                    # (nel, G, 2, 6, 6)
    q = (dn @ t.reshape(nel, g, 2, 36)).reshape(nel, g, 4, 6, 6)
    q += n[..., None, None] * (t.transpose(0, 1, 3, 2, 4).reshape(nel, g, 6, 12)
                               @ adz)[:, :, None]
    if g == 1:
        return np.broadcast_to(n[0, 0] * q, (nel, 4, 4, 6, 6))
    return np.einsum("gi,egjpq->eijpq", n, q)


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


@dataclass(eq=False)
class Snapshot:
    """A copy of a state and the kernel memo of that state."""

    state: ShellState
    memo: tuple


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
        # (copy of mesh.b_r, R_0^T B_0^r), built on the first magnetic build
        self._remanent = None
        # (twists, (P, P^T, f_int, s, ad(zeta))) of the last kernel evaluation
        self._kernels = None

    def _env_at(self, load_factor: float) -> MagneticEnvironment | None:
        if self.field is None or self.mesh.b_r is None:
            return None
        if self.mesh.state.r_pts.shape[1] == 0:
            raise ValueError("mesh.b_r was set after the model was built: "
                             "the state carries no Gauss-point rotations")
        return self.field(load_factor)

    def _remanent_field(self) -> np.ndarray:
        """R_0^T B_0^r at the Gauss points, (nel,4,3).

        Built on the first magnetic build, and again whenever `mesh.b_r` no
        longer equals the copy it was built from, so replaced remanent
        vectors are used, never a stale field.
        """
        b_r = self.mesh.b_r
        if self._remanent is None or not np.array_equal(self._remanent[0], b_r):
            self._remanent = (np.array(b_r, dtype=float),
                              remanent_field(self.mesh.r0_pts[:, 1:], b_r))
        return self._remanent[1]

    def snapshot(self) -> Snapshot:
        """A copy of the state with its kernel memo, evaluated first if stale."""
        self._mechanical_kernels()
        return Snapshot(self.mesh.state.copy(), self._kernels)

    def restore(self, snapshot: Snapshot) -> None:
        """Return to a copy of the `snapshot` state, with its kernel memo."""
        self.mesh.state = snapshot.state.copy()
        self._kernels = snapshot.memo

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
        """The memo (twists, (P, P^T, f_int, s, ad(zeta))) of the current twists,
        evaluated once per state.

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
        return self._kernels

    def _evaluate_kernels(self, zeta: np.ndarray):
        """(P, P^T, f_int, s, A) through the factored tangent over the sample points.

        With A_ga = ad(zeta_ga) the strain operator is kbar_gia = dN_gia I + N_gi A_ga,
        so that, with D_ab the (pair-symmetric) stiffness blocks times the
        point's quadrature weight,

            kmat_ij = K0_ij + P_ij + P_ji^T,  P_ij = sum_g N_gj (X_gi + N_gi S_g / 2),
            U_ga = sum_b D_ab A_gb,  X_gi = sum_a dN_gia U_ga,  S_g = sum_a A_ga^T U_ga,
            f_int_i = sum_g (sum_a dN_gia s_ga + N_gi sum_a A_ga^T s_ga),

        where s_ga = sum_b D_ab (zeta_gb - zeta_0,gb) is the weighted stress;
        `element_geometric_stiffness` forms kgeo from s and A.  At the single
        centroid point N_i = 1/4 for every node, so P_ij = z_i / 4 does not
        depend on j and only the (nel,4,1,6,6) factor is formed; P^T is copied
        contiguous, so the block fill adds it without strides.
        """
        _, n, dn, _, d12, _ = self._sampling()
        _, s = self._strain_stress(zeta)
        nel, g = s.shape[:2]
        adz = ad(zeta).reshape(nel, g, 12, 6)              # A_ga stacked over a
        adz_t = np.swapaxes(adz, -1, -2)
        u = d12 @ adz                                      # U_ga stacked over a
        z = (dn @ u.reshape(nel, g, 2, 36)).reshape(nel, g, 4, 6, 6)
        z += (0.5 * n)[..., None, None] * (adz_t @ u)[:, :, None]
        f_int = dn @ s + n[..., None] * (adz_t @ s.reshape(nel, g, 12, 1)).reshape(nel, g, 1, 6)
        if g == 1:
            p = (n[0, 0] * z[:, 0])[:, :, None]            # P_ij for every j
        else:
            p = np.einsum("gj,egipq->eijpq", n, z)         # P_ij
        p_t = np.ascontiguousarray(p.transpose(0, 2, 1, 4, 3))
        return p, p_t, f_int.sum(axis=1), s, adz

    def element_kernels(self, load_factor: float = 1.0) -> ElementKernels:
        mesh = self.mesh
        _, (p, p_t, f_int, s, adz) = self._mechanical_kernels()
        _, n, dn, _, _, k0 = self._sampling()
        env = self._env_at(load_factor)
        args = None
        if env is not None:
            args = (self._remanent_field(), applied_field(mesh.state.r_pts, env), env.mu0,
                    N_PTS[1:], self._gauss_weights())
            f_mag = element_magnetic_force(*args)
        else:
            f_mag = np.broadcast_to(_ZERO, f_int.shape)
        return ElementKernels(k0=k0, kmat=p, kmat_t=p_t, f_int=f_int,
                              f_ext=np.broadcast_to(_ZERO, f_int.shape), f_mag=f_mag,
                              geometric_args=(adz, s, n, dn), magnetic_args=args)

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

    def assemble(self, kern: ElementKernels, dofs: np.ndarray | None = None,
                 kdead: np.ndarray | None = None) -> sp.dia_matrix:
        """Scatter-add element blocks into the tangent A = Kmat + Kgeo - Kdead - Kmag.

        Restricted to `dofs` (default: every DOF, i.e. the full unreduced
        tangent).  `kdead` holds the (n_nodes,6,6) dead-load blocks of
        `neumann_terms` (default: none).  `kern.blocks` writes the element
        blocks straight into the scatter's weight buffer; they and the negated
        nodal blocks are summed by one scatter, the nodal ones last.
        """
        sc = self._scatter(dofs)
        kern.blocks(sc.block_weights)
        if kdead is None:
            sc.node_weights.fill(0.0)
        else:
            np.negative(kdead, out=sc.node_weights)
        return sc.matrix()

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

    def apply_boundary_conditions(self, kern: ElementKernels, kdead: np.ndarray,
                                  free: np.ndarray) -> sp.dia_matrix:
        """The tangent reduced to the `free` DOFs, with the dead-load blocks.

        `kdead` comes from `neumann_terms`; `assemble` scatters it with the
        element blocks.  A non-finite entry raises FloatingPointError.
        """
        a = self.assemble(kern, free, kdead)
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
            tangent=lambda: self.apply_boundary_conditions(kern, kdead, free))

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
            b_app = applied_field(mesh.state.r_pts, env)
            dots = np.sum(self._remanent_field() * b_app, axis=-1) / env.mu0
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
    row ku - offsets[i].  Every entry of the (nel,4,4,6,6) element blocks,
    then of the (n_nodes,6,6) nodal blocks (`k_slot`), and of the (nel,4,6)
    element forces (`f_slot`) owns one slot of the flat data or of the
    vector; entries on dropped DOFs go to a spare slot one past the end,
    which is cut off, so each assembly is a single `np.bincount`.  The
    tangent's weights are written into `block_weights` and `node_weights`,
    the two parts of one buffer in `k_slot` order; bincount sums in input
    order, so the nodal blocks are added after every element block.
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
        node_slot = band_row[np.where(node_kept, k + node_rows - node_cols, 0)] * m + node_cols
        self.k_slot = np.concatenate([np.where(kept, slot, self.size).ravel(),
                                      np.where(node_kept, node_slot, self.size).ravel()])
        self.f_slot = el.ravel()
        weights = np.empty(len(self.k_slot))
        self.block_weights = weights[:kept.size].reshape(kept.shape)
        self.node_weights = weights[kept.size:].reshape(n_nodes, 6, 6)
        self._weights = weights

    def matrix(self) -> sp.dia_matrix:
        """Sum the element and nodal blocks in the weights into a fresh band matrix."""
        data = np.bincount(self.k_slot, weights=self._weights, minlength=self.size + 1)
        return sp.dia_matrix((data[:self.size].reshape(-1, self.m), self.offsets),
                             shape=(self.m, self.m))

    def vector(self, forces: np.ndarray) -> np.ndarray:
        """Sum (nel,4,6) element forces into a vector over the DOF subset."""
        return np.bincount(self.f_slot, weights=forces.ravel(),
                           minlength=self.m + 1)[:self.m]
