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
rotations the solver carries there for a magnetized model.

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

Assembly has one fixed-pattern path, straight into the band storage of
LAPACK dgbtrf.  The model freezes the mesh's Dirichlet masks when it is
built, so its free DOFs are fixed; on the first build it orders them along
the mesh grid (nodes along the longer of nx and ny, each node's six DOFs
together), so the tangent has half-bandwidth 6 (min(nx, ny) + 3) - 1: 23 on
a one-element-wide strip, 107 on a 20x15 plate.  The scatter of those DOFs
maps every element-block, element-force and nodal dead-load entry, fixed
DOFs dropped, to its place in the (2 kl + ku + 1, m) work array that dgbtrf
factors; each assembly zeroes that array and scatter-adds the element
blocks into it, less the blocks of the nodes that carry a dead load, and it
is the factor's input.  The `Band` keeps a copy of the diagonals some
block writes (all 47 on a strip, 69 of 215 on the 20x15 plate) for the
solver.  The model forms no other system: an unsupported mesh gives the
band over every DOF, still in grid order.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas

from .constitutive import (Material, internal_energy_density, metric_inverse,
                           stiffness_blocks, stress)
from .liegroup import ad, ad_tilde, skew
from .magnetics import (MagneticEnvironment, applied_field, element_magnetic_force,
                        element_magnetic_stiffness, remanent_field, stiffness_weights)
from .mesh import DN_PTS_PARENT, GAUSS_POINTS, N_PTS, PARENT_POINTS, ShellMesh, ShellState

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
    `magnetic_args` (the arguments of `element_magnetic_stiffness`: both
    local fields, mu0 and the model's quadrature weights), so a build whose
    tangent is never assembled forms neither.  kmag holds only the
    rotation-rotation 3x3 sub-blocks, (nel,4,4,3,3).  f_ext is the model's
    read-only all-zero broadcast view (boundary loads enter through
    `neumann_terms`); without magnetics (`magnetic_args` None) f_mag is that
    view too, and kmag an all-zero view.
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
    depend on i and is returned as a read-only broadcast view; `n` may then
    hold that value once, (1,1), so the N_j product is formed once and
    broadcast over j (the same bits as the (1,4) row).
    """
    nel, g = s.shape[:2]
    t = ad_tilde(s)                                    # (nel, G, 2, 6, 6)
    q = (dn @ t.reshape(nel, g, 2, 36)).reshape(nel, g, 4, 6, 6)
    q += n[..., None, None] * (t.transpose(0, 1, 3, 2, 4).reshape(nel, g, 6, 12)
                               @ adz)[:, :, None]
    if g == 1:
        return np.broadcast_to(n[0, 0] * q, (nel, 4, 4, 6, 6))
    return np.einsum("gi,egjpq->eijpq", n, q)


@dataclass(eq=False)
class Band:
    """A tangent in LAPACK dgbtrf band storage, with copies of its diagonals.

    `ab` is the model's Fortran-ordered (2 kl + ku + 1, m) work array, entry
    (r, c) at `ab[kl + ku + r - c, c]` under kl rows for the fill of partial
    pivoting; dgbtrf factors it in place and the next assembly refills it.
    The stored diagonals, the main one among them, come in runs of
    consecutive offsets (col - row); all others are zero.  `runs` holds, from
    the highest offset down, each run's top offset and the band's own
    Fortran-ordered copy of its rows of `ab`, (length, m): the unscaled A.
    """

    ab: np.ndarray
    kl: int
    ku: int
    runs: tuple[tuple[int, np.ndarray], ...]

    def scale_jacobi(self) -> np.ndarray:
        """Make the stored runs of `ab` those of D A D, entries (D_r D_c) a_rc
        with D = |a_ii|^-1/2 (1 where a_ii is zero or infinite, so no 0 inf is
        formed), from the copies, and return D."""
        diag = np.abs(next(run[top] for top, run in self.runs if 0 <= top < len(run)))
        d = np.ones_like(diag)
        np.divide(1.0, np.sqrt(diag), out=d, where=(diag > 0.0) & (diag < np.inf))
        m, row = len(d), self.kl + self.ku
        # D_(c - o) at row ku - o, column c: the sliding windows of D padded
        # by ku zeros before and kl after
        d_rows = sliding_window_view(np.concatenate([np.zeros(self.ku), d, np.zeros(self.kl)]), m)
        for top, run in self.runs:
            n = len(run)
            # (D_r D_c) a formed in a C-order temp, then copied into ab
            self.ab[row - top:row - top + n] = d_rows[self.ku - top:self.ku - top + n] * d * run
        return d

    def residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """b - A x, one BLAS dgbmv per run of offsets top ... bottom, the band
        of the block from row max(-top, 0) and column max(bottom, 0) on; y is
        padded past m, as SciPy's dgbmv takes no fewer rows than diagonals."""
        m = len(b)
        r = np.concatenate([b, np.zeros(self.kl + self.ku + 1)])
        for top, run in self.runs:
            bottom = top - len(run) + 1
            c0, r0 = max(bottom, 0), max(-top, 0)
            r = blas.dgbmv(max(m - r0, len(run)), m - c0, c0 - r0 - bottom, top - c0 + r0, -1.0,
                           run[:, c0:], x, offx=c0, beta=1.0, y=r, offy=r0, overwrite_y=True)
        return r[:m]

    def one_norm(self) -> float:
        """The largest absolute column sum of the unscaled tangent."""
        return float(sum(np.abs(run).sum(axis=0) for _, run in self.runs).max())

    def is_finite(self) -> bool:
        """Whether every stored entry of the unscaled tangent is finite."""
        return all(np.isfinite(run).all() for _, run in self.runs)


@dataclass
class GlobalSystem:
    """BC-reduced Newton system A eta = b plus bookkeeping for tolerances.

    `free` lists the free DOFs in the row order of `a` and `b`: the grid
    order of the band.  Each read of `a` assembles the tangent by `tangent`
    for the one solve that factors it, so a converged check forms none.  A
    non-finite `b` raises FloatingPointError when the system is built; the
    tangent is not scanned here (`solver.newton_step` tests it only when
    its solve fails).
    """

    b: np.ndarray
    free: np.ndarray
    load_norm: float
    tangent: Callable[[], Band]
    residual_norm: float = field(init=False)

    def __post_init__(self):
        self.residual_norm = math.sqrt(self.b.dot(self.b))

    @property
    def a(self) -> Band:
        return self.tangent()


@dataclass(eq=False)
class Snapshot:
    """A copy of a state and the kernel memo of that state."""

    state: ShellState
    memo: tuple


class FemModel:
    """Mesh + material + field program + magnetization: the Newton system.

    Building the model fixes the magnetization, the Dirichlet masks and the
    carried points: it keeps a read-only copy of `b_r`, the remanent vectors
    per unit area in the inertial frame, (n_elements, 3); it freezes
    `mesh.dirichlet` into read-only masks, so a later clamp or mask edit
    raises; and it narrows the five-point state of `build_mesh` to what it
    reads, refusing a state another model has narrowed.  The edge loads
    (`mesh.neumann`) and the field program stay open.  Its run constants are
    built on first use and kept.

    `field(load_factor) -> MagneticEnvironment` is the magnetic load path; the
    magnetic terms are active when both it and `b_r` are set.  It must
    be a pure function of the load factor: `environment_at` evaluates it once
    per load factor and keeps only the last result, while `field` is the same
    object, so a replaced program is evaluated afresh and a run evaluates it
    once per attempt.
    """

    def __init__(self, mesh: ShellMesh, material: Material,
                 field: Callable[[float], MagneticEnvironment] | None = None,
                 scheme: str = "centroid", b_r: np.ndarray | None = None):
        if scheme not in _SAMPLINGS:
            raise ValueError("scheme must be 'centroid' or 'gauss'")
        state = mesh.state
        if state.zeta_pts.shape[1] != len(PARENT_POINTS):
            raise ValueError("the mesh state is narrowed to another model's points: "
                             "build each model on a mesh of its own")
        if b_r is not None:
            b_r = np.array(b_r, dtype=float)
            if b_r.shape != (mesh.n_elements, 3):
                raise ValueError(f"b_r has shape {b_r.shape}, expected "
                                 f"({mesh.n_elements}, 3)")
            if not np.isfinite(b_r).all():
                raise ValueError("b_r has non-finite entries")
            b_r.flags.writeable = False
        self.mesh = mesh
        self.material = material
        self.field = field
        self.scheme = scheme
        self._b_r = b_r
        # the state keeps only what the model reads
        mesh.state = ShellState(state.g_nodes, state.zeta_pts[:, _SAMPLINGS[scheme][0]],
                                state.r_pts if b_r is not None else state.r_pts[:, :0].copy())
        masks = {node: np.array(mask, dtype=bool) for node, mask in mesh.dirichlet.items()}
        for mask in masks.values():
            mask.flags.writeable = False
        mesh.dirichlet = MappingProxyType(masks)
        self.d_blocks = self._build_d_blocks()
        # f_ext, and f_mag without magnetics
        self._zero_forces = np.broadcast_to(_ZERO, (mesh.n_elements, 4, 6))
        # (twists, (P, P^T, f_int, s, ad(zeta))) of the last kernel evaluation
        self._kernels = None
        # (field, load factor, environment) of the last field-program call
        self._environment = None

    @property
    def b_r(self) -> np.ndarray | None:
        """The read-only remanent vectors per unit area, (n_elements, 3)."""
        return self._b_r

    def environment_at(self, load_factor: float) -> MagneticEnvironment | None:
        """The applied-field environment `field(load_factor)`, None without a
        program.

        Evaluated once per load factor: the last (field, load factor,
        environment) is kept and returned again while `field` is the same
        object and the load factor is equal, so the builds of one attempt
        and the CSV row of its converged step share one evaluation
        (`antiparallel`: 49 calls for its 49 attempts, where each build and
        row called the program, 239 times).
        """
        if self.field is None:
            return None
        last = self._environment
        if last is None or last[0] is not self.field or last[1] != load_factor:
            last = self._environment = (self.field, load_factor, self.field(load_factor))
        return last[2]

    def _env_at(self, load_factor: float) -> MagneticEnvironment | None:
        return None if self.b_r is None else self.environment_at(load_factor)

    @cached_property
    def _remanent_field(self) -> np.ndarray:
        """R_0^T B_0^r at the Gauss points, (nel,4,3), built on the first
        magnetic build."""
        return remanent_field(self.mesh.r0_pts[:, 1:], self.b_r)

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

    @cached_property
    def _magnetic_quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, wnn): the Gauss weights w_g with the surface jacobian, (nel,4),
        and the weights w_g N_gi N_gj of the magnetic stiffness, (nel,4,4,4),
        built on the first magnetic build."""
        le1, le2 = self.mesh.le
        w = (le1 * le2 / 4.0) * self.mesh.jac0_pts[:, 1:]
        return w, stiffness_weights(N_PTS[1:], w)

    @cached_property
    def interpolation_rows(self) -> np.ndarray:
        """The (3m [+ 4], 4) rows taking an element's nodal values to the m
        sample points the state carries: N there, then d/dxi1 and d/dxi2 of
        N at each point in turn, then, for a magnetized model, N at the four
        Gauss points; built on the first update."""
        pts = _SAMPLINGS[self.scheme][0]
        le1, le2 = self.mesh.le
        dn = DN_PTS_PARENT[pts] * np.array([2.0 / le1, 2.0 / le2])  # (m, 4, 2)
        parts = [N_PTS[pts], np.swapaxes(dn, 1, 2).reshape(2 * len(pts), 4)]
        if self.b_r is not None:
            parts.append(N_PTS[GAUSS_POINTS])
        return np.concatenate(parts)

    # --- element level -----------------------------------------------------

    @cached_property
    def _sampling(self):
        """(zeta_0, N, dN, w D_ab, w D as (nel,G,12,12), K0) of the G sample
        points, built on the first build.

        zeta_0 (nel,G,2,6) are the reference twists there.  N is (G,4), but
        (1,1) for the centroid, where all four N_i equal 1/4: each N_i product
        of the kernels is then formed once and broadcast over the nodes.
        w D_ab is the (nel,G,2,2,6,6) view of the stacked 12x12 blocks times the
        quadrature weight, and K0_ij = sum_gab dN_gia dN_gjb w_g D_ab.
        """
        mesh = self.mesh
        le1, le2 = mesh.le
        pts, w_area = _SAMPLINGS[self.scheme]
        n = N_PTS[pts]
        if len(pts) == 1:
            n = n[:, :1]
        dn = DN_PTS_PARENT[pts] * np.array([2.0 / le1, 2.0 / le2])
        w = le1 * le2 * w_area * mesh.jac0_pts[:, pts]
        wd = w[..., None, None, None, None] * self.d_blocks[:, None]
        nel, g = w.shape
        d12 = wd.transpose(0, 1, 2, 4, 3, 5).reshape(nel, g, 12, 12)
        return (mesh.zeta0_pts[:, pts], n, dn, d12.reshape(nel, g, 2, 6, 2, 6).swapaxes(3, 4),
                d12, np.einsum("gia,gjb,egabpq->eijpq", dn, dn, wd))

    def _strain_stress(self, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Strains and weighted stresses of twists at the sample points, (nel,G,2,6)."""
        zeta0, _, _, wd, _, _ = self._sampling
        strain = zeta - zeta0
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
        centroid point N_i = 1/4 for every node, held once by the sampling, so
        the N_i products of z and f_int are formed once and broadcast over i,
        and P_ij = z_i / 4 does not depend on j: only the (nel,4,1,6,6) factor
        is formed.  P^T is copied contiguous, so the block fill adds it
        without strides.
        """
        _, n, dn, _, d12, _ = self._sampling
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
        _, n, dn, _, _, k0 = self._sampling
        env = self._env_at(load_factor)
        args = None
        f_mag = self._zero_forces
        if env is not None:
            w, wnn = self._magnetic_quadrature
            b_mat, b_app = self._remanent_field, applied_field(mesh.state.r_pts, env)
            f_mag = element_magnetic_force(b_mat, b_app, env.mu0, N_PTS[1:], w)
            args = (b_mat, b_app, env.mu0, wnn)
        return ElementKernels(k0=k0, kmat=p, kmat_t=p_t, f_int=f_int,
                              f_ext=self._zero_forces, f_mag=f_mag,
                              geometric_args=(adz, s, n, dn), magnetic_args=args)

    # --- global level ------------------------------------------------------

    def assemble(self, kern: ElementKernels, kdead: np.ndarray | None) -> Band:
        """Scatter-add element blocks into the tangent A = Kmat + Kgeo - Kdead - Kmag.

        `kdead` holds the (n_nodes,6,6) dead-load blocks of `neumann_terms`
        (None without a dead load), subtracted at the nodes that carry a dead
        load.  `kern.blocks` writes the element blocks straight into the
        weight buffer of the model's scatter of the free DOFs.
        """
        sc = self._layout
        kern.blocks(sc.block_weights)
        dead = [ld.nodes for ld in self.mesh.neumann if ld.frame == "dead"]
        return sc.band(kdead, np.unique(np.concatenate(dead)) if dead else None)

    def neumann_terms(self, load_factor: float = 1.0) -> tuple[np.ndarray, np.ndarray | None]:
        """Nodal boundary wrenches (n_dofs,) and dead-load tangent blocks.

        Dead loads keep constant spatial components and are re-expressed in
        each node's current frame; followers are constant local components.
        The dead-load tangent is block diagonal, returned as one 6x6 block
        per node, shape (n_nodes, 6, 6), or None when no load is dead (the
        four benchmark workloads), so a follower-loaded build forms no blocks.
        """
        mesh = self.mesh
        b = np.zeros((mesh.n_nodes, 6))
        dead = any(ld.frame == "dead" for ld in mesh.neumann)
        kdead = np.zeros((mesh.n_nodes, 6, 6)) if dead else None
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

    def apply_boundary_conditions(self, kern: ElementKernels, kdead: np.ndarray | None) -> Band:
        """The tangent on the model's free DOFs, with the dead loads.

        `kdead` comes from `neumann_terms`; `assemble` scatters it with the
        element blocks.  The stored entries are not scanned here: a
        non-finite one makes the factorization, the increment or the linear
        residual of the solve non-finite, and only then does
        `solver.newton_step` test them (`Band.is_finite`).
        """
        return self.assemble(kern, kdead)

    def build_system(self, load_factor: float = 1.0) -> GlobalSystem:
        """The BC-reduced system on the free DOFs in band (grid) order.

        b = f_mag - f_int plus the boundary wrenches is formed here, with the
        load vector f_mag plus the wrenches that scales the tolerances (f_mag
        is not scattered without magnetics); the tangent only when the solver
        reads `a`, so the check that finds a step converged assembles none.
        """
        kern = self.element_kernels(load_factor)
        sc = self._layout
        b_neu, kdead = self.neumann_terms(load_factor)
        b_neu = b_neu[sc.order]
        b = sc.vector(kern.f_mag - kern.f_int) + b_neu
        if not np.isfinite(b).all():
            raise FloatingPointError("non-finite entries in the assembled system")
        load = b_neu if kern.magnetic_args is None else sc.vector(kern.f_mag) + b_neu
        return GlobalSystem(
            b=b, free=sc.order, load_norm=math.sqrt(load.dot(load)),
            tangent=lambda: self.apply_boundary_conditions(kern, kdead))

    def half_bandwidth(self) -> int:
        """The half-bandwidth kl of the band `build_system` assembles on the
        free DOFs."""
        return self._layout.kl

    @cached_property
    def _layout(self) -> "_Scatter":
        """The scatter of the free DOFs, built on the first build; the
        Dirichlet masks are frozen with the model."""
        return _Scatter(self.mesh, self.mesh.free_dofs())

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
            dots = np.sum(self._remanent_field * b_app, axis=-1) / env.mu0
            magnetic = float(-np.sum(self._magnetic_quadrature[0] * dots))
        return elastic, magnetic


class _Scatter:
    """The band storage of the tangent on one set of free DOFs, with its slot maps.

    `order` lists the free DOFs along the mesh grid (nodes along the longer
    of nx and ny, each node's six DOFs together); row and column i of the
    matrix is DOF `order[i]`.  Entry (r, c) lives at flat index
    c (2 kl + ku + 1) + kl + ku + r - c of the F-ordered dgbtrf work array
    `ab`.  The band stores the diagonals some element block writes, as `runs`
    (top, bottom) of consecutive offsets (col - row) from ku down to -kl: on
    a 2-D grid most diagonals inside the half-bandwidth are structurally
    empty (146 of 215 on a 20x15 plate), on a strip none is.  Every entry of
    the (nel,4,4,6,6) element blocks (`k_slot`, weights in `block_weights`),
    of the (n_nodes,6,6) nodal blocks (`node_slot`) and of the (nel,4,6)
    element forces (`f_slot`) owns one slot of the flat work array or of the
    vector; entries on fixed DOFs go to a spare slot one past the end, which
    is cut off.  Each assembly zeroes the one kept `ab` and makes a single
    `np.add.at` into it: a fresh array per assembly cost a `rollup_6pi` run
    about 100,000 page faults.
    """

    def __init__(self, mesh: ShellMesh, free: np.ndarray):
        n_nodes = mesh.n_nodes
        nodes = np.arange(n_nodes).reshape(mesh.ny + 1, mesh.nx + 1)
        if mesh.nx > mesh.ny:
            nodes = nodes.T  # node_index runs along xi1 first
        grid = (6 * nodes.reshape(-1, 1) + np.arange(6)).ravel()
        is_free = np.zeros(mesh.n_dofs, dtype=bool)
        is_free[free] = True
        self.order = grid[is_free[grid]]
        m = len(self.order)
        pos = np.full(6 * n_nodes, m, dtype=np.int64)
        pos[self.order] = np.arange(m)
        el = pos[6 * mesh.conn[:, :, None] + np.arange(6)]   # (nel, 4, 6)
        node = pos[6 * np.arange(n_nodes)[:, None] + np.arange(6)]  # (n_nodes, 6)
        # block (i, j) is row node i, column node j
        rows, cols = el[:, :, None, :, None], el[:, None, :, None, :]
        kept = (rows < m) & (cols < m)
        offsets = np.unique((cols - rows)[kept])[::-1]
        self.ku, self.kl = int(offsets[0]), int(-offsets[-1])
        row = self.kl + self.ku
        # each run's top offset and rows in the work array
        self.runs = [(int(run[0]), slice(row - run[0], row - run[-1] + 1))
                     for run in np.split(offsets, np.flatnonzero(np.diff(offsets) != -1) + 1)]
        self.m, self.ldab = m, 2 * self.kl + self.ku + 1
        self.size = m * self.ldab  # the spare slot

        def slots(r, c, keep):
            return np.where(keep, c * self.ldab + row + r - c, self.size)

        self.k_slot = slots(rows, cols, kept).ravel()
        node_rows, node_cols = node[:, :, None], node[:, None, :]
        self.node_slot = slots(node_rows, node_cols, (node_rows < m) & (node_cols < m))
        self.f_slot = el.ravel()
        self.block_weights = np.empty(kept.shape)
        self._data = np.zeros(self.size + 1)
        self.ab = self._data[:self.size].reshape(m, self.ldab).T

    def band(self, kdead: np.ndarray, nodes: np.ndarray | None) -> Band:
        """Sum the element blocks in the weights, less the (n_nodes,6,6)
        nodal blocks `kdead` of `nodes` (none for None), into the work array
        and return it as a `Band`."""
        self._data.fill(0.0)
        np.add.at(self._data, self.k_slot, self.block_weights.reshape(-1))
        if nodes is not None:
            # distinct nodes own distinct slots, save the spare one
            self._data[self.node_slot[nodes]] -= kdead[nodes]
        return Band(self.ab, self.kl, self.ku,
                    tuple((top, np.array(self.ab[rows], order="F")) for top, rows in self.runs))

    def vector(self, forces: np.ndarray) -> np.ndarray:
        """Sum (nel,4,6) element forces into a vector over the DOF subset."""
        return np.bincount(self.f_slot, weights=forces.ravel(),
                           minlength=self.m + 1)[:self.m]
