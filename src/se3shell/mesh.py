"""Structured quad mesh over the parameter chart with carried element state.

The solver never re-derives deformation twists from nodal poses: every element
carries its twists (and rotations, for the magnetic terms) at element points
and evolves them multiplicatively.  `build_mesh` starts the state with the
twists at all five points and the rotations at the four Gauss points; the
`FemModel` built on the mesh narrows it once to what it reads, the twists at
the sample points of its strain sampling and, for a magnetized model only,
the Gauss-point rotations, and owns the interpolation rows to those points.
Nodal poses are carried for output and for rotating dead loads.  The mesh
holds geometry, boundary conditions and state only: the magnetization is a
`FemModel` input, which also freezes the Dirichlet masks, and `outputs`
writes the dumps.

Point index convention inside an element: 0 = centroid, 1..4 = Gauss points in
the node ordering (-,-), (+,-), (+,+), (-,+).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .kinematics import ReferenceSurface
from .liegroup import rot_of

GAUSS_1D = 1.0 / np.sqrt(3.0)
PARENT_CORNERS = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
# centroid first, then the 2x2 Gauss points
PARENT_POINTS = np.vstack([[0.0, 0.0], PARENT_CORNERS * GAUSS_1D])


def shape_values(points: np.ndarray) -> np.ndarray:
    """Bilinear N^i at parent points, shape (npts, 4)."""
    pts = np.atleast_2d(points)
    return 0.25 * (1 + np.outer(pts[:, 0], PARENT_CORNERS[:, 0])) * (
        1 + np.outer(pts[:, 1], PARENT_CORNERS[:, 1])
    )


def shape_gradients(points: np.ndarray) -> np.ndarray:
    """Parent-coordinate gradients dN^i, shape (npts, 4, 2)."""
    pts = np.atleast_2d(points)
    out = np.zeros((len(pts), 4, 2))
    out[:, :, 0] = 0.25 * PARENT_CORNERS[:, 0] * (1 + np.outer(pts[:, 1], PARENT_CORNERS[:, 1]))
    out[:, :, 1] = 0.25 * PARENT_CORNERS[:, 1] * (1 + np.outer(pts[:, 0], PARENT_CORNERS[:, 0]))
    return out


N_PTS = shape_values(PARENT_POINTS)          # (5, 4)
DN_PTS_PARENT = shape_gradients(PARENT_POINTS)  # (5, 4, 2)
GAUSS_POINTS = np.arange(1, 5)


@dataclass(frozen=True)
class NeumannLoad:
    """Line load on a mesh edge, lumped through the 1D trace functions.

    ``wrench`` is per unit reference edge length; ``frame`` selects follower
    (constant local components) or dead (constant spatial components, rotated
    into each node's local frame every iteration).
    """

    nodes: np.ndarray
    weights: np.ndarray  # trace-function lumping, sums to the edge length
    wrench: np.ndarray
    frame: str = "follower"

    def __post_init__(self):
        if self.frame not in ("follower", "dead"):
            raise ValueError("load frame must be 'follower' or 'dead'")


@dataclass
class ShellState:
    """Mutable configuration state evolved by the solver.

    `zeta_pts` holds the twists at element points in point order: all five
    from `build_mesh`, the model's sample points once a `FemModel` narrows
    it; `r_pts` the rotations at the four Gauss points, or none (shape
    (nel, 0, 3, 3)) for an unmagnetized model.
    """

    g_nodes: np.ndarray   # (n_nodes, 4, 4)
    zeta_pts: np.ndarray  # (nel, 5, 2, 6), then (nel, m, 2, 6) for m sample points
    r_pts: np.ndarray     # (nel, 4, 3, 3) or (nel, 0, 3, 3)

    def copy(self) -> "ShellState":
        return ShellState(self.g_nodes.copy(), self.zeta_pts.copy(), self.r_pts.copy())


@dataclass(slots=True)
class ShellMesh:
    param: np.ndarray       # (n_nodes, 2) chart coordinates
    conn: np.ndarray        # (nel, 4) CCW node indices
    le: tuple[float, float]  # uniform chart element sizes
    g0_nodes: np.ndarray    # (n_nodes, 4, 4)
    zeta0_pts: np.ndarray   # (nel, 5, 2, 6)
    r0_pts: np.ndarray      # (nel, 5, 3, 3)
    jac0_pts: np.ndarray    # (nel, 5)
    state: ShellState
    nx: int
    ny: int
    # per-node DOF masks; a FemModel freezes them into a read-only mapping
    dirichlet: Mapping[int, np.ndarray] = field(default_factory=dict)
    neumann: list[NeumannLoad] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.param)

    @property
    def n_elements(self) -> int:
        return len(self.conn)

    @property
    def n_dofs(self) -> int:
        return 6 * self.n_nodes

    def node_index(self, i: int, j: int) -> int:
        return j * (self.nx + 1) + i

    def free_dofs(self) -> np.ndarray:
        fixed = np.zeros(self.n_dofs, dtype=bool)
        for node, mask in self.dirichlet.items():
            fixed[6 * node:6 * node + 6] |= np.asarray(mask, dtype=bool)
        free = np.nonzero(~fixed)[0]
        if len(free) == 0:
            raise ValueError("all degrees of freedom constrained")
        return free

    def edge_nodes(self, edge: str) -> np.ndarray:
        nx, ny = self.nx, self.ny
        if edge == "xi1_min":
            return np.array([self.node_index(0, j) for j in range(ny + 1)])
        if edge == "xi1_max":
            return np.array([self.node_index(nx, j) for j in range(ny + 1)])
        if edge == "xi2_min":
            return np.array([self.node_index(i, 0) for i in range(nx + 1)])
        if edge == "xi2_max":
            return np.array([self.node_index(i, ny) for i in range(nx + 1)])
        raise ValueError(f"unknown edge '{edge}'")

    def clamp_edge(self, edge: str) -> None:
        for node in self.edge_nodes(edge):
            self.dirichlet[int(node)] = np.ones(6, dtype=bool)

    def add_edge_load(self, edge: str, wrench_per_length: np.ndarray,
                      frame: str = "follower") -> None:
        nodes = self.edge_nodes(edge)
        seg = self.le[1] if edge.startswith("xi1") else self.le[0]
        weights = np.full(len(nodes), seg)
        weights[0] = weights[-1] = seg / 2
        self.neumann.append(NeumannLoad(nodes=nodes, weights=weights,
                                        wrench=np.asarray(wrench_per_length, float),
                                        frame=frame))

    def tip_node(self) -> int:
        """Node on the xi1_max edge closest to mid-width (lower on ties)."""
        return self.node_index(self.nx, self.ny // 2)


def build_mesh(surface: ReferenceSurface, nx: int, ny: int) -> ShellMesh:
    """Sample a reference surface into a structured nx-by-ny quad mesh.

    The surface is evaluated in one call on all nodes and one on all element
    points, so its callables must broadcast over array chart coordinates.
    """
    if nx < 1 or ny < 1:
        raise ValueError("mesh needs at least one element per direction")
    lx, ly = surface.chart
    le = (lx / nx, ly / ny)
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)

    gx, gy = np.meshgrid(xs, ys)
    param = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    g0 = surface.pose_at(param[:, 0], param[:, 1])

    first = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    conn = (first[:, None] + np.array([0, 1, nx + 2, nx + 1])).astype(np.int64)

    # element points: centroid and Gauss points, (nel, 5) chart coordinates
    x = np.einsum("pi,ei->ep", N_PTS, param[conn, 0])
    y = np.einsum("pi,ei->ep", N_PTS, param[conn, 1])
    z1, z2 = surface.twists_at(x, y)
    zeta0 = np.stack([z1, z2], axis=-2)
    r0 = rot_of(surface.pose_at(x, y)).copy()
    jac0 = np.asarray(surface.jac_at(x, y), dtype=float)
    if np.any(jac0 <= 1e-12):
        raise ValueError("degenerate reference surface: vanishing area jacobian")

    state = ShellState(g_nodes=g0.copy(), zeta_pts=zeta0.copy(), r_pts=r0[:, 1:].copy())
    return ShellMesh(param=param, conn=conn, le=le, g0_nodes=g0,
                     zeta0_pts=zeta0, r0_pts=r0, jac0_pts=jac0,
                     state=state, nx=nx, ny=ny)

