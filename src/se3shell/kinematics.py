"""Reference and current shell configuration fields on the parameter chart.

A configuration is a field of poses g(xi1, xi2); its derivatives enter only
through the body-frame deformation twists

    zeta_alpha = vee(g^-1 d g / d xi^alpha),   alpha = 1, 2,

which are invariant under left multiplication by a fixed rigid motion.  The
strain is the columnwise difference of current and reference twists, and the
local deformation gradient maps reference twists to current ones through the
pseudo-inverse dual basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .liegroup import exp_se3, inv_pose, make_pose, vee_se3

DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ReferenceSurface:
    """Analytic stress-free configuration over a rectangular chart.

    ``pose_at`` maps chart points to poses; ``twists_at`` returns the exact
    body-frame derivatives (zeta_01, zeta_02) so curved references carry no
    discretization error; ``jac_at`` is the area jacobian |A1 x A2|.  All
    three broadcast over array chart coordinates: scalar calls return a
    (4, 4) pose, two (6,) twists and a float, calls on arrays of shape S
    return (S, 4, 4), two (S, 6) and (S,).
    """

    chart: tuple[float, float]  # (extent along xi1, extent along xi2)
    pose_at: Callable[[float, float], np.ndarray]
    twists_at: Callable[[float, float], tuple[np.ndarray, np.ndarray]]
    jac_at: Callable[[float, float], float]


def _constant_fields(z01: np.ndarray, z02: np.ndarray):
    """twists_at/jac_at of a surface with uniform reference twists, unit jacobian."""

    def twists_at(x1, x2):
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2)) + (6,)
        return np.broadcast_to(z01, shape).copy(), np.broadcast_to(z02, shape).copy()

    def jac_at(x1, x2):
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
        return np.ones(shape) if shape else 1.0

    return twists_at, jac_at


def build_flat_plate(lx: float, ly: float) -> ReferenceSurface:
    """Flat rectangle: identity frames, chart coordinates as positions."""
    if lx <= 0 or ly <= 0:
        raise ValueError("plate dimensions must be positive")
    z01 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    z02 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def pose_at(x1, x2):
        x1, x2 = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x2, float))
        return make_pose(np.eye(3), np.stack([x1, x2, np.zeros_like(x1)], axis=-1))

    twists_at, jac_at = _constant_fields(z01, z02)
    return ReferenceSurface(chart=(lx, ly), pose_at=pose_at,
                            twists_at=twists_at, jac_at=jac_at)


def build_cylindrical_arch(radius: float, angle_span: float, width: float) -> ReferenceSurface:
    """Cylinder segment, arclength chart along the arc.

    Frame convention: director 1 is the arc tangent, director 2 the cylinder
    axis (+y), and the cylinder axis sits on the +z side of the surface, so
    director 3 points to +z at xi1 = 0.  This makes the reference twists the
    constants zeta_01 = ((1,0,0); (0,-1/R,0)), zeta_02 = ((0,1,0); 0), and the
    whole surface is the screw pose_at(s, y) = g(0, y) @ exp(s * zeta_01^).
    """
    if radius <= 0 or width <= 0:
        raise ValueError("arch dimensions must be positive")
    if not 0 < angle_span <= 2 * np.pi:
        raise ValueError("angle span must lie in (0, 2*pi]")
    z01 = np.array([1.0, 0.0, 0.0, 0.0, -1.0 / radius, 0.0])
    z02 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def pose_at(s, y):
        s, y = np.broadcast_arrays(np.asarray(s, float), np.asarray(y, float))
        phi = s / radius
        c, sn = np.cos(phi), np.sin(phi)
        r = np.zeros(s.shape + (3, 3))
        r[..., 0, 0] = c
        r[..., 0, 2] = -sn
        r[..., 1, 1] = 1.0
        r[..., 2, 0] = sn
        r[..., 2, 2] = c
        p = np.stack([radius * sn, y, radius * (1.0 - c)], axis=-1)
        return make_pose(r, p)

    twists_at, jac_at = _constant_fields(z01, z02)
    return ReferenceSurface(chart=(radius * angle_span, width), pose_at=pose_at,
                            twists_at=twists_at, jac_at=jac_at)


def deformation_twists(g_field: Callable[[float, float], np.ndarray],
                       x1: float, x2: float,
                       step: float = 1e-7) -> tuple[np.ndarray, np.ndarray]:
    """Body-frame twists of a differentiable pose field by central differences.

    Used for analytic fields in tests and diagnostics; the solver carries and
    evolves twists instead of re-deriving them from poses.
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
