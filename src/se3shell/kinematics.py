"""Stress-free reference surfaces on the parameter chart.

A configuration is a field of poses g(xi1, xi2); its derivatives enter only
through the body-frame deformation twists

    zeta_alpha = vee(g^-1 d g / d xi^alpha),   alpha = 1, 2,

which are invariant under left multiplication by a fixed rigid motion.  A
reference surface gives its poses, these twists in closed form and its area
jacobian.  The mesh samples them once; from there the solver carries the
current twists (`solver.update_twists`), and `fem` takes the strain as their
difference from the reference twists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .liegroup import make_pose


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
