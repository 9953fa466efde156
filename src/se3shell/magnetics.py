"""Hard-magnetic loading: rotated remanent field, body couple, element kernels.

The remanent field is frozen into the material frame, so under deformation it
is B_t^r = R_t R_0^T B_0^r and the couple per unit reference area is
(1/mu0) B_t^r x B^a.  Expressed in the local frame (the form that pairs with
the rotational part of a body-frame variation) the couple integrand is

    m_loc = (1/mu0) (R_0^T B_0^r) x (R_t^T B^a),

whose derivative along a right-translated rotation increment eta_R is

    (1/mu0) (R_0^T B_0^r)^ (R_t^T B^a)^ eta_R.

A spatially constant applied field exerts no body force, so the linear slots
of all magnetic wrenches are identically zero.  Element kernels integrate
these with the same quadrature data the mechanical kernels use and broadcast
over leading element dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import skew

MU0 = 4e-7 * np.pi


@dataclass(frozen=True)
class MagneticEnvironment:
    """Spatially constant applied field and vacuum permeability."""

    b_applied: np.ndarray
    mu0: float = MU0

    def __post_init__(self):
        object.__setattr__(self, "b_applied", np.asarray(self.b_applied, dtype=float))
        if self.mu0 <= 0:
            raise ValueError("mu0 must be positive")

    def scaled(self, factor: float) -> "MagneticEnvironment":
        return MagneticEnvironment(self.b_applied * factor, self.mu0)


def local_fields(r0_pts: np.ndarray, r_pts: np.ndarray, b_r0: np.ndarray,
                 env: MagneticEnvironment) -> tuple[np.ndarray, np.ndarray]:
    """Remanent and applied fields in the local frame, R_0^T B_0^r and R_t^T B^a."""
    b_mat = np.einsum("...ji,...j->...i", r0_pts, np.asarray(b_r0, dtype=float)[..., None, :])
    b_app = np.einsum("...ji,j->...i", r_pts, env.b_applied)
    return b_mat, b_app


def element_magnetic_force(r0_pts: np.ndarray, r_pts: np.ndarray, b_r0: np.ndarray,
                           env: MagneticEnvironment, shape_vals: np.ndarray,
                           weights: np.ndarray) -> np.ndarray:
    """Nodal magnetic wrenches of one element (or a batch of elements).

    Args:
        r0_pts, r_pts: reference / current rotations at the quadrature points,
            shape (..., G, 3, 3).
        b_r0: per-element remanent vector (tesla, per unit reference area),
            shape (..., 3).
        shape_vals: bilinear shape functions at the quadrature points, (G, 4).
        weights: integration weights including the surface jacobian, (..., G).

    Returns:
        (..., 4, 6) wrenches; force slots are exactly zero, moment slots hold
        the quadrature sum of the local-frame couple.
    """
    m_loc = np.cross(*local_fields(r0_pts, r_pts, b_r0, env)) / env.mu0
    out = np.zeros(m_loc.shape[:-2] + (4, 6))
    out[..., :, 3:] = np.einsum("...g,gi,...gk->...ik", np.asarray(weights, float),
                                np.asarray(shape_vals, float), m_loc)
    return out


def element_magnetic_stiffness(r0_pts: np.ndarray, r_pts: np.ndarray, b_r0: np.ndarray,
                               env: MagneticEnvironment, shape_vals: np.ndarray,
                               weights: np.ndarray) -> np.ndarray:
    """Nodal-block magnetic tangent, the exact derivative of the force.

    Returns (..., 4, 4, 6, 6) blocks whose rotation-rotation 3x3 sub-block is
    the integral of (1/mu0) N^i N^j (R_0^T B_0^r)^ (R_t^T B^a)^; everything
    else is zero.  The global system subtracts these blocks (A = K_MG - KM).
    """
    b_mat, b_app = local_fields(r0_pts, r_pts, b_r0, env)
    prod = skew(b_mat) @ skew(b_app) / env.mu0  # (..., G, 3, 3)
    n = np.asarray(shape_vals, dtype=float)
    out = np.zeros(prod.shape[:-3] + (4, 4, 6, 6))
    out[..., :, :, 3:, 3:] = np.einsum("...g,gi,gj,...gkl->...ijkl",
                                       np.asarray(weights, float), n, n, prod)
    return out
