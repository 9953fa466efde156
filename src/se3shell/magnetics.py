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
over leading element dimensions.  They take both fields in the local frame:
R_0^T B_0^r is a constant of the model, built on its first magnetic build,
and R_t^T B^a is formed once per build and shared by force and stiffness.
The stiffness's quadrature weights w_g N_gi N_gj (`stiffness_weights`) are a
constant of the model too, built with the Gauss weights on the first
magnetic build.
The couple's cross product is formed component by component, with the
products and differences of `np.cross` in its order, so the result is
bit-identical at about half the cost of the call (20 against 41 us).
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
        if self.b_applied.shape != (3,) or not np.all(np.isfinite(self.b_applied)):
            raise ValueError("b_applied must be a finite 3-vector")
        if not 0 < self.mu0 < np.inf:
            raise ValueError("mu0 must be positive and finite")

    def scaled(self, factor: float) -> "MagneticEnvironment":
        return MagneticEnvironment(self.b_applied * factor, self.mu0)


def remanent_field(r0_pts: np.ndarray, b_r0: np.ndarray) -> np.ndarray:
    """The remanent field in the local frame, R_0^T B_0^r, (..., G, 3).

    `b_r0` is the per-element remanent vector, (..., 3); it does not change
    with the state, so the model builds this once.
    """
    return np.einsum("...ji,...j->...i", r0_pts, np.asarray(b_r0, dtype=float)[..., None, :])


def applied_field(r_pts: np.ndarray, env: MagneticEnvironment) -> np.ndarray:
    """The applied field in the local frame, R_t^T B^a, (..., G, 3)."""
    return np.einsum("...ji,j->...i", r_pts, env.b_applied)


def element_magnetic_force(b_mat: np.ndarray, b_app: np.ndarray, mu0: float,
                           shape_vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Nodal magnetic wrenches of one element (or a batch of elements).

    Args:
        b_mat, b_app: local remanent and applied fields at the quadrature
            points (`remanent_field`, `applied_field`), shape (..., G, 3).
        mu0: vacuum permeability.
        shape_vals: bilinear shape functions at the quadrature points, (G, 4).
        weights: integration weights including the surface jacobian, (..., G).

    Returns:
        (..., 4, 6) wrenches; force slots are exactly zero, moment slots hold
        the quadrature sum of the local-frame couple.
    """
    m_loc = np.empty(np.broadcast_shapes(np.shape(b_mat), np.shape(b_app)))
    for k in range(3):
        # component k of b_mat x b_app, the products and difference np.cross forms
        i, j = (k + 1) % 3, (k + 2) % 3
        np.subtract(b_mat[..., i] * b_app[..., j], b_mat[..., j] * b_app[..., i],
                    out=m_loc[..., k])
    m_loc /= mu0
    out = np.zeros(m_loc.shape[:-2] + (4, 6))
    out[..., :, 3:] = np.einsum("...g,gi,...gk->...ik", np.asarray(weights, float),
                                np.asarray(shape_vals, float), m_loc)
    return out


def stiffness_weights(shape_vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The quadrature weights w_g N_gi N_gj (..., G, 4, 4) of
    `element_magnetic_stiffness`, from the shape functions at the quadrature
    points (G, 4) and the integration weights (..., G).

    They depend on the reference geometry alone, so the model builds them
    once.
    """
    n = np.asarray(shape_vals, dtype=float)
    return np.einsum("...g,gi,gj->...gij", np.asarray(weights, float), n, n)


def element_magnetic_stiffness(b_mat: np.ndarray, b_app: np.ndarray, mu0: float,
                               wnn: np.ndarray) -> np.ndarray:
    """Nodal-block magnetic tangent, the exact derivative of the force.

    Takes the fields and mu0 of `element_magnetic_force` and the weights
    w_g N_gi N_gj of `stiffness_weights`, and returns the rotation-rotation
    3x3 sub-blocks (..., 4, 4, 3, 3) of the (..., 4, 4, 6, 6) nodal blocks,
    the integral of (1/mu0) N^i N^j (R_0^T B_0^r)^ (R_t^T B^a)^; every other
    entry of the blocks is zero.  The global system subtracts them from the
    rotation-rotation sub-blocks of its tangent (A = K_MG - KM).  The weights
    are contracted with the 3x3 products in a second einsum: the same
    products and sums, in the same order, as the one four-operand einsum, at
    half its cost.
    """
    prod = skew(b_mat) @ skew(b_app) / mu0  # (..., G, 3, 3)
    return np.einsum("...gij,...gkl->...ijkl", wnn, prod)
