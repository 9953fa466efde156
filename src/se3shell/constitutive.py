"""Linear isotropic Cosserat shell constitutive law.

Stress resultants are linear in the 6x2 strain through four 6x6 blocks

    D^{ab} = E h / (1 - nu^2) * blockdiag(D1^{ab}, h^2/12 * D2^{ab}),

where the 3x3 membrane block D1 carries H-tensor entries H^{a i b j} in its
upper 2x2 (i, j in {1, 2} are the in-plane component indices), (1-nu)/2 A^{ab}
as the transverse-shear entry, and the bending block D2 repeats the pattern
with the drilling entry (1-nu) A^{ab}.  The H tensor is

    H^{abcd} = nu A^{ab} A^{cd} + (1 - nu) A^{ac} A^{bd},

with A^{ab} the inverse surface metric.  The stacked 12x12 operator is
symmetric positive semi-definite, so the stored energy density

    -l0 = 1/2 sum_a <S^a, E_a>

is non-negative (l0 itself is the Lagrangian density and non-positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Material:
    """Isotropic shell material: Young's modulus, Poisson ratio, thickness."""

    e: float
    nu: float
    h: float

    def __post_init__(self):
        if self.e <= 0:
            raise ValueError("Young's modulus must be positive")
        if not -1.0 < self.nu < 0.5:
            raise ValueError("Poisson ratio must lie in (-1, 0.5)")
        if self.h <= 0:
            raise ValueError("thickness must be positive")

    @staticmethod
    def from_lame(mu: float, lam: float, h: float) -> "Material":
        """Convert Lame constants to (E, nu)."""
        e = mu * (3 * lam + 2 * mu) / (lam + mu)
        nu = lam / (2 * (lam + mu))
        return Material(e=e, nu=nu, h=h)


def metric_inverse(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Inverse of the 2x2 surface metric [A_a . A_b] of reference tangents."""
    a = np.array([[a1 @ a1, a1 @ a2], [a1 @ a2, a2 @ a2]], dtype=float)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if det <= 1e-24:
        raise ValueError("degenerate reference metric")
    return np.linalg.inv(a)


def h_tensor(ainv: np.ndarray, nu: float) -> np.ndarray:
    """All 16 components H[a,b,c,d] = nu A^ab A^cd + (1-nu) A^ac A^bd."""
    ainv = np.asarray(ainv, dtype=float)
    return nu * np.einsum("ab,cd->abcd", ainv, ainv) + (1.0 - nu) * np.einsum(
        "ac,bd->abcd", ainv, ainv
    )


def stiffness_blocks(mat: Material, ainv: np.ndarray) -> np.ndarray:
    """The four 6x6 blocks as an array D[a, b] (a, b zero-based chart indices)."""
    h4 = h_tensor(ainv, mat.nu)
    d = np.zeros((2, 2, 6, 6))
    for a in range(2):
        for b in range(2):
            m = np.zeros((3, 3))
            m[:2, :2] = h4[a, :, b, :][:2, :2]
            blk = np.zeros((6, 6))
            blk[:3, :3] = m
            blk[3:, 3:] = m * (mat.h**2 / 12.0)
            blk[2, 2] = 0.5 * (1.0 - mat.nu) * ainv[a, b]
            blk[5, 5] = (1.0 - mat.nu) * ainv[a, b] * (mat.h**2 / 12.0)
            d[a, b] = blk
    return d * (mat.e * mat.h / (1.0 - mat.nu**2))


def stress(blocks: np.ndarray, strain_rows: np.ndarray) -> np.ndarray:
    """Stress resultants S^a = sum_b D^{ab} E_b, batched over leading axes.

    `blocks` is (..., 2, 2, 6, 6) and the strain holds the twists E_b as rows,
    (..., 2, 6).  Returns (..., 2, 6) wrenches (force part 0:3, moment 3:6)
    per unit reference length.
    """
    d = np.asarray(blocks, dtype=float)
    e = np.asarray(strain_rows, dtype=float)
    d12 = d.swapaxes(-3, -2).reshape(d.shape[:-4] + (12, 12))
    s = d12 @ e.reshape(e.shape[:-2] + (12, 1))
    return s.reshape(s.shape[:-2] + (2, 6))


def internal_energy_density(stress_pair: np.ndarray, strain_rows: np.ndarray) -> float:
    """Lagrangian density l0 = -1/2 sum_a <S^a, E_a> (non-positive).

    Stress and strain are (..., 2, 6) rows, summed over any leading axes:
    weighted stresses give the integral of l0.
    """
    s = np.asarray(stress_pair, dtype=float)
    e = np.asarray(strain_rows, dtype=float)
    return -0.5 * float(np.sum(s * e))


MAGNETIC_PHI_LIMIT = 1.0 / 1.35


def magnetic_modulus(e0: float, phi: float) -> float:
    """Particle-filled elastomer modulus E0 * exp(2.5 phi / (1 - 1.35 phi)).

    Valid for volume fractions 0 <= phi < 1/1.35.  Note the experimental
    reports round to slightly different factors (1.19 at phi=0.06, 1.45 at
    phi=0.12) than this formula's 1.177 / 1.430.
    """
    if not 0.0 <= phi < MAGNETIC_PHI_LIMIT:
        raise ValueError(f"volume fraction must lie in [0, {MAGNETIC_PHI_LIMIT:.4f})")
    return e0 * float(np.exp(2.5 * phi / (1.0 - 1.35 * phi)))
