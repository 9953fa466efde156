"""Closed-form kinematic algebra of SE(3).

Conventions used throughout the package:

* a twist is the 6-vector (v; w) with the linear part first, so that
  ``vee_se3(hat_se3(t)) == t`` with ``hat_se3`` placing ``skew(w)`` in the
  upper-left 3x3 block and ``v`` in the last column,
* a wrench is the dual 6-vector (n; m) pairing with twists through the plain
  dot product ``n.v + m.w``,
* poses are 4x4 homogeneous matrices ``[[R, P], [0, 1]]``.

All functions broadcast over leading batch dimensions: a twist argument of
shape ``(..., 6)`` yields ``(..., 4, 4)`` from ``exp_se3``, ``(..., 6, 6)``
from ``ad``, and so on.  Operations are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import numpy as np

# Below this rotation angle the trigonometric coefficient ratios switch to
# their Taylor expansions (through theta^4) to avoid cancellation.
SMALL_ANGLE = 1e-6

_EYE3 = np.eye(3)
_EYE6 = np.eye(6)


def skew(w: np.ndarray) -> np.ndarray:
    """3x3 skew matrix of w, i.e. skew(w) @ y == cross(w, y)."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1] = -w[..., 2]
    out[..., 0, 2] = w[..., 1]
    out[..., 1, 0] = w[..., 2]
    out[..., 1, 2] = -w[..., 0]
    out[..., 2, 0] = -w[..., 1]
    out[..., 2, 1] = w[..., 0]
    return out


def unskew(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def hat_se3(t: np.ndarray) -> np.ndarray:
    """Twist (v; w) -> 4x4 algebra element [[skew(w), v], [0, 0]]."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape[:-1] + (4, 4))
    out[..., :3, :3] = skew(t[..., 3:])
    out[..., :3, 3] = t[..., :3]
    return out


def vee_se3(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Inverse of hat_se3.

    Raises ValueError if the upper-left block is not skew-symmetric or the
    last row is not zero (within ``tol``, scaled by the matrix magnitude).
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError("vee_se3 expects (..., 4, 4) matrices")
    scale = max(1.0, float(np.max(np.abs(m))))
    sym = m[..., :3, :3] + np.swapaxes(m[..., :3, :3], -1, -2)
    if np.max(np.abs(sym)) > tol * scale or np.max(np.abs(m[..., 3, :])) > tol * scale:
        raise ValueError("vee_se3: matrix is not an se(3) element")
    return np.concatenate([m[..., :3, 3], unskew(m[..., :3, :3])], axis=-1)


def _rot_coeffs(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sin t/t, (1-cos t)/t^2, (t-sin t)/t^3) with series below SMALL_ANGLE."""
    theta = np.asarray(theta, dtype=float)
    t2 = theta * theta
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                 (1.0 - np.cos(safe)) / (safe * safe))
    c = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                 (safe - np.sin(safe)) / (safe * safe * safe))
    return a, b, c


def exp_so3(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula: I + sin|w|/|w| w^ + (1-cos|w|)/|w|^2 w^ w^."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)
    a, b, _ = _rot_coeffs(theta)
    wh = skew(w)
    wh2 = wh @ wh
    return _EYE3 + a[..., None, None] * wh + b[..., None, None] * wh2


def so3_tangent(w: np.ndarray) -> np.ndarray:
    """T(w) = I + (1-cos|w|)/|w|^2 w^ + (|w|-sin|w|)/|w|^3 w^ w^.

    Maps the linear twist part to the translation of exp_se3; equals the
    series sum_k (skew w)^k / (k+1)!.
    """
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)
    _, b, c = _rot_coeffs(theta)
    wh = skew(w)
    wh2 = wh @ wh
    return _EYE3 + b[..., None, None] * wh + c[..., None, None] * wh2


def exp_se3(t: np.ndarray) -> np.ndarray:
    """Exponential map se(3) -> SE(3), returning [[exp(w^), T(w) v], [0, 1]].

    For w = 0 this reduces exactly to a pure translation by v.
    """
    t = np.asarray(t, dtype=float)
    v, w = t[..., :3], t[..., 3:]
    out = np.zeros(t.shape[:-1] + (4, 4))
    out[..., :3, :3] = exp_so3(w)
    out[..., :3, 3] = np.einsum("...ij,...j->...i", so3_tangent(w), v)
    out[..., 3, 3] = 1.0
    return out


def make_pose(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.zeros(np.broadcast_shapes(r.shape[:-2], p.shape[:-1]) + (4, 4))
    out[..., :3, :3] = r
    out[..., :3, 3] = p
    out[..., 3, 3] = 1.0
    return out


def rot_of(g: np.ndarray) -> np.ndarray:
    return np.asarray(g, dtype=float)[..., :3, :3]


def trans_of(g: np.ndarray) -> np.ndarray:
    return np.asarray(g, dtype=float)[..., :3, 3]


def inv_pose(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    rt = np.swapaxes(g[..., :3, :3], -1, -2)
    return make_pose(rt, -np.einsum("...ij,...j->...i", rt, g[..., :3, 3]))


def is_rotation(r: np.ndarray, tol: float = 1e-10) -> bool:
    r = np.asarray(r, dtype=float)
    ortho = np.max(np.abs(np.swapaxes(r, -1, -2) @ r - _EYE3))
    return bool(ortho <= tol and np.max(np.abs(np.linalg.det(r) - 1.0)) <= tol)


def log_so3(r: np.ndarray) -> np.ndarray:
    """Rotation vector of R; requires the rotation angle < pi - 1e-6."""
    r = np.asarray(r, dtype=float)
    axis2 = unskew(r - np.swapaxes(r, -1, -2))  # 2 sin(theta) * axis
    s = 0.5 * np.linalg.norm(axis2, axis=-1)
    c = np.clip(0.5 * (np.trace(r.reshape(-1, 3, 3), axis1=-2, axis2=-1)
                       .reshape(r.shape[:-2]) - 1.0), -1.0, 1.0)
    theta = np.arctan2(s, c)
    if np.any(theta >= np.pi - 1e-6):
        raise ValueError("log_so3: rotation angle at or near pi")
    small = theta < SMALL_ANGLE
    safe_s = np.where(small, 1.0, 2.0 * s)
    factor = np.where(small, 0.5 + theta * theta / 12.0, theta / safe_s)
    return factor[..., None] * axis2


def so3_tangent_inv(w: np.ndarray) -> np.ndarray:
    """Closed-form inverse of so3_tangent (angle < pi)."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)
    t2 = theta * theta
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    # 1/t^2 - (1+cos t)/(2 t sin t), series 1/12 + t^2/720 + ...
    coeff = np.where(
        small,
        1.0 / 12.0 + t2 / 720.0,
        1.0 / (safe * safe) - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe)),
    )
    wh = skew(w)
    return _EYE3 - 0.5 * wh + coeff[..., None, None] * (wh @ wh)


def log_se3(g: np.ndarray) -> np.ndarray:
    """Inverse of exp_se3; diagnostics only, requires rotation angle < pi."""
    g = np.asarray(g, dtype=float)
    w = log_so3(g[..., :3, :3])
    v = np.einsum("...ij,...j->...i", so3_tangent_inv(w), g[..., :3, 3])
    return np.concatenate([v, w], axis=-1)


def Ad(g: np.ndarray) -> np.ndarray:
    """Adjoint of a pose, [[R, P^ R], [0, R]] acting on (v; w) twists."""
    g = np.asarray(g, dtype=float)
    r = g[..., :3, :3]
    out = np.zeros(g.shape[:-2] + (6, 6))
    out[..., :3, :3] = r
    out[..., :3, 3:] = skew(g[..., :3, 3]) @ r
    out[..., 3:, 3:] = r
    return out


def ad(t: np.ndarray) -> np.ndarray:
    """Algebra adjoint [[w^, v^], [0, w^]]; ad(x) @ y == vee([x^, y^])."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape[:-1] + (6, 6))
    wh = skew(t[..., 3:])
    out[..., :3, :3] = wh
    out[..., :3, 3:] = skew(t[..., :3])
    out[..., 3:, 3:] = wh
    return out


def ad_dual(t: np.ndarray) -> np.ndarray:
    """Co-adjoint, the transpose of ad(t)."""
    return np.swapaxes(ad(t), -1, -2)


def ad_tilde(w: np.ndarray) -> np.ndarray:
    """Wrench form [[0, n^], [n^, m^]] with ad_tilde(y) @ x == ad_dual(x) @ y."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape[:-1] + (6, 6))
    nh = skew(w[..., :3])
    out[..., :3, 3:] = nh
    out[..., 3:, :3] = nh
    out[..., 3:, 3:] = skew(w[..., 3:])
    return out


def dexp_se3(t: np.ndarray, max_terms: int = 60, rtol: float = 1e-17) -> np.ndarray:
    """Left-trivialized differential of the exponential.

    Returns the 6x6 matrix D with ``vee(exp(-t^) @ Dexp(t^)[u^]) == D @ u``
    for every direction u, evaluated as the series sum_k (-ad_t)^k / (k+1)!.
    dexp_se3(0) is the identity.
    """
    t = np.asarray(t, dtype=float)
    a = -ad(t)
    total = np.broadcast_to(_EYE6, t.shape[:-1] + (6, 6)).copy()
    term = total.copy()
    scale = max(1.0, float(np.max(np.abs(total))))
    for k in range(1, max_terms):
        term = (term @ a) / (k + 1.0)
        total = total + term
        mx = float(np.max(np.abs(term)))
        scale = max(scale, float(np.max(np.abs(total))))
        if mx < rtol * scale:
            break
    return total
