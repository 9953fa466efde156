"""Closed-form kinematic algebra of SE(3).

Conventions used throughout the package:

* a twist is the 6-vector (v; w) with the linear part first; its hat image
  t^ is the 4x4 algebra element [[skew(w), v], [0, 0]] and vee inverts it,
* a wrench is the dual 6-vector (n; m) pairing with twists through the plain
  dot product ``n.v + m.w``,
* poses are 4x4 homogeneous matrices ``[[R, P], [0, 1]]``.

All functions broadcast over leading batch dimensions: a twist argument of
shape ``(..., 6)`` yields ``(..., 4, 4)`` from ``exp_se3``, ``(..., 6, 6)``
from ``ad``, and so on.  Operations are pure; nothing here mutates its inputs.

Every map is closed form; none sums a series until it converges.  The
exponentials and their tangents share the coefficients of ``_rot_coeffs``,
and the differential of the SE(3) exponential is the left Jacobian at -t,
whose coupling block is Barfoot's Q(-v, -w) (Barfoot & Furgale, IEEE T-RO
2014).  Coefficient ratios that cancel at small angles are fixed Taylor
polynomials below an angle where both forms agree to about 1e-15.
``carried_update`` evaluates the multiplicative update of carried twists,
Ad(exp(-eta)) and dexp(eta), from one coefficient pass per point with cross
products, without forming 4x4 or 6x6 matrices.
"""

from __future__ import annotations

import math

import numpy as np

# Below this rotation angle sin(t)/t, (1-cos t)/t^2 and the log factors use
# their Taylor expansions through theta^2, which avoids 0/0.
SMALL_ANGLE = 1e-6
# Below this angle the ratios that lose digits to cancellation, (t-sin t)/t^3
# and the two higher coupling coefficients of dexp, use their Taylor series
# through theta^18.  Around the switch the series is accurate to 2e-16
# relative and the closed forms to 1.5e-15 (c2) and 6.5e-15 (c3).
SERIES_ANGLE = 1.5

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


# Taylor coefficients of c, c2, c3 (see _rot_coeffs), row j for theta^2j:
#   (t - sin t)/t^3                 = sum_j (-1)^j t^2j / (2j+3)!
#   (t^2 + 2 cos t - 2)/(2t^4)      = sum_j (-1)^j t^2j / (2j+4)!
#   (2t - 3 sin t + t cos t)/(2t^5) = sum_j (-1)^j (j+1) t^2j / (2j+5)!
_SERIES = np.array([[(-1) ** j * weight / math.factorial(2 * j + offset)
                     for weight, offset in ((1, 3), (1, 4), (j + 1, 5))]
                    for j in range(10)])


def _sinc_coeffs(theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """a and b of `_rot_coeffs`, then the guarded angle, its sine and theta^2."""
    t2 = theta * theta
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    sin = np.sin(safe)
    half_sinc = np.sin(0.5 * safe) / (0.5 * safe)
    a = np.where(small, 1.0 - t2 / 6.0, sin / safe)
    b = np.where(small, 0.5 - t2 / 24.0, 0.5 * half_sinc * half_sinc)
    return a, b, safe, sin, t2


def _rot_coeffs(theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Closed-form coefficients (a, b, c, c2, c3) of rotation angles theta.

    a = sin t/t, b = (1-cos t)/t^2 and c = (t-sin t)/t^3 are the Rodrigues
    coefficients and those of T(w) = I + b w^ + c w^ w^, the map from the
    linear twist part to the translation of exp_se3;
    c2 = (t^2+2cos t-2)/(2t^4) = (1/2-b)/t^2 and
    c3 = (2t-3sin t+t cos t)/(2t^5) = (3c-b)/(2t^2) complete the coupling
    block of the SE(3) Jacobian.  b is evaluated as (sin(t/2)/(t/2))^2 / 2,
    which does not cancel; c, c2 and c3 take one stacked Taylor series below
    SERIES_ANGLE.  All five are accurate to 1e-14 relative.
    """
    theta = np.asarray(theta, dtype=float)
    a, b, safe, sin, t2 = _sinc_coeffs(theta)
    rows = _SERIES.reshape(_SERIES.shape + (1,) * theta.ndim)
    series = rows[-1] * t2 + rows[-2]
    for row in rows[-3::-1]:
        series = series * t2 + row
    s2 = safe * safe
    c = (safe - sin) / (s2 * safe)
    direct = np.stack([c, (0.5 - b) / s2, (1.5 * c - 0.5 * b) / s2])
    c, c2, c3 = np.where(theta < SERIES_ANGLE, series, direct)
    return a, b, c, c2, c3


def _angle(w: np.ndarray) -> np.ndarray:
    """|w| of vectors stored along axis 0."""
    return np.sqrt(np.sum(w * w, axis=0))


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross product of vectors stored along axis 0, shape (3, ...)."""
    x5 = np.concatenate((x, x[:2]))
    y5 = np.concatenate((y, y[:2]))
    return x5[1:4] * y5[2:5] - x5[2:5] * y5[1:4]


def _rodrigues(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """I + a w^ + b w^ w^ for w stored along axis 0; returns (..., 3, 3).

    Uses w^ w^ = w w^T - |w|^2 I.
    """
    aw = a * w
    r = (b * w)[:, None] * w[None, :]
    flat = r.reshape((9,) + r.shape[2:])
    flat[::4] += 1.0 - b * np.sum(w * w, axis=0)
    flat[[5, 6, 1]] -= aw
    flat[[7, 2, 3]] += aw
    return np.ascontiguousarray(np.moveaxis(r, (0, 1), (-2, -1)))


def exp_so3(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula: I + sin|w|/|w| w^ + (1-cos|w|)/|w|^2 w^ w^."""
    w = np.ascontiguousarray(np.moveaxis(np.asarray(w, dtype=float), -1, 0))
    a, b, *_ = _sinc_coeffs(_angle(w))
    return _rodrigues(w, a, b)


def exp_se3(t: np.ndarray) -> np.ndarray:
    """Exponential map se(3) -> SE(3), returning [[exp(w^), T(w) v], [0, 1]].

    For w = 0 this reduces exactly to a pure translation by v.
    """
    t = np.asarray(t, dtype=float)
    comps = np.ascontiguousarray(np.moveaxis(t, -1, 0))
    v, w = comps[:3], comps[3:]
    a, b, c, *_ = _rot_coeffs(_angle(w))
    wv = _cross(w, v)
    out = np.zeros(t.shape[:-1] + (4, 4))
    out[..., :3, :3] = _rodrigues(w, a, b)
    out[..., :3, 3] = np.moveaxis(v + b * wv + c * _cross(w, wv), 0, -1)
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


def inv_pose(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    rt = np.swapaxes(g[..., :3, :3], -1, -2)
    return make_pose(rt, -np.einsum("...ij,...j->...i", rt, g[..., :3, 3]))


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
    """Closed-form inverse of T(w) = I + b w^ + c w^ w^ (angle < pi)."""
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


def ad_tilde(w: np.ndarray) -> np.ndarray:
    """Wrench form [[0, n^], [n^, m^]] with ad_tilde(y) @ x == ad(x).T @ y."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape[:-1] + (6, 6))
    nh = skew(w[..., :3])
    out[..., :3, 3:] = nh
    out[..., 3:, :3] = nh
    out[..., 3:, 3:] = skew(w[..., 3:])
    return out


def _components(x: np.ndarray) -> np.ndarray:
    """Twists (..., k, 6) as a contiguous (6, k, ...) array.

    Component-first storage lets the cross products below work on whole
    contiguous (k, ...) planes.
    """
    return np.ascontiguousarray(np.moveaxis(x, (-1, -2), (0, 1)))


def carried_update(eta: np.ndarray, zeta: np.ndarray, deta: np.ndarray) -> np.ndarray:
    """Multiplicative update of twists carried at a batch of points.

    For increments eta = (u; w) (..., 6) and twist stacks zeta, deta
    (..., k, 6) at the same points, returns

        Ad(exp(-eta)) zeta + dexp_se3(eta) deta  (..., k, 6)

    from one coefficient pass per point, with cross products only.  With
    exp(eta) = (R, p), Ad(exp(-eta)) = Ad(exp(eta))^-1 maps (v; w) to
    (R^T (v - p x w); R^T w), R^T = I - a w^ + b w^ w^.  dexp_se3(eta) is the
    SE(3) left Jacobian at -eta, [[J, Q], [0, J]] with
    J = T(-w) = I - b w^ + c w^ w^ and Barfoot's coupling block
    Q = Q(-u, -w) = -u^/2 + c (w^u^ + u^w^ - w^u^w^)
        - c2 (w^w^u^ + u^w^w^ - 3 w^u^w^) + c3 (w^u^w^w^ + w^w^u^w^).
    The terms are regrouped so that each application costs ten cross
    products on the stack.
    """
    e = np.ascontiguousarray(np.moveaxis(np.asarray(eta, dtype=float), -1, 0))
    u, w = e[:3, None], e[3:, None]  # (3, 1, ...): broadcast over the stack
    a, b, c, c2, c3 = _rot_coeffs(_angle(w))
    z, d = _components(zeta), _components(deta)
    wu = _cross(w, u)
    p = u + b * wu + c * _cross(w, wu)
    zv, zw, dv, dw = z[:3], z[3:], d[:3], d[3:]
    x = zv - _cross(p, zw)
    y = _cross(w, dw)
    yy = _cross(w, y)
    up, uq, us = _cross(u, dw), _cross(u, y), _cross(u, yy)
    q_outer = c * up + (3.0 * c2 - c) * uq + c3 * us
    q_inner = c3 * uq - c2 * up
    # R^T x + J dv + Q dw and R^T zw + J dw, sharing the outer w x (.)
    out_v = (x + dv - 0.5 * up + c * uq - c2 * us
             + _cross(w, q_outer - a * x - b * dv + _cross(w, b * x + c * dv + q_inner)))
    out_w = zw + dw - b * y + c * yy + _cross(w, _cross(w, b * zw) - a * zw)
    out = np.concatenate((out_v, out_w))
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), (-1, -2)))


def dexp_se3(t: np.ndarray) -> np.ndarray:
    """Left-trivialized differential of the exponential, in closed form.

    Returns the 6x6 matrix D with ``vee(exp(-t^) @ Dexp(t^)[u^]) == D @ u``
    for every direction u: the SE(3) left Jacobian at -t,
    [[T(-w), Q(-v, -w)], [0, T(-w)]] with T(w) = I + b w^ + c w^ w^,
    evaluated by ``carried_update`` on the unit vectors.  dexp_se3(0) is the identity.
    """
    t = np.asarray(t, dtype=float)
    cols = np.broadcast_to(_EYE6, t.shape[:-1] + (6, 6))  # cols[..., j, :] = e_j
    return np.swapaxes(carried_update(t, np.zeros_like(cols), cols), -1, -2)
