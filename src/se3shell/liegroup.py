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
exponentials and their tangents share one coefficient helper,
``_rot_coeffs``, which evaluates a stack of rotation angles and each
coefficient only on the part of the stack that reads it: a and b
everywhere, c where ``exp_se3`` or ``carried_update`` reads it, c2 and c3
for ``carried_update`` alone.  The differential of the SE(3) exponential is
the left Jacobian at -t, whose coupling block is Barfoot's Q(-v, -w)
(Barfoot & Furgale, IEEE T-RO 2014).  Coefficient ratios that cancel at
small angles are fixed Taylor polynomials below an angle where both forms
agree to about 1e-15; the three of them are summed in one Horner loop over a
packed stack against a coefficient table built once per pair of point
counts.  ``carried_update`` evaluates the multiplicative update of carried
twists, Ad(exp(-eta)) and dexp(eta), with cross products, without forming
4x4 or 6x6 matrices.  ``increment_maps`` makes the three maps of one solver
update, the nodal exponentials, the carried twists and the Gauss-point
rotations, from a single angle pass and a single coefficient pass over all
of their points, with the same elementwise arithmetic as the three separate
calls, so with their bits; between the passes the solver's bound on the
nodal rotation angles can stop the update.  These kernels store vectors
component first, one per column, and move axes with ``transpose`` views: the same
arrays in the same layout as ``np.moveaxis`` gives, without its axis
normalisation, which cost 4-7 us a call against under 1 us for the view.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

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


def _rot_coeffs(theta: np.ndarray, n_c: int, n_q: int) -> tuple[np.ndarray, ...]:
    """Closed-form coefficients (a, b, c, c2, c3) of a stack of rotation angles.

    For the angles theta (N,), a and b are evaluated at every angle, c at the
    first n_c and c2, c3 at the first n_q <= n_c, so a caller that stacks its
    points by what they read evaluates each coefficient only where it is read.
    a = sin t/t, b = (1-cos t)/t^2 and c = (t-sin t)/t^3 are the Rodrigues
    coefficients and those of T(w) = I + b w^ + c w^ w^, the map from the
    linear twist part to the translation of exp_se3;
    c2 = (t^2+2cos t-2)/(2t^4) = (1/2-b)/t^2 and
    c3 = (2t-3sin t+t cos t)/(2t^5) = (3c-b)/(2t^2) complete the coupling
    block of the SE(3) Jacobian.  b is evaluated as (sin(t/2)/(t/2))^2 / 2,
    which does not cancel; c, c2 and c3 take their Taylor series below
    SERIES_ANGLE, all three in one Horner loop over the packed squares
    [t2[:n_c], t2[:n_q], t2[:n_q]] against the rows of `_series_table`.  All
    five are accurate to 1e-14 relative, and each value is the same
    elementwise arithmetic wherever its angle sits in the stack.
    """
    a, b, safe, sin, t2 = _sinc_coeffs(theta)
    s = safe[:n_c]
    s2 = s * s
    direct_c = (s - sin[:n_c]) / (s2 * s)
    s2, bq = s2[:n_q], b[:n_q]
    # c at the first n_c angles, then c2 and c3 at the first n_q
    packed = np.concatenate((direct_c, (0.5 - bq) / s2, (1.5 * direct_c[:n_q] - 0.5 * bq) / s2))
    x = np.concatenate((t2[:n_c], t2[:n_q], t2[:n_q]))
    near = theta < SERIES_ANGLE
    rows = _series_table(n_c, n_q)
    series = rows[-1] * x
    series += rows[-2]
    for row in rows[-3::-1]:
        series *= x
        series += row
    np.copyto(packed, series, where=np.concatenate((near[:n_c], near[:n_q], near[:n_q])))
    return a, b, packed[:n_c], packed[n_c:n_c + n_q], packed[n_c + n_q:]


@functools.lru_cache(maxsize=16)
def _series_table(n_c: int, n_q: int) -> np.ndarray:
    """The read-only (10, n_c + 2 n_q) Taylor rows of `_rot_coeffs`' packed
    series: row j holds the theta^2j coefficient of c in its first n_c
    columns, then that of c2 and of c3 in n_q columns each.  A model's point
    counts are fixed, so a run builds its table once."""
    table = np.repeat(_SERIES.T, (n_c, n_q, n_q), axis=0).T.copy()
    table.flags.writeable = False
    return table


def _angle(w: np.ndarray) -> np.ndarray:
    """|w| of vectors stored along axis 0."""
    return np.sqrt(np.sum(w * w, axis=0))


def _columns(x: np.ndarray) -> np.ndarray:
    """The vectors (..., k) of x as a contiguous (k, N) array, one per column."""
    x = np.asarray(x, dtype=float)
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)


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
    return np.ascontiguousarray(r.transpose(*range(2, r.ndim), 0, 1))


def _poses(v: np.ndarray, w: np.ndarray, rot: np.ndarray, b: np.ndarray,
           c: np.ndarray) -> np.ndarray:
    """exp_se3 of the N twists (v; w) stored along axis 0, (N, 4, 4), given
    their rotations `rot` (N, 3, 3) and coefficients b, c: the translation is
    T(w) v = v + b w x v + c w x (w x v)."""
    wv = _cross(w, v)
    out = np.zeros((v.shape[1], 4, 4))
    out[:, :3, :3] = rot
    out[:, :3, 3] = (v + b * wv + c * _cross(w, wv)).T
    out[:, 3, 3] = 1.0
    return out


def exp_so3(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula: I + sin|w|/|w| w^ + (1-cos|w|)/|w|^2 w^ w^."""
    w = np.asarray(w, dtype=float)
    cols = _columns(w)
    a, b, *_ = _rot_coeffs(_angle(cols), 0, 0)
    return _rodrigues(cols, a, b).reshape(w.shape[:-1] + (3, 3))


def exp_se3(t: np.ndarray) -> np.ndarray:
    """Exponential map se(3) -> SE(3), returning [[exp(w^), T(w) v], [0, 1]].

    For w = 0 this reduces exactly to a pure translation by v.
    """
    t = np.asarray(t, dtype=float)
    cols = _columns(t)
    v, w = cols[:3], cols[3:]
    a, b, c, *_ = _rot_coeffs(_angle(w), w.shape[1], 0)
    return _poses(v, w, _rodrigues(w, a, b), b, c).reshape(t.shape[:-1] + (4, 4))


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


def _skew_index(k: int) -> np.ndarray:
    """Positions of skew(t[k:k+3]) in concatenate([t, -t, 0]) of a 6-vector t."""
    return np.array([[12, 8 + k, k + 1], [k + 2, 12, 6 + k], [7 + k, k, 12]])


# Each 6x6 form as one gather from concatenate([t, -t, 0]), (36,) positions;
# entries and signed zeros are those of the skew blocks written one by one.
_ZERO_BLOCK = np.full((3, 3), 12)
_AD_INDEX = np.block([[_skew_index(3), _skew_index(0)],
                      [_ZERO_BLOCK, _skew_index(3)]]).ravel()
_AD_TILDE_INDEX = np.block([[_ZERO_BLOCK, _skew_index(0)],
                            [_skew_index(0), _skew_index(3)]]).ravel()


def _gather6(t: np.ndarray, index: np.ndarray) -> np.ndarray:
    signed = np.concatenate([t, -t, np.zeros(t.shape[:-1] + (1,))], axis=-1)
    return signed[..., index].reshape(t.shape[:-1] + (6, 6))


def ad(t: np.ndarray) -> np.ndarray:
    """Algebra adjoint [[w^, v^], [0, w^]]; ad(x) @ y == vee([x^, y^])."""
    return _gather6(np.asarray(t, dtype=float), _AD_INDEX)


def ad_tilde(w: np.ndarray) -> np.ndarray:
    """Wrench form [[0, n^], [n^, m^]] with ad_tilde(y) @ x == ad(x).T @ y."""
    return _gather6(np.asarray(w, dtype=float), _AD_TILDE_INDEX)


def _components(x: np.ndarray) -> np.ndarray:
    """Twist stacks (N, k, 6) as a contiguous (6, k, N) array.

    Component-first storage lets the cross products below work on whole
    contiguous (k, N) planes.
    """
    return np.ascontiguousarray(x.transpose(2, 1, 0))


def _carry(u: np.ndarray, w: np.ndarray, coeffs: tuple, zeta: np.ndarray,
           deta: np.ndarray) -> np.ndarray:
    """Ad(exp(-eta)) zeta + dexp_se3(eta) deta at N points, (N, k, 6), for
    the increments eta = (u; w) stored along axis 0 with their coefficients
    (a, b, c, c2, c3), (N,) each, and twist stacks zeta, deta (N, k, 6).

    See `carried_update` for the closed form.
    """
    a, b, c, c2, c3 = coeffs
    u, w = u[:, None], w[:, None]  # (3, 1, N): broadcast over the stack
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
    return np.concatenate((out_v, out_w)).transpose(2, 1, 0).copy()


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
    eta = np.asarray(eta, dtype=float)
    cols = _columns(eta)
    n, k = cols.shape[1], np.shape(zeta)[-2]
    coeffs = _rot_coeffs(_angle(cols[3:]), n, n)
    out = _carry(cols[:3], cols[3:], coeffs, np.asarray(zeta, dtype=float).reshape(n, k, 6),
                 np.asarray(deta, dtype=float).reshape(n, k, 6))
    return out.reshape(eta.shape[:-1] + (k, 6))


def increment_maps(eta_nodes: np.ndarray, eta_pts: np.ndarray, zeta: np.ndarray,
                   deta: np.ndarray, w_rot: np.ndarray,
                   check: Callable[[np.ndarray], None]) -> tuple[np.ndarray, ...]:
    """The three maps of one multiplicative update from one angle pass and one
    coefficient pass:

        (exp_se3(eta_nodes), carried_update(eta_pts, zeta, deta), exp_so3(w_rot))

    for nodal increments eta_nodes (n, 6), increments eta_pts (p, 6) at the
    twist points with their twist stacks zeta, deta (p, k, 6), and rotation
    vectors w_rot (r, 3), bit for bit equal to the three calls.  The rotation
    vectors are stacked twist points, nodes, rotation points and their
    angles are taken once; `check` is then called with the nodal angles (n,),
    those of np.linalg.norm(eta_nodes[:, 3:], axis=1), so an exception it
    raises stops the update before any coefficient is formed.  `_rot_coeffs`
    runs once over the stack: a and b at every point, c at the twist points
    and nodes, c2 and c3 at the twist points only.  One `_rodrigues` call
    forms the rotations of the nodes and rotation points.
    """
    n, p = len(eta_nodes), len(eta_pts)
    pts, nodes = _columns(eta_pts), _columns(eta_nodes)
    w = np.concatenate((pts[3:], nodes[3:], w_rot.T), axis=1)
    theta = _angle(w)
    check(theta[p:p + n])
    a, b, c, c2, c3 = _rot_coeffs(theta, p + n, p)
    rot = _rodrigues(w[:, p:], a[p:], b[p:])
    poses = _poses(nodes[:3], w[:, p:p + n], rot[:n], b[p:p + n], c[p:])
    twists = _carry(pts[:3], w[:, :p], (a[:p], b[:p], c[:p], c2, c3), zeta, deta)
    return poses, twists, rot[n:]


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
