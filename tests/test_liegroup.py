"""Unit tests for the SE(3) algebra layer.

Oracles: hand-expanded skew/adjoint matrices on basis vectors, matrix
commutators computed on the 4x4 hat images, central finite differences of
the exponential and the power series sum_k (-ad_t)^k / (k+1)! for the dexp
operator, and mpmath for the rotation coefficients.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ad_dual,
    dexp_series,
    hat_se3,
    is_rotation,
    per_row_rot_coeffs,
    so3_tangent,
    trans_of,
    vee_se3,
)
from se3shell import liegroup
from se3shell.liegroup import (
    SERIES_ANGLE,
    SMALL_ANGLE,
    Ad,
    _rot_coeffs,
    ad,
    ad_tilde,
    carried_update,
    dexp_se3,
    exp_se3,
    exp_so3,
    increment_maps,
    inv_pose,
    log_se3,
    make_pose,
    rot_of,
    skew,
)

RNG = np.random.default_rng(20240811)


def random_twist(omega_norm):
    v = RNG.normal(size=3)
    w = RNG.normal(size=3)
    w *= omega_norm / np.linalg.norm(w)
    return np.concatenate([v, w])


twist_components = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=6, max_size=6
)


class TestHatVee:
    def test_hat_zero(self):
        assert np.array_equal(hat_se3(np.zeros(6)), np.zeros((4, 4)))

    def test_round_trip(self):
        t = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.array_equal(vee_se3(hat_se3(t)), t)

    def test_unit_angular_hat(self):
        # skew(e_z) expanded on basis vectors: e_z x e_x = e_y etc.
        m = hat_se3(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(m[:3, :3], expected)
        assert np.array_equal(m[:, 3], np.zeros(4))

    def test_vee_rejects_non_admissible(self):
        bad = np.eye(4)
        with pytest.raises(ValueError):
            vee_se3(bad)

    @given(twist_components)
    def test_round_trip_property(self, comps):
        t = np.array(comps)
        assert np.array_equal(vee_se3(hat_se3(t)), t)


class TestExp:
    def test_zero_twist(self):
        assert np.allclose(exp_se3(np.zeros(6)), np.eye(4))

    def test_pure_translation(self):
        g = exp_se3(np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0]))
        assert np.allclose(rot_of(g), np.eye(3))
        assert np.allclose(trans_of(g), [1.0, -2.0, 0.5])

    def test_quarter_turn_screw(self):
        # Rodrigues + T(w) evaluated by hand for v=e_x, w=(pi/2) e_z:
        # R = 90 deg about z, P = (2/pi, 2/pi, 0).
        g = exp_se3(np.array([1.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2]))
        r_expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(rot_of(g), r_expected, atol=1e-14)
        assert np.allclose(trans_of(g), [2 / np.pi, 2 / np.pi, 0.0], atol=1e-14)

    def test_orthonormality_preserved(self):
        for _ in range(50):
            t = random_twist(RNG.uniform(1e-9, 3.0))
            assert is_rotation(rot_of(exp_se3(t)), tol=1e-12)

    def test_small_angle_branch_continuity(self):
        # Values straddling the series switch agree to near machine precision.
        w_dir = np.array([0.3, -0.4, 0.5])
        w_dir /= np.linalg.norm(w_dir)
        for mag in (9.9e-7, 1.01e-6):
            t = np.concatenate([np.array([0.1, 0.2, 0.3]), mag * w_dir])
            g_series = exp_se3(t)
            g_ref = np.eye(4) + hat_se3(t) + 0.5 * hat_se3(t) @ hat_se3(t)
            assert np.allclose(g_series, g_ref, atol=1e-18 / mag**0)

    def test_batched(self):
        ts = np.stack([random_twist(0.5) for _ in range(7)])
        gs = exp_se3(ts)
        assert gs.shape == (7, 4, 4)
        for k in range(7):
            assert np.allclose(gs[k], exp_se3(ts[k]))


class TestLog:
    def test_identity(self):
        assert np.allclose(log_se3(np.eye(4)), np.zeros(6))

    def test_pure_translation(self):
        g = make_pose(np.eye(3), np.array([3.0, -1.0, 2.0]))
        assert np.allclose(log_se3(g), [3.0, -1.0, 2.0, 0.0, 0.0, 0.0])

    def test_round_trip_half_radian(self):
        for _ in range(20):
            t = random_twist(0.5)
            assert np.allclose(log_se3(exp_se3(t)), t, atol=1e-12)

    def test_round_trip_up_to_three_radians(self):
        for _ in range(50):
            t = random_twist(RNG.uniform(1e-8, 3.0))
            assert np.allclose(log_se3(exp_se3(t)), t, atol=1e-10)

    def test_angle_near_pi_rejected(self):
        t = np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi - 1e-9])
        with pytest.raises(ValueError):
            log_se3(exp_se3(t))


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(Ad(np.eye(4)), np.eye(6))

    def test_block_form_translation(self):
        g = make_pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        a = Ad(g)
        p_hat = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(a[:3, 3:], p_hat)
        assert np.array_equal(a[:3, :3], np.eye(3))
        assert np.array_equal(a[3:, 3:], np.eye(3))

    def test_homomorphism(self):
        for _ in range(30):
            g1 = exp_se3(random_twist(RNG.uniform(0.1, 2.5)))
            g2 = exp_se3(random_twist(RNG.uniform(0.1, 2.5)))
            assert np.allclose(Ad(g1 @ g2), Ad(g1) @ Ad(g2), atol=1e-12)

    def test_inverse(self):
        g = exp_se3(random_twist(1.2))
        assert np.allclose(np.linalg.inv(Ad(g)), Ad(inv_pose(g)), atol=1e-12)

    def test_adjoint_action_is_conjugation(self):
        g = exp_se3(random_twist(0.8))
        t = random_twist(0.6)
        lhs = Ad(g) @ t
        rhs = vee_se3(g @ hat_se3(t) @ inv_pose(g))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestAlgebraAdjoint:
    def test_self_bracket_vanishes(self):
        t = random_twist(1.0)
        assert np.allclose(ad(t) @ t, np.zeros(6), atol=1e-14)

    def test_matrix_against_commutator(self):
        x = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        for _ in range(10):
            y = random_twist(1.0)
            lhs = ad(x) @ y
            rhs = vee_se3(hat_se3(x) @ hat_se3(y) - hat_se3(y) @ hat_se3(x))
            assert np.allclose(lhs, rhs, atol=1e-14)
        wh = skew(x[3:])
        vh = skew(x[:3])
        expected = np.block([[wh, vh], [np.zeros((3, 3)), wh]])
        assert np.array_equal(ad(x), expected)

    def test_antisymmetry(self):
        for _ in range(20):
            x, y = random_twist(1.5), random_twist(1.5)
            assert np.allclose(ad(x) @ y, -(ad(y) @ x), atol=1e-14)

    def test_dual_is_transpose(self):
        t = random_twist(0.7)
        assert np.array_equal(ad_dual(t), ad(t).T)

    def test_tilde_pairing(self):
        for _ in range(20):
            gamma = RNG.normal(size=6)
            xi = RNG.normal(size=6)
            assert np.allclose(ad_tilde(gamma) @ xi, ad_dual(xi) @ gamma, atol=1e-13)

    def test_tilde_block_form(self):
        gamma = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        nh = skew(gamma[:3])
        mh = skew(gamma[3:])
        expected = np.block([[np.zeros((3, 3)), nh], [nh, mh]])
        assert np.array_equal(ad_tilde(gamma), expected)

    def test_stacks_equal_the_skew_blocks_with_signed_zeros(self):
        # each form is one gather; on stacks with +-0 components it must give
        # the skew blocks written one by one, down to the sign of every zero
        t = RNG.normal(size=(7, 3, 2, 6))
        t[RNG.random(t.shape) < 0.3] = 0.0
        t[RNG.random(t.shape) < 0.3] *= -0.0
        assert np.any(np.signbit(t) & (t == 0.0)) and np.any(~np.signbit(t) & (t == 0.0))
        zero = np.zeros(t.shape[:-1] + (3, 3))
        vh, wh = skew(t[..., :3]), skew(t[..., 3:])
        blocks = {ad: np.block([[wh, vh], [zero, wh]]),
                  ad_tilde: np.block([[zero, vh], [vh, wh]])}
        for form, expected in blocks.items():
            got = form(t)
            assert got.shape == t.shape[:-1] + (6, 6)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
            assert np.array_equal(form(t[0, 0, 0]), expected[0, 0, 0])


def dexp_fd(t, step=1e-6):
    """Central finite difference of u -> vee(exp(-t^) d/ds exp((t+s u)^))."""
    out = np.zeros((6, 6))
    g_inv = np.linalg.inv(exp_se3(t))
    for j in range(6):
        u = np.zeros(6)
        u[j] = 1.0
        dg = (exp_se3(t + step * u) - exp_se3(t - step * u)) / (2 * step)
        col = g_inv @ dg
        out[:, j] = np.concatenate([col[:3, 3], [col[2, 1], col[0, 2], col[1, 0]]])
    return out


# angles on both sides of every series switch, and up to 3 rad
SWITCH_ANGLES = [0.0, 1e-9, 0.99 * SMALL_ANGLE, 1.01 * SMALL_ANGLE, 1e-3, 0.1,
                 0.99 * SERIES_ANGLE, 1.01 * SERIES_ANGLE, 1.0, 1.6, 2.5, 3.0]


class TestRotCoeffs:
    @staticmethod
    def exact(theta):
        t = mpmath.mpf(theta)
        s, c = mpmath.sin(t), mpmath.cos(t)
        return [s / t, (1 - c) / t**2, (t - s) / t**3,
                (t**2 + 2 * c - 2) / (2 * t**4), (2 * t - 3 * s + t * c) / (2 * t**5)]

    def test_against_mpmath(self):
        thetas = np.concatenate([np.logspace(-9, 0.5, 400),
                                 [SMALL_ANGLE * (1 + 1e-9), SERIES_ANGLE * (1 + 1e-9),
                                  SERIES_ANGLE * (1 - 1e-9)]])
        got = np.array(_rot_coeffs(thetas, len(thetas), len(thetas)))
        # the closed forms of the references cancel by up to 45 digits at 1e-9
        with mpmath.workdps(100):
            ref = np.array([[float(x) for x in self.exact(th)] for th in thetas]).T
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-14

    def test_zero_angle_limits(self):
        got = [float(x[0]) for x in _rot_coeffs(np.zeros(1), 1, 1)]
        assert got == [1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0]

    @pytest.mark.parametrize("n_c, n_q", [(26, 0), (26, 26), (26, 11), (0, 0)])
    def test_packed_series_equals_the_per_row_horner(self, n_c, n_q):
        # the one Horner loop over [t2[:n_c], t2[:n_q], t2[:n_q]] gives the
        # bytes of c, c2 and c3 summed coefficient by coefficient, at 0, below
        # SMALL_ANGLE, on both sides of SERIES_ANGLE and up to pi/2 and past it
        thetas = RNG.permutation(np.repeat(SWITCH_ANGLES + [np.pi / 2], 2))
        got = _rot_coeffs(thetas, n_c, n_q)
        expected = per_row_rot_coeffs(thetas, n_c, n_q)
        assert [len(x) for x in got] == [26, 26, n_c, n_q, n_q]
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            assert g.tobytes() == e.tobytes()

    def test_series_table_built_once_per_point_counts(self):
        liegroup._series_table.cache_clear()
        for n_c, n_q in [(7, 3), (7, 3), (7, 0), (7, 3), (7, 0)]:
            _rot_coeffs(RNG.uniform(0.0, 2.0, size=9), n_c, n_q)
        info = liegroup._series_table.cache_info()
        assert (info.misses, info.hits) == (2, 3)
        table = liegroup._series_table(7, 3)
        assert table.shape == (10, 13) and not table.flags.writeable
        # c in the first n_c columns, then c2 and c3 in n_q columns each
        for j, (first, last) in enumerate([(0, 7), (7, 10), (10, 13)]):
            assert np.all(table[:, first:last] == liegroup._SERIES[:, j, None])


class TestDexp:
    def test_identity_at_zero(self):
        assert np.allclose(dexp_se3(np.zeros(6)), np.eye(6))

    def test_matches_finite_difference(self):
        for _ in range(100):
            t = random_twist(RNG.uniform(1e-3, 1.0))
            assert np.allclose(dexp_se3(t), dexp_fd(t), atol=1e-8)

    def test_rotation_subblock(self):
        # Pure rotation twist: the angular-angular block must match the SO(3)
        # finite difference of w -> exp(-w^) d exp(w^).
        w = np.array([0.2, -0.5, 0.4])
        t = np.concatenate([np.zeros(3), w])
        block = dexp_se3(t)[3:, 3:]
        step = 1e-6
        fd = np.zeros((3, 3))
        for j in range(3):
            u = np.zeros(3)
            u[j] = 1.0
            dr = (exp_so3(w + step * u) - exp_so3(w - step * u)) / (2 * step)
            m = exp_so3(w).T @ dr
            fd[:, j] = [m[2, 1], m[0, 2], m[1, 0]]
        assert np.allclose(block, fd, atol=1e-8)
        # and equals T(-w) in closed form
        assert np.allclose(block, so3_tangent(-w), atol=1e-12)

    def test_larger_twists_still_converge(self):
        t = np.array([1.5, -2.0, 1.0, 1.2, -0.8, 2.0])
        assert np.allclose(dexp_se3(t), dexp_fd(t), atol=1e-7)

    def test_closed_form_matches_series(self):
        for angle in SWITCH_ANGLES:
            for _ in range(5):
                t = random_twist(angle) if angle > 0 else np.r_[RNG.normal(size=3), 0, 0, 0]
                ref = dexp_series(t)
                assert np.max(np.abs(dexp_se3(t) - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_batched_shapes(self):
        angles = np.array(SWITCH_ANGLES).reshape(3, 4)
        ts = np.stack([[random_twist(a) if a > 0 else np.zeros(6) for a in row]
                       for row in angles])
        d = dexp_se3(ts)
        assert d.shape == (3, 4, 6, 6)
        ref = dexp_series(ts)
        assert np.max(np.abs(d - ref)) < 1e-13 * np.max(np.abs(ref))
        for i, j in np.ndindex(3, 4):
            assert np.array_equal(d[i, j], dexp_se3(ts[i, j]))


class TestCarriedUpdate:
    def test_matches_matrix_composition(self):
        # one pass against Ad(exp(eta))^-1 zeta + dexp(eta) deta composed
        # from the matrix maps and the dexp series
        for amp in (1e-9, 1e-6, 1e-3, 0.1, 0.6, 1.2):
            eta = amp * RNG.normal(size=(7, 3, 6))
            zeta = RNG.normal(size=(7, 3, 2, 6))
            deta = amp * RNG.normal(size=(7, 3, 2, 6))
            got = carried_update(eta, zeta, deta)
            ref = (np.einsum("...qr,...ar->...aq", Ad(inv_pose(exp_se3(eta))), zeta)
                   + np.einsum("...qr,...ar->...aq", dexp_series(eta), deta))
            assert got.shape == zeta.shape
            assert np.max(np.abs(got - ref)) < 1e-13


class TestIncrementMaps:
    @staticmethod
    def twists(angles):
        """Twists with random linear parts and rotations of the given angles."""
        w = RNG.normal(size=(len(angles), 3))
        w *= np.asarray(angles)[:, None] / np.linalg.norm(w, axis=1, keepdims=True)
        return np.concatenate([RNG.normal(size=(len(angles), 3)), w], axis=1)

    @pytest.mark.parametrize("rotation_points", [0, 5])
    def test_equals_the_per_part_maps(self, rotation_points):
        # one stacked coefficient pass gives the bytes of the three calls, at
        # every switch angle in every part, with or without rotation points
        angles = np.repeat(SWITCH_ANGLES, 2)
        eta_nodes = self.twists(RNG.permutation(angles))
        eta_pts = self.twists(RNG.permutation(angles)[:17])
        zeta = RNG.normal(size=(17, 2, 6))
        deta = RNG.normal(size=(17, 2, 6))
        w_rot = self.twists(RNG.choice(SWITCH_ANGLES, rotation_points))[:, 3:]
        checked = []
        got = increment_maps(eta_nodes, eta_pts, zeta, deta, w_rot, checked.append)
        expected = (exp_se3(eta_nodes), carried_update(eta_pts, zeta, deta), exp_so3(w_rot))
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            assert g.tobytes() == e.tobytes()
        # the check is handed the nodal angles of np.linalg.norm, once
        (nodal,) = checked
        assert nodal.tobytes() == np.linalg.norm(eta_nodes[:, 3:], axis=1).tobytes()

    def test_check_stops_the_update_before_the_coefficients(self, monkeypatch):
        # an exception raised by the check leaves the coefficient pass unrun
        calls = []
        coeffs = liegroup._rot_coeffs
        monkeypatch.setattr(liegroup, "_rot_coeffs",
                            lambda *args: calls.append(None) or coeffs(*args))

        def reject(angles):
            raise ValueError(f"largest angle {angles.max()}")

        eta = self.twists([0.1, 2.0])
        with pytest.raises(ValueError, match="largest angle 2.0"):
            increment_maps(eta, eta[:1], RNG.normal(size=(1, 2, 6)),
                           RNG.normal(size=(1, 2, 6)), np.zeros((0, 3)), reject)
        assert not calls
        increment_maps(eta, eta[:1], RNG.normal(size=(1, 2, 6)),
                       RNG.normal(size=(1, 2, 6)), np.zeros((0, 3)), lambda angles: None)
        assert len(calls) == 1


@settings(max_examples=25, deadline=None)
@given(twist_components)
def test_exp_rotation_valid_property(comps):
    t = np.array(comps)
    assert is_rotation(rot_of(exp_se3(t)), tol=1e-12)
