"""Magnetics tests.

The element stiffness is checked as the literal directional derivative of the
element force under right-translated rotation increments at the quadrature
points, which is exactly how the solver perturbs the carried rotations.
"""

import numpy as np
import pytest

from conftest import (magnetic_couple, magnetic_force_cross, magnetic_stiffness_einsum,
                      rotated_remanent)
from se3shell import magnetics
from se3shell.liegroup import exp_so3
from se3shell.magnetics import MU0, MagneticEnvironment, applied_field, remanent_field
from se3shell.scenario import build_model, load_bundled
from se3shell.solver import run

RNG = np.random.default_rng(99)

# 2x2 Gauss points of the parent square and bilinear shape values there
GP = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)]) / np.sqrt(3.0)
CORNERS = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])
SHAPE_VALS = 0.25 * (1 + np.outer(GP[:, 0], CORNERS[:, 0])) * (
    1 + np.outer(GP[:, 1], CORNERS[:, 1])
)


def random_rotation(scale=1.0):
    return exp_so3(RNG.normal(size=3) * scale)


def local_args(r0, rt, b_r, env):
    """The field arguments of the element kernels: R_0^T B_0^r, R_t^T B^a, mu0."""
    return remanent_field(r0, b_r), applied_field(rt, env), env.mu0


def force_of(r0, rt, b_r, env, shape_vals, weights):
    return magnetics.element_magnetic_force(*local_args(r0, rt, b_r, env),
                                            shape_vals, weights)


def stiffness_of(r0, rt, b_r, env, shape_vals, weights):
    return magnetics.element_magnetic_stiffness(
        *local_args(r0, rt, b_r, env), magnetics.stiffness_weights(shape_vals, weights))


class TestRotatedRemanent:
    def test_identity_relative_rotation(self):
        r = random_rotation()
        b = np.array([0.1, -0.2, 0.05])
        assert np.allclose(rotated_remanent(r, r, b), b, atol=1e-15)

    def test_half_turn_flips(self):
        r0 = random_rotation()
        rz = exp_so3(np.array([0.0, 0.0, np.pi]))
        rt = r0 @ rz
        b = np.array([0.3, 0.0, 0.0])
        # B expressed in the material frame along x flips under Rot_z(pi)
        got = rotated_remanent(rt, r0, r0 @ b)
        assert np.allclose(got, r0 @ np.array([-0.3, 0.0, 0.0]), atol=1e-14)

    def test_norm_preserved(self):
        for _ in range(20):
            b = RNG.normal(size=3)
            got = rotated_remanent(random_rotation(), random_rotation(), b)
            assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(b), rel=1e-12)


class TestCouple:
    def test_parallel_fields_zero(self):
        env = MagneticEnvironment(np.array([0.2, 0.0, 0.0]))
        assert np.allclose(magnetic_couple(np.array([0.5, 0, 0]), env), 0.0)

    def test_cross_product_value(self):
        br, ba = 0.143, 0.05
        env = MagneticEnvironment(np.array([ba, 0.0, 0.0]))
        got = magnetic_couple(np.array([0.0, 0.0, br]), env)
        assert np.allclose(got, [0.0, br * ba / MU0, 0.0])

    def test_antiparallel_fields_zero(self):
        env = MagneticEnvironment(np.array([-0.2, 0.0, 0.0]))
        assert np.allclose(magnetic_couple(np.array([0.5, 0, 0]), env), 0.0, atol=1e-18)

    def test_mu0_default(self):
        assert MagneticEnvironment(np.zeros(3)).mu0 == pytest.approx(4e-7 * np.pi)

    @pytest.mark.parametrize("mu0", [0.0, -1.0, np.nan, np.inf])
    def test_mu0_validation(self, mu0):
        with pytest.raises(ValueError, match="mu0"):
            MagneticEnvironment(np.zeros(3), mu0=mu0)

    @pytest.mark.parametrize("b_applied", [[np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0],
                                           np.zeros(2), np.zeros((1, 3))])
    def test_b_applied_validation(self, b_applied):
        with pytest.raises(ValueError, match="b_applied"):
            MagneticEnvironment(b_applied)

    def test_nan_field_program_fails_at_its_first_build(self):
        # refused when the program builds the field, not after 9 attempts
        # rejected for non-finite entries in the assembled system
        cfg = load_bundled("magnetic_cantilever_lh10")
        model = build_model(cfg)
        model.field = lambda lam: MagneticEnvironment(np.array([np.nan, 0.0, 0.0]) * lam)
        builds = []
        build_system = model.build_system

        def counted(load_factor):
            builds.append(load_factor)
            return build_system(load_factor)

        model.build_system = counted
        with pytest.raises(ValueError, match="b_applied must be a finite 3-vector"):
            run(model, cfg.solver)
        assert builds == [1.0 / cfg.solver.load_steps]


def flat_element_rotations():
    eye = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
    return eye, eye.copy()


class TestElementForce:
    def test_zero_applied_field(self):
        r0, rt = flat_element_rotations()
        env = MagneticEnvironment(np.zeros(3))
        w = np.full(4, 0.25)
        f = force_of(r0, rt, np.array([0, 0, 0.1]), env, SHAPE_VALS, w)
        assert np.array_equal(f, np.zeros((4, 6)))

    def test_undeformed_plate_perpendicular_fields(self):
        # constant integrand times partition of unity: total couple magnitude
        # equals |B_r||B_a|/mu0 times the element area
        area = 0.3
        r0, rt = flat_element_rotations()
        env = MagneticEnvironment(np.array([0.05, 0.0, 0.0]))
        b_r = np.array([0.0, 0.0, 0.143])
        w = np.full(4, area / 4)
        f = force_of(r0, rt, b_r, env, SHAPE_VALS, w)
        assert np.allclose(f[:, :3], 0.0)
        total = f[:, 3:].sum(axis=0)
        expected_dir = np.cross(b_r, env.b_applied)
        expected_dir /= np.linalg.norm(expected_dir)
        assert np.allclose(total, expected_dir * 0.143 * 0.05 / MU0 * area, rtol=1e-12)

    def test_aligned_after_quarter_turn(self):
        # rotate the plate so the remanent axis lines up with B_a: couple -> 0
        r0, _ = flat_element_rotations()
        turn = exp_so3(np.array([0.0, -np.pi / 2, 0.0]))
        rt = np.broadcast_to(turn, (4, 3, 3)).copy()
        env = MagneticEnvironment(np.array([0.0, 0.0, 0.05]))
        b_r = np.array([0.143, 0.0, 0.0])
        w = np.full(4, 0.25)
        f0 = force_of(r0, r0, b_r, env, SHAPE_VALS, w)
        f1 = force_of(r0, rt, b_r, env, SHAPE_VALS, w)
        assert np.linalg.norm(f1) < 1e-12 * np.linalg.norm(f0)

    def test_force_slots_always_zero(self):
        r0 = np.stack([random_rotation(0.3) for _ in range(4)])
        rt = np.stack([random_rotation(0.7) for _ in range(4)])
        env = MagneticEnvironment(RNG.normal(size=3) * 0.05)
        f = force_of(r0, rt, RNG.normal(size=3) * 0.1, env,
                     SHAPE_VALS, np.full(4, 0.25))
        assert np.array_equal(f[:, :3], np.zeros((4, 3)))

    @pytest.mark.parametrize("exponents", [(-1, 1), (-150, 150), (-300, 300)])
    @pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
    def test_equals_the_np_cross_form(self, batch, exponents):
        # the component-wise couple makes the products and differences of
        # np.cross in its order: the same bits on stacks with signed zeros,
        # and the same infinities and NaNs where the widest magnitudes overflow
        shape = batch + (4, 3)

        def stack():
            x = RNG.choice([-1.0, 1.0], size=shape)
            x *= 10.0 ** RNG.uniform(*exponents, size=shape)
            zero = RNG.random(shape) < 0.2
            x[zero] = np.copysign(0.0, x[zero])
            return x

        b_mat, b_app = stack(), stack()
        w = RNG.uniform(0.1, 1.0, size=batch + (4,))
        with np.errstate(all="ignore"):
            got = magnetics.element_magnetic_force(b_mat, b_app, MU0, SHAPE_VALS, w)
            expected = magnetic_force_cross(b_mat, b_app, MU0, SHAPE_VALS, w)
        assert np.array_equal(got, expected, equal_nan=True)
        assert got.tobytes() == expected.tobytes()


class TestElementStiffness:
    def test_zero_applied_field(self):
        r0, rt = flat_element_rotations()
        env = MagneticEnvironment(np.zeros(3))
        k = stiffness_of(r0, rt, np.array([0, 0, 0.1]), env,
                         SHAPE_VALS, np.full(4, 0.25))
        assert np.array_equal(k, np.zeros((4, 4, 3, 3)))

    def test_aligned_is_negative_semidefinite(self):
        # parallel fields at identity: skew(b) @ skew(c b) = c (b b^T - |b|^2 I),
        # negative semi-definite with kernel along b
        r0, rt = flat_element_rotations()
        b_dir = np.array([0.0, 0.0, 1.0])
        env = MagneticEnvironment(0.05 * b_dir)
        k = stiffness_of(r0, rt, 0.143 * b_dir, env,
                         SHAPE_VALS, np.full(4, 0.25))
        blk = k[0, 0]
        eig = np.linalg.eigvalsh(0.5 * (blk + blk.T))
        assert eig.max() <= 1e-12
        assert np.allclose(blk @ b_dir, 0.0, atol=1e-12)
        mass00 = float(np.sum(0.25 * SHAPE_VALS[:, 0] ** 2))  # = 1/9 on the unit square
        mag = mass00 * 0.143 * 0.05 / MU0
        assert mass00 == pytest.approx(1.0 / 9.0)
        assert np.allclose(blk, mag * (np.outer(b_dir, b_dir) - np.eye(3)), rtol=1e-10)

    def test_antiparallel_is_positive_semidefinite(self):
        r0, rt = flat_element_rotations()
        b_dir = np.array([1.0, 0.0, 0.0])
        env = MagneticEnvironment(-0.05 * b_dir)
        k = stiffness_of(r0, rt, 0.143 * b_dir, env,
                         SHAPE_VALS, np.full(4, 0.25))
        blk = k[2, 2]
        eig = np.linalg.eigvalsh(0.5 * (blk + blk.T))
        assert eig.min() >= -1e-12

    def test_matches_finite_difference_of_force(self):
        r0 = np.stack([random_rotation(0.2) for _ in range(4)])
        rt = np.stack([random_rotation(0.5) for _ in range(4)])
        b_r = np.array([0.1, -0.05, 0.08])
        env = MagneticEnvironment(np.array([0.02, 0.05, -0.03]))
        w = np.full(4, 0.25) * 1.3
        k = stiffness_of(r0, rt, b_r, env, SHAPE_VALS, w)

        eps = 1e-6
        for j in range(4):
            for c in range(3):
                eta = np.zeros(3)
                eta[c] = 1.0
                rt_p = rt.copy()
                rt_m = rt.copy()
                for g in range(4):
                    rt_p[g] = rt[g] @ exp_so3(eps * SHAPE_VALS[g, j] * eta)
                    rt_m[g] = rt[g] @ exp_so3(-eps * SHAPE_VALS[g, j] * eta)
                fp = force_of(r0, rt_p, b_r, env, SHAPE_VALS, w)
                fm = force_of(r0, rt_m, b_r, env, SHAPE_VALS, w)
                fd = (fp - fm)[:, 3:] / (2 * eps)
                ana = k[:, j, :, c]
                assert np.allclose(fd, ana, rtol=1e-5, atol=1e-9 * np.abs(k).max())

    @pytest.mark.parametrize("batch", [(), (7,)])
    def test_equals_the_four_operand_einsum(self, batch):
        # the two-einsum form is exact, not merely close: same products, same sums
        r0 = exp_so3(RNG.normal(size=batch + (4, 3)))
        rt = exp_so3(RNG.normal(size=batch + (4, 3)) * 2.0)
        b_r = RNG.normal(size=batch + (3,)) * 0.1
        env = MagneticEnvironment(RNG.normal(size=3) * 0.05)
        w = RNG.uniform(0.1, 1.0, size=batch + (4,))
        k = stiffness_of(r0, rt, b_r, env, SHAPE_VALS, w)
        assert k.shape == batch + (4, 4, 3, 3)
        assert np.array_equal(k, magnetic_stiffness_einsum(r0, rt, b_r, env, SHAPE_VALS, w))

    def test_couple_vanishes_iff_parallel(self):
        env = MagneticEnvironment(np.array([0.07, 0.0, 0.0]))
        for _ in range(20):
            b = RNG.normal(size=3) * 0.1
            c = magnetic_couple(b, env)
            cosang = abs(b @ env.b_applied) / (
                np.linalg.norm(b) * np.linalg.norm(env.b_applied))
            if np.linalg.norm(c) < 1e-15:
                assert cosang > 1 - 1e-12
            else:
                assert cosang < 1 - 1e-12
