"""Kinematics tests: analytic reference shapes, deformation twists, strain.

Oracles: exact screw reconstruction for the arch (constant reference twist),
central finite differences of analytic pose fields, and direct differentiation
of the roll-up and stretch families.
"""

import numpy as np
import pytest

from conftest import (
    deformation_twists,
    dual_basis,
    local_deformation_gradient,
    rollup_family,
    strain,
    trans_of,
)
from se3shell.kinematics import build_cylindrical_arch, build_flat_plate
from se3shell.liegroup import exp_se3, rot_of

RNG = np.random.default_rng(7)


class TestFlatPlate:
    def setup_method(self):
        self.surf = build_flat_plate(2.0, 1.0)

    def test_reference_twists(self):
        z1, z2 = self.surf.twists_at(0.3, 0.7)
        assert np.array_equal(z1, [1, 0, 0, 0, 0, 0])
        assert np.array_equal(z2, [0, 1, 0, 0, 0, 0])

    def test_jacobian_is_one(self):
        assert self.surf.jac_at(1.0, 0.2) == 1.0

    def test_pose(self):
        g = self.surf.pose_at(0.5, 0.2)
        assert np.allclose(trans_of(g), [0.5, 0.2, 0.0])
        assert np.allclose(rot_of(g), np.eye(3))

    def test_twists_match_pose_derivatives(self):
        z1, z2 = deformation_twists(self.surf.pose_at, 0.9, 0.4)
        assert np.allclose(z1, self.surf.twists_at(0.9, 0.4)[0], atol=1e-8)
        assert np.allclose(z2, self.surf.twists_at(0.9, 0.4)[1], atol=1e-8)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            build_flat_plate(-1.0, 1.0)


class TestCylindricalArch:
    def setup_method(self):
        self.radius = 0.5
        self.surf = build_cylindrical_arch(self.radius, np.pi, 0.1)

    def test_screw_reconstruction(self):
        # Constant zeta_01 makes the arc an exact one-parameter screw:
        # integrating the twist from the root reproduces pose_at.
        z1, _ = self.surf.twists_at(0.0, 0.0)
        for s in np.linspace(0.0, np.pi * self.radius, 7):
            expected = self.surf.pose_at(0.0, 0.05) @ exp_se3(s * z1)
            assert np.allclose(expected, self.surf.pose_at(s, 0.05), atol=1e-6)

    def test_half_cylinder_flips_tangent(self):
        d1_root = rot_of(self.surf.pose_at(0.0, 0.0))[:, 0]
        d1_tip = rot_of(self.surf.pose_at(np.pi * self.radius, 0.0))[:, 0]
        angle = np.arccos(np.clip(d1_root @ d1_tip, -1, 1))
        assert abs(angle - np.pi) < 1e-12

    def test_jacobian_is_one(self):
        assert self.surf.jac_at(0.3, 0.01) == 1.0

    def test_twists_match_finite_differences(self):
        z1, z2 = deformation_twists(self.surf.pose_at, 0.4, 0.02)
        a1, a2 = self.surf.twists_at(0.4, 0.02)
        assert np.allclose(z1, a1, atol=1e-6)
        assert np.allclose(z2, a2, atol=1e-6)

    def test_angle_span_validation(self):
        with pytest.raises(ValueError):
            build_cylindrical_arch(0.5, 3 * np.pi, 0.1)


class TestDeformationTwists:
    def test_undeformed_plate(self):
        surf = build_flat_plate(1.0, 1.0)
        z1, z2 = deformation_twists(surf.pose_at, 0.5, 0.5)
        assert np.allclose(z1, [1, 0, 0, 0, 0, 0], atol=1e-8)
        assert np.allclose(z2, [0, 1, 0, 0, 0, 0], atol=1e-8)

    def test_rollup_family(self):
        kappa = 0.8
        g = rollup_family(kappa)
        z1, z2 = deformation_twists(g, 0.6, 0.2)
        assert np.allclose(z1, [1, 0, 0, 0, kappa, 0], atol=1e-6)
        assert np.allclose(z2, [0, 1, 0, 0, 0, 0], atol=1e-6)

    def test_matches_finite_difference_of_generic_field(self):
        gen1 = np.array([1.0, 0.1, -0.2, 0.3, 0.5, -0.1])
        gen2 = np.array([0.0, 1.0, 0.2, -0.2, 0.1, 0.4])

        def g(x1, x2):
            return exp_se3(x1 * gen1) @ exp_se3(x2 * gen2)

        z1, z2 = deformation_twists(g, 0.37, 0.21)
        # Independent check: zeta_2 of this field is exactly gen2, and zeta_1
        # is gen1 transported by Ad(exp(x2 gen2))^-1.
        from se3shell.liegroup import Ad, inv_pose

        assert np.allclose(z2, gen2, atol=1e-6)
        transported = Ad(inv_pose(exp_se3(0.21 * gen2))) @ gen1
        assert np.allclose(z1, transported, atol=1e-6)


class TestDeformationGradient:
    def setup_method(self):
        self.z0 = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])

    def test_identity_projector_at_rest(self):
        fe = local_deformation_gradient(self.z0, self.z0)
        assert np.allclose(fe, np.diag([1.0, 1.0, 0, 0, 0, 0]))
        assert np.allclose(fe @ fe, fe, atol=1e-12)

    def test_rank_two(self):
        zt = self.z0 + 0.1 * RNG.normal(size=(2, 6))
        fe = local_deformation_gradient(zt, self.z0)
        assert np.linalg.matrix_rank(fe, tol=1e-10) == 2

    def test_maps_reference_to_current(self):
        zt = RNG.normal(size=(2, 6))
        fe = local_deformation_gradient(zt, self.z0)
        assert np.allclose(fe @ self.z0[0], zt[0], atol=1e-12)
        assert np.allclose(fe @ self.z0[1], zt[1], atol=1e-12)

    def test_dual_basis_pairing(self):
        z0 = RNG.normal(size=(2, 6))
        dual = dual_basis(z0)
        assert np.allclose(dual @ z0.T, np.eye(2), atol=1e-12)

    def test_degenerate_reference_rejected(self):
        z0 = np.array([[1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0]])
        with pytest.raises(ValueError):
            local_deformation_gradient(z0, z0)


class TestStrain:
    def test_zero_at_rest(self):
        z0 = RNG.normal(size=(2, 6))
        assert np.array_equal(strain(z0, z0), np.zeros((6, 2)))

    def test_rollup_column(self):
        kappa = 0.45
        z0 = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
        zt = np.array([[1.0, 0, 0, 0, kappa, 0], [0, 1.0, 0, 0, 0, 0]])
        e = strain(zt, z0)
        assert np.allclose(e[:, 0], [0, 0, 0, 0, kappa, 0])
        assert np.allclose(e[:, 1], np.zeros(6))

    def test_pure_stretch_column(self):
        lam = 1.3
        z0 = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
        zt = np.array([[lam, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
        e = strain(zt, z0)
        assert np.allclose(e[:, 0], [lam - 1, 0, 0, 0, 0, 0])

    def test_zero_iff_equal(self):
        z0 = RNG.normal(size=(2, 6))
        assert np.all(strain(z0.copy(), z0) == 0.0)
        zt = z0.copy()
        zt[1, 4] = np.nextafter(zt[1, 4], np.inf)
        assert np.any(strain(zt, z0) != 0.0)


class TestLeftInvariance:
    def test_strain_invariant_under_rigid_motion(self):
        kappa = 0.6
        g = rollup_family(kappa)
        h = exp_se3(np.array([0.4, -0.2, 0.9, 0.3, -0.5, 0.7]))

        def hg(x1, x2):
            return h @ g(x1, x2)

        z = np.stack(deformation_twists(g, 0.5, 0.3))
        zh = np.stack(deformation_twists(hg, 0.5, 0.3))
        assert np.allclose(z, zh, atol=1e-6)
        # exact statement on the carried representation: twists of g and h@g
        # are the same algebra elements, so strains agree to round-off
        z0 = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
        assert np.allclose(strain(z, z0), strain(zh, z0), atol=1e-6)
