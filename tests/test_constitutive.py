"""Constitutive law tests.

Expected numbers come from evaluating the H-tensor formula by hand at the
identity metric and from an independent loop-built 12x12 operator; energy
values from pairing those stresses with the strains that produced them.
"""

import numpy as np
import pytest

from se3shell.constitutive import (
    Material,
    h_tensor,
    internal_energy_density,
    magnetic_modulus,
    metric_inverse,
    stiffness_blocks,
    stress,
)

RNG = np.random.default_rng(31)
I2 = np.eye(2)


def build_operator_12x12(blocks):
    """Independent stacking [[D11, D12], [D21, D22]] used by the PSD checks."""
    out = np.zeros((12, 12))
    for a in range(2):
        for b in range(2):
            out[6 * a:6 * a + 6, 6 * b:6 * b + 6] = blocks[a, b]
    return out


def random_spd_metric():
    m = RNG.normal(size=(2, 2))
    return np.linalg.inv(m @ m.T + 0.5 * np.eye(2))


class TestHTensor:
    def test_identity_metric_values(self):
        h4 = h_tensor(I2, 0.3)
        assert h4[0, 0, 0, 0] == pytest.approx(1.0)
        assert h4[0, 0, 1, 1] == pytest.approx(0.3)
        assert h4[0, 1, 0, 1] == pytest.approx(0.7)

    def test_pair_swap_symmetry(self):
        h4 = h_tensor(I2, 0.3)
        assert np.allclose(h4, np.einsum("cdab->abcd", h4))

    def test_pair_swap_symmetry_general_metric(self):
        h4 = h_tensor(random_spd_metric(), 0.27)
        assert np.allclose(h4, np.einsum("cdab->abcd", h4), atol=1e-14)


class TestStiffnessBlocks:
    def test_membrane_block_identity_metric(self):
        mat = Material(e=5.0, nu=0.3, h=0.1)
        d = stiffness_blocks(mat, I2)
        scale = mat.e * mat.h / (1 - mat.nu**2)
        expected = scale * np.array(
            [[1.0, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.35]]
        )
        assert np.allclose(d[0, 0, :3, :3], expected)

    def test_bending_drilling_entry(self):
        mat = Material(e=5.0, nu=0.3, h=0.1)
        d = stiffness_blocks(mat, I2)
        expected = mat.e * mat.h**3 / (12 * (1 - mat.nu**2)) * (1 - mat.nu)
        assert d[0, 0, 5, 5] == pytest.approx(expected)

    def test_zero_poisson_kills_coupling(self):
        mat = Material(e=3.0, nu=0.0, h=0.2)
        d = stiffness_blocks(mat, I2)
        m = d[0, 0, :3, :3]
        assert np.allclose(m - np.diag(np.diag(m)), 0.0)
        assert np.allclose(d[0, 1], 0.0)

    def test_operator_symmetric_psd(self):
        for _ in range(10):
            mat = Material(e=RNG.uniform(0.5, 10), nu=RNG.uniform(-0.5, 0.45),
                           h=RNG.uniform(0.01, 1.0))
            op = build_operator_12x12(stiffness_blocks(mat, random_spd_metric()))
            assert np.allclose(op, op.T, atol=1e-12 * np.abs(op).max())
            eig = np.linalg.eigvalsh(0.5 * (op + op.T))
            assert eig.min() >= -1e-10 * np.abs(eig).max()

    def test_material_validation(self):
        with pytest.raises(ValueError):
            Material(e=-1.0, nu=0.3, h=0.1)
        with pytest.raises(ValueError):
            Material(e=1.0, nu=0.5, h=0.1)
        with pytest.raises(ValueError):
            Material(e=1.0, nu=0.3, h=0.0)

    def test_lame_conversion(self):
        mat = Material.from_lame(mu=303e3, lam=7.3e6, h=1e-3)
        assert mat.e == pytest.approx(303e3 * (3 * 7.3e6 + 2 * 303e3) / (7.3e6 + 303e3))
        assert mat.nu == pytest.approx(7.3e6 / (2 * (7.3e6 + 303e3)))


class TestStress:
    def test_zero_strain(self):
        mat = Material(e=2.0, nu=0.25, h=0.3)
        s = stress(stiffness_blocks(mat, I2), np.zeros((2, 6)))
        assert np.array_equal(s, np.zeros((2, 6)))

    def test_pure_membrane_stretch(self):
        mat = Material(e=7.0, nu=0.3, h=0.05)
        blocks = stiffness_blocks(mat, I2)
        lam = 1.2
        e = np.zeros((6, 2))
        e[0, 0] = lam - 1
        s = stress(blocks, e.T)
        # matrix-vector oracle: S^a = D^{a0} @ column 0
        assert np.allclose(s[0], blocks[0, 0] @ e[:, 0], atol=1e-15)
        assert np.allclose(s[1], blocks[1, 0] @ e[:, 0], atol=1e-15)
        scale = mat.e * mat.h / (1 - mat.nu**2)
        assert s[0][0] == pytest.approx(scale * (lam - 1))
        # the Poisson response shows up as the transverse component of S^2
        assert s[1][1] == pytest.approx(scale * mat.nu * (lam - 1))

    def test_pure_bending_moment(self):
        kappa = 0.8
        mat = Material(e=9.0, nu=0.0, h=0.1)
        e = np.zeros((6, 2))
        e[4, 0] = kappa
        s = stress(stiffness_blocks(mat, I2), e.T)
        assert s[0][4] == pytest.approx(mat.e * mat.h**3 * kappa / 12.0)

    def test_pure_bending_moment_with_poisson(self):
        # general-nu value carries the H^{1212} = (1-nu) factor
        kappa = 0.8
        mat = Material(e=9.0, nu=0.3, h=0.1)
        e = np.zeros((6, 2))
        e[4, 0] = kappa
        s = stress(stiffness_blocks(mat, I2), e.T)
        expected = mat.e * mat.h**3 * kappa / (12 * (1 + mat.nu))
        assert s[0][4] == pytest.approx(expected)

    def test_exact_linearity(self):
        mat = Material(e=4.0, nu=0.2, h=0.2)
        blocks = stiffness_blocks(mat, I2)
        e1 = RNG.normal(size=(6, 2))
        e2 = RNG.normal(size=(6, 2))
        a, b = 0.7, -1.9
        lhs = stress(blocks, (a * e1 + b * e2).T)
        rhs = a * stress(blocks, e1.T) + b * stress(blocks, e2.T)
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=1e-15 * np.abs(rhs).max())

    def test_self_adjointness(self):
        blocks = stiffness_blocks(Material(e=4.0, nu=0.2, h=0.2), random_spd_metric())
        for _ in range(10):
            e1 = RNG.normal(size=(6, 2))
            e2 = RNG.normal(size=(6, 2))
            p1 = np.sum(stress(blocks, e1.T) * e2.T)
            p2 = np.sum(stress(blocks, e2.T) * e1.T)
            assert p1 == pytest.approx(p2, rel=1e-12)


    def test_batched_matches_per_point(self):
        # leading axes broadcast: (3, 2, 2, 6, 6) blocks against (4, 3, 2, 6) strains
        mat = Material(e=4.0, nu=0.2, h=0.2)
        blocks = np.stack([stiffness_blocks(mat, random_spd_metric()) for _ in range(3)])
        e = RNG.normal(size=(4, 3, 2, 6))
        s = stress(blocks, e)
        assert s.shape == (4, 3, 2, 6)
        for n in range(4):
            for k in range(3):
                for a in range(2):
                    ref = blocks[k, a, 0] @ e[n, k, 0] + blocks[k, a, 1] @ e[n, k, 1]
                    assert np.allclose(s[n, k, a], ref, rtol=1e-14, atol=1e-14)
        total = sum(internal_energy_density(s[n, k], e[n, k])
                    for n in range(4) for k in range(3))
        assert internal_energy_density(s, e) == pytest.approx(total, rel=1e-13)

class TestEnergyDensity:
    def test_zero(self):
        assert internal_energy_density(np.zeros((2, 6)), np.zeros((2, 6))) == 0.0

    def test_quadratic_scaling(self):
        blocks = stiffness_blocks(Material(e=4.0, nu=0.2, h=0.2), I2)
        e = RNG.normal(size=(6, 2))
        d1 = internal_energy_density(stress(blocks, e.T), e.T)
        d2 = internal_energy_density(stress(blocks, 2 * e.T), 2 * e.T)
        assert d2 == pytest.approx(4 * d1, rel=1e-13)

    def test_pure_bending_value(self):
        kappa = 0.8
        mat = Material(e=9.0, nu=0.0, h=0.1)
        e = np.zeros((6, 2))
        e[4, 0] = kappa
        s = stress(stiffness_blocks(mat, I2), e.T)
        expected = -0.5 * kappa * (mat.e * mat.h**3 * kappa / 12.0)
        assert internal_energy_density(s, e.T) == pytest.approx(expected)

    def test_independent_recomputation(self):
        blocks = stiffness_blocks(Material(e=4.0, nu=0.2, h=0.2), random_spd_metric())
        e = RNG.normal(size=(6, 2))
        s = stress(blocks, e.T)
        by_hand = -0.5 * (s[0] @ e[:, 0] + s[1] @ e[:, 1])
        assert internal_energy_density(s, e.T) == pytest.approx(by_hand, rel=1e-14)

    def test_non_positive(self):
        blocks = stiffness_blocks(Material(e=4.0, nu=0.2, h=0.2), I2)
        for _ in range(20):
            e = RNG.normal(size=(6, 2))
            assert internal_energy_density(stress(blocks, e.T), e.T) <= 1e-12


class TestMetricInverse:
    def test_identity_tangents(self):
        assert np.allclose(metric_inverse(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])), I2)

    def test_matches_direct_inverse(self):
        a1 = RNG.normal(size=3)
        a2 = RNG.normal(size=3)
        m = np.array([[a1 @ a1, a1 @ a2], [a1 @ a2, a2 @ a2]])
        assert np.allclose(metric_inverse(a1, a2) @ m, I2, atol=1e-12)


class TestMagneticModulus:
    def test_zero_fraction(self):
        assert magnetic_modulus(324.054e3, 0.0) == 324.054e3

    def test_six_percent(self):
        # direct formula evaluation; the experimental report rounds to 1.19
        factor = magnetic_modulus(1.0, 0.06)
        assert factor == pytest.approx(np.exp(2.5 * 0.06 / (1 - 1.35 * 0.06)), rel=1e-12)
        assert factor == pytest.approx(1.1773, abs=2e-4)
        assert abs(factor - 1.19) < 0.02

    def test_twelve_percent(self):
        factor = magnetic_modulus(1.0, 0.12)
        assert factor == pytest.approx(1.4305, abs=2e-4)
        assert abs(factor - 1.45) < 0.025

    def test_domain(self):
        with pytest.raises(ValueError):
            magnetic_modulus(1.0, 1 / 1.35)
        with pytest.raises(ValueError):
            magnetic_modulus(1.0, -0.01)
