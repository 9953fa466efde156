"""Solver tests: linear solve contract, multiplicative updates, Newton runs.

The twist-update patch test compares the carried twists after an update with
central finite differences of the analytically composed pose field
g0(xi) exp(eta(xi)^) on a single element, which is the defining property of
the update rule.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dexp_series
from se3shell import solver
from se3shell.constitutive import Material
from se3shell.fem import FemModel
from se3shell.kinematics import (
    build_flat_plate,
    deformation_twists,
    transform_reference,
)
from se3shell.liegroup import Ad, exp_se3, exp_so3, inv_pose
from se3shell.mesh import DN_PTS_PARENT, N_PTS, build_mesh, shape_values
from se3shell.scenario import build_model, load_bundled
from se3shell.solver import (
    SingularSystemError,
    SolverSettings,
    StepRejected,
    accumulated_edge_rotation,
    newton_step,
    run,
    update_configuration,
    update_twists,
)

RNG = np.random.default_rng(2024)


def cantilever(nx=10, ny=1, lx=1.0, ly=0.2, e=200e9, nu=0.0, h=0.01):
    mesh = build_mesh(build_flat_plate(lx, ly), nx, ny)
    mesh.clamp_edge("xi1_min")
    return FemModel(mesh, Material(e=e, nu=nu, h=h))


class TestNewtonStep:
    def test_zero_rhs(self):
        a = sp.identity(12, format="csr")
        eta, res = newton_step(a, np.zeros(12))
        assert np.array_equal(eta, np.zeros(12))

    def test_scalar_analogue(self):
        a = sp.csr_matrix(np.array([[4.0]]))
        eta, _ = newton_step(a, np.array([8.0]))
        assert eta[0] == pytest.approx(2.0)

    def test_random_spd_residual(self):
        for n in (40, 900):
            m = RNG.normal(size=(n, n))
            a = m @ m.T + n * np.eye(n)
            b = RNG.normal(size=n)
            a_sp = sp.csr_matrix(a)
            eta, rel = newton_step(a_sp, b)
            assert rel < 1e-10
            assert np.linalg.norm(a @ eta - b) / np.linalg.norm(b) < 1e-10

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix_reports_condition(self):
        a = sp.csr_matrix(np.zeros((4, 4)))
        with pytest.raises(SingularSystemError):
            newton_step(a, np.ones(4))


class TestUpdateConfiguration:
    def test_zero_increment(self):
        model = cantilever()
        before = model.mesh.state.g_nodes.copy()
        update_configuration(model.mesh, np.zeros(model.mesh.n_dofs))
        assert np.array_equal(model.mesh.state.g_nodes, before)

    def test_pure_translation(self):
        model = cantilever(nx=2)
        eta = np.zeros((model.mesh.n_nodes, 6))
        eta[:, :3] = [0.1, -0.2, 0.3]
        p0 = model.mesh.state.g_nodes[:, :3, 3].copy()
        r0 = model.mesh.state.g_nodes[:, :3, :3].copy()
        update_configuration(model.mesh, eta)
        # R = I at reference: positions shift by R v = v, rotations unchanged
        assert np.allclose(model.mesh.state.g_nodes[:, :3, 3], p0 + eta[:, :3])
        assert np.allclose(model.mesh.state.g_nodes[:, :3, :3], r0)

    def test_large_rotation_rejected(self):
        model = cantilever(nx=2)
        eta = np.zeros((model.mesh.n_nodes, 6))
        eta[-1, 4] = np.pi / 2 + 0.01
        with pytest.raises(StepRejected):
            update_configuration(model.mesh, eta)


class TestUpdateTwists:
    def test_zero_increment(self):
        model = cantilever(nx=3)
        before = model.mesh.state.zeta_pts.copy()
        update_twists(model.mesh, np.zeros(model.mesh.n_dofs))
        assert np.allclose(model.mesh.state.zeta_pts, before, atol=1e-15)

    def test_constant_increment_is_frame_change(self):
        model = cantilever(nx=3)
        eta_c = RNG.normal(size=6) * 0.3
        eta = np.tile(eta_c, (model.mesh.n_nodes, 1))
        before = model.mesh.state.zeta_pts.copy()
        update_twists(model.mesh, eta)
        expected = np.einsum(
            "qr,epar->epaq", Ad(inv_pose(exp_se3(eta_c))), before)
        assert np.allclose(model.mesh.state.zeta_pts, expected, atol=1e-12)

    def test_patch_against_analytic_field(self):
        # single element; compare carried twists with finite differences of
        # the composed field g0(xi) exp(eta(xi)^)
        lx, ly = 0.6, 0.4
        surface = build_flat_plate(lx, ly)
        mesh = build_mesh(surface, 1, 1)
        eta_nodes = 0.3 * RNG.normal(size=(4, 6))

        def eta_field(x1, x2):
            px, py = 2 * x1 / lx - 1, 2 * x2 / ly - 1
            n = shape_values(np.array([[px, py]]))[0]
            # interpolation follows the mesh's CCW connectivity
            return sum(n[i] * eta_nodes[mesh.conn[0][i]] for i in range(4))

        def g_new(x1, x2):
            return surface.pose_at(x1, x2) @ exp_se3(eta_field(x1, x2))

        eta_flat = eta_nodes.reshape(-1)
        update_twists(mesh, eta_flat)
        # centroid point
        z1, z2 = deformation_twists(g_new, lx / 2, ly / 2, step=1e-6)
        assert np.allclose(mesh.state.zeta_pts[0, 0, 0], z1, atol=1e-6)
        assert np.allclose(mesh.state.zeta_pts[0, 0, 1], z2, atol=1e-6)
        # a gauss point
        gx = lx / 2 + lx / 2 / np.sqrt(3)
        gy = ly / 2 - ly / 2 / np.sqrt(3)
        z1g, z2g = deformation_twists(g_new, gx, gy, step=1e-6)
        assert np.allclose(mesh.state.zeta_pts[0, 2, 0], z1g, atol=1e-6)
        assert np.allclose(mesh.state.zeta_pts[0, 2, 1], z2g, atol=1e-6)

    @pytest.mark.parametrize("name", ["rollup_6pi", "magnetic_plate_A"])
    def test_matches_matrix_composition(self, name):
        # the fused closed-form update against Ad(inv_pose(exp_se3)) and the
        # dexp series applied to the interpolated field at all five points
        mesh = build_model(load_bundled(name)).mesh
        le1, le2 = mesh.le
        dn_pts = DN_PTS_PARENT * np.array([2.0 / le1, 2.0 / le2])
        for amp in (1e-9, 1e-6, 1e-3, 0.1, 0.6, 1.2):
            eta = amp * RNG.normal(size=(mesh.n_nodes, 6))
            eta_el = eta[mesh.conn]
            eta_p = np.einsum("pi,eik->epk", N_PTS, eta_el)
            deta_p = np.einsum("pia,eik->epak", dn_pts, eta_el)
            zeta, r = mesh.state.zeta_pts.copy(), mesh.state.r_pts.copy()
            expected = (np.einsum("epqr,epar->epaq", Ad(inv_pose(exp_se3(eta_p))), zeta)
                        + np.einsum("epqr,epar->epaq", dexp_series(eta_p), deta_p))
            update_twists(mesh, eta.ravel())
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(mesh.state.zeta_pts - expected)) < 1e-13 * scale
            assert np.max(np.abs(mesh.state.r_pts - r @ exp_so3(eta_p[..., 3:]))) < 1e-14

    def test_strain_equivalence_after_two_updates(self):
        # composing two updates stays consistent with the composed pose field
        lx, ly = 0.5, 0.5
        surface = build_flat_plate(lx, ly)
        mesh = build_mesh(surface, 1, 1)
        etas = [0.2 * RNG.normal(size=(4, 6)) for _ in range(2)]

        def field(k):
            def f(x1, x2):
                px, py = 2 * x1 / lx - 1, 2 * x2 / ly - 1
                n = shape_values(np.array([[px, py]]))[0]
                return sum(n[i] * etas[k][mesh.conn[0][i]] for i in range(4))
            return f

        def g_new(x1, x2):
            g = surface.pose_at(x1, x2)
            for k in range(2):
                g = g @ exp_se3(field(k)(x1, x2))
            return g

        for k in range(2):
            update_twists(mesh, etas[k].reshape(-1))
        z1, z2 = deformation_twists(g_new, lx / 2, ly / 2, step=1e-6)
        assert np.allclose(mesh.state.zeta_pts[0, 0, 0], z1, atol=1e-6)
        assert np.allclose(mesh.state.zeta_pts[0, 0, 1], z2, atol=1e-6)


class TestRun:
    def test_zero_load(self):
        model = cantilever()
        report = run(model, SolverSettings(load_steps=1))
        assert report.converged
        assert report.steps[0].iterations == 1
        assert np.allclose(model.mesh.state.g_nodes, model.mesh.g0_nodes)

    def test_small_load_matches_beam_theory(self):
        e, lx, ly, h = 200e9, 1.0, 0.2, 0.01
        inertia = ly * h**3 / 12
        p = 100.0
        model = cantilever(nx=20, ny=1, lx=lx, ly=ly, e=e, h=h)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, p / ly, 0, 0, 0]),
                                 frame="dead")
        report = run(model, SolverSettings(load_steps=1))
        assert report.converged
        tip = model.mesh.tip_node()
        dz = model.mesh.state.g_nodes[tip, 2, 3]
        assert dz == pytest.approx(p * lx**3 / (3 * e * inertia), rel=0.01)

    def test_quadratic_convergence_window(self):
        model = cantilever(nx=10)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 5e4, 0, 0, 0]),
                                 frame="dead")
        report = run(model, SolverSettings(load_steps=4))
        assert report.converged
        # near the root, r_{k+1} <= C r_k^2 with moderate C
        for rec in report.steps:
            tail = [r for r in rec.residuals if r < 1e-2 * rec.residuals[0]]
            for r0, r1 in zip(tail[:-1], tail[1:]):
                assert r1 < 10.0 * r0**2 / max(r0, 1e-30) or r1 < 1e-10

    def test_two_step_paths_reach_same_equilibrium(self):
        e2, l2, w2, h2 = 12e6, 10.0, 1.0, 0.1
        m_full = 2 * np.pi * e2 * (w2 * h2**3 / 12) / l2 * 0.5
        tips = []
        for steps in (5, 10):
            mesh = build_mesh(build_flat_plate(l2, w2), 30, 1)
            mesh.clamp_edge("xi1_min")
            mesh.add_edge_load("xi1_max", np.array([0, 0, 0, 0, m_full / w2, 0]),
                               frame="follower")
            model = FemModel(mesh, Material(e=e2, nu=0.0, h=h2))
            rep = run(model, SolverSettings(load_steps=steps, tol_relative=1e-11))
            assert rep.converged
            tips.append(mesh.state.g_nodes[mesh.tip_node(), :3, 3].copy())
        assert np.allclose(tips[0], tips[1], atol=1e-6 * l2)

    def test_objectivity_of_the_solve(self):
        h_rigid = exp_se3(np.array([0.3, -0.7, 0.5, 0.4, 0.3, -0.6]))
        p = 5e4
        finals = []
        for transform in (None, h_rigid):
            surface = build_flat_plate(1.0, 0.2)
            wrench = np.array([0, 0, p / 0.2, 0, 0, 0])
            if transform is not None:
                surface = transform_reference(surface, transform)
                rot = transform[:3, :3]
                wrench = np.concatenate([rot @ wrench[:3], rot @ wrench[3:]])
            mesh = build_mesh(surface, 10, 1)
            mesh.clamp_edge("xi1_min")
            mesh.add_edge_load("xi1_max", wrench, frame="dead")
            model = FemModel(mesh, Material(e=200e9, nu=0.0, h=0.01))
            rep = run(model, SolverSettings(load_steps=2))
            assert rep.converged
            finals.append(mesh.state.g_nodes[mesh.tip_node()].copy())
        mapped = h_rigid @ finals[0]
        assert np.allclose(mapped, finals[1], atol=1e-8)

    def test_energy_consistency_at_convergence(self):
        # conservative dead force: the total potential is stationary, checked
        # by finite differences of Pi = elastic - sum dead . displacement
        p = 2e4
        model = cantilever(nx=8, ny=1)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, p / 0.2, 0, 0, 0]),
                                 frame="dead")
        rep = run(model, SolverSettings(load_steps=2))
        assert rep.converged
        mesh = model.mesh

        def potential():
            elastic, _ = model.energies(1.0)
            work = 0.0
            for ld in mesh.neumann:
                for node, weight in zip(ld.nodes, ld.weights):
                    disp = mesh.state.g_nodes[node, :3, 3] - mesh.g0_nodes[node, :3, 3]
                    work += weight * (ld.wrench[:3] @ disp)
            return elastic - work

        free = mesh.free_dofs()
        base = mesh.state.copy()
        pi0 = potential()
        scale = max(abs(pi0), 1.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            direction = np.zeros(mesh.n_dofs)
            direction[free] = rng.normal(size=len(free))
            direction /= np.linalg.norm(direction)
            eps = 1e-6
            mesh.state = base.copy()
            update_configuration(mesh, eps * direction)
            update_twists(mesh, eps * direction)
            pi_p = potential()
            mesh.state = base.copy()
            update_configuration(mesh, -eps * direction)
            update_twists(mesh, -eps * direction)
            pi_m = potential()
            deriv = (pi_p - pi_m) / (2 * eps)
            assert abs(deriv) < 1e-4 * scale
        mesh.state = base

    def test_monotone_mesh_convergence(self):
        # end-shear tip deflection converges monotonically after the first
        # refinement as elements double 10 -> 20 -> 40
        e, lx, ly, h = 200e9, 1.0, 0.2, 0.01
        p = 2.0e5  # strongly nonlinear
        tips = []
        for nx in (10, 20, 40, 80):
            model = cantilever(nx=nx, ny=1, lx=lx, ly=ly, e=e, h=h)
            model.mesh.add_edge_load("xi1_max", np.array([0, 0, p / ly, 0, 0, 0]),
                                     frame="dead")
            rep = run(model, SolverSettings(load_steps=5))
            assert rep.converged
            tips.append(model.mesh.state.g_nodes[model.mesh.tip_node(), 2, 3])
        ref = tips[-1]
        errs = [abs(t - ref) for t in tips[:-1]]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]

    def test_singular_tangent_rejects_the_attempt(self, monkeypatch):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e3, 0, 0, 0]),
                                 frame="dead")

        def singular(a, b):
            raise SingularSystemError("singular or ill-posed tangent "
                                      "(1-norm estimate 0.000e+00)")

        monkeypatch.setattr(solver, "newton_step", singular)
        report = run(model, SolverSettings(load_steps=1), max_halvings=2)
        assert not report.converged
        assert "singular or ill-posed tangent" in report.message
        assert "1-norm estimate" in report.message

    def test_unsolved_linear_system_rejects_the_attempt(self, monkeypatch):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e3, 0, 0, 0]),
                                 frame="dead")
        updates = []
        monkeypatch.setattr(solver, "newton_step",
                            lambda a, b: (np.zeros_like(b), 2.0e-6))
        monkeypatch.setattr(solver, "update_configuration",
                            lambda mesh, eta: updates.append(eta))
        report = run(model, SolverSettings(load_steps=1), max_halvings=0)
        assert not report.converged
        assert "linear residual 2.000e-06" in report.message
        assert report.max_linear_residual == 2.0e-6
        assert updates == []

    def test_rotation_rejection_reason_kept(self):
        e, length, width, h = 12e6, 10.0, 1.0, 0.1
        m_full = 2 * np.pi * e * (width * h**3 / 12) / length
        mesh = build_mesh(build_flat_plate(length, width), 20, 1)
        mesh.clamp_edge("xi1_min")
        mesh.add_edge_load("xi1_max", np.array([0, 0, 0, 0, m_full / width, 0]),
                           frame="follower")
        model = FemModel(mesh, Material(e=e, nu=0.0, h=h))
        report = run(model, SolverSettings(load_steps=1), max_halvings=0)
        assert not report.converged
        assert "rotation increment" in report.message

    def test_non_convergence_reported(self):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e9, 0, 0, 0]),
                                 frame="dead")
        report = run(model, SolverSettings(load_steps=1, max_iters=3),
                     max_halvings=1)
        assert not report.converged
        assert report.message != ""


class TestAccumulatedRotation:
    def test_reference_is_zero(self):
        model = cantilever(nx=5)
        assert accumulated_edge_rotation(model.mesh, np.array([0, 1, 0])) == 0.0

    def test_rolled_strip(self):
        e2, l2, w2, h2 = 12e6, 10.0, 1.0, 0.1
        m_full = 2 * np.pi * e2 * (w2 * h2**3 / 12) / l2
        mesh = build_mesh(build_flat_plate(l2, w2), 40, 1)
        mesh.clamp_edge("xi1_min")
        mesh.add_edge_load("xi1_max", np.array([0, 0, 0, 0, 0.5 * m_full / w2, 0]),
                           frame="follower")
        model = FemModel(mesh, Material(e=e2, nu=0.0, h=h2))
        rep = run(model, SolverSettings(load_steps=10))
        assert rep.converged
        rot = accumulated_edge_rotation(mesh, np.array([0.0, 1.0, 0.0]))
        assert abs(rot) == pytest.approx(np.pi, rel=1e-3)
