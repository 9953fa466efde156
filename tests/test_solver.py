"""Solver tests: linear solve contract, multiplicative updates, Newton runs.

The twist-update patch test compares the carried twists after an update with
central finite differences of the analytically composed pose field
g0(xi) exp(eta(xi)^) on a single element, which is the defining property of
the update rule.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    SINGULAR_REASON,
    band_matrix,
    build_gauss_model,
    capture_factors,
    deformation_twists,
    dexp_series,
    reject_first_solve,
    transform_reference,
)
from se3shell import solver
from se3shell.constitutive import Material
from se3shell.fem import FemModel
from se3shell.kinematics import build_flat_plate
from se3shell.liegroup import Ad, exp_se3, exp_so3, inv_pose, log_so3
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


def cantilever(nx=10, ny=1, lx=1.0, ly=0.2, e=200e9, nu=0.0, h=0.01, scheme="centroid"):
    mesh = build_mesh(build_flat_plate(lx, ly), nx, ny)
    mesh.clamp_edge("xi1_min")
    return FemModel(mesh, Material(e=e, nu=nu, h=h), scheme=scheme)


def first_tangent(name):
    cfg = load_bundled(name)
    return build_model(cfg).build_system(1.0 / cfg.solver.load_steps)


class TestNewtonStep:
    def test_zero_rhs(self):
        a = band_matrix(sp.identity(12))
        eta, res = newton_step(a, np.zeros(12))
        assert np.array_equal(eta, np.zeros(12))

    def test_scalar_analogue(self):
        a = band_matrix(np.array([[4.0]]))
        eta, _ = newton_step(a, np.array([8.0]))
        assert eta[0] == pytest.approx(2.0)

    def test_random_spd_residual(self):
        for n in (40, 900):
            m = RNG.normal(size=(n, n))
            a = m @ m.T + n * np.eye(n)
            b = RNG.normal(size=n)
            eta, rel = newton_step(band_matrix(a), b)
            assert rel < 1e-10
            assert np.linalg.norm(a @ eta - b) / np.linalg.norm(b) < 1e-10

    @staticmethod
    def zero_diagonal_matrix(n_blocks=30):
        """Structurally symmetric, nonsingular, every diagonal entry zero."""
        rng = np.random.default_rng(7)
        swap = sp.kron(sp.identity(n_blocks), np.array([[0.0, 1.0], [1.0, 0.0]]))
        n = 2 * n_blocks
        coupling = (sp.diags(0.1 * rng.normal(size=n - 2), 2)
                    + sp.diags(0.1 * rng.normal(size=n - 2), -2))
        return sp.csc_matrix(swap + coupling)

    def test_zero_diagonal_is_pivoted_off(self):
        a = self.zero_diagonal_matrix()
        assert np.all(a.diagonal() == 0.0)
        b = RNG.normal(size=a.shape[0])
        eta, rel = newton_step(band_matrix(a), b)
        assert rel < 1e-12
        assert np.linalg.norm(a @ eta - b) / np.linalg.norm(b) < 1e-12

    def test_csr_input_refused(self):
        # only the band layout of build_system is solved; any other format,
        # or a band whose offsets do not descend, is a caller's error
        a = self.zero_diagonal_matrix()
        b = RNG.normal(size=a.shape[0])
        band = band_matrix(a)
        ascending = sp.dia_matrix((band.data[::-1], band.offsets[::-1]), shape=a.shape)
        for other in (sp.csr_matrix(a), a.tocoo(), a.toarray(), ascending):
            with pytest.raises(TypeError, match="band of build_system"):
                newton_step(other, b)

    def test_plate_factors_with_diagonal_pivots(self, monkeypatch):
        # first tangent of magnetic_plate_A: pivoting keeps the fill inside
        # the band, as diagonal pivots kept it inside the minimum-degree fill
        # of a sparse LU.  Every row interchange stays within kl rows below
        # the diagonal, so the factor fits the (2 kl + ku + 1, m) work array
        system = first_tangent("magnetic_plate_A")
        factors = capture_factors(monkeypatch)
        _, rel = newton_step(system.a, system.b)
        assert rel < solver.MAX_LINEAR_RESIDUAL
        (lu,) = factors
        assert (lu.kl, lu.ku, lu.info) == (107, 107, 0)
        drop = lu.piv - np.arange(len(lu.piv))
        assert drop.min() >= 0 and drop.max() <= lu.kl

    @pytest.mark.parametrize("name", ["rollup_6pi", "magnetic_plate_A"])
    def test_factor_order_keeps_minimum_degree_fill(self, name, monkeypatch):
        # the factor order is the grid order, which keeps the band, and with
        # it the fill and work of the band LU, at 6 (min(nx, ny) + 3) - 1;
        # the same free DOFs in ascending order give a wider band
        width = {"rollup_6pi": 23, "magnetic_plate_A": 107}[name]
        cfg = load_bundled(name)
        model = build_model(cfg)
        system = model.build_system(1.0 / cfg.solver.load_steps)
        factors = capture_factors(monkeypatch)
        newton_step(system.a, system.b)
        (lu,) = factors
        assert (lu.kl, lu.ku) == (width, width)
        assert system.a.offsets[0] == -system.a.offsets[-1] == width
        ascending = model.assemble(model.element_kernels(), np.sort(system.free))
        assert ascending.offsets[0] > width

    def test_compact_band_solves_like_the_coo_path(self, monkeypatch):
        # the plate band stores 69 of its 215 diagonals; the same matrix
        # converted through COO into the full band with kl = ku = 107 factors
        # into the same LU and gives the same increment bit for bit
        system = first_tangent("magnetic_plate_A")
        a, b = system.a, system.b
        assert len(a.offsets) == 69
        full_band = band_matrix(a)
        assert len(full_band.offsets) == 215
        factors = capture_factors(monkeypatch)
        eta, rel = newton_step(a, b)
        assert np.array_equal(newton_step(full_band, b)[0], eta)
        assert all((f.kl, f.ku, f.info) == (107, 107, 0) for f in factors)
        assert np.array_equal(factors[1].piv, factors[0].piv)
        assert np.array_equal(factors[1].lu, factors[0].lu)

    def test_refinement_stops_at_the_roundoff_floor(self, monkeypatch):
        # eps*cond of the first plate tangent is about 1e-8, far above the
        # 1e-12 target: after one sweep that cannot halve the residual, stop
        system = first_tangent("magnetic_plate_A")
        solves = []
        dgbtrs = solver.lapack.dgbtrs

        def counted(*args, **kwargs):
            solves.append(args)
            return dgbtrs(*args, **kwargs)

        monkeypatch.setattr(solver.lapack, "dgbtrs", counted)
        _, rel = newton_step(system.a, system.b)
        assert 1 <= len(solves) <= 2
        assert rel < solver.MAX_LINEAR_RESIDUAL

    def test_zero_row_band_tangent_is_singular(self, monkeypatch):
        # a zero row is never chosen as a pivot and never updated, so the
        # factorization ends on an exactly zero pivot and reports info > 0
        system = first_tangent("rollup_6pi")
        a = system.a
        m, ku = a.shape[0], a.offsets[0]
        row = m // 2
        cols = np.arange(m)
        slot = ku + row - cols
        inside = (slot >= 0) & (slot < len(a.offsets))
        a.data[slot[inside], cols[inside]] = 0.0
        assert not np.any(a.toarray()[row])
        factors = capture_factors(monkeypatch)
        monkeypatch.setattr(solver.lapack, "dgbtrs", None)  # never reached
        with pytest.raises(SingularSystemError, match="1-norm estimate"):
            newton_step(a, system.b)
        (lu,) = factors
        assert lu.info > 0

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix_reports_condition(self):
        a = band_matrix(np.zeros((4, 4)))
        with pytest.raises(SingularSystemError):
            newton_step(a, np.ones(4))


class TestUpdateConfiguration:
    def test_zero_increment(self):
        model = cantilever()
        before = model.mesh.state.g_nodes.copy()
        update_configuration(model.mesh, np.zeros(model.mesh.n_dofs))
        assert np.array_equal(model.mesh.state.g_nodes, before)

    @staticmethod
    def drifted(size):
        """A cantilever in a rotated state whose node 3 rotation is pushed
        off SO(3) by `size`, with that rotation before the push."""
        model = cantilever()
        update_configuration(model.mesh, 0.3 * RNG.normal(size=model.mesh.n_dofs))
        g = model.mesh.state.g_nodes
        r = g[3, :3, :3].copy()
        g[3, :3, :3] = r @ (np.eye(3) + size * np.diag([1.0, -0.5, 0.3]))
        return model, r

    def test_drift_is_projected_back_onto_so3(self):
        model, r = self.drifted(1e-9)
        g = model.mesh.state.g_nodes
        assert np.abs(g[3, :3, :3].T @ g[3, :3, :3] - np.eye(3)).max() > 1e-12
        update_configuration(model.mesh, np.zeros(model.mesh.n_dofs))
        rot = model.mesh.state.g_nodes[:, :3, :3]
        assert np.abs(np.swapaxes(rot, -1, -2) @ rot - np.eye(3)).max() <= 1e-14
        assert np.linalg.norm(log_so3(r.T @ rot[3])) < 1e-8

    def test_drift_below_threshold_is_left_alone(self):
        model, _ = self.drifted(1e-14)
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
        # dexp series applied to the interpolated field at the carried points:
        # twists at the centroid or, for FemModel(scheme="gauss"), the Gauss points;
        # rotations at the Gauss points on the magnetized plate only
        for build, twist_points in ((build_model, [0]), (build_gauss_model, [1, 2, 3, 4])):
            mesh = build(load_bundled(name)).mesh
            assert np.array_equal(mesh.state.twist_points, twist_points)
            assert mesh.state.r_pts.shape[1] == (4 if name == "magnetic_plate_A" else 0)
            le1, le2 = mesh.le
            dn_pts = DN_PTS_PARENT * np.array([2.0 / le1, 2.0 / le2])
            for amp in (1e-9, 1e-6, 1e-3, 0.1, 0.6, 1.2):
                eta = amp * RNG.normal(size=(mesh.n_nodes, 6))
                eta_el = eta[mesh.conn]
                eta_p = np.einsum("pi,eik->epk", N_PTS, eta_el)
                deta_p = np.einsum("pia,eik->epak", dn_pts, eta_el)[:, twist_points]
                zeta, r = mesh.state.zeta_pts.copy(), mesh.state.r_pts.copy()
                expected = (np.einsum("epqr,epar->epaq",
                                      Ad(inv_pose(exp_se3(eta_p[:, twist_points]))), zeta)
                            + np.einsum("epqr,epar->epaq",
                                        dexp_series(eta_p[:, twist_points]), deta_p))
                update_twists(mesh, eta.ravel())
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(mesh.state.zeta_pts - expected)) < 1e-13 * scale
                rotations = r @ exp_so3(eta_p[:, 1:, 3:])[:, :r.shape[1]]
                assert np.max(np.abs(mesh.state.r_pts - rotations), initial=0.0) < 1e-14

    @pytest.mark.parametrize("name, calls", [("rollup_6pi", 0), ("magnetic_plate_A", 1)])
    def test_rotations_formed_only_where_carried(self, name, calls, monkeypatch):
        # exp_so3 runs once per update, on the Gauss-point rotations of a
        # magnetized mesh; the twist update of a strip forms no rotation
        mesh = build_model(load_bundled(name)).mesh
        formed = []
        exp = solver.exp_so3

        def counted(w):
            formed.append(w.shape)
            return exp(w)

        monkeypatch.setattr(solver, "exp_so3", counted)
        update_twists(mesh, 0.1 * RNG.normal(size=mesh.n_dofs))
        assert formed == [(mesh.n_elements, 4, 3)] * calls

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

    @pytest.mark.parametrize("loading,scheme", [("dead", "centroid"), ("dead", "gauss"),
                                                ("magnetic", "centroid"),
                                                ("magnetic", "gauss")])
    def test_energy_consistency_at_convergence(self, loading, scheme):
        # conservative loads: the total potential is stationary, checked by
        # finite differences of Pi = elastic + magnetic - sum dead . displacement
        if loading == "dead":
            p = 2e4
            model = cantilever(nx=8, ny=1, scheme=scheme)
            model.mesh.add_edge_load("xi1_max", np.array([0, 0, p / 0.2, 0, 0, 0]),
                                     frame="dead")
            settings = SolverSettings(load_steps=2)
        else:
            cfg = load_bundled("magnetic_cantilever_lh10")
            model = (build_model if scheme == "centroid" else build_gauss_model)(cfg)
            settings = cfg.solver
        rep = run(model, settings)
        assert rep.converged
        mesh = model.mesh

        def energy():
            elastic, magnetic = model.energies(1.0)
            work = 0.0
            for ld in mesh.neumann:
                for node, weight in zip(ld.nodes, ld.weights):
                    disp = mesh.state.g_nodes[node, :3, 3] - mesh.g0_nodes[node, :3, 3]
                    work += weight * (ld.wrench[:3] @ disp)
            return elastic, magnetic, work

        def potential():
            elastic, magnetic, work = energy()
            return elastic + magnetic - work

        free = mesh.free_dofs()
        base = mesh.state.copy()
        # the magnetic potential is about 1e-4, so scale by the energies
        # themselves rather than by max(1, |Pi|)
        scale = sum(abs(e) for e in energy())
        assert scale > 0.0
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
        monkeypatch.setattr(solver, "MAX_HALVINGS", 2)
        report = run(model, SolverSettings(load_steps=1))
        assert not report.converged
        assert "singular or ill-posed tangent" in report.message
        assert "1-norm estimate" in report.message
        assert [a.category for a in report.attempts] == ["singular_tangent"] * 3
        assert [a.dlam for a in report.attempts] == [1.0, 0.5, 0.25]

    def test_unsolved_linear_system_rejects_the_attempt(self, monkeypatch):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e3, 0, 0, 0]),
                                 frame="dead")
        updates = []
        monkeypatch.setattr(solver, "newton_step",
                            lambda a, b: (np.zeros_like(b), 2.0e-6))
        monkeypatch.setattr(solver, "update_configuration",
                            lambda mesh, eta: updates.append(eta))
        monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
        report = run(model, SolverSettings(load_steps=1))
        assert not report.converged
        assert "linear residual 2.000e-06" in report.message
        assert report.max_linear_residual == 2.0e-6
        assert updates == []
        assert [a.category for a in report.attempts] == ["linear_residual"]

    @pytest.mark.parametrize("source", ["increment", "system"])
    def test_nonfinite_rejects_the_attempt(self, source, monkeypatch):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e3, 0, 0, 0]),
                                 frame="dead")
        if source == "increment":
            monkeypatch.setattr(solver, "newton_step",
                                lambda a, b: (np.full_like(b, np.nan), 0.0))
            reason = "non-finite increment"
        else:
            model.mesh.state.zeta_pts[0, 0, 0, 0] = np.nan
            reason = "non-finite entries in the assembled system"
        monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
        report = run(model, SolverSettings(load_steps=1))
        assert not report.converged
        assert [(a.reason, a.category) for a in report.attempts] == [(reason, "nonfinite")]

    def test_one_factorization_per_newton_step(self, monkeypatch):
        # and none for the ordering, which is the grid order of the mesh
        cfg = load_bundled("magnetic_cantilever_lh10")
        model = build_model(cfg)
        factors = capture_factors(monkeypatch)
        steps = []
        step = solver.newton_step

        def counted_step(a, b):
            steps.append(len(factors))
            return step(a, b)

        monkeypatch.setattr(solver, "newton_step", counted_step)
        report = run(model, cfg.solver)
        assert report.converged
        assert steps[0] == 0
        assert len(factors) == len(steps)
        assert all(lu.info == 0 for lu in factors)

    def test_rejected_attempts_are_recorded(self, monkeypatch):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e3, 0, 0, 0]),
                                 frame="dead")
        reject_first_solve(monkeypatch)
        report = run(model, SolverSettings(load_steps=2))
        assert report.converged
        assert report.rejections == [(1, 0.5, SINGULAR_REASON)]
        assert [rec.load_factor for rec in report.steps] == [0.25, 0.5, 1.0]
        assert [(a.dlam, a.category) for a in report.attempts] == [
            (0.5, "singular_tangent"), (0.25, ""), (0.25, ""), (0.5, "")]

    @staticmethod
    def counted_evaluations(model, monkeypatch):
        evaluations = []
        evaluate = model._evaluate_kernels

        def counted(zeta):
            evaluations.append(None)
            return evaluate(zeta)

        monkeypatch.setattr(model, "_evaluate_kernels", counted)
        return evaluations

    def test_restored_state_reuses_its_kernels(self, monkeypatch):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e3, 0, 0, 0]),
                                 frame="dead")
        evaluations = self.counted_evaluations(model, monkeypatch)
        reject_first_solve(monkeypatch)
        at_build, reused = [], []

        def log(line):
            at_build.append(len(evaluations))
            if len(at_build) == 2:  # first build after the rejection
                reused.append((model.element_kernels(), model.mesh.state.copy()))

        report = run(model, SolverSettings(load_steps=2), log=log)
        assert report.converged
        assert report.rejections == [(1, 0.5, SINGULAR_REASON)]
        assert at_build[:2] == [1, 1]
        # after that, one evaluation per build that does not open an attempt
        assert len(evaluations) == len(at_build) - len(report.steps)
        ((kern, state),) = reused
        mesh = build_mesh(build_flat_plate(1.0, 0.2), 4, 1)
        mesh.state = state
        fresh = FemModel(mesh, model.material).element_kernels()
        for name in ("kmat", "kgeo", "f_int"):
            assert np.array_equal(getattr(kern, name), getattr(fresh, name))

    def test_exhausted_attempt_gets_its_kernels_back(self, monkeypatch):
        # the attempt moves the state before it is rejected; the retry from
        # the restored state reuses the kernels the snapshot carried
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e3, 0, 0, 0]),
                                 frame="dead")
        model.build_system(0.0)
        evaluations = self.counted_evaluations(model, monkeypatch)
        at_build = []
        monkeypatch.setattr(solver, "MAX_HALVINGS", 1)
        report = run(model, SolverSettings(load_steps=1, max_iters=2),
                     log=lambda line: at_build.append(len(evaluations)))
        assert not report.converged and len(report.rejections) == 2
        assert at_build == [0, 1, 1, 2]

    def test_exhausted_iterations_are_recorded(self, monkeypatch):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e3, 0, 0, 0]),
                                 frame="dead")
        monkeypatch.setattr(solver, "MAX_HALVINGS", 1)
        report = run(model, SolverSettings(load_steps=1, max_iters=1))
        assert not report.converged
        assert [(step, lam) for step, lam, _ in report.rejections] == [(1, 1.0), (1, 0.5)]
        assert all(r.startswith("no convergence in 1 iterations, last residual ")
                   for _, _, r in report.rejections)
        assert report.message.endswith(report.rejections[-1][2])
        assert [a.category for a in report.attempts] == ["max_iters"] * 2

    def test_rotation_rejection_reason_kept(self, monkeypatch):
        e, length, width, h = 12e6, 10.0, 1.0, 0.1
        m_full = 2 * np.pi * e * (width * h**3 / 12) / length
        mesh = build_mesh(build_flat_plate(length, width), 20, 1)
        mesh.clamp_edge("xi1_min")
        mesh.add_edge_load("xi1_max", np.array([0, 0, 0, 0, m_full / width, 0]),
                           frame="follower")
        model = FemModel(mesh, Material(e=e, nu=0.0, h=h))
        monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
        report = run(model, SolverSettings(load_steps=1))
        assert not report.converged
        assert "rotation increment" in report.message
        assert [a.category for a in report.attempts] == ["rotation_increment"]

    def test_non_convergence_reported(self, monkeypatch):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e9, 0, 0, 0]),
                                 frame="dead")
        monkeypatch.setattr(solver, "MAX_HALVINGS", 1)
        report = run(model, SolverSettings(load_steps=1, max_iters=3))
        assert not report.converged
        assert report.message != ""


FORCED_REASON = "rotation increment 9.999 rad exceeds pi/2"


def run_with_forced_rejection(name, monkeypatch):
    """Solve a bundled scenario, rejecting the first attempt of load step 2
    as an oversized rotation after its first solve (so after its first
    factorization).  Returns the report, the retry's load factor and a record
    of the retry's first solve: the factorizations it made, its increment,
    its right-hand side and the state it started from."""
    cfg = load_bundled(name)
    model = build_model(cfg)
    factors = capture_factors(monkeypatch)
    flags = {"armed": False, "rejected": False}
    retry = []
    update, step = solver.update_configuration, solver.newton_step

    def log(line):
        if line.split()[:2] == ["2", "1"] and not flags["rejected"]:
            flags["armed"] = True

    def update_or_reject(mesh, eta):
        if flags["armed"]:
            flags["armed"], flags["rejected"] = False, True
            raise StepRejected(FORCED_REASON, "rotation_increment")
        update(mesh, eta)

    def recorded_step(a, b):
        if not flags["rejected"] or retry:
            return step(a, b)
        start, made = model.mesh.state.copy(), len(factors)
        eta, rel = step(a, b)
        retry.append(SimpleNamespace(factorizations=len(factors) - made, eta=eta, b=b,
                                     state=start))
        return eta, rel

    monkeypatch.setattr(solver, "update_configuration", update_or_reject)
    monkeypatch.setattr(solver, "newton_step", recorded_step)
    report = run(model, cfg.solver, log=log)
    assert report.converged, report.message
    reasons = [a.reason for a in report.attempts]
    lam = report.attempts[reasons.index(FORCED_REASON) + 1].load_factor
    (first_solve,) = retry
    return cfg, lam, first_solve


class TestRetrySolve:
    """A retried attempt starts from its load increment's restored snapshot,
    and its first solve assembles and factors its own tangent, as a fresh
    model at that state would."""

    @staticmethod
    def fresh_increment(cfg, lam, state):
        model = build_model(cfg)
        model.mesh.state = state.copy()
        system = model.build_system(lam)
        return system.b, newton_step(system.a, system.b)[0]

    @pytest.mark.parametrize("name", ["rollup_2pi", "end_shear",
                                      "magnetic_cantilever_lh10"])
    def test_retry_factors_anew(self, name, monkeypatch):
        # a follower load (no load-factor term in the tangent), a dead load
        # and a field alike
        cfg, lam, first_solve = run_with_forced_rejection(name, monkeypatch)
        assert first_solve.factorizations == 1
        b, eta = self.fresh_increment(cfg, lam, first_solve.state)
        assert np.array_equal(first_solve.b, b)
        assert np.array_equal(first_solve.eta, eta)

    def test_first_attempt_retry_reuses_kernels(self, monkeypatch):
        # the run's first attempt moves the state once and is rejected at its
        # second update; the retry's first build evaluates no kernels
        cfg = load_bundled("rollup_2pi")
        model = build_model(cfg)
        evaluations = TestRun.counted_evaluations(model, monkeypatch)
        updates, counts, retry = [], [], []
        update, step = solver.update_configuration, solver.newton_step

        def update_or_reject(mesh, eta):
            updates.append(None)
            if len(updates) == 2:
                counts.append(len(evaluations))
                raise StepRejected(FORCED_REASON, "rotation_increment")
            update(mesh, eta)

        def recorded_step(a, b):
            if len(counts) != 1:
                return step(a, b)
            start = model.mesh.state.copy()
            eta, rel = step(a, b)
            counts.append(len(evaluations))
            retry.append((start, b, eta))
            return eta, rel

        monkeypatch.setattr(solver, "update_configuration", update_or_reject)
        monkeypatch.setattr(solver, "newton_step", recorded_step)
        report = run(model, cfg.solver)
        assert report.converged, report.message
        first, second = report.attempts[:2]
        assert (first.reason, first.iterations) == (FORCED_REASON, 2)
        assert counts == [2, 2]
        ((state, b, eta),) = retry
        fresh_b, fresh_eta = self.fresh_increment(cfg, second.load_factor, state)
        assert np.array_equal(b, fresh_b)
        assert np.array_equal(eta, fresh_eta)


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
