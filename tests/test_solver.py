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
from scipy.linalg import lapack

from conftest import (
    SINGULAR_REASON,
    band_to_dense,
    build_gauss_model,
    capture_factors,
    deformation_twists,
    dense_to_band,
    dexp_series,
    increment_mesh,
    reject_first_solve,
    transform_reference,
)
from se3shell import liegroup, solver
from se3shell.constitutive import Material
from se3shell.fem import Band, FemModel
from se3shell.kinematics import build_flat_plate
from se3shell.liegroup import (SERIES_ANGLE, SMALL_ANGLE, Ad, carried_update, exp_se3,
                                exp_so3, inv_pose, log_so3)
from se3shell.mesh import DN_PTS_PARENT, N_PTS, build_mesh, shape_values
from se3shell.scenario import build_model, list_bundled, load_bundled
from se3shell.solver import (
    SolverSettings,
    StepRejected,
    accumulated_edge_rotation,
    apply_increment_field,
    newton_step,
    project_rotations,
    run,
)

RNG = np.random.default_rng(2024)
# rotation angles of the update tests: zero, below SMALL_ANGLE, on both sides
# of SERIES_ANGLE and up to pi/2, the largest nodal rotation accepted (less
# a margin for the rounding of the rotation vectors)
UPDATE_ANGLES = [0.0, 0.5 * SMALL_ANGLE, 2.0 * SMALL_ANGLE, 0.3,
                 SERIES_ANGLE * (1 - 1e-9), SERIES_ANGLE * (1 + 1e-9), np.pi / 2 * (1 - 1e-12)]


def capped_rotations(eta, angle):
    """Nodal increments (n, 6) with every rotation longer than `angle`
    shortened to it."""
    norms = np.linalg.norm(eta[:, 3:], axis=1, keepdims=True)
    eta[:, 3:] *= np.minimum(1.0, angle / np.maximum(norms, 1e-300))
    return eta


def cantilever(nx=10, ny=1, lx=1.0, ly=0.2, e=200e9, nu=0.0, h=0.01, scheme="centroid"):
    mesh = build_mesh(build_flat_plate(lx, ly), nx, ny)
    mesh.clamp_edge("xi1_min")
    return FemModel(mesh, Material(e=e, nu=nu, h=h), scheme=scheme)


def residual_error(dense, b, x, r):
    """The largest difference of `r` from b - A x by a dense product,
    relative to the largest |b| + |A| |x|, the size of its roundoff."""
    scale = (np.abs(b) + np.abs(dense) @ np.abs(x)).max()
    return np.abs(r - (b - dense @ x)).max() / scale


def first_tangent(name):
    cfg = load_bundled(name)
    return build_model(cfg).build_system(1.0 / cfg.solver.load_steps)


class TestNewtonStep:
    def test_zero_rhs(self):
        a = dense_to_band(sp.identity(12))
        eta, res, _ = newton_step(a, np.zeros(12))
        assert np.array_equal(eta, np.zeros(12))

    def test_scalar_analogue(self):
        a = dense_to_band(np.array([[4.0]]))
        eta = newton_step(a, np.array([8.0]))[0]
        assert eta[0] == pytest.approx(2.0)

    def test_random_spd_residual(self):
        for n in (40, 900):
            m = RNG.normal(size=(n, n))
            a = m @ m.T + n * np.eye(n)
            b = RNG.normal(size=n)
            eta, rel, _ = newton_step(dense_to_band(a), b)
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
        eta, rel, _ = newton_step(dense_to_band(a), b)
        assert rel < 1e-12
        assert np.linalg.norm(a @ eta - b) / np.linalg.norm(b) < 1e-12

    def test_plate_factors_with_diagonal_pivots(self, monkeypatch):
        # first tangent of magnetic_plate_A: pivoting keeps the fill inside
        # the band, as diagonal pivots kept it inside the minimum-degree fill
        # of a sparse LU.  Every row interchange stays within kl rows below
        # the diagonal, so the factor fits the (2 kl + ku + 1, m) work array
        system = first_tangent("magnetic_plate_A")
        factors = capture_factors(monkeypatch)
        rel = newton_step(system.a, system.b)[1]
        assert rel < solver.MAX_LINEAR_RESIDUAL
        (lu,) = factors
        assert (lu.kl, lu.ku, lu.info) == (107, 107, 0)
        drop = lu.piv - np.arange(len(lu.piv))
        assert drop.min() >= 0 and drop.max() <= lu.kl

    @pytest.mark.parametrize("name", ["rollup_6pi", "magnetic_plate_A"])
    def test_factor_order_keeps_minimum_degree_fill(self, name, monkeypatch):
        # the factor order is the grid order, which keeps the band, and with
        # it the fill and work of the band LU, at 6 (min(nx, ny) + 3) - 1;
        # the same free DOFs in ascending order give a wider band: the widest
        # element, read from the connectivity, spans more positions
        width = {"rollup_6pi": 23, "magnetic_plate_A": 107}[name]
        cfg = load_bundled(name)
        model = build_model(cfg)
        system = model.build_system(1.0 / cfg.solver.load_steps)
        factors = capture_factors(monkeypatch)
        newton_step(system.a, system.b)
        (lu,) = factors
        assert (lu.kl, lu.ku) == (width, width)
        assert system.a.ku == system.a.kl == width
        mesh = model.mesh
        pos = np.full(mesh.n_dofs, -1)
        pos[np.sort(system.free)] = np.arange(len(system.free))
        el = pos[6 * mesh.conn[:, :, None] + np.arange(6)].reshape(mesh.n_elements, -1)
        ascending = np.max(el.max(axis=1) - np.where(el < 0, el.max(), el).min(axis=1))
        assert ascending > width

    def test_compact_band_solves_like_the_coo_path(self, monkeypatch):
        # the plate band stores 69 of its 215 diagonals; the same matrix
        # converted through COO into the full band, all 215 diagonals in one
        # run, factors into the same LU and gives the same increment bit for bit
        system = first_tangent("magnetic_plate_A")
        a, b = system.a, system.b
        assert sum(len(run) for _, run in a.runs) == 69
        full_band = dense_to_band(band_to_dense(a), full=True)
        assert [(top, len(run)) for top, run in full_band.runs] == [(107, 215)]
        factors = capture_factors(monkeypatch)
        eta = newton_step(a, b)[0]
        assert np.array_equal(newton_step(full_band, b)[0], eta)
        assert all((f.kl, f.ku, f.info) == (107, 107, 0) for f in factors)
        assert np.array_equal(factors[1].piv, factors[0].piv)
        assert np.array_equal(factors[1].lu, factors[0].lu)

    @pytest.mark.parametrize("name, runs", [("rollup_6pi", 1), ("magnetic_plate_A", 3)])
    def test_residual_matches_the_dense_product(self, name, runs):
        # the residual of the stored runs, one dgbmv each with its column
        # shift, is b - A eta of the dense tangent up to roundoff
        system = first_tangent(name)
        a, b = system.a, system.b
        assert len(a.runs) == runs
        dense = band_to_dense(a)
        eta, rel, _ = newton_step(a, b)
        r = a.residual(b, eta)
        assert rel == float(np.linalg.norm(r)) / float(np.linalg.norm(b))
        assert residual_error(dense, b, eta, r) <= 1e-12
        x = RNG.normal(size=len(b))
        assert residual_error(dense, b, x, a.residual(b, x)) <= 1e-12

    @pytest.mark.parametrize("name", ["rollup_6pi", "magnetic_plate_A"])
    def test_one_triangular_solve_per_step(self, name, monkeypatch):
        # one dgbtrs with the factor and no refinement sweep after it, on the
        # unscaled strip and on the Jacobi-scaled plate alike; the residual
        # returned is that of the unscaled A at the one solution
        system = first_tangent(name)
        solves = []
        dgbtrs = solver.lapack.dgbtrs

        def counted(*args, **kwargs):
            solves.append(args)
            return dgbtrs(*args, **kwargs)

        monkeypatch.setattr(solver.lapack, "dgbtrs", counted)
        eta, rel, _ = newton_step(system.a, system.b)
        assert len(solves) == 1
        assert rel < solver.MAX_LINEAR_RESIDUAL
        b = system.b
        assert rel == np.linalg.norm(system.a.residual(b, eta)) / np.linalg.norm(b)

    def test_zero_row_band_tangent_is_singular(self, monkeypatch):
        # a zero row is never chosen as a pivot and never updated, so the
        # factorization ends on an exactly zero pivot and reports info > 0;
        # the message gives the exact 1-norm of the tangent
        dense = band_to_dense(first_tangent("rollup_6pi").a)
        dense[len(dense) // 2] = 0.0
        a = dense_to_band(dense, full=True)
        assert [(top, len(run)) for top, run in a.runs] == [(23, 47)]
        norm = np.abs(dense).sum(axis=0).max()
        assert a.one_norm() == pytest.approx(norm, rel=1e-14)
        factors = capture_factors(monkeypatch)
        monkeypatch.setattr(solver.lapack, "dgbtrs", None)  # never reached
        with pytest.raises(StepRejected) as rejected:
            newton_step(a, np.ones(len(dense)))
        assert str(rejected.value) == f"singular or ill-posed tangent (1-norm {norm:.3e})"
        assert rejected.value.category == "singular_tangent"
        (lu,) = factors
        assert lu.info > 0

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix_reports_condition(self):
        a = dense_to_band(np.zeros((4, 4)))
        with pytest.raises(StepRejected, match=r"\(1-norm 0\.000e\+00\)") as rejected:
            newton_step(a, np.ones(4))
        assert rejected.value.category == "singular_tangent"


@pytest.mark.parametrize("name", ["antiparallel", "end_shear", "magnetic_plate_A",
                                  "rollup_2pi"])
def test_norms_equal_the_linalg_forms(name, monkeypatch):
    # the residual, load and linear-residual norms are sqrt(x.dot(x)), the
    # arithmetic of np.linalg.norm on a vector: the same bits on every build
    # and solve of a run
    cfg = load_bundled(name)
    model = build_model(cfg)
    build, step = FemModel.build_system, solver.newton_step
    checked = []

    def checked_build(self, lam=1.0):
        system = build(self, lam)
        kern = self.element_kernels(lam)
        load = self.neumann_terms(lam)[0][system.free]
        if kern.magnetic_args is not None:
            load = self._layout.vector(kern.f_mag) + load
        assert system.residual_norm == float(np.linalg.norm(system.b))
        assert system.load_norm == float(np.linalg.norm(load))
        checked.append(system)
        return system

    def checked_step(a, b):
        eta, rel, interchanges = step(a, b)
        r = a.residual(b, eta)
        assert rel == float(np.linalg.norm(r)) / max(float(np.linalg.norm(b)), 1e-300)
        assert residual_error(band_to_dense(a), b, eta, r) <= 1e-12
        return eta, rel, interchanges

    monkeypatch.setattr(FemModel, "build_system", checked_build)
    monkeypatch.setattr(solver, "newton_step", checked_step)
    report = run(model, cfg.solver)
    assert report.converged
    assert len(checked) == report.iterations


def newton_iterations(model, load_factor, count):
    """`count` Newton iterations at `load_factor`: the system, increment and
    relative linear residual of each."""
    out = []
    for _ in range(count):
        system = model.build_system(load_factor)
        eta_free, rel, _ = newton_step(system.a, system.b)
        out.append((system, eta_free, rel))
        eta = np.zeros(model.mesh.n_dofs)
        eta[system.free] = eta_free
        solver.apply_increment_field(model, eta)
    return out


def capture_bands(monkeypatch):
    """Record a copy of every LAPACK band work array as it is handed to
    dgbtrf, before the factorization overwrites it."""
    bands = []
    dgbtrf = solver.lapack.dgbtrf

    def capture(ab, kl, ku, *args, **kwargs):
        bands.append(ab.copy())
        return dgbtrf(ab, kl, ku, *args, **kwargs)

    monkeypatch.setattr(solver.lapack, "dgbtrf", capture)
    return bands


def lapack_band(a, scale=None):
    """The (2 kl + ku + 1, m) dgbtrf work array of the band `a`, built entry
    by entry from its dense matrix, of D A D (entries (D_i D_j) a_ij) when
    the scaling D is given."""
    dense = band_to_dense(a)
    row, col = np.nonzero(dense)
    values = dense[row, col] if scale is None else scale[row] * scale[col] * dense[row, col]
    band = np.zeros((2 * a.kl + a.ku + 1, len(dense)))
    band[a.kl + a.ku + row - col, col] = values
    return band


def unit_diagonal(band, kl, ku):
    """Whether every nonzero diagonal entry of a work array is +-1, as
    scaling by D = |a_ii|^-1/2 leaves it."""
    diag = band[kl + ku]
    return np.allclose(np.abs(diag[diag != 0.0]), 1.0, rtol=1e-12, atol=0.0)


class TestBandScaling:
    """The band LU factors A on a band narrower than
    JACOBI_MIN_HALF_BANDWIDTH and its Jacobi scaling D A D, D = |diag A|^-1/2
    of the same tangent, on a wider one; the choice reads only the band, and
    the linear residual is always that of the unscaled A."""

    @staticmethod
    def factored_bands(name, monkeypatch):
        """The first two Newton iterations of a bundled scenario, each with
        the work array its factorization was handed."""
        cfg = load_bundled(name)
        model = build_model(cfg)
        bands = capture_bands(monkeypatch)
        iterations = newton_iterations(model, 1.0 / cfg.solver.load_steps, 2)
        assert len(bands) == len(iterations)
        for (system, eta, rel), band in zip(iterations, list(bands)):
            assert rel < solver.MAX_LINEAR_RESIDUAL
            # the relative residual is that of the unscaled tangent
            r = system.a.residual(system.b, eta)
            assert np.linalg.norm(r) / np.linalg.norm(system.b) == rel
            yield system.a, band

    def test_rollup_keeps_the_unscaled_band_bit_for_bit(self, monkeypatch):
        for a, band in self.factored_bands("rollup_2pi", monkeypatch):
            assert solver.band_scaling(a.kl) == "none"
            assert np.array_equal(band, lapack_band(a))

    def test_plate_factors_the_jacobi_scaling(self, monkeypatch):
        for a, band in self.factored_bands("magnetic_plate_A", monkeypatch):
            assert solver.band_scaling(a.kl) == "jacobi"
            # bit for bit D A D with D of this tangent
            scale = 1.0 / np.sqrt(np.abs(np.diag(band_to_dense(a))))
            assert np.array_equal(band, lapack_band(a, scale))
            # unscaled, the plate swaps almost every row; D A D fewer than 10%
            m, kl = len(scale), a.kl
            unscaled = lapack.dgbtrf(lapack_band(a), kl, kl)[1]
            assert np.count_nonzero(unscaled != np.arange(m)) > 0.9 * m
            swaps = newton_step(dense_to_band(band_to_dense(a)), np.ones(m))[2]
            assert 0 < swaps < 0.1 * m

    def test_newton_step_is_a_function_of_the_band(self):
        # each read of `a` assembles the tangent anew into the model's one
        # work array, which one solve factors in place: solving the same
        # tangent twice factors it the same way twice, and the solves leave
        # each band's stored copies, the unscaled tangent, as they were
        system = first_tangent("magnetic_plate_A")
        a, b = system.a, system.b
        runs = [run.copy() for _, run in a.runs]
        eta, rel, swaps = newton_step(a, b)
        again = system.a
        assert again.ab is a.ab
        eta2, rel2, swaps2 = newton_step(again, b)
        assert np.array_equal(eta2, eta)
        assert (rel2, swaps2) == (rel, swaps)
        for run, (_, first), (_, second) in zip(runs, a.runs, again.runs):
            assert np.array_equal(first, run) and np.array_equal(second, run)

    @pytest.mark.parametrize("name", list_bundled())
    def test_first_tangent_variant_follows_the_width(self, name, monkeypatch):
        # D A D exactly on the meshes four or more elements wide
        cfg = load_bundled(name)
        model = build_model(cfg)
        system = model.build_system(1.0 / cfg.solver.load_steps)
        bands = capture_bands(monkeypatch)
        newton_step(system.a, system.b)
        (band,) = bands
        kl = system.a.kl
        assert model.half_bandwidth() == kl
        jacobi = unit_diagonal(band, kl, system.a.ku)
        assert jacobi == (name in {"magnetic_plate_A", "magnetic_plate_B", "gripper_finger"})
        assert solver.band_scaling(kl) == ("jacobi" if jacobi else "none")

    def test_zero_and_negative_diagonal_entries(self, monkeypatch):
        # 2x2 blocks [[d, c], [c, k]] with d = -1e-4 (one block d = 0) and
        # c = 5e-2, k = 5e2, weakly coupled: partial pivoting of A swaps
        # every block, D A D swaps only the block with the zero diagonal
        n_blocks = 40
        d = np.full(n_blocks, -1e-4)
        d[7] = 0.0
        diag = np.column_stack([d, np.full(n_blocks, 5e2)]).ravel()
        m = 2 * n_blocks
        coupling = np.zeros(m - 1)
        coupling[::2] = 5e-2
        between = np.zeros(m - 2)
        between[1::2] = 1e-3                            # k to the next block's k
        narrow = (sp.diags(diag) + sp.diags(coupling, 1) + sp.diags(coupling, -1)
                  + sp.diags(between, 2) + sp.diags(between, -2))
        # one far coupling of the first k to a d makes the band wide enough
        kl = solver.JACOBI_MIN_HALF_BANDWIDTH
        far = sp.coo_matrix(([1e-9, 1e-9], ([1, kl + 1], [kl + 1, 1])), shape=(m, m))
        b = RNG.normal(size=m)
        scales = []
        scale = Band.scale_jacobi
        monkeypatch.setattr(Band, "scale_jacobi",
                            lambda band: scales.append(scale(band)) or scales[-1])
        for a, scaling, swaps in ((narrow, "none", n_blocks), (narrow + far, "jacobi", 1)):
            for _ in range(2):
                band = dense_to_band(a)
                assert solver.band_scaling(band.kl) == scaling
                eta, rel, n = newton_step(band, b)
                assert rel < 1e-12 and n == swaps
                assert np.linalg.norm(a @ eta - b) / np.linalg.norm(b) < 1e-12
        assert len(scales) == 2 and np.array_equal(scales[0], scales[1])
        assert scales[0][14] == 1.0                       # the zero diagonal
        assert np.all(scales[0][::2][d != 0] == 1e2)      # |-1e-4|^-1/2


class TestUpdateConfiguration:
    def test_zero_increment(self):
        model = cantilever()
        before = model.mesh.state.g_nodes.copy()
        apply_increment_field(model, np.zeros(model.mesh.n_dofs))
        assert np.array_equal(model.mesh.state.g_nodes, before)

    @staticmethod
    def drifted(size):
        """A cantilever in a rotated state whose node 3 rotation is pushed
        off SO(3) by `size`, with that rotation before the push."""
        model = cantilever()
        apply_increment_field(model, 0.3 * RNG.normal(size=model.mesh.n_dofs))
        g = model.mesh.state.g_nodes
        r = g[3, :3, :3].copy()
        g[3, :3, :3] = r @ (np.eye(3) + size * np.diag([1.0, -0.5, 0.3]))
        return model, r

    def test_drift_is_projected_back_onto_so3(self):
        model, r = self.drifted(1e-9)
        g = model.mesh.state.g_nodes
        assert np.abs(g[3, :3, :3].T @ g[3, :3, :3] - np.eye(3)).max() > 1e-12
        project_rotations(model.mesh)
        rot = model.mesh.state.g_nodes[:, :3, :3]
        assert np.abs(np.swapaxes(rot, -1, -2) @ rot - np.eye(3)).max() <= 1e-14
        assert np.linalg.norm(log_so3(r.T @ rot[3])) < 1e-8

    def test_drift_below_threshold_is_left_alone(self):
        model, _ = self.drifted(1e-14)
        before = model.mesh.state.g_nodes.copy()
        project_rotations(model.mesh)
        assert model.mesh.state.g_nodes.tobytes() == before.tobytes()

    def test_update_leaves_drift_to_the_accepted_step(self):
        # the update checks no drift: a zero increment keeps the drifted bytes
        model, _ = self.drifted(1e-9)
        before = model.mesh.state.g_nodes.copy()
        apply_increment_field(model, np.zeros(model.mesh.n_dofs))
        assert model.mesh.state.g_nodes.tobytes() == before.tobytes()

    def test_rejection_reads_the_angles_of_the_coefficient_pass(self, monkeypatch):
        # the pi/2 test reads the nodal angles of the update's one angle pass,
        # which are those of np.linalg.norm, and rejects before the
        # coefficient pass runs and before the state moves
        model = build_model(load_bundled("magnetic_cantilever_lh10"))
        mesh = model.mesh
        apply_increment_field(model, 0.05 * RNG.normal(size=mesh.n_dofs))
        angles = []
        maps = solver.increment_maps

        def recorded(*args):
            *inputs, check = args
            return maps(*inputs, lambda nodal: angles.append(nodal) or check(nodal))

        monkeypatch.setattr(solver, "increment_maps", recorded)
        monkeypatch.setattr(liegroup, "_rot_coeffs", None)  # never reached
        eta = 0.3 * RNG.normal(size=(mesh.n_nodes, 6))
        eta[7, 3:] = [1.0, -1.1, 0.6]  # |w| = 1.60 > pi/2
        before = mesh.state.copy()
        with pytest.raises(StepRejected) as rejected:
            apply_increment_field(model, eta.ravel())
        expected = np.linalg.norm(eta[:, 3:], axis=1)
        (nodal,) = angles
        assert nodal.tobytes() == expected.tobytes()
        assert float(nodal.max()) == expected.max() > np.pi / 2
        assert str(rejected.value) == f"rotation increment {expected.max():.3f} rad exceeds pi/2"
        assert rejected.value.category == "rotation_increment"
        assert mesh.state.r_pts.size
        for key in ("g_nodes", "zeta_pts", "r_pts"):
            assert getattr(mesh.state, key).tobytes() == getattr(before, key).tobytes()

    def test_pure_translation(self):
        model = cantilever(nx=2)
        eta = np.zeros((model.mesh.n_nodes, 6))
        eta[:, :3] = [0.1, -0.2, 0.3]
        p0 = model.mesh.state.g_nodes[:, :3, 3].copy()
        r0 = model.mesh.state.g_nodes[:, :3, :3].copy()
        apply_increment_field(model, eta)
        # R = I at reference: positions shift by R v = v, rotations unchanged
        assert np.allclose(model.mesh.state.g_nodes[:, :3, 3], p0 + eta[:, :3])
        assert np.allclose(model.mesh.state.g_nodes[:, :3, :3], r0)

    def test_large_rotation_rejected(self):
        model = cantilever(nx=2)
        eta = np.zeros((model.mesh.n_nodes, 6))
        eta[-1, 4] = np.pi / 2 + 0.01
        with pytest.raises(StepRejected):
            apply_increment_field(model, eta)


class TestUpdateTwists:
    def test_zero_increment(self):
        model = cantilever(nx=3)
        before = model.mesh.state.zeta_pts.copy()
        apply_increment_field(model, np.zeros(model.mesh.n_dofs))
        assert np.allclose(model.mesh.state.zeta_pts, before, atol=1e-15)

    def test_constant_increment_is_frame_change(self):
        model = cantilever(nx=3)
        eta_c = RNG.normal(size=6) * 0.3
        eta = np.tile(eta_c, (model.mesh.n_nodes, 1))
        before = model.mesh.state.zeta_pts.copy()
        apply_increment_field(model, eta)
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
        increment_mesh(mesh, eta_flat)
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
            model = build(load_bundled(name))
            mesh = model.mesh
            assert np.array_equal(mesh.state.twist_points, twist_points)
            assert mesh.state.r_pts.shape[1] == (4 if name == "magnetic_plate_A" else 0)
            le1, le2 = mesh.le
            dn_pts = DN_PTS_PARENT * np.array([2.0 / le1, 2.0 / le2])
            for amp in (1e-9, 1e-6, 1e-3, 0.1, 0.6, 1.2):
                # nodal rotations beyond pi/2 are rejected: cap them at 1.55 rad,
                # above SERIES_ANGLE
                eta = capped_rotations(amp * RNG.normal(size=(mesh.n_nodes, 6)), 1.55)
                eta_el = eta[mesh.conn]
                eta_p = np.einsum("pi,eik->epk", N_PTS, eta_el)
                deta_p = np.einsum("pia,eik->epak", dn_pts, eta_el)[:, twist_points]
                zeta, r = mesh.state.zeta_pts.copy(), mesh.state.r_pts.copy()
                expected = (np.einsum("epqr,epar->epaq",
                                      Ad(inv_pose(exp_se3(eta_p[:, twist_points]))), zeta)
                            + np.einsum("epqr,epar->epaq",
                                        dexp_series(eta_p[:, twist_points]), deta_p))
                apply_increment_field(model, eta.ravel())
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(mesh.state.zeta_pts - expected)) < 1e-13 * scale
                rotations = r @ exp_so3(eta_p[:, 1:, 3:])[:, :r.shape[1]]
                assert np.max(np.abs(mesh.state.r_pts - rotations), initial=0.0) < 1e-14

    @pytest.mark.parametrize("scheme", ["centroid", "gauss"])
    @pytest.mark.parametrize("name", ["rollup_6pi", "magnetic_plate_A"])
    def test_one_pass_equals_the_per_part_maps(self, name, scheme):
        # the one coefficient pass gives the bytes of exp_se3 at the nodes,
        # carried_update at the twist points and exp_so3 at the Gauss points,
        # for rotations of 0, below SMALL_ANGLE, on both sides of
        # SERIES_ANGLE and up to pi/2, constant over the mesh (so that the
        # carried points see those angles too) and mixed node by node
        model = (build_model if scheme == "centroid" else build_gauss_model)(load_bundled(name))
        mesh = model.mesh
        state = mesh.state
        nel, m = mesh.n_elements, len(state.twist_points)
        apply_increment_field(model, 0.05 * RNG.normal(size=mesh.n_dofs))
        rows = mesh.interpolation_rows(state.twist_points, state.r_pts.shape[1] > 0)
        fields = []
        for angle in UPDATE_ANGLES:
            eta = np.tile(RNG.normal(size=6), (mesh.n_nodes, 1))
            axis = RNG.normal(size=3)
            eta[:, 3:] = angle * axis / np.linalg.norm(axis)
            fields.append(eta)
        axes = RNG.normal(size=(mesh.n_nodes, 3))
        mixed = RNG.normal(size=(mesh.n_nodes, 6))
        mixed[:, 3:] = (RNG.choice(UPDATE_ANGLES, size=mesh.n_nodes)[:, None] * axes
                        / np.linalg.norm(axes, axis=1, keepdims=True))
        fields.append(mixed)
        for eta in fields:
            before = mesh.state.copy()
            at_pts = rows @ eta[mesh.conn]
            poses = before.g_nodes @ exp_se3(eta)
            twists = carried_update(at_pts[:, :m], before.zeta_pts,
                                    at_pts[:, m:3 * m].reshape(nel, m, 2, 6))
            rotations = before.r_pts @ exp_so3(at_pts[:, 3 * m:, 3:])
            apply_increment_field(model, eta)
            for got, expected in ((state.g_nodes, poses), (state.zeta_pts, twists),
                                  (state.r_pts, rotations)):
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
            mesh.state = state = before

    @pytest.mark.parametrize("name", ["rollup_6pi", "magnetic_plate_A"])
    def test_one_coefficient_pass_per_update(self, name, monkeypatch):
        # apply_increment_field evaluates the rotation coefficients once:
        # a and b everywhere, c at the twist points and nodes, c2 and c3 at
        # the twist points only
        model = build_model(load_bundled(name))
        mesh = model.mesh
        calls = []
        coeffs = liegroup._rot_coeffs

        def counted(theta, n_c, n_q):
            calls.append((len(theta), n_c, n_q))
            return coeffs(theta, n_c, n_q)

        monkeypatch.setattr(liegroup, "_rot_coeffs", counted)
        for k in range(1, 4):
            apply_increment_field(model, 0.01 * RNG.normal(size=mesh.n_dofs))
            assert len(calls) == k
        points = mesh.n_elements * len(mesh.state.twist_points)
        gauss = mesh.n_elements * mesh.state.r_pts.shape[1]
        assert calls[0] == (points + mesh.n_nodes + gauss, points + mesh.n_nodes, points)

    def test_series_table_built_once_per_model(self):
        # a model's point counts are fixed, so its updates share one table
        model = build_model(load_bundled("magnetic_plate_A"))
        liegroup._series_table.cache_clear()
        for _ in range(3):
            apply_increment_field(model, 0.01 * RNG.normal(size=model.mesh.n_dofs))
        info = liegroup._series_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("name, magnetized", [("rollup_6pi", 0), ("magnetic_plate_A", 1)])
    def test_rotations_formed_only_where_carried(self, name, magnetized, monkeypatch):
        # an update forms rotations at the nodes and, on a magnetized mesh
        # only, at the four Gauss points of each element, in one Rodrigues
        # evaluation; no twist point gets one
        gauss_points = 4 * magnetized
        model = build_model(load_bundled(name))
        mesh = model.mesh
        formed = []
        rodrigues = liegroup._rodrigues

        def counted(w, a, b):
            formed.append(w.shape)
            return rodrigues(w, a, b)

        monkeypatch.setattr(liegroup, "_rodrigues", counted)
        apply_increment_field(model, 0.1 * RNG.normal(size=mesh.n_dofs))
        assert formed == [(3, mesh.n_nodes + gauss_points * mesh.n_elements)]
        assert mesh.state.r_pts.shape == (mesh.n_elements, gauss_points, 3, 3)

    @pytest.mark.parametrize("name", ["rollup_6pi", "magnetic_plate_A"])
    def test_interpolation_rows_are_built_once(self, name):
        # the constant rows of the update are made on the first update and
        # read by every later one
        model = build_model(load_bundled(name))
        mesh = model.mesh
        apply_increment_field(model, 0.01 * RNG.normal(size=mesh.n_dofs))
        (rows,) = mesh._interpolation.values()
        for _ in range(2):
            apply_increment_field(model, 0.01 * RNG.normal(size=mesh.n_dofs))
        rotations = mesh.state.r_pts.shape[1] > 0
        assert mesh.interpolation_rows(mesh.state.twist_points, rotations) is rows
        assert len(mesh._interpolation) == 1
        assert rows.shape == (3 * len(mesh.state.twist_points) + 4 * rotations, 4)

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
            increment_mesh(mesh, etas[k].reshape(-1))
        z1, z2 = deformation_twists(g_new, lx / 2, ly / 2, step=1e-6)
        assert np.allclose(mesh.state.zeta_pts[0, 0, 0], z1, atol=1e-6)
        assert np.allclose(mesh.state.zeta_pts[0, 0, 1], z2, atol=1e-6)


class TestRun:
    @pytest.mark.parametrize("kwargs", [
        {"load_steps": 0}, {"max_iters": 0}, {"load_steps": 2.5}, {"max_iters": 3.0},
        {"tol_relative": 0.0}, {"tol_relative": np.nan}, {"tol_residual": np.inf}],
        ids=["steps_zero", "iters_zero", "steps_fraction", "iters_float", "tol_zero",
             "tol_nan", "floor_inf"])
    def test_settings_validation(self, kwargs):
        # counts must be whole numbers, since `run` steps the load with range
        with pytest.raises(ValueError):
            SolverSettings(**kwargs)
        assert SolverSettings(load_steps=np.int64(3)).load_steps == 3

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
            apply_increment_field(model, eps * direction)
            pi_p = potential()
            mesh.state = base.copy()
            apply_increment_field(model, -eps * direction)
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
            raise StepRejected("singular or ill-posed tangent "
                               "(1-norm 0.000e+00)", "singular_tangent")

        monkeypatch.setattr(solver, "newton_step", singular)
        monkeypatch.setattr(solver, "MAX_HALVINGS", 2)
        report = run(model, SolverSettings(load_steps=1))
        assert not report.converged
        assert "singular or ill-posed tangent" in report.message
        assert "1-norm 0.000e+00" in report.message
        assert [a.category for a in report.attempts] == ["singular_tangent"] * 3
        assert [a.dlam for a in report.attempts] == [1.0, 0.5, 0.25]

    def test_unsolved_linear_system_rejects_the_attempt(self, monkeypatch):
        model = cantilever(nx=4)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1e3, 0, 0, 0]),
                                 frame="dead")
        updates = []
        monkeypatch.setattr(solver, "newton_step",
                            lambda a, b: (np.zeros_like(b), 2.0e-6, 0))
        monkeypatch.setattr(solver, "update_configuration",
                            lambda *args: updates.append(args))
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
                                lambda a, b: (np.full_like(b, np.nan), 0.0, 0))
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
        assert steps == list(range(len(steps)))
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

    @pytest.mark.parametrize("size, projected", [(1e-9, True), (1e-14, False)])
    def test_drift_made_mid_attempt_is_checked_at_acceptance(self, size, projected,
                                                             monkeypatch):
        # drift pushed into one nodal rotation after an update inside an
        # attempt is projected away when that attempt is accepted, and drift
        # under 1e-12 is left alone
        cfg = load_bundled("magnetic_cantilever_lh10")
        model = build_model(cfg)
        lines, injected, svds, accepted = [], [], [], []
        update, svd = solver.update_configuration, np.linalg.svd

        def drifting_update(mesh, *args):
            out = update(mesh, *args)
            step, it = map(int, lines[-1].split()[:2])
            if (step, it) == (2, 1):
                injected.append(None)
                r = mesh.state.g_nodes[3, :3, :3]
                r[...] = r @ (np.eye(3) + size * np.diag([1.0, -0.5, 0.3]))
            return out

        def on_step(lam, model):
            rot = model.mesh.state.g_nodes[:, :3, :3]
            accepted.append(np.abs(np.swapaxes(rot, -1, -2) @ rot - np.eye(3)).max())

        monkeypatch.setattr(solver, "update_configuration", drifting_update)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(None) or svd(*a, **k))
        report = run(model, cfg.solver, on_step=on_step, log=lines.append)
        assert report.converged, report.message
        # once, after the first update of step 2, whose attempt builds on
        (second,) = [a for a in report.attempts if a.step == 2]
        assert len(injected) == 1 and second.converged and second.iterations >= 3
        assert len(svds) == int(projected)
        assert accepted[0] <= 1e-14
        if projected:
            assert max(accepted[1:]) <= 1e-14
        else:
            assert min(accepted[1:]) > 1e-14

    def test_drift_checked_once_per_accepted_attempt(self, monkeypatch):
        cfg = load_bundled("magnetic_cantilever_lh20p5")
        model = build_model(cfg)
        checks = []
        project = solver.project_rotations
        monkeypatch.setattr(solver, "project_rotations",
                            lambda mesh: checks.append(mesh) or project(mesh))
        report = run(model, cfg.solver)
        assert report.converged and report.rejections
        assert len(checks) == len(report.steps)
        assert all(mesh is model.mesh for mesh in checks)

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

    def update_or_reject(*args):
        if flags["armed"]:
            flags["armed"], flags["rejected"] = False, True
            raise StepRejected(FORCED_REASON, "rotation_increment")
        return update(*args)

    def recorded_step(a, b):
        if not flags["rejected"] or retry:
            return step(a, b)
        start, made = model.mesh.state.copy(), len(factors)
        result = step(a, b)
        retry.append(SimpleNamespace(factorizations=len(factors) - made, eta=result[0],
                                     b=b, state=start))
        return result

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

        def update_or_reject(*args):
            updates.append(None)
            if len(updates) == 2:
                counts.append(len(evaluations))
                raise StepRejected(FORCED_REASON, "rotation_increment")
            return update(*args)

        def recorded_step(a, b):
            if len(counts) != 1:
                return step(a, b)
            start = model.mesh.state.copy()
            result = step(a, b)
            counts.append(len(evaluations))
            retry.append((start, b, result[0]))
            return result

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
