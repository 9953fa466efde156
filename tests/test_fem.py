"""Discrete weak-form tests.

The master check is finite-difference consistency: the assembled tangent must
equal the jacobian of the assembled residual under multiplicative nodal
updates (configuration + carried twists), for both sampling schemes.  Other
oracles: a hand-written loop quadrature for a single stretched element and
explicit two-element assembly.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    fd_residual_jacobian,
    k_operator,
    mechanical_tangent,
    random_state_perturbation,
    rigid_modes,
    shape_functions,
)
from se3shell.constitutive import Material
from se3shell.fem import FemModel
from se3shell.kinematics import build_flat_plate
from se3shell.liegroup import ad, ad_tilde, skew
from se3shell.magnetics import MagneticEnvironment
from se3shell.mesh import (
    DN_PTS_PARENT,
    N_PTS,
    PARENT_POINTS,
    build_mesh,
    dump_mesh,
    shape_gradients,
    shape_values,
)
from se3shell.scenario import build_model, load_bundled

RNG = np.random.default_rng(1234)
MAT = Material(e=3.0e6, nu=0.3, h=0.05)


def make_model(nx=4, ny=2, lx=1.0, ly=0.4, clamp=True, scheme="centroid", mat=MAT,
               env=None, b_r=None):
    mesh = build_mesh(build_flat_plate(lx, ly), nx, ny)
    if clamp:
        mesh.clamp_edge("xi1_min")
    if b_r is not None:
        mesh.b_r = np.tile(np.asarray(b_r, float), (mesh.n_elements, 1))
    return FemModel(mesh, mat, field=None if env is None else env.scaled, scheme=scheme)


class TestShapeFunctions:
    def test_center_values(self):
        assert np.allclose(shape_values(PARENT_POINTS[0]), 0.25)

    def test_nodal_interpolation(self):
        corners = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
        assert np.allclose(shape_values(corners), np.eye(4))

    def test_gradient_at_center_unit_square(self):
        # parent square: dN1/dx(0,0) = -1/4
        assert shape_gradients(PARENT_POINTS[0])[0, 0, 0] == pytest.approx(-0.25)

    def test_partition_of_unity_at_quadrature(self):
        vals = shape_values(PARENT_POINTS)
        assert np.allclose(vals.sum(axis=1), 1.0)


class TestShapeFunctionOracle:
    """The per-point reference `conftest.shape_functions` of the loop quadrature."""

    def test_chart_scaling(self):
        _, dn = shape_functions(0.0, 0.0, le1=0.5, le2=2.0)
        assert dn[0, 0] == pytest.approx(-0.25 * 4.0)

    def test_degenerate_chart_rejected(self):
        with pytest.raises(ValueError):
            shape_functions(0.0, 0.0, le1=0.0)


class TestKOperator:
    def test_zero_twist_pure_derivative(self):
        dn = np.array([0.3, -0.7])
        k = k_operator(0.25, dn, np.zeros((2, 6)))
        assert np.allclose(k[0], 0.3 * np.eye(6))
        assert np.allclose(k[1], -0.7 * np.eye(6))

    def test_translation_twist_ad_block(self):
        zeta = np.zeros((2, 6))
        zeta[0, :3] = [1.0, 0.0, 0.0]
        k = k_operator(0.25, np.zeros(2), zeta)
        expected = 0.25 * ad(zeta[0])
        assert np.allclose(k[0], expected)
        assert np.allclose(expected[:3, 3:], 0.25 * skew([1.0, 0, 0]))

    def test_constant_field_identity(self):
        # sum_i Kbar^i applied to one constant vector: derivative part cancels
        # by partition of unity, leaving ad(zeta) acting on the constant.
        zeta = RNG.normal(size=(2, 6))
        c = RNG.normal(size=6)
        x, y = 0.37, -0.58
        n, dn = shape_functions(x, y, 1.3, 0.8)
        total = np.zeros((2, 6))
        for i in range(4):
            total += np.einsum("apq,q->ap", k_operator(n[i], dn[i], zeta), c)
        assert np.allclose(total, ad(zeta) @ c, atol=1e-12)


class TestElementKernels:
    def test_stress_free_state(self):
        model = make_model(nx=1, ny=1, clamp=False)
        kern = model.element_kernels()
        assert np.allclose(kern.f_int, 0.0)
        assert np.allclose(kern.kgeo, 0.0)
        kmat = kern.kmat[0].transpose(0, 2, 1, 3).reshape(24, 24)
        assert np.allclose(kmat, kmat.T, atol=1e-12 * np.abs(kmat).max())
        eig = np.linalg.eigvalsh(kmat)
        assert eig.min() >= -1e-10 * eig.max()

    def test_absent_loads_are_zero_views(self):
        # no magnetics: nothing is allocated for the absent load fields
        kern = make_model(nx=2, ny=1).element_kernels()
        for arr, shape in ((kern.kmag, kern.kmat.shape), (kern.f_mag, kern.f_int.shape),
                           (kern.f_ext, kern.f_int.shape)):
            assert isinstance(arr, np.ndarray) and arr.shape == shape
            assert not any(arr.strides) and not arr.flags.writeable
            assert not arr.any()

    def test_magnetization_set_after_the_model_is_refused(self):
        # the model narrowed the state without the Gauss-point rotations
        model = make_model(env=MagneticEnvironment(np.array([0.01, 0.0, 0.0])))
        model.mesh.b_r = np.tile([0.05, 0.0, 0.08], (model.mesh.n_elements, 1))
        with pytest.raises(ValueError, match="no Gauss-point rotations"):
            model.build_system()

    def test_gauss_scheme_spd_on_nonrigid(self):
        model = make_model(nx=1, ny=1, clamp=False, scheme="gauss")
        kmat = model.element_kernels().kmat[0].transpose(0, 2, 1, 3).reshape(24, 24)
        eig = np.linalg.eigvalsh(kmat)
        assert (eig < 1e-9 * eig.max()).sum() == 6  # exactly the rigid modes

    def test_centroid_scheme_has_hourglass_nullspace(self):
        # strain sampled once per element: PSD with extra zero-energy modes
        model = make_model(nx=1, ny=1, clamp=False, scheme="centroid")
        kmat = model.element_kernels().kmat[0].transpose(0, 2, 1, 3).reshape(24, 24)
        eig = np.linalg.eigvalsh(kmat)
        assert eig.min() >= -1e-10 * eig.max()
        assert (eig < 1e-9 * eig.max()).sum() == 12

    def test_membrane_stretch_against_loop_quadrature(self):
        model = make_model(nx=1, ny=1, lx=0.8, ly=0.5, clamp=False, scheme="gauss")
        mesh = model.mesh
        lam = 1.01
        mesh.state.zeta_pts[:, :, 0, 0] = lam  # stretch along xi1 at all points
        kern = model.element_kernels()
        # independent quadrature: loop over gauss points with explicit matrices
        le1, le2 = mesh.le
        f_expected = np.zeros((4, 6))
        strain = np.zeros((2, 6))
        strain[0, 0] = lam - 1.0
        d = model.d_blocks[0]
        s = np.einsum("abpq,bq->ap", d, strain)
        for g, (px, py) in enumerate(PARENT_POINTS[1:]):
            n, dn = shape_functions(px, py, le1, le2)
            w = le1 * le2 / 4.0
            zeta = mesh.state.zeta_pts[0, g]  # the state carries the Gauss points
            for i in range(4):
                kb = k_operator(n[i], dn[i], zeta)
                f_expected[i] += w * np.einsum("apq,ap->q", kb, s)
        assert np.allclose(kern.f_int[0], f_expected, rtol=1e-12)

    @pytest.mark.parametrize("scheme", ["centroid", "gauss"])
    def test_factored_kernels_match_einsum_form(self, scheme):
        # the factored tangent against the direct contractions
        # sum_gab w_g kbar_gia^T D_ab kbar_gjb, kbar_gia = dN_gia I + N_gi ad(zeta_g,a)
        model = build_model(replace(load_bundled("arch_transverse"), scheme=scheme))
        random_state_perturbation(model, 0.05, seed=7)
        mesh = model.mesh
        le1, le2 = mesh.le
        if scheme == "centroid":
            dn = DN_PTS_PARENT[0] * np.array([2.0 / le1, 2.0 / le2])
            area = le1 * le2 * mesh.jac0_pts[:, 0]
            zc = mesh.state.zeta_pts[:, 0]
            s = np.einsum("eabpq,ebq->eap", model.d_blocks, zc - mesh.zeta0_pts[:, 0])
            kbar = dn[None, :, :, None, None] * np.eye(6) + 0.25 * ad(zc)[:, None]
            f_int = area[:, None, None] * np.einsum("eiapq,eap->eiq", kbar, s)
            kmat = area[:, None, None, None, None] * np.einsum(
                "eiapq,eabpr,ejbrs->eijqs", kbar, model.d_blocks, kbar, optimize=True)
            geo = np.einsum("eapq,ejaqr->ejpr", ad_tilde(s), kbar)
            kgeo = np.broadcast_to((0.25 * area)[:, None, None, None, None] * geo[:, None],
                                   kmat.shape)
        else:
            dn = DN_PTS_PARENT[1:] * np.array([2.0 / le1, 2.0 / le2])
            w = (le1 * le2 / 4.0) * mesh.jac0_pts[:, 1:]
            zg = mesh.state.zeta_pts  # the state carries the Gauss points
            s = np.einsum("eabpq,egbq->egap", model.d_blocks, zg - mesh.zeta0_pts[:, 1:])
            kbar = (dn[None, :, :, :, None, None] * np.eye(6)
                    + N_PTS[1:][None, :, :, None, None, None] * ad(zg)[:, :, None])
            f_int = np.einsum("eg,egiapq,egap->eiq", w, kbar, s, optimize=True)
            kmat = np.einsum("eg,egiapq,eabpr,egjbrs->eijqs",
                             w, kbar, model.d_blocks, kbar, optimize=True)
            kgeo = np.einsum("eg,gi,egapq,egjaqr->eijpr",
                             w, N_PTS[1:], ad_tilde(s), kbar, optimize=True)
        kern = model.element_kernels()
        for got, ref in ((kern.kmat, kmat), (kern.kgeo, kgeo), (kern.f_int, f_int)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))
        if scheme == "centroid":
            # one geometric block per element and column node, not four copies
            assert kern.kgeo.strides[1] == 0

    def test_master_fd_tangent_centroid(self):
        model = make_model()
        random_state_perturbation(model, 0.03, seed=3)
        kern = model.element_kernels()
        a_full = model.assemble(kern)
        jac = fd_residual_jacobian(model)
        a = a_full.toarray()
        # residual b = -f_int + ...: A = -d b / d eta
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        assert err < 1e-5

    def test_master_fd_tangent_gauss(self):
        model = make_model(scheme="gauss")
        random_state_perturbation(model, 0.03, seed=4)
        a = model.assemble(model.element_kernels()).toarray()
        jac = fd_residual_jacobian(model)
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        assert err < 1e-5

    def test_master_fd_tangent_magnetic(self):
        env = MagneticEnvironment(np.array([0.01, 0.02, 0.03]))
        model = make_model(env=env, b_r=[0.05, 0.0, 0.08])
        random_state_perturbation(model, 0.05, seed=5)
        a = model.assemble(model.element_kernels()).toarray()
        jac = fd_residual_jacobian(model)
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        assert err < 1e-5


class TestKernelMemo:
    """The mechanical kernels are evaluated once per state: reused while the
    sampled twists are exactly equal, evaluated anew after any change."""

    @staticmethod
    def counted(model, monkeypatch):
        evaluations = []
        evaluate = model._evaluate_kernels

        def counted(zeta):
            evaluations.append(None)
            return evaluate(zeta)

        monkeypatch.setattr(model, "_evaluate_kernels", counted)
        return evaluations

    @pytest.mark.parametrize("scheme", ["centroid", "gauss"])
    def test_in_place_edit_matches_a_fresh_model(self, scheme, monkeypatch):
        model = make_model(nx=4, ny=2, scheme=scheme)
        random_state_perturbation(model, 0.05, seed=17)
        evaluations = self.counted(model, monkeypatch)
        first = model.element_kernels()
        assert model.element_kernels(0.5).kmat is first.kmat
        assert len(evaluations) == 1
        with pytest.raises(ValueError):
            first.kmat[0, 0, 0, 0, 0] = 1.0  # the memo is read-only
        model.mesh.state.zeta_pts[:, :, 0, 0] += 1e-3
        edited = model.element_kernels()
        assert len(evaluations) == 2
        fresh = FemModel(model.mesh, MAT, scheme=scheme).element_kernels()
        for name in ("kmat", "kgeo", "f_int"):
            assert np.array_equal(getattr(edited, name), getattr(fresh, name))
            assert not np.array_equal(getattr(edited, name), getattr(first, name))
        # a NaN never equals itself, so it is evaluated on every build
        saved = model.mesh.state.zeta_pts[0, 0, 0, 0]
        model.mesh.state.zeta_pts[0, 0, 0, 0] = np.nan
        assert np.isnan(model.element_kernels().f_int[0]).any()
        assert np.isnan(model.element_kernels().f_int[0]).any()
        assert len(evaluations) == 4
        model.mesh.state.zeta_pts[0, 0, 0, 0] = saved
        again = model.element_kernels()
        for name in ("kmat", "kgeo", "f_int"):
            assert np.array_equal(getattr(again, name), getattr(edited, name))


class TestBoundaryConditions:
    def test_clamped_edge_dof_count(self):
        model = make_model(nx=5, ny=2)
        free = model.mesh.free_dofs()
        assert len(free) == model.mesh.n_dofs - 6 * (model.mesh.ny + 1)

    def test_dead_tip_force_at_identity(self):
        model = make_model(nx=2, ny=1, lx=1.0, ly=0.5)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 2.0, 0, 0, 0]),
                                 frame="dead")
        b, kdead = model.neumann_terms(1.0)
        tip_nodes = model.mesh.edge_nodes("xi1_max")
        # R = I: local wrench equals spatial; trace lumping gives ly/2 per node
        for n in tip_nodes:
            assert b[6 * n + 2] == pytest.approx(2.0 * 0.25)
        assert np.count_nonzero(kdead) > 0

    def test_follower_constant_across_iterations(self):
        model = make_model(nx=3, ny=1)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 0, 0, 1.5, 0]),
                                 frame="follower")
        b1, _ = model.neumann_terms(1.0)
        random_state_perturbation(model, 0.2, seed=8)
        b2, _ = model.neumann_terms(1.0)
        assert np.array_equal(b1, b2)

    def test_dead_load_rotates_with_state(self):
        model = make_model(nx=3, ny=1)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1.0, 0, 0, 0]),
                                 frame="dead")
        b1, _ = model.neumann_terms(1.0)
        random_state_perturbation(model, 0.2, seed=9)
        b2, _ = model.neumann_terms(1.0)
        assert not np.allclose(b1, b2)
        # magnitude per node is preserved (pure rotation of components)
        n = int(model.mesh.edge_nodes("xi1_max")[0])
        assert np.linalg.norm(b2[6 * n:6 * n + 3]) == pytest.approx(
            np.linalg.norm(b1[6 * n:6 * n + 3]))

    def test_fully_constrained_rejected(self):
        model = make_model(nx=1, ny=1, clamp=False)
        for edge in ("xi1_min", "xi1_max", "xi2_min", "xi2_max"):
            model.mesh.clamp_edge(edge)
        with pytest.raises(ValueError):
            model.mesh.free_dofs()


class TestAssembly:
    def test_single_element_equals_global(self):
        model = make_model(nx=1, ny=1, clamp=False)
        random_state_perturbation(model, 0.02, seed=11)
        kern = model.element_kernels()
        a = model.assemble(kern)
        b, _ = model.residual(kern)
        k_el = kern.kmat + kern.kgeo - kern.kmag
        f_el = kern.f_ext + kern.f_mag - kern.f_int
        conn = model.mesh.conn[0]  # CCW ordering is [0, 1, 3, 2]
        expected_a = np.zeros((24, 24))
        expected_b = np.zeros(24)
        for i in range(4):
            gi = conn[i]
            expected_b[6 * gi:6 * gi + 6] = f_el[0, i]
            for j in range(4):
                gj = conn[j]
                expected_a[6 * gi:6 * gi + 6, 6 * gj:6 * gj + 6] = k_el[0, i, j]
        assert np.allclose(a.toarray(), expected_a)
        assert np.allclose(b, expected_b)

    def test_two_element_strip_shared_blocks_sum(self):
        model = make_model(nx=2, ny=1, clamp=False)
        random_state_perturbation(model, 0.02, seed=12)
        kern = model.element_kernels()
        a = model.assemble(kern)
        k_el = kern.kmat + kern.kgeo - kern.kmag
        conn = model.mesh.conn
        # node 1 belongs to both elements: its diagonal block is the sum
        loc0 = list(conn[0]).index(1)
        loc1 = list(conn[1]).index(1)
        expected = k_el[0, loc0, loc0] + k_el[1, loc1, loc1]
        got = a.toarray()[6:12, 6:12]
        assert np.allclose(got, expected)

    def test_permutation_equivariance(self):
        model = make_model(nx=3, ny=2, clamp=False)
        random_state_perturbation(model, 0.02, seed=13)
        a1 = model.assemble(model.element_kernels()).toarray()

        # renumber nodes with a random permutation and rebuild
        perm = np.random.default_rng(7).permutation(model.mesh.n_nodes)
        mesh2 = build_mesh(build_flat_plate(1.0, 0.4), 3, 2)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        mesh2.param = model.mesh.param[inv]
        mesh2.g0_nodes = model.mesh.g0_nodes[inv]
        mesh2.conn = perm[model.mesh.conn]
        mesh2.zeta0_pts = model.mesh.zeta0_pts.copy()
        mesh2.r0_pts = model.mesh.r0_pts.copy()
        mesh2.jac0_pts = model.mesh.jac0_pts.copy()
        mesh2.state = model.mesh.state.copy()
        mesh2.state.g_nodes = model.mesh.state.g_nodes[inv]
        model2 = FemModel(mesh2, MAT)
        a2 = model2.assemble(model2.element_kernels()).toarray()
        p = np.zeros((mesh2.n_dofs, mesh2.n_dofs))
        for old in range(model.mesh.n_nodes):
            new = perm[old]
            for c in range(6):
                p[6 * new + c, 6 * old + c] = 1.0
        assert np.allclose(p @ a1 @ p.T, a2, atol=1e-9 * np.abs(a1).max())

    def test_rigid_mode_nullspace(self):
        model = make_model(nx=4, ny=2, clamp=False)
        a = model.assemble(model.element_kernels())
        scale = np.abs(a.toarray()).max()
        for mode in rigid_modes(model.mesh):
            assert np.linalg.norm(a @ mode) < 1e-8 * scale

    def test_equilibrium_symmetry_behavior(self):
        # stress-free: symmetric; perturbed: measurable skew part
        model = make_model(nx=4, ny=2)
        a0 = mechanical_tangent(model).toarray()
        assert np.linalg.norm(a0 - a0.T) <= 1e-11 * np.linalg.norm(a0)
        random_state_perturbation(model, 0.05, seed=21)
        a1 = mechanical_tangent(model).toarray()
        assert np.linalg.norm(a1 - a1.T) / np.linalg.norm(a1) > 1e-3


class TestReducedSystem:
    """The production system comes from a fixed-pattern scatter straight into
    the BC-reduced tangent; check it against the full assembly sliced to the
    free DOFs and against a dense loop over the element blocks."""

    @staticmethod
    def loaded_model():
        env = MagneticEnvironment(np.array([0.01, -0.02, 0.03]))
        model = make_model(nx=4, ny=2, env=env, b_r=[0.05, 0.01, 0.08])
        model.mesh.add_edge_load("xi1_max", np.array([0.3, -0.2, 2.0, 0.1, 0.4, -0.2]),
                                 frame="dead")
        model.mesh.add_edge_load("xi2_max", np.array([0.0, 0.5, 0.0, 0.2, 0.0, 0.0]),
                                 frame="dead")
        random_state_perturbation(model, 0.05, seed=31)
        return model

    @staticmethod
    def dense_loop(model, blocks):
        n = model.mesh.n_dofs
        out = np.zeros((n, n))
        for e, nodes in enumerate(model.mesh.conn):
            for i, gi in enumerate(nodes):
                for j, gj in enumerate(nodes):
                    out[6 * gi:6 * gi + 6, 6 * gj:6 * gj + 6] += blocks[e, i, j]
        return out

    @staticmethod
    def dense_kdead(model, kdead):
        out = np.zeros((model.mesh.n_dofs, model.mesh.n_dofs))
        for node, blk in enumerate(kdead):
            out[6 * node:6 * node + 6, 6 * node:6 * node + 6] = blk
        return out

    def test_build_system_matches_full_assembly(self):
        lam = 0.7
        model = self.loaded_model()
        system = model.build_system(lam)
        free = system.free  # band (grid) order
        assert np.array_equal(np.sort(free), model.mesh.free_dofs())

        kern = model.element_kernels(lam)
        a_full = model.assemble(kern)
        b_full, load_full = model.residual(kern)
        b_neu, kdead = model.neumann_terms(lam)
        kd = self.dense_kdead(model, kdead)
        assert np.count_nonzero(kd) > 0
        expected_a = a_full.toarray()[np.ix_(free, free)] - kd[np.ix_(free, free)]
        expected_b = (b_full + b_neu)[free]
        scale = np.abs(expected_a).max()
        assert np.abs(system.a.toarray() - expected_a).max() <= 1e-12 * scale
        assert np.abs(system.b - expected_b).max() <= 1e-12 * np.abs(expected_b).max()
        assert system.load_norm == pytest.approx(
            np.linalg.norm((load_full + b_neu)[free]), rel=1e-12)

        loop = self.dense_loop(model, kern.kmat + kern.kgeo - kern.kmag) - kd
        assert np.abs(system.a.toarray() - loop[np.ix_(free, free)]).max() <= 1e-12 * scale

    def test_mechanical_tangent_matches_full_assembly(self):
        model = self.loaded_model()
        free = model.mesh.free_dofs()
        kern = model.element_kernels(0.0)
        expected = self.dense_loop(model, kern.kmat + kern.kgeo)[np.ix_(free, free)]
        got = mechanical_tangent(model).toarray()
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("name", ["rollup_6pi", "magnetic_plate_A", "arch_transverse",
                                      "antiparallel", "gripper_finger"])
    def test_bundled_band_system_matches_full_assembly(self, name):
        cfg = load_bundled(name)
        model = build_model(cfg)
        random_state_perturbation(model, 0.01, seed=5)
        lam = 0.5
        system = model.build_system(lam)
        free = system.free
        a_full = model.assemble(model.element_kernels(lam)).toarray()
        kd = self.dense_kdead(model, model.neumann_terms(lam)[1])
        expected = (a_full - kd)[np.ix_(free, free)]
        got = system.a.toarray()
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_plate_band_stores_only_the_nonzero_diagonals(self):
        # of the 215 diagonals within the half-bandwidth 107, the elements of
        # the 20x15 plate write 69; the band stores exactly those
        cfg = load_bundled("magnetic_plate_A")
        model = build_model(cfg)
        random_state_perturbation(model, 0.01, seed=5)
        lam = 0.5
        system = model.build_system(lam)
        a, free = system.a, system.free
        at = {int(dof): i for i, dof in enumerate(free)}
        written = set()
        for nodes in model.mesh.conn:
            idx = [at[d] for n in nodes for d in range(6 * n, 6 * n + 6) if d in at]
            written.update(c - r for r in idx for c in idx)
        assert np.array_equal(a.offsets, sorted(written, reverse=True))
        assert len(a.offsets) == 69 and a.data.shape == (69, len(free))
        assert a.offsets[0] == -a.offsets[-1] == 107
        dense = a.toarray()
        rows, cols = np.nonzero(dense)
        assert set((cols - rows).tolist()) == written
        a_full = model.assemble(model.element_kernels(lam)).toarray()
        kd = self.dense_kdead(model, model.neumann_terms(lam)[1])
        expected = (a_full - kd)[np.ix_(free, free)]
        assert np.abs(dense - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_bundled_system_is_lapack_band(self):
        # the dia data is LAPACK's column-indexed band: A[i, j] at
        # data[ku + i - j, j], offsets ku ... -kl
        cfg = load_bundled("antiparallel")
        model = build_model(cfg)
        a = model.build_system(1.0 / cfg.solver.load_steps).a
        assert a.format == "dia"
        m, k = a.shape[0], a.offsets[0]
        assert np.array_equal(a.offsets, np.arange(k, -k - 1, -1))
        assert a.data.shape == (2 * k + 1, m)
        dense = a.toarray()
        rows, cols = np.nonzero(dense)
        assert np.array_equal(a.data[k + rows - cols, cols], dense[rows, cols])
        assert np.abs(rows - cols).max() <= k

    def test_order_built_once_per_free_set(self):
        model = make_model(nx=3, ny=2)
        free = model.build_system().free
        assert model.build_system(0.5).free is free
        model.mesh.clamp_edge("xi1_max")
        clamped = model.build_system().free
        assert clamped is not free and len(clamped) < len(free)
        assert model.build_system(0.5).free is clamped

    def test_pattern_follows_later_clamp(self):
        model = make_model(nx=3, ny=2)
        assert model.build_system().b.size == len(model.mesh.free_dofs())
        model.mesh.clamp_edge("xi1_max")
        system = model.build_system()
        free = system.free  # band (grid) order
        assert np.array_equal(np.sort(free), model.mesh.free_dofs())
        assert system.a.shape == (len(free), len(free))
        full = model.assemble(model.element_kernels())
        assert np.allclose(system.a.toarray(), full.toarray()[np.ix_(free, free)])


class TestStrongFormOracle:
    """The constant-curvature state solves the strong balance equation
    (the stress divergence and co-adjoint transport both vanish), so the
    discrete weak residual must vanish at interior nodes and reduce to the
    boundary stress resultant at the tip edge."""

    def test_rollup_state_is_discrete_equilibrium(self):
        e, length, width, h = 12e6, 10.0, 1.0, 0.1
        kappa = 0.35
        mesh = build_mesh(build_flat_plate(length, width), 12, 1)
        model = FemModel(mesh, Material(e=e, nu=0.0, h=h))
        mesh.state.zeta_pts = mesh.zeta0_pts[:, :1].copy()  # the centroid twists
        mesh.state.zeta_pts[..., 0, 4] = kappa  # bending twist about d2
        kern = model.element_kernels()
        b, _ = model.residual(kern)
        forces = b.reshape(-1, 6)
        tip_nodes = set(int(n) for n in mesh.edge_nodes("xi1_max"))
        root_nodes = set(int(n) for n in mesh.edge_nodes("xi1_min"))
        moment = e * h**3 / 12 * kappa  # boundary resultant per unit width
        scale = abs(moment)
        for n in range(mesh.n_nodes):
            f = forces[n]
            if n in tip_nodes:
                expected = np.array([0, 0, 0, 0, -moment * width / 2, 0])
            elif n in root_nodes:
                expected = np.array([0, 0, 0, 0, +moment * width / 2, 0])
            else:
                expected = np.zeros(6)
            assert np.allclose(f, expected, atol=1e-10 * scale)


class TestMeshDump:
    def test_dump_format(self, tmp_path):
        model = make_model(nx=2, ny=1)
        path = tmp_path / "mesh.txt"
        dump_mesh(model.mesh, path)
        lines = path.read_text().strip().splitlines()
        n, nel = model.mesh.n_nodes, model.mesh.n_elements
        assert lines[0] == f"# nodes {n}"
        assert lines[n + 1] == f"# elements {nel}"
        first = lines[1].split()
        assert len(first) == 1 + 2 + 3 + 9
        assert first[0] == "0"
