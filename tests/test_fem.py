"""Discrete weak-form tests.

The master check is finite-difference consistency: the assembled tangent must
equal the jacobian of the assembled residual under multiplicative nodal
updates (configuration + carried twists), for both sampling schemes.  Other
oracles: a hand-written loop quadrature for a single stretched element and
explicit two-element assembly.  Every system checked is the band that
`FemModel.build_system` forms on the free DOFs in grid order, mapped back to
natural DOF order where a check needs it; the FD checks run on unsupported
meshes, so that band covers every DOF.
"""

import numpy as np
import pytest

from conftest import (
    assembled_residual,
    assert_dump_matches_oracles,
    band_to_dense,
    build_gauss_model,
    dense_kdead,
    dense_loop,
    dense_to_band,
    element_tangent,
    fd_residual_jacobian,
    k_operator,
    magnetic_stiffness_einsum,
    mechanical_tangent,
    natural_tangent,
    random_state_perturbation,
    rigid_modes,
    shape_functions,
)
from se3shell import fem, outputs
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
        b_r = np.tile(np.asarray(b_r, float), (mesh.n_elements, 1))
    return FemModel(mesh, mat, field=None if env is None else env.scaled, scheme=scheme,
                    b_r=b_r)


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
        # no stress and no field: the element blocks are Kmat
        kmat = element_tangent(kern)[0].transpose(0, 2, 1, 3).reshape(24, 24)
        assert np.allclose(kmat, kmat.T, atol=1e-12 * np.abs(kmat).max())
        eig = np.linalg.eigvalsh(kmat)
        assert eig.min() >= -1e-10 * eig.max()

    def test_absent_loads_are_zero_views(self):
        # no magnetics: nothing is allocated for the absent load fields
        kern = make_model(nx=2, ny=1).element_kernels()
        for arr, shape in ((kern.kmag, kern.k0.shape[:3] + (3, 3)),
                           (kern.f_mag, kern.f_int.shape),
                           (kern.f_ext, kern.f_int.shape)):
            assert isinstance(arr, np.ndarray) and arr.shape == shape
            assert not any(arr.strides) and not arr.flags.writeable
            assert not arr.any()

    def test_zero_views_built_once_per_model(self):
        # the absent f_ext and f_mag share one view, made with the model
        model = make_model(nx=2, ny=1)
        first, second = model.element_kernels(), model.element_kernels(0.5)
        assert first.f_ext is second.f_ext is first.f_mag is second.f_mag

    def test_magnetic_quadrature_built_once(self, monkeypatch):
        # the Gauss weights and w_g N_gi N_gj of the magnetic stiffness are
        # built on the first magnetic build, with the bytes of the per-build
        # form, and read by every later build, its tangent and its energy
        built = []
        weights = fem.stiffness_weights
        monkeypatch.setattr(fem, "stiffness_weights",
                            lambda *args: built.append(None) or weights(*args))
        cfg = load_bundled("magnetic_cantilever_lh10")
        model = build_model(cfg)
        mesh = model.mesh
        random_state_perturbation(model, 0.05, seed=5)
        le1, le2 = mesh.le
        w = (le1 * le2 / 4.0) * mesh.jac0_pts[:, 1:]
        for lam in (0.1, 0.5, 1.0):
            kern = model.element_kernels(lam)
            model.build_system(lam).a
            model.energies(lam)
            b_mat, b_app, mu0, wnn = kern.magnetic_args
            assert wnn.tobytes() == np.einsum("...g,gi,gj->...gij", w, N_PTS[1:],
                                              N_PTS[1:]).tobytes()
            env = model.environment_at(lam)
            expected = magnetic_stiffness_einsum(mesh.r0_pts[:, 1:], mesh.state.r_pts,
                                                 model.b_r, env, N_PTS[1:], w)
            assert kern.kmag.tobytes() == expected.tobytes()
        assert len(built) == 1
        assert model._magnetic_quadrature[0].tobytes() == w.tobytes()

    @pytest.mark.parametrize("b_r, match", [
        (np.zeros((7, 3)), r"shape \(7, 3\), expected \(8, 3\)"),
        (np.zeros(3), r"shape \(3,\), expected \(8, 3\)"),
        (np.full((8, 3), np.nan), "non-finite"),
        (np.full((8, 3), np.inf), "non-finite"),
    ])
    def test_bad_magnetization_refused(self, b_r, match):
        mesh = build_mesh(build_flat_plate(1.0, 0.4), 4, 2)
        with pytest.raises(ValueError, match=match):
            FemModel(mesh, MAT, b_r=b_r)

    def test_field_program_evaluated_once_per_load_factor(self):
        # the model keeps the last (program, load factor, environment): one
        # call per distinct load factor, none for the CSV magnitude of that
        # load factor, and a fresh call once the program is replaced
        cfg = load_bundled("magnetic_cantilever_lh10")
        model = build_model(cfg)
        program, calls = model.field, []

        def counted(lam):
            calls.append(lam)
            return program(lam)

        model.field = counted
        for lam in (0.25, 0.25, 0.5):
            model.build_system(lam)
        assert calls == [0.25, 0.5]
        outputs.primary_magnitude(cfg, model, 0.5)
        assert calls == [0.25, 0.5]
        model.field = lambda lam: counted(2.0 * lam)
        doubled = model.build_system(0.5)
        assert calls == [0.25, 0.5, 1.0]
        model.field = counted
        assert np.array_equal(doubled.b, model.build_system(1.0).b)
        assert calls == [0.25, 0.5, 1.0, 1.0]

    def test_gauss_scheme_spd_on_nonrigid(self):
        model = make_model(nx=1, ny=1, clamp=False, scheme="gauss")
        kmat = element_tangent(model.element_kernels())[0].transpose(0, 2, 1, 3).reshape(24, 24)
        eig = np.linalg.eigvalsh(kmat)
        assert (eig < 1e-9 * eig.max()).sum() == 6  # exactly the rigid modes

    def test_centroid_scheme_has_hourglass_nullspace(self):
        # strain sampled once per element: PSD with extra zero-energy modes
        model = make_model(nx=1, ny=1, clamp=False, scheme="centroid")
        kmat = element_tangent(model.element_kernels())[0].transpose(0, 2, 1, 3).reshape(24, 24)
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
        build = build_model if scheme == "centroid" else build_gauss_model
        model = build(load_bundled("arch_transverse"))
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
        for got, ref in ((element_tangent(kern), kmat + kgeo), (kern.kgeo, kgeo),
                         (kern.f_int, f_int)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))
        if scheme == "centroid":
            # one geometric block per element and column node, not four copies,
            # and the memo holds P only per element and row node
            assert kern.kgeo.strides[1] == 0
            assert kern.kmat.shape[2] == kern.kmat_t.shape[1] == 1

    def test_master_fd_tangent_centroid(self):
        model = make_model(clamp=False)
        random_state_perturbation(model, 0.03, seed=3)
        a = natural_tangent(model)
        jac = fd_residual_jacobian(model)
        # residual b = -f_int + ...: A = -d b / d eta
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        assert err < 1e-5

    def test_master_fd_tangent_gauss(self):
        model = make_model(clamp=False, scheme="gauss")
        random_state_perturbation(model, 0.03, seed=4)
        a = natural_tangent(model)
        jac = fd_residual_jacobian(model)
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        assert err < 1e-5

    def test_master_fd_tangent_magnetic(self):
        env = MagneticEnvironment(np.array([0.01, 0.02, 0.03]))
        model = make_model(clamp=False, env=env, b_r=[0.05, 0.0, 0.08])
        random_state_perturbation(model, 0.05, seed=5)
        a = natural_tangent(model)
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
        for name in ("kmat", "kmat_t", "kgeo", "f_int"):
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
        for name in ("kmat", "kmat_t", "kgeo", "f_int"):
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
        mesh = build_mesh(build_flat_plate(1.0, 0.4), 1, 1)
        for edge in ("xi1_min", "xi1_max", "xi2_min", "xi2_max"):
            mesh.clamp_edge(edge)
        model = FemModel(mesh, MAT)
        with pytest.raises(ValueError, match="all degrees of freedom constrained"):
            model.build_system()


class TestAssembly:
    def test_single_element_equals_global(self):
        model = make_model(nx=1, ny=1, clamp=False)
        random_state_perturbation(model, 0.02, seed=11)
        kern = model.element_kernels()
        a = natural_tangent(model)
        b = assembled_residual(model)
        k_el = element_tangent(kern)
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
        assert np.allclose(a, expected_a)
        assert np.allclose(b, expected_b)

    def test_two_element_strip_shared_blocks_sum(self):
        model = make_model(nx=2, ny=1, clamp=False)
        random_state_perturbation(model, 0.02, seed=12)
        kern = model.element_kernels()
        a = natural_tangent(model)
        k_el = element_tangent(kern)
        conn = model.mesh.conn
        # node 1 belongs to both elements: its diagonal block is the sum
        loc0 = list(conn[0]).index(1)
        loc1 = list(conn[1]).index(1)
        expected = k_el[0, loc0, loc0] + k_el[1, loc1, loc1]
        got = a[6:12, 6:12]
        assert np.allclose(got, expected)

    def test_permutation_equivariance(self):
        model = make_model(nx=3, ny=2, clamp=False)
        random_state_perturbation(model, 0.02, seed=13)
        a1 = natural_tangent(model)

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
        a2 = natural_tangent(model2)
        p = np.zeros((mesh2.n_dofs, mesh2.n_dofs))
        for old in range(model.mesh.n_nodes):
            new = perm[old]
            for c in range(6):
                p[6 * new + c, 6 * old + c] = 1.0
        assert np.allclose(p @ a1 @ p.T, a2, atol=1e-9 * np.abs(a1).max())

    def test_rigid_mode_nullspace(self):
        model = make_model(nx=4, ny=2, clamp=False)
        a = natural_tangent(model)
        scale = np.abs(a).max()
        for mode in rigid_modes(model.mesh):
            assert np.linalg.norm(a @ mode) < 1e-8 * scale

    def test_equilibrium_symmetry_behavior(self):
        # stress-free: symmetric; perturbed: measurable skew part
        model = make_model(nx=4, ny=2)
        a0 = mechanical_tangent(model)
        assert np.linalg.norm(a0 - a0.T) <= 1e-11 * np.linalg.norm(a0)
        random_state_perturbation(model, 0.05, seed=21)
        a1 = mechanical_tangent(model)
        assert np.linalg.norm(a1 - a1.T) / np.linalg.norm(a1) > 1e-3


class TestReducedSystem:
    """The production system comes from a fixed-pattern scatter straight into
    the BC-reduced band; check it against dense loops over the element
    blocks, element forces and nodal blocks in natural DOF order, sliced to
    the band's free DOFs."""

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
    def loop_tangent(model, lam):
        """Kmat + Kgeo - Kmag - Kdead by dense loops, natural DOF order."""
        return (dense_loop(model, element_tangent(model.element_kernels(lam)))
                - dense_kdead(model, model.neumann_terms(lam)[1]))

    @pytest.mark.parametrize("name, scattered", [("rollup_2pi", 1),
                                                 ("magnetic_plate_A", 2)])
    def test_zero_magnetic_load_is_not_scattered(self, name, scattered, monkeypatch):
        # without magnetics the load vector is zero and only the residual is
        # scattered; its norm is unchanged
        model = build_model(load_bundled(name))
        model.build_system(0.05)
        calls = []
        sc = model._layout
        vector = sc.vector
        monkeypatch.setattr(sc, "vector", lambda f: calls.append(None) or vector(f))
        system = model.build_system(0.05)
        assert len(calls) == scattered
        kern = model.element_kernels(0.05)
        load = vector(kern.f_mag) + model.neumann_terms(0.05)[0][system.free]
        assert system.load_norm == float(np.linalg.norm(load))

    def test_build_system_matches_full_assembly(self):
        lam = 0.7
        model = self.loaded_model()
        system = model.build_system(lam)
        free = system.free  # band (grid) order
        assert np.array_equal(np.sort(free), model.mesh.free_dofs())

        kern = model.element_kernels(lam)
        b_neu, kdead = model.neumann_terms(lam)
        assert np.count_nonzero(kdead) > 0
        expected_a = self.loop_tangent(model, lam)[np.ix_(free, free)]
        forces, load = np.zeros((2, model.mesh.n_nodes, 6))
        np.add.at(forces, model.mesh.conn, kern.f_mag - kern.f_int)
        np.add.at(load, model.mesh.conn, kern.f_mag)
        expected_b = (forces.ravel() + b_neu)[free]
        scale = np.abs(expected_a).max()
        assert np.abs(band_to_dense(system.a) - expected_a).max() <= 1e-12 * scale
        assert np.abs(system.b - expected_b).max() <= 1e-12 * np.abs(expected_b).max()
        assert system.load_norm == pytest.approx(
            np.linalg.norm((load.ravel() + b_neu)[free]), rel=1e-12)

    def test_mechanical_tangent_matches_full_assembly(self):
        model = self.loaded_model()
        free = model.build_system(0.0).free
        kern = model.element_kernels(0.0)
        expected = dense_loop(model, element_tangent(kern))[np.ix_(free, free)]
        got = mechanical_tangent(model)
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
        expected = self.loop_tangent(model, lam)[np.ix_(free, free)]
        got = band_to_dense(system.a)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("name", ["rollup_6pi", "magnetic_plate_A", "end_shear"])
    def test_band_equals_the_dense_assembly_entry_for_entry(self, name):
        # the work array handed to dgbtrf holds, bit for bit, the dense loop
        # over the element blocks less the dead-load blocks (end_shear has a
        # dead load), summed in the same order; everything else in it is zero
        cfg = load_bundled(name)
        model = build_model(cfg)
        random_state_perturbation(model, 0.01, seed=5)
        lam = 0.5
        system = model.build_system(lam)
        a, free = system.a, system.free
        assert any(ld.frame == "dead" for ld in model.mesh.neumann) == (name == "end_shear")
        expected = self.loop_tangent(model, lam)[np.ix_(free, free)]
        assert np.array_equal(band_to_dense(a), expected)
        assert np.array_equal(a.ab, dense_to_band(expected, full=True).ab)

    def test_unsupported_mesh_gets_its_grid_ordered_band(self):
        # with no clamp every DOF is free, still in grid order: nodes along
        # the longer side (nx = 2 < ny = 4 here), six DOFs each
        model = make_model(nx=2, ny=4, clamp=False)
        mesh = model.mesh
        system = model.build_system(0.5)
        grid = np.arange(mesh.n_nodes).reshape(mesh.ny + 1, mesh.nx + 1)
        assert np.array_equal(system.free, (6 * grid.reshape(-1, 1) + np.arange(6)).ravel())
        a = system.a
        assert a.kl == a.ku == 6 * (2 + 3) - 1 == model.half_bandwidth()
        expected = self.loop_tangent(model, 0.5)[np.ix_(system.free, system.free)]
        assert np.array_equal(band_to_dense(a), expected)

    def test_plate_band_stores_only_the_nonzero_diagonals(self):
        # of the 215 diagonals within the half-bandwidth 107, the elements of
        # the 20x15 plate write 69, in three runs of 23; the band stores
        # exactly those, and every other entry of its work array is zero
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
        stored = [top - i for top, run in a.runs for i in range(len(run))]
        assert stored == sorted(written, reverse=True)
        assert [(top, run.shape) for top, run in a.runs] == [
            (107, (23, len(free))), (11, (23, len(free))), (-85, (23, len(free)))]
        assert a.kl == a.ku == 107 and a.ab.shape == (3 * 107 + 1, len(free))
        dense = band_to_dense(a)
        rows, cols = np.nonzero(dense)
        assert set((cols - rows).tolist()) == written
        assert np.array_equal(a.ab, dense_to_band(dense).ab)
        expected = self.loop_tangent(model, lam)[np.ix_(free, free)]
        assert np.abs(dense - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_bundled_system_is_lapack_band(self):
        # the work array is LAPACK's column-indexed band, Fortran-ordered:
        # A[i, j] at ab[kl + ku + i - j, j], under kl zero rows for the fill;
        # a strip stores every diagonal from ku to -kl, in one run
        cfg = load_bundled("antiparallel")
        model = build_model(cfg)
        a = model.build_system(1.0 / cfg.solver.load_steps).a
        k, m = a.ku, a.ab.shape[1]
        assert a.kl == k == 23 and a.ab.flags.f_contiguous
        assert a.ab.shape == (3 * k + 1, m)
        ((top, run),) = a.runs
        assert top == k and run.shape == (2 * k + 1, m) and run.flags.f_contiguous
        assert np.array_equal(a.ab[k:], run) and not a.ab[:k].any()
        dense = band_to_dense(a)
        rows, cols = np.nonzero(dense)
        assert np.array_equal(a.ab[2 * k + rows - cols, cols], dense[rows, cols])
        assert np.abs(rows - cols).max() <= k

    def test_order_built_once_per_free_set(self, monkeypatch):
        built = []
        scatter = fem._Scatter
        monkeypatch.setattr(fem, "_Scatter",
                            lambda *args: built.append(None) or scatter(*args))
        model = make_model(nx=3, ny=2)
        free = model.build_system().free
        assert len(built) == 1
        assert model.build_system(0.5).free is free
        assert model.half_bandwidth() == model.build_system(0.5).a.kl
        assert len(built) == 1

    @pytest.mark.parametrize("build", [
        lambda: make_model(nx=3, ny=2, env=MagneticEnvironment(np.array([0.01, 0.0, 0.02])),
                           b_r=[0.05, 0.0, 0.08]),
        lambda: build_model(load_bundled("magnetic_cantilever_lh10")),
    ], ids=["library", "scenario"])
    def test_problem_is_fixed_with_the_model(self, build, monkeypatch):
        # the clamps and the magnetization are read once, when the model is
        # built: every later edit raises instead of being ignored, and one
        # scatter serves every build
        built = []
        scatter = fem._Scatter
        monkeypatch.setattr(fem, "_Scatter",
                            lambda *args: built.append(None) or scatter(*args))
        model = build()
        mesh = model.mesh
        with pytest.raises(TypeError):
            mesh.clamp_edge("xi1_max")
        with pytest.raises(ValueError):
            mesh.dirichlet[mesh.edge_nodes("xi1_min")[0]][3:] = False
        with pytest.raises(ValueError):
            model.b_r[:] = 0.0
        for owner in (mesh, model):  # the magnetization is a model input
            with pytest.raises(AttributeError):
                setattr(owner, "b_r", np.zeros((mesh.n_elements, 3)))
        free = model.build_system(0.5).free
        assert np.array_equal(np.sort(free), mesh.free_dofs())
        model.build_system(1.0).a
        assert model.half_bandwidth() == model.build_system(0.25).a.kl
        assert model.build_system(0.5).free is free
        assert len(built) == 1


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
        forces = assembled_residual(model).reshape(-1, 6)
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
        base = assert_dump_matches_oracles(model.mesh, outputs.dump_text(model.mesh), tmp_path)
        lines = base.with_suffix(".txt").read_text().strip().splitlines()
        n, nel = model.mesh.n_nodes, model.mesh.n_elements
        assert lines[0] == f"# nodes {n}"
        assert lines[n + 1] == f"# elements {nel}"
        first = lines[1].split()
        assert len(first) == 1 + 2 + 3 + 9
        assert first[0] == "0"
        assert base.with_suffix(".tri").read_text().splitlines()[0] == f"# triangles {2 * nel}"
