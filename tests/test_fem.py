"""Discrete weak-form tests.

The master check is finite-difference consistency: the assembled tangent must
equal the jacobian of the assembled residual under multiplicative nodal
updates (configuration + carried twists), for both sampling schemes.  Other
oracles: a hand-written loop quadrature for a single stretched element and
explicit two-element assembly.
"""

import numpy as np
import pytest

from se3shell.constitutive import Material
from se3shell.fem import FemModel, k_operator, rigid_modes, shape_functions
from se3shell.kinematics import build_flat_plate
from se3shell.liegroup import ad, ad_tilde, skew
from se3shell.magnetics import MagneticEnvironment
from se3shell.mesh import DN_PTS_PARENT, PARENT_POINTS, build_mesh, dump_mesh, shape_values
from se3shell.scenario import build_model, load_bundled
from se3shell.solver import update_configuration, update_twists

RNG = np.random.default_rng(1234)
MAT = Material(e=3.0e6, nu=0.3, h=0.05)


def make_model(nx=4, ny=2, lx=1.0, ly=0.4, clamp=True, scheme="centroid", mat=MAT,
               env=None, b_r=None):
    mesh = build_mesh(build_flat_plate(lx, ly), nx, ny)
    if clamp:
        mesh.clamp_edge("xi1_min")
    if b_r is not None:
        mesh.b_r = np.tile(np.asarray(b_r, float), (mesh.n_elements, 1))
    return FemModel(mesh, mat, env=env, scheme=scheme)


def perturb_state(model, scale=0.02, seed=0):
    rng = np.random.default_rng(seed)
    eta = scale * rng.normal(size=(model.mesh.n_nodes, 6))
    update_configuration(model.mesh, eta)
    update_twists(model.mesh, eta)


def assembled_residual(model, lam=1.0):
    kern = model.element_kernels(lam)
    _, b, _ = model.assemble(kern)
    return b


def fd_jacobian(model, lam=1.0, eps=1e-7):
    mesh = model.mesh
    n = mesh.n_dofs
    jac = np.zeros((n, n))
    base = mesh.state.copy()
    for j in range(n):
        eta = np.zeros(n)
        for sign in (1.0, -1.0):
            eta[j] = sign * eps
            mesh.state = base.copy()
            update_configuration(mesh, eta)
            update_twists(mesh, eta)
            if sign > 0:
                bp = assembled_residual(model, lam)
            else:
                bm = assembled_residual(model, lam)
        jac[:, j] = (bp - bm) / (2 * eps)
    mesh.state = base
    return jac


class TestShapeFunctions:
    def test_center_values(self):
        n, _ = shape_functions(0.0, 0.0)
        assert np.allclose(n, 0.25)

    def test_nodal_interpolation(self):
        corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        for i, (x, y) in enumerate(corners):
            n, _ = shape_functions(x, y)
            expected = np.zeros(4)
            expected[i] = 1.0
            assert np.allclose(n, expected)

    def test_gradient_at_center_unit_square(self):
        # parent square: dN1/dx(0,0) = -1/4
        _, dn = shape_functions(0.0, 0.0, le1=2.0, le2=2.0)
        assert dn[0, 0] == pytest.approx(-0.25)

    def test_chart_scaling(self):
        _, dn = shape_functions(0.0, 0.0, le1=0.5, le2=2.0)
        assert dn[0, 0] == pytest.approx(-0.25 * 4.0)

    def test_partition_of_unity_at_quadrature(self):
        vals = shape_values(PARENT_POINTS)
        assert np.allclose(vals.sum(axis=1), 1.0)

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
            zeta = mesh.state.zeta_pts[0, 1 + g]
            for i in range(4):
                kb = k_operator(n[i], dn[i], zeta)
                f_expected[i] += w * np.einsum("apq,ap->q", kb, s)
        assert np.allclose(kern.f_int[0], f_expected, rtol=1e-12)

    def test_factored_centroid_kernels_match_einsum_form(self):
        # the factored centroid tangent against the direct contraction
        # sum_ab kbar_ia^T D_ab kbar_jb with kbar_ia = dN_ia I + ad(zeta_c,a)/4
        model = build_model(load_bundled("arch_transverse"))
        perturb_state(model, 0.05, seed=7)
        mesh = model.mesh
        le1, le2 = mesh.le
        dn = DN_PTS_PARENT[0] * np.array([2.0 / le1, 2.0 / le2])
        area = le1 * le2 * mesh.jac0_pts[:, 0]
        zc = mesh.state.zeta_pts[:, 0]
        s = np.einsum("eabpq,ebq->eap", model.d_blocks, zc - mesh.zeta0_pts[:, 0])
        kbar = dn[None, :, :, None, None] * np.eye(6) + 0.25 * ad(zc)[:, None]
        f_int = area[:, None, None] * np.einsum("eiapq,eap->eiq", kbar, s)
        kmat = area[:, None, None, None, None] * np.einsum(
            "eiapq,eabpr,ejbrs->eijqs", kbar, model.d_blocks, kbar, optimize=True)
        geo = np.einsum("eapq,ejaqr->ejpr", ad_tilde(s), kbar)
        kgeo = (0.25 * area)[:, None, None, None, None] * geo[:, None]
        kern = model.element_kernels()
        for got, ref in ((kern.kmat, kmat), (kern.kgeo, np.broadcast_to(kgeo, kmat.shape)),
                         (kern.f_int, f_int)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))
        # one geometric block per element and column node, not four copies
        assert kern.kgeo.strides[1] == 0

    def test_master_fd_tangent_centroid(self):
        model = make_model()
        perturb_state(model, 0.03, seed=3)
        kern = model.element_kernels()
        a_full, _, _ = model.assemble(kern)
        jac = fd_jacobian(model)
        a = a_full.toarray()
        # residual b = -f_int + ...: A = -d b / d eta
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        assert err < 1e-5

    def test_master_fd_tangent_gauss(self):
        model = make_model(scheme="gauss")
        perturb_state(model, 0.03, seed=4)
        a = model.assemble(model.element_kernels())[0].toarray()
        jac = fd_jacobian(model)
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        assert err < 1e-5

    def test_master_fd_tangent_magnetic(self):
        env = MagneticEnvironment(np.array([0.01, 0.02, 0.03]))
        model = make_model(env=env, b_r=[0.05, 0.0, 0.08])
        perturb_state(model, 0.05, seed=5)
        a = model.assemble(model.element_kernels())[0].toarray()
        jac = fd_jacobian(model)
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        assert err < 1e-5


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
        perturb_state(model, 0.2, seed=8)
        b2, _ = model.neumann_terms(1.0)
        assert np.array_equal(b1, b2)

    def test_dead_load_rotates_with_state(self):
        model = make_model(nx=3, ny=1)
        model.mesh.add_edge_load("xi1_max", np.array([0, 0, 1.0, 0, 0, 0]),
                                 frame="dead")
        b1, _ = model.neumann_terms(1.0)
        perturb_state(model, 0.2, seed=9)
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
        perturb_state(model, 0.02, seed=11)
        kern = model.element_kernels()
        a, b, _ = model.assemble(kern)
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
        perturb_state(model, 0.02, seed=12)
        kern = model.element_kernels()
        a, _, _ = model.assemble(kern)
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
        perturb_state(model, 0.02, seed=13)
        a1 = model.assemble(model.element_kernels())[0].toarray()

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
        mesh2.state.g_nodes = model.mesh.state.g_nodes[inv]
        mesh2.state.zeta_pts = model.mesh.state.zeta_pts.copy()
        mesh2.state.r_pts = model.mesh.state.r_pts.copy()
        model2 = FemModel(mesh2, MAT)
        a2 = model2.assemble(model2.element_kernels())[0].toarray()
        p = np.zeros((mesh2.n_dofs, mesh2.n_dofs))
        for old in range(model.mesh.n_nodes):
            new = perm[old]
            for c in range(6):
                p[6 * new + c, 6 * old + c] = 1.0
        assert np.allclose(p @ a1 @ p.T, a2, atol=1e-9 * np.abs(a1).max())

    def test_rigid_mode_nullspace(self):
        model = make_model(nx=4, ny=2, clamp=False)
        a = model.assemble(model.element_kernels())[0]
        scale = np.abs(a.toarray()).max()
        for mode in rigid_modes(model.mesh):
            assert np.linalg.norm(a @ mode) < 1e-8 * scale

    def test_equilibrium_symmetry_behavior(self):
        # stress-free: symmetric; perturbed: measurable skew part
        model = make_model(nx=4, ny=2)
        a0 = model.mechanical_tangent().toarray()
        assert np.linalg.norm(a0 - a0.T) <= 1e-11 * np.linalg.norm(a0)
        perturb_state(model, 0.05, seed=21)
        a1 = model.mechanical_tangent().toarray()
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
        perturb_state(model, 0.05, seed=31)
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
        free = model.mesh.free_dofs()
        assert np.array_equal(system.free, free)

        kern = model.element_kernels(lam)
        a_full, b_full, load_full = model.assemble(kern)
        b_neu, kdead = model.neumann_terms(lam)
        kd = self.dense_kdead(model, kdead)
        assert np.count_nonzero(kd) > 0
        expected_a = a_full[free][:, free].toarray() - kd[np.ix_(free, free)]
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
        got = model.mechanical_tangent().toarray()
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_pattern_follows_later_clamp(self):
        model = make_model(nx=3, ny=2)
        assert model.build_system().b.size == len(model.mesh.free_dofs())
        model.mesh.clamp_edge("xi1_max")
        free = model.mesh.free_dofs()
        system = model.build_system()
        assert np.array_equal(system.free, free)
        assert system.a.shape == (len(free), len(free))
        full = model.assemble(model.element_kernels())[0]
        assert np.allclose(system.a.toarray(), full[free][:, free].toarray())


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
        mesh.state.zeta_pts = mesh.zeta0_pts.copy()
        mesh.state.zeta_pts[..., 0, 4] = kappa  # bending twist about d2
        kern = model.element_kernels()
        _, b, _ = model.assemble(kern)
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
