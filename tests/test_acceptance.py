"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Expensive runs (the roll-up family) are shared through module-scoped
fixtures.  Every tolerance is stated inline next to its assertion.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import (fd_residual_jacobian, mechanical_tangent, random_state_perturbation,
                      transform_reference)
from se3shell.constitutive import Material
from se3shell.fem import FemModel
from se3shell.kinematics import build_flat_plate
from se3shell.liegroup import Ad, ad, dexp_se3, exp_se3, log_se3
from se3shell.magnetics import MU0, MagneticEnvironment
from se3shell.mesh import build_mesh
from se3shell.scenario import build_model, load_bundled
from se3shell.solver import (
    SolverSettings,
    accumulated_edge_rotation,
    run,
)

Y_AXIS = np.array([0.0, 1.0, 0.0])


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS - {text}")


# --- shared roll-up run ------------------------------------------------------

ROLLUP = dict(e=12e6, l=10.0, w=1.0, h=0.1)
ROLLUP["inertia"] = ROLLUP["w"] * ROLLUP["h"] ** 3 / 12
ROLLUP["m_full"] = 2 * np.pi * ROLLUP["e"] * ROLLUP["inertia"] / ROLLUP["l"]


def rollup_model(moment_factor=1.0, nx=150):
    mesh = build_mesh(build_flat_plate(ROLLUP["l"], ROLLUP["w"]), nx, 1)
    mesh.clamp_edge("xi1_min")
    mesh.add_edge_load(
        "xi1_max",
        np.array([0, 0, 0, 0, moment_factor * ROLLUP["m_full"] / ROLLUP["w"], 0]),
        frame="follower")
    return FemModel(mesh, Material(e=ROLLUP["e"], nu=0.0, h=ROLLUP["h"]))


@pytest.fixture(scope="module")
def rollup_run():
    """The converged roll-up, its (load factor, state) after every scheduled
    step, and the wall time."""
    model = rollup_model()
    snapshots = []
    t0 = time.perf_counter()
    rep = run(model, SolverSettings(load_steps=20),
              on_step=lambda lam, m: snapshots.append((lam, m.mesh.state.copy())))
    wall = time.perf_counter() - t0
    assert rep.converged
    return model, snapshots, wall


def test_criterion_01_rollup_closure(rollup_run):
    model, _, wall = rollup_run
    mesh = model.mesh
    length = ROLLUP["l"]
    tip = mesh.state.g_nodes[mesh.tip_node(), :3, 3]
    root = mesh.g0_nodes[mesh.node_index(0, mesh.ny // 2), :3, 3]
    gap = np.linalg.norm(tip - root)
    assert gap < 0.01 * length

    # final nodal positions fit a circle of radius L/(2 pi) within 1%:
    # deformation is in the x-z plane, fit center by least squares
    pos = mesh.state.g_nodes[:, :3, 3]
    x, z = pos[:, 0], pos[:, 2]
    a_mat = np.column_stack([2 * x, 2 * z, np.ones(len(x))])
    sol, *_ = np.linalg.lstsq(a_mat, x**2 + z**2, rcond=None)
    cx, cz, c0 = sol
    radius_fit = np.sqrt(c0 + cx**2 + cz**2)
    radii = np.sqrt((x - cx) ** 2 + (z - cz) ** 2)
    target = length / (2 * np.pi)
    assert abs(radius_fit - target) < 0.01 * target
    assert np.max(np.abs(radii - target)) < 0.01 * target

    assert wall < 60.0
    report(1, f"tip-to-root gap {gap / length:.2e} L, circle radius error "
              f"{abs(radius_fit - target) / target:.2e}, wall time {wall:.1f}s")


def test_criterion_02_elastica_curve(rollup_run):
    model, snapshots, _ = rollup_run
    mesh = model.mesh
    length, e, inertia = ROLLUP["l"], ROLLUP["e"], ROLLUP["inertia"]
    tip_node = mesh.tip_node()
    by_lambda = {round(lam, 10): state for lam, state in snapshots}
    worst = 0.0
    for frac in (0.25, 0.5, 0.75, 1.0):
        state = by_lambda[round(frac, 10)]
        theta = frac * ROLLUP["m_full"] * length / (e * inertia)
        x_ref = length * np.sin(theta) / theta
        y_ref = length * (1 - np.cos(theta)) / theta
        tip = state.g_nodes[tip_node, :3, 3]
        # deflection is in the x-z plane; compare against |analytic| at the
        # 2% of L scale (the full-circle reference point is the origin)
        err = max(abs(tip[0] - x_ref), abs(abs(tip[2]) - y_ref))
        worst = max(worst, err / length)
        assert err < 0.02 * length
    report(2, f"worst tip coordinate error {worst:.2e} L over M/M_full in "
              "{0.25, 0.5, 0.75, 1.0}")


def test_criterion_03_multi_turn_robustness():
    windings = {}
    for turns, steps in ((2, 24), (3, 30)):
        model = rollup_model(moment_factor=turns)
        rep = run(model, SolverSettings(load_steps=steps))
        assert rep.converged  # residual below tolerance at every step
        rot = abs(accumulated_edge_rotation(model.mesh, Y_AXIS))
        winding = rot / (2 * np.pi)
        assert round(winding) == turns
        assert abs(rot - 2 * np.pi * turns) < 0.01 * 2 * np.pi * turns
        windings[turns] = winding
    report(3, f"4pi/6pi converged with windings {windings[2]:.4f}, {windings[3]:.4f}")


def test_criterion_04_small_load_linearity():
    e, length, width, h = 200e9, 1.0, 0.2, 0.01
    inertia = width * h**3 / 12
    p = 100.0  # gives delta/L = 0.01
    mesh = build_mesh(build_flat_plate(length, width), 20, 1)
    mesh.clamp_edge("xi1_min")
    mesh.add_edge_load("xi1_max", np.array([0, 0, p / width, 0, 0, 0]), frame="dead")
    model = FemModel(mesh, Material(e=e, nu=0.0, h=h))
    rep = run(model, SolverSettings(load_steps=1))
    assert rep.converged
    dz = mesh.state.g_nodes[mesh.tip_node(), 2, 3]
    delta = p * length**3 / (3 * e * inertia)
    assert dz / length < 0.011
    err = abs(dz - delta) / delta
    assert err < 0.01
    report(4, f"end-shear deflection vs P L^3/3EI: error {err:.2e}")


def test_criterion_05_tangent_consistency():
    worst_mech = 0.0
    for seed in range(10):
        mesh = build_mesh(build_flat_plate(1.0, 0.4), 4, 2)
        model = FemModel(mesh, Material(e=3e6, nu=0.3, h=0.05))
        random_state_perturbation(model, 0.03, seed)
        a = model.assemble(model.element_kernels()).toarray()
        jac = fd_residual_jacobian(model)
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        worst_mech = max(worst_mech, err)
        assert err < 1e-5

    worst_mag = 0.0
    for seed in (100, 101, 102):
        mesh = build_mesh(build_flat_plate(1.0, 0.4), 4, 2)
        mesh.b_r = np.tile(np.array([0.05, 0.0, 0.08]), (mesh.n_elements, 1))
        model = FemModel(mesh, Material(e=3e6, nu=0.3, h=0.05),
                         field=MagneticEnvironment(np.array([0.01, 0.02, 0.03])).scaled)
        random_state_perturbation(model, 0.05, seed)
        a = model.assemble(model.element_kernels()).toarray()
        jac = fd_residual_jacobian(model)
        err = np.linalg.norm(a + jac) / np.linalg.norm(a)
        worst_mag = max(worst_mag, err)
        assert err < 1e-5
    report(5, f"FD jacobian match: mechanical {worst_mech:.2e}, "
              f"with magnetics {worst_mag:.2e} (tol 1e-5)")


def _skew_ratio(a) -> float:
    skew = 0.5 * (a - a.T)
    num = sp.linalg.norm(skew) if sp.issparse(skew) else np.linalg.norm(skew)
    den = sp.linalg.norm(a) if sp.issparse(a) else np.linalg.norm(a)
    return float(num / den)


def test_criterion_06_equilibrium_symmetry(rollup_run):
    model, snapshots, _ = rollup_run
    mesh = model.mesh
    saved = mesh.state
    worst = 0.0
    for lam, state in snapshots:
        mesh.state = state
        worst = max(worst, _skew_ratio(mechanical_tangent(model)))
    assert worst < 1e-6

    mesh.state = snapshots[-1][1].copy()
    random_state_perturbation(model, 0.05, seed=42)
    perturbed = _skew_ratio(mechanical_tangent(model))
    assert perturbed > 1e-3
    mesh.state = saved
    report(6, f"skew ratio at converged steps <= {worst:.2e} (tol 1e-6); "
              f"perturbed state {perturbed:.2e} (> 1e-3)")


def test_criterion_07_frame_indifference():
    h_rigid = exp_se3(np.array([0.4, -0.8, 0.6, 0.5, -0.3, 0.7]))
    p = 20.0  # soft strip, strongly deflected dead-load state

    def solve(transform):
        surface = build_flat_plate(ROLLUP["l"], ROLLUP["w"])
        wrench = np.array([0, 0, p / ROLLUP["w"], 0, 0, 0])
        if transform is not None:
            surface = transform_reference(surface, transform)
            rot = transform[:3, :3]
            wrench = np.concatenate([rot @ wrench[:3], rot @ wrench[3:]])
        mesh = build_mesh(surface, 20, 1)
        mesh.clamp_edge("xi1_min")
        mesh.add_edge_load("xi1_max", wrench, frame="dead")
        model = FemModel(mesh, Material(e=ROLLUP["e"], nu=0.0, h=ROLLUP["h"]))
        rep = run(model, SolverSettings(load_steps=4, tol_relative=1e-10))
        assert rep.converged
        return mesh

    mesh = solve(None)

    # clause 1: transform the converged state and its dead loads; strain
    # measures recomputed from the transformed pose field change by < 1e-12.
    # The strain proxy log(g_i^-1 g_j)/dxi depends only on relative poses.
    def edge_strains(g_nodes):
        out = []
        for i in range(mesh.nx):
            a = mesh.node_index(i, 0)
            b = mesh.node_index(i + 1, 0)
            rel = np.linalg.inv(g_nodes[a]) @ g_nodes[b]
            out.append(log_se3(rel) / mesh.le[0])
        return np.array(out)

    before = edge_strains(mesh.state.g_nodes)
    after = edge_strains(h_rigid @ mesh.state.g_nodes)
    strain_diff = np.max(np.abs(after - before))
    assert strain_diff < 1e-12

    # clause 2: re-solving the rigidly pre-transformed problem maps the final
    # configuration exactly under h
    mesh_t = solve(h_rigid)
    tip_diff = np.max(np.abs(h_rigid @ mesh.state.g_nodes - mesh_t.state.g_nodes))
    assert tip_diff < 1e-8
    report(7, f"strain change under rigid transform {strain_diff:.2e} "
              f"(tol 1e-12); re-solved configuration maps under h to "
              f"{tip_diff:.2e} (tol 1e-8)")


def test_criterion_08_locking_free_thinness_sweep():
    e, length, width = 12e6, 10.0, 1.0
    gauss_errors = {}
    centroid_errors = {}
    for scheme in ("centroid", "gauss"):
        for h in (1.0, 0.1, 0.01):  # h/L = 1e-1, 1e-2, 1e-3
            inertia = width * h**3 / 12
            m = 2 * np.pi * e * inertia / length
            mesh = build_mesh(build_flat_plate(length, width), 100, 1)
            mesh.clamp_edge("xi1_min")
            mesh.add_edge_load("xi1_max", np.array([0, 0, 0, 0, m / width, 0]),
                               frame="follower")
            model = FemModel(mesh, Material(e=e, nu=0.0, h=h), scheme=scheme)
            rep = run(model, SolverSettings(load_steps=20))
            assert rep.converged
            rot = abs(accumulated_edge_rotation(mesh, Y_AXIS))
            err = abs(rot - 2 * np.pi) / (2 * np.pi)
            if scheme == "centroid":
                centroid_errors[h / length] = err
                assert err < 0.02
            else:
                gauss_errors[h / length] = err
    # the diagnostic full-gauss variant is allowed (expected) to degrade
    assert gauss_errors[1e-3] > centroid_errors[1e-3]
    report(8, "centroid-scheme tip rotation errors "
              + ", ".join(f"h/L={k:g}: {v:.2e}" for k, v in centroid_errors.items())
              + " (tol 2e-2); gauss diagnostic degrades to "
              + f"{gauss_errors[1e-3]:.1%} at h/L=1e-3")


def magneto_elastica_oracle(k_bend: float, couple: float, length: float):
    """Planar rod with distributed couple: k th'' + c cos(th) = 0, th(0) = 0,
    th'(L) = 0, solved through the energy first integral.

    Arclength and deflection reduce to quadratures over the angle; the
    substitution th = th_L - v^2 removes the endpoint singularity and the
    product form 2 cos(th_L - v^2/2) sin(v^2/2) of sin(th_L) - sin(th) avoids
    cancellation.  Returns (tip angle, tip deflection / length).
    """
    scale = np.sqrt(k_bend / (2 * couple))

    def denom(th_l, v):
        return np.sqrt(2.0 * np.cos(th_l - 0.5 * v * v) * np.sin(0.5 * v * v))

    def arclen(th_l):
        val, _ = quad(lambda v: 2 * v / denom(th_l, v), 0.0, np.sqrt(th_l),
                      limit=500)
        return scale * val

    th_l = brentq(lambda t: arclen(t) - length, 1e-9, np.pi / 2 - 1e-13,
                  xtol=1e-15)
    def deflection(limit):
        val, _ = quad(lambda v: 2 * v * np.sin(th_l - v * v) / denom(th_l, v),
                      0.0, np.sqrt(th_l), limit=limit)
        return scale * val / length

    d1, d2 = deflection(200), deflection(500)
    assert abs(d1 - d2) < 1e-8  # quadrature self-check
    return th_l, d2


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_09_magnetic_cantilever():
    cfg = load_bundled("magnetic_cantilever_lh41")
    length, width, h = cfg.length, cfg.width, cfg.material.h
    assert length == pytest.approx(17.2e-3) and h == pytest.approx(0.42e-3)
    br = np.linalg.norm(cfg.magnetic.b_r)
    ba = np.linalg.norm(cfg.magnetic.b_a)

    # oracle built from the 1D reduction of the shell law: cylindrical
    # bending stiffness E h^3 / (12 (1 + nu)) per unit width, distributed
    # couple (h/mu0) B^r B^a cos(theta)
    k_bend = cfg.material.e * h**3 / (12 * (1 + cfg.material.nu))
    couple = h * br * ba / MU0
    _, defl_oracle = magneto_elastica_oracle(k_bend, couple, length)

    model = build_model(cfg)
    rep = run(model, cfg.solver)
    assert rep.converged
    mesh = model.mesh
    dz = mesh.state.g_nodes[mesh.tip_node(), 2, 3] - mesh.g0_nodes[mesh.tip_node(), 2, 3]
    err = abs(dz / length - defl_oracle) / abs(defl_oracle)
    assert err < 0.03
    report(9, f"normalized tip deflection {dz / length:.4f} vs rod oracle "
              f"{defl_oracle:.4f}: {err:.2%} (tol 3%)")


def test_criterion_10_antiparallel_instability():
    cfg = load_bundled("antiparallel")

    # straight state, exactly antiparallel field: zero magnetic force
    straight = build_model(cfg.__class__(**{**cfg.__dict__, "perturb": None}))
    # evaluate at the final field directly
    straight.field = MagneticEnvironment(cfg.magnetic.b_a, cfg.magnetic.mu0).scaled
    system = straight.build_system(1.0)
    assert system.residual_norm == 0.0

    # the magnetic stiffness destabilizes the straight state: the tangent
    # acquires a negative eigenvalue that the mechanical part alone lacks
    eig_full = np.linalg.eigvals(system.a.toarray()).real.min()
    eig_mech = np.linalg.eigvals(
        mechanical_tangent(straight).toarray()).real.min()
    assert eig_full < 0.0
    assert eig_mech > 0.0
    e_straight = sum(straight.energies(1.0))

    # perturbed run (1e-3 tip rotation + the scenario's field rotation
    # program) lands on the deflected branch with lower total energy
    model = build_model(cfg)
    rep = run(model, cfg.solver)
    assert rep.converged
    mesh = model.mesh
    disp = mesh.state.g_nodes[mesh.tip_node(), :3, 3] - mesh.g0_nodes[mesh.tip_node(), :3, 3]
    assert np.linalg.norm(disp) > 0.5 * cfg.length  # genuinely deflected
    e_final = sum(model.energies(1.0))
    assert e_final < e_straight
    report(10, f"straight force 0, destabilized eig {eig_full:.2e} "
               f"(mechanical {eig_mech:.2e}); deflected energy {e_final:.3e} "
               f"< straight {e_straight:.3e}")


def test_criterion_11_liegroup_unit_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    # exp/log round trips up to |w| = 3
    for _ in range(60):
        t = rng.normal(size=6)
        t[3:] *= rng.uniform(1e-6, 3.0) / np.linalg.norm(t[3:])
        assert np.allclose(log_se3(exp_se3(t)), t, atol=1e-10)
    # Adjoint homomorphism
    for _ in range(40):
        g1 = exp_se3(rng.normal(size=6))
        g2 = exp_se3(rng.normal(size=6))
        assert np.allclose(Ad(g1 @ g2), Ad(g1) @ Ad(g2), atol=1e-12)
    # bracket antisymmetry and dexp finite differences
    for _ in range(40):
        x, y = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(ad(x) @ y, -(ad(y) @ x), atol=1e-13)
    eps = 1e-6
    for _ in range(25):
        t = rng.normal(size=6) * 0.5
        d = dexp_se3(t)
        g_inv = np.linalg.inv(exp_se3(t))
        for j in range(6):
            u = np.zeros(6)
            u[j] = 1.0
            col = g_inv @ (exp_se3(t + eps * u) - exp_se3(t - eps * u)) / (2 * eps)
            fd = np.concatenate([col[:3, 3], [col[2, 1], col[0, 2], col[1, 0]]])
            assert np.allclose(d[:, j], fd, atol=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(11, f"round trips, homomorphism, bracket, dexp-FD all pass in "
               f"{elapsed:.2f}s (< 1s)")
