"""Mesh and model set-up: the vectorized sampling equals per-point calls,
and the vectorized dumps equal the per-value writers byte for byte."""

import numpy as np
import pytest

from conftest import assert_dump_matches_oracles, random_state_perturbation
from se3shell.constitutive import Material, metric_inverse, stiffness_blocks
from se3shell.fem import FemModel
from se3shell.kinematics import build_cylindrical_arch, build_flat_plate
from se3shell.mesh import N_PTS, build_mesh
from se3shell.outputs import dump_text
from se3shell.scenario import build_model, load_bundled

SURFACES = {
    "plate": build_flat_plate(1.3, 0.4),
    "arch": build_cylindrical_arch(0.7, np.pi, 0.2),
}
MAT = Material(e=3.0e6, nu=0.3, h=0.05)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_build_mesh_equals_pointwise_surface_calls(name):
    surface = SURFACES[name]
    nx, ny = 5, 3
    mesh = build_mesh(surface, nx, ny)
    assert mesh.n_nodes == (nx + 1) * (ny + 1)
    for n, (x, y) in enumerate(mesh.param):
        assert x == pytest.approx(mesh.le[0] * (n % (nx + 1)))
        assert y == pytest.approx(mesh.le[1] * (n // (nx + 1)))
        assert np.allclose(mesh.g0_nodes[n], surface.pose_at(x, y), rtol=0, atol=1e-15)
    for e, nodes in enumerate(mesh.conn):
        i, j = e % nx, e // nx
        assert list(nodes) == [j * (nx + 1) + i, j * (nx + 1) + i + 1,
                               (j + 1) * (nx + 1) + i + 1, (j + 1) * (nx + 1) + i]
        corners = mesh.param[nodes]
        for p in range(5):
            x, y = N_PTS[p] @ corners
            z1, z2 = surface.twists_at(x, y)
            assert np.allclose(mesh.zeta0_pts[e, p], np.stack([z1, z2]), rtol=0, atol=1e-15)
            assert np.allclose(mesh.r0_pts[e, p], surface.pose_at(x, y)[:3, :3],
                               rtol=0, atol=1e-15)
            assert mesh.jac0_pts[e, p] == surface.jac_at(x, y)
    assert np.array_equal(mesh.state.g_nodes, mesh.g0_nodes)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_surface_scalar_and_array_calls_agree(name):
    surface = SURFACES[name]
    assert surface.pose_at(0.3, 0.1).shape == (4, 4)
    z1, z2 = surface.twists_at(0.3, 0.1)
    assert z1.shape == z2.shape == (6,)
    assert isinstance(surface.jac_at(0.3, 0.1), float)
    xs = np.array([[0.0, 0.2], [0.5, 0.9]])
    ys = np.array([[0.0, 0.1], [0.05, 0.2]])
    poses = surface.pose_at(xs, ys)
    z1s, z2s = surface.twists_at(xs, ys)
    assert poses.shape == (2, 2, 4, 4)
    assert z1s.shape == z2s.shape == (2, 2, 6)
    assert surface.jac_at(xs, ys).shape == (2, 2)
    for idx in np.ndindex(xs.shape):
        assert np.array_equal(poses[idx], surface.pose_at(xs[idx], ys[idx]))
        assert np.array_equal(z1s[idx], surface.twists_at(xs[idx], ys[idx])[0])



@pytest.mark.parametrize("name", sorted(SURFACES))
def test_d_blocks_equal_per_element_evaluation(name):
    mesh = build_mesh(SURFACES[name], 4, 2)
    model = FemModel(mesh, MAT)
    for e in range(mesh.n_elements):
        c1, c2 = mesh.zeta0_pts[e, 0, :, :3]
        assert np.array_equal(model.d_blocks[e],
                              stiffness_blocks(MAT, metric_inverse(c1, c2)))


@pytest.mark.parametrize("name", ["rollup_6pi", "arch_transverse", "magnetic_plate_A"])
def test_dumps_equal_per_value_writers(name, tmp_path):
    # flat strip, curved arch and 2-D plate, away from the reference state,
    # with one signed zero
    model = build_model(load_bundled(name))
    random_state_perturbation(model, 0.05, seed=5)
    mesh = model.mesh
    mesh.state.g_nodes[0, 2, 3] = -0.0
    base = assert_dump_matches_oracles(mesh, dump_text(mesh), tmp_path)
    assert base.with_suffix(".txt").read_text().splitlines()[1].split()[5] == "-0"


@pytest.mark.parametrize("name", ["rollup_6pi", "arch_transverse", "magnetic_plate_A"])
def test_dumps_follow_state_chart_and_connectivity(name, tmp_path):
    # a run builds its dump text once from the chart and connectivity, which
    # it never edits: the same text must write a new state as the per-value
    # writers write it
    model = build_model(load_bundled(name))
    mesh = model.mesh
    text = dump_text(mesh)
    assert_dump_matches_oracles(mesh, text, tmp_path)
    random_state_perturbation(model, 0.05, seed=6)
    assert_dump_matches_oracles(mesh, text, tmp_path)
