"""CI gate: every bundled scenario converges with its default settings, in
the pinned number of system builds and Newton attempts."""

import numpy as np
import pytest

from se3shell.scenario import build_model, list_bundled, load_bundled
from se3shell.solver import run


# (system builds, Newton attempts) of each bundled scenario; a change that
# moves them on purpose updates this table and says why.
COUNTS = {
    "antiparallel": (199, 49),
    "arch_rollup": (209, 24),
    "arch_tangent": (214, 40),
    "arch_transverse": (243, 40),
    "drilling_2pi": (60, 20),
    "drilling_4pi": (90, 30),
    "end_shear": (104, 20),
    "gripper_finger": (87, 20),
    "magnetic_cantilever_lh10": (79, 20),
    "magnetic_cantilever_lh17p5": (82, 20),
    "magnetic_cantilever_lh20p5": (88, 22),
    "magnetic_cantilever_lh41": (119, 29),
    "magnetic_plate_A": (87, 20),
    "magnetic_plate_B": (85, 20),
    "rollup_2pi": (363, 56),
    "rollup_4pi": (642, 115),
    "rollup_6pi": (788, 148),
    "torsion_pi": (67, 20),
    "torsion_2pi": (114, 30),
    "torsion_3pi": (159, 40),
}


def test_counts_cover_every_bundled_scenario():
    assert sorted(COUNTS) == sorted(list_bundled())


@pytest.mark.parametrize("name", list_bundled())
def test_bundled_scenario_converges(name):
    cfg = load_bundled(name)
    model = build_model(cfg)
    lines = []
    report = run(model, cfg.solver, log=lines.append)
    assert report.converged, report.message
    attempts = sum(1 for line in lines if line.split()[1] == "1")
    assert (len(lines), attempts) == COUNTS[name]
    assert len(report.rejections) == attempts - len(report.steps)
    # the final state actually moved for every loaded scenario
    disp = model.mesh.state.g_nodes[:, :3, 3] - model.mesh.g0_nodes[:, :3, 3]
    assert np.isfinite(disp).all()
    if cfg.loads or cfg.magnetic is not None:
        scale = cfg.length if cfg.geometry_kind == "flat" else cfg.radius
        assert np.abs(disp).max() > 1e-6 * scale
