"""CI gate: every bundled scenario converges with its default settings, in
the pinned number of system builds and Newton attempts."""

import numpy as np
import pytest

from se3shell import solver
from se3shell.fem import FemModel
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

# (mechanical kernel evaluations, tangent assemblies) of the same solves: the
# kernels are evaluated once per distinct state (a converged state's kernels
# serve the next attempt's first build, a restored state gets its kernels
# back), and the tangent only for the builds that a linear solve follows.
WORK = {
    "antiparallel": (151, 156),
    "arch_rollup": (186, 185),
    "arch_tangent": (175, 174),
    "arch_transverse": (204, 203),
    "drilling_2pi": (41, 40),
    "drilling_4pi": (61, 60),
    "end_shear": (85, 84),
    "gripper_finger": (68, 67),
    "magnetic_cantilever_lh10": (60, 59),
    "magnetic_cantilever_lh17p5": (63, 62),
    "magnetic_cantilever_lh20p5": (68, 67),
    "magnetic_cantilever_lh41": (91, 96),
    "magnetic_plate_A": (68, 67),
    "magnetic_plate_B": (66, 65),
    "rollup_2pi": (309, 325),
    "rollup_4pi": (529, 579),
    "rollup_6pi": (643, 708),
    "torsion_2pi": (85, 84),
    "torsion_3pi": (120, 119),
    "torsion_pi": (48, 47),
}


def test_counts_cover_every_bundled_scenario():
    assert sorted(COUNTS) == sorted(WORK) == sorted(list_bundled())


def _counted(monkeypatch, owner, name):
    """Replace `owner.name` by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("name", list_bundled())
def test_bundled_scenario_converges(name, monkeypatch):
    cfg = load_bundled(name)
    model = build_model(cfg)
    evaluations = _counted(monkeypatch, FemModel, "_evaluate_kernels")
    assemblies = _counted(monkeypatch, FemModel, "assemble")
    solves = _counted(monkeypatch, solver, "newton_step")
    lines = []
    report = run(model, cfg.solver, log=lines.append)
    assert report.converged, report.message
    attempts = sum(1 for line in lines if line.split()[1] == "1")
    assert (len(lines), attempts) == COUNTS[name]
    # the tangent is assembled for every solve and only then, and the
    # mechanical kernels once per distinct state
    assert (len(evaluations), len(assemblies)) == WORK[name]
    assert len(assemblies) == len(solves)
    assert (report.iterations, len(report.attempts)) == COUNTS[name]
    assert len(report.rejections) == attempts - len(report.steps)
    # the final state actually moved for every loaded scenario
    disp = model.mesh.state.g_nodes[:, :3, 3] - model.mesh.g0_nodes[:, :3, 3]
    assert np.isfinite(disp).all()
    if cfg.loads or cfg.magnetic is not None:
        scale = cfg.length if cfg.geometry_kind == "flat" else cfg.radius
        assert np.abs(disp).max() > 1e-6 * scale
