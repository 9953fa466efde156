"""`scripts/traffic.py` lists the library statements no scenario executes."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "traffic.py"


def test_lists_the_unexecuted_polar_projection():
    # no bundled scenario drifts off SO(3) by more than 1e-12, so the polar
    # re-projection of project_rotations never runs
    # (gripper_finger is four elements wide, so its band LU factors D A D;
    # end_shear carries a dead load)
    names = ["magnetic_cantilever_lh10", "gripper_finger", "end_shear"]
    done = subprocess.run([sys.executable, str(SCRIPT), *names],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    for name in names:
        assert f"{name}: converged" in out
    assert re.search(r"^solver\.py: \d+ of \d+ statements not executed$", out, re.M)
    assert re.search(r"^  solver\.py:\d+ project_rotations: "
                     r"u, _, vt = np\.linalg\.svd\(r\)$", out, re.M)
    # the model has one assembly path, run constants read once from a problem
    # fixed at construction, carried points among them, and the solver one
    # linear solve on the band, which every solve runs whole, with D A D on
    # the wide band: apart from the raise of an error path, no statement of
    # them is left unexecuted, so a branch that only tests feed shows up here
    unrun = re.findall(r"^  fem\.py:\d+ FemModel\.(__init__|interpolation_rows|assemble|"
                       r"apply_boundary_conditions|build_system|_layout|"
                       r"_remanent_field|_magnetic_quadrature|_sampling): (.*)$", out, re.M)
    unrun += re.findall(r"^  fem\.py:\d+ (Band\.(?:scale_jacobi|residual)|"
                        r"_Scatter\.\w+): (.*)$", out, re.M)
    unrun += re.findall(r"^  solver\.py:\d+ (newton_step): (.*)$", out, re.M)
    assert all(source.startswith("raise ") for _, source in unrun), unrun
    # the update has one path too, one coefficient pass per update, and the
    # drift check of each accepted attempt one: apart from a raise and the
    # polar re-projection above, every statement of them runs
    unrun = re.findall(r"^  solver\.py:\d+ (apply_increment_field|update_configuration|"
                       r"_check_rotation_increment|update_twists|project_rotations): (.*)$",
                       out, re.M)
    polar = {"u, _, vt = np.linalg.svd(r)", "state.g_nodes[:, :3, :3] = u @ vt"}
    assert all(source.startswith("raise ") or source in polar for _, source in unrun), unrun
