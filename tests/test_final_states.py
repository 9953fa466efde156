"""`scripts/final_states.py` stores final states and compares two stores."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "final_states.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("final_states", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_save_then_compare(tmp_path, capsys):
    script = _load_script()
    old = tmp_path / "old.npz"
    script.save(str(old), ["torsion_pi"])
    assert script.compare(str(old), str(old)) == 0
    assert "torsion_pi                     yes" in capsys.readouterr().out

    with np.load(old) as stored:
        arrays = dict(stored)
    assert arrays["torsion_pi/counts"].tolist() == [67, 20, 1]
    assert arrays["torsion_pi/zeta_pts"].shape[1:] == (1, 2, 6)  # centroid twists
    assert arrays["torsion_pi/r_pts"].shape[1:] == (0, 3, 3)     # no magnetization

    def compared_row(**edits):
        changed = dict(arrays)
        for key, edit in edits.items():
            changed[f"torsion_pi/{key}"] = edit(changed[f"torsion_pi/{key}"].copy())
        new = tmp_path / "new.npz"
        np.savez(new, **changed)
        status = script.compare(str(old), str(new))
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("torsion_pi"))
        return status, row.split()[1:6]

    def moved_tip(g):
        g[-1, :3, 3] += 1e-9 * arrays["torsion_pi/scale"]
        return g

    def moved_twist(zeta):
        zeta[3, 0, 1, 4] += 2e-12
        return zeta

    zero = "0.000e+00"
    assert compared_row(g_nodes=moved_tip) == (1, ["no", "1.000e-09", zero, zero, zero])
    assert compared_row(zeta_pts=moved_twist) == (1, ["no", zero, zero, "2.000e-12", zero])


def test_compare_reports_carried_rotations(tmp_path, capsys):
    script = _load_script()
    angle = 3e-8
    c, s = np.cos(angle), np.sin(angle)
    r_pts = np.broadcast_to(np.eye(3), (2, 4, 3, 3)).copy()
    state = {"g_nodes": np.broadcast_to(np.eye(4), (6, 4, 4)), "zeta_pts": np.zeros((2, 4, 2, 6)),
             "r_pts": r_pts, "counts": np.array([5, 1, 1]), "scale": np.array(1.0)}
    paths = [tmp_path / "old.npz", tmp_path / "new.npz"]
    np.savez(paths[0], **{f"plate/{key}": value for key, value in state.items()})
    r_pts[1, 2] = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    np.savez(paths[1], **{f"plate/{key}": value for key, value in state.items()})
    assert script.compare(*map(str, paths)) == 1
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("plate"))
    assert row.split()[1:6] == ["no", "0.000e+00", "0.000e+00", "0.000e+00", "3.000e-08"]


def test_rotation_angle_near_zero_and_pi():
    script = _load_script()
    for angle in (1e-12, 1e-6, 1.0, np.pi - 1e-9):
        c, s = np.cos(angle), np.sin(angle)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert abs(script.rotation_angle(r) - angle) <= 1e-15 * max(angle, 1.0)


def test_compare_within_tolerance(tmp_path, capsys):
    # a state that moved by no more than --tol passes as `within`, unless its
    # builds or attempts differ
    script = _load_script()
    g_nodes = np.broadcast_to(np.eye(4), (6, 4, 4)).copy()
    state = {"g_nodes": g_nodes, "zeta_pts": np.zeros((2, 1, 2, 6)),
             "r_pts": np.zeros((2, 0, 3, 3)), "counts": np.array([5, 1, 1]),
             "scale": np.array(2.0)}
    paths = [tmp_path / "old.npz", tmp_path / "new.npz", tmp_path / "recount.npz"]
    np.savez(paths[0], **{f"strip/{key}": value for key, value in state.items()})
    g_nodes[-1, 2, 3] += 4e-10                  # 2e-10 of the length scale
    state["zeta_pts"][1, 0, 0, 3] = -3e-10
    np.savez(paths[1], **{f"strip/{key}": value for key, value in state.items()})
    state["counts"] = np.array([6, 1, 1])
    np.savez(paths[2], **{f"strip/{key}": value for key, value in state.items()})

    def compared(new, tol):
        status = script.compare(str(paths[0]), str(new), tol)
        out = capsys.readouterr().out.splitlines()
        row = next(line for line in out if line.startswith("strip"))
        return status, row.split()[1:5], out[-1]

    assert compared(paths[1], 1e-9) == (
        0, ["within", "2.000e-10", "0.000e+00", "3.000e-10"],
        "0 of 1 scenarios identical, 1 within 1.0e-09")
    assert compared(paths[1], 2e-10)[:2] == (1, ["no", "2.000e-10", "0.000e+00", "3.000e-10"])
    assert compared(paths[1], 0.0)[0] == 1
    assert compared(paths[2], 1e-9)[:2] == (
        1, ["within", "2.000e-10", "0.000e+00", "3.000e-10"])
    assert compared(paths[0], 1e-9)[2] == "1 of 1 scenarios identical, 0 within 1.0e-09"
