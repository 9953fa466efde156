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
    g = arrays["torsion_pi/g_nodes"]
    g[-1, :3, 3] += 1e-9 * arrays["torsion_pi/scale"]
    new = tmp_path / "new.npz"
    np.savez(new, **arrays)
    assert script.compare(str(old), str(new)) == 1
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("torsion_pi"))
    assert row.split()[1:4] == ["no", "1.000e-09", "0.000e+00"]


def test_rotation_angle_near_zero_and_pi():
    script = _load_script()
    for angle in (1e-12, 1e-6, 1.0, np.pi - 1e-9):
        c, s = np.cos(angle), np.sin(angle)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert abs(script.rotation_angle(r) - angle) <= 1e-15 * max(angle, 1.0)
