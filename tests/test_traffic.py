"""`scripts/traffic.py` lists the library statements no scenario executes."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "traffic.py"


def test_lists_the_unexecuted_polar_projection():
    # no bundled scenario drifts off SO(3) by more than 1e-12, so the polar
    # re-projection of update_configuration never runs
    done = subprocess.run([sys.executable, str(SCRIPT), "magnetic_cantilever_lh10"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "magnetic_cantilever_lh10: converged" in out
    assert re.search(r"^solver\.py: \d+ of \d+ statements not executed$", out, re.M)
    assert re.search(r"^  solver\.py:\d+ update_configuration: "
                     r"u, _, vt = np\.linalg\.svd\(r\)$", out, re.M)
    # a statement every solve runs is not listed
    assert "newton_step: eta = lapack.dgbtrs" not in out
