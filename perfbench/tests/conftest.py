"""Put the package sources and the benchmark modules on the import path."""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]
