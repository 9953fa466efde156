"""The benchmark tracer wraps se3shell functions by the names callers use.

`perfbench/layers.py` looks every wrapped name up with `vars(owner)[name]`, so
renaming or moving one of them breaks a traced benchmark run with KeyError.
This checks every name in its span table against the current modules.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in layers.SPANS if attr not in vars(owner)]
    assert not missing, f"names wrapped by perfbench/layers.py are gone: {missing}"
    assert len(layers.SPANS) > 0
