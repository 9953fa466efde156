"""The benchmark tracer wraps se3shell functions by the names callers use.

`perfbench/layers.py` looks every wrapped name up with `vars(owner)[name]`, so
renaming or moving one of them breaks a traced benchmark run with KeyError.
This checks every name in its span table against the current modules, and
runs one short traced solve, so a field its hooks read (such as the
`ElementKernels` fields) cannot go missing either.
"""

import importlib.util
from pathlib import Path

import numpy as np

from se3shell import outputs
from se3shell.scenario import load_bundled

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_name_resolves():
    layers = _load_layers()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in layers.SPANS if attr not in vars(owner)]
    assert not missing, f"names wrapped by perfbench/layers.py are gone: {missing}"
    assert len(layers.SPANS) > 0


def test_traced_run_has_finite_metrics(tmp_path):
    layers = _load_layers()
    with layers.Tracer() as tracer:
        report, _ = outputs.run_scenario(load_bundled("magnetic_cantilever_lh10"),
                                         tmp_path, quiet=True)
    assert report.converged
    metrics = tracer.metrics()
    assert all(np.isfinite(v) for v in metrics.values()), metrics
    assert metrics["fem.kernels_calls"] > 0 and metrics["fem.kernel_bytes_computed"] > 0
