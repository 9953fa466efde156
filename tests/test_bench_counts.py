"""The benchmark's counts agree with the solver's attempt records.

`perfbench/bench.py` counts a run's Newton iterations (builds) and attempts
from the `log:` section of `solve_report.txt` and its accepted attempts from
`report.steps`.  This runs its `solve_once` on a short scenario with one
forced rejection, so a change to the report file or to `SolveReport` that
would make the benchmark miscount fails here.
"""

import importlib.util
import sys
from pathlib import Path

from conftest import SINGULAR_REASON, reject_first_solve
from se3shell import outputs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_bench(monkeypatch):
    # bench.py imports its sibling modules by their plain names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("answers", "layers", "probe"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_bench", PERFBENCH / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)   # its dataclasses look it up
    spec.loader.exec_module(bench)
    return bench


def test_solve_once_counts_match_the_report(tmp_path, monkeypatch):
    bench = _load_bench(monkeypatch)
    reports = []
    run_scenario = outputs.run_scenario

    def recorded(*args, **kwargs):
        result = run_scenario(*args, **kwargs)
        reports.append(result[0])
        return result

    monkeypatch.setattr(outputs, "run_scenario", recorded)
    reject_first_solve(monkeypatch)
    run = bench.solve_once("magnetic_cantilever_lh10", tmp_path / "out", None)
    (report,) = reports
    assert run.ok and report.converged
    assert [reason for _, _, reason in report.rejections] == [SINGULAR_REASON]
    assert (run.builds, run.attempts) == (report.iterations, len(report.attempts))
    assert run.accepted_attempts == len(report.steps) == len(report.attempts) - 1
