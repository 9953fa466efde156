"""The answer of one scenario run, read back from its outputs, and its check.

The answer is the tip pose at every scheduled load step: the load factor from
the load-deflection CSV (one row per ``on_step`` call) and the tip node's
position and rotation from the matching mesh dump, which holds them to 17
significant digits.  For the roll-up the accumulated edge rotation is added,
which also has an analytic value (the number of closed turns times 2 pi).

A run passes when every step agrees with the recorded reference within
TOLERANCE: position error over the chart length, and rotation error as
||R - R_ref||_F / sqrt(2), which is the angle between them for small angles
(unlike the CSV's arccos-based angle, which is ill-conditioned near 0 and pi).
TOLERANCE sits between two measured sizes (see NOTES.md): roundoff-sized
changes to the arithmetic move the answers by at most 5e-10, while a solver
that stops Newton one iteration early misses them by 7.5e-6 or more.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from se3shell.solver import accumulated_edge_rotation

TOLERANCE = 1e-7
LOAD_FACTOR_TOLERANCE = 1e-12
ROLL_AXIS = np.array([0.0, 1.0, 0.0])


def _tip_pose(dump_path: Path, tip: int) -> tuple[list[float], list[float]]:
    with open(dump_path) as fh:
        lines = fh.readlines()
    fields = lines[1 + tip].split()  # header line, then one line per node
    if int(fields[0]) != tip:
        raise ValueError(f"{dump_path}: node line {tip} not found")
    values = [float(v) for v in fields[3:15]]
    return values[:3], values[3:]


def read_answer(cfg, model, out_dir, closure: float | None = None) -> dict:
    """Collect the answer from the files a `run_scenario` call wrote."""
    out_dir = Path(out_dir)
    csv_path = out_dir / cfg.csv_name
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    tip = model.mesh.tip_node()
    steps = []
    for k, row in enumerate(rows):
        position, rotation = _tip_pose(out_dir / f"mesh_step_{k:03d}.txt", tip)
        steps.append({"load_factor": float(row["load_factor"]),
                      "position": position, "rotation": rotation})
    answer = {"scenario": cfg.name, "length": cfg.length, "steps": steps,
              "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest()}
    if closure is not None:
        answer["closure"] = closure
        answer["accumulated_edge_rotation"] = accumulated_edge_rotation(
            model.mesh, ROLL_AXIS)
    return answer


def answer_error(answer: dict, reference: dict) -> tuple[float, list[str]]:
    """Largest normalized deviation from the reference, and the failures."""
    problems = []
    if answer["scenario"] != reference["scenario"]:
        return float("inf"), [f"scenario {answer['scenario']} is not "
                              f"{reference['scenario']}"]
    if len(answer["steps"]) != len(reference["steps"]):
        return float("inf"), [f"{len(answer['steps'])} steps, reference has "
                              f"{len(reference['steps'])}"]
    length = reference["length"]
    worst = 0.0
    for k, (got, ref) in enumerate(zip(answer["steps"], reference["steps"])):
        if abs(got["load_factor"] - ref["load_factor"]) > LOAD_FACTOR_TOLERANCE:
            problems.append(f"step {k}: load factor {got['load_factor']!r}")
        dp = np.linalg.norm(np.subtract(got["position"], ref["position"])) / length
        dr = np.linalg.norm(np.subtract(got["rotation"], ref["rotation"])) / np.sqrt(2)
        worst = max(worst, dp, dr)
        if dp > TOLERANCE or dr > TOLERANCE:
            problems.append(f"step {k}: tip position error {dp:.3e} L, "
                            f"rotation error {dr:.3e} rad")
    if "closure" in reference:
        got = answer.get("accumulated_edge_rotation", float("nan"))
        ref = reference["accumulated_edge_rotation"]
        closure = reference["closure"]
        d = abs(got - ref) / abs(ref)
        worst = max(worst, d)
        if not d <= TOLERANCE:
            problems.append(f"accumulated edge rotation {got!r}, reference {ref!r}")
        if not abs(got - closure) <= TOLERANCE * abs(closure):
            problems.append(f"accumulated edge rotation {got!r} misses the "
                            f"analytic closure {closure!r}")
    return worst, problems


def load_reference(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_reference(answer: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(answer, fh, indent=1)
        fh.write("\n")
