"""Run outputs: load-deflection CSV, deformed geometry dumps, solve report.

CSV columns (one row per scheduled load step, plus the zero state):

    step, load_factor, magnitude, tip_ux, tip_uy, tip_uz, tip_rot_angle

`magnitude` is the ramped total of the first boundary load's force/moment (a
`follower_edge` load's |wrench| times its edge length), or |B^a(load_factor)|
of the model's field program for purely magnetic runs (read through
`FemModel.environment_at`, so it reuses the environment the step's last
build evaluated);
`tip_rot_angle` is the principal angle of R_t R_0^T at the tip node, wrapped
to [0, pi] (multi-turn winding is a post-processing quantity, see
solver.accumulated_edge_rotation).

`solve_report.txt` holds `key: value` header lines (among them
`band_scaling`, the variant of the band LU that `solver.band_scaling` picks
from the width of the final free-DOF band, `jacobi` or `none`, and
`lu_row_interchanges`, the row interchanges of the factors of all the run's
solves), one `rejected: step S load_factor L: reason` line per rejected
attempt, then `log:` followed by one `step iter residual` line per Newton
iteration, all written from the solver's attempt records.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .fem import FemModel
from .mesh import dump_mesh, dump_triangles
from .scenario import ScenarioConfig, ScenarioError, build_model, edge_length
from .solver import SolveReport, band_scaling, run


def emit_deformed_geometry(mesh, path_base) -> None:
    """Write the mesh dump plus the triangulated quad listing for plotting."""
    path_base = Path(path_base)
    dump_mesh(mesh, path_base.with_suffix(".txt"))
    dump_triangles(mesh, path_base.with_suffix(".tri"))


def tip_displacement(model: FemModel) -> np.ndarray:
    tip = model.mesh.tip_node()
    return model.mesh.state.g_nodes[tip, :3, 3] - model.mesh.g0_nodes[tip, :3, 3]


def tip_rotation_angle(model: FemModel) -> float:
    tip = model.mesh.tip_node()
    r_rel = model.mesh.state.g_nodes[tip, :3, :3] @ model.mesh.g0_nodes[tip, :3, :3].T
    c = np.clip(0.5 * (np.trace(r_rel) - 1.0), -1.0, 1.0)
    return float(np.arccos(c))


def primary_magnitude(cfg: ScenarioConfig, model: FemModel, load_factor: float) -> float:
    """The CSV `magnitude` at `load_factor` (see the module docstring)."""
    if cfg.loads:
        first = cfg.loads[0]
        if first.kind == "follower_edge":
            return load_factor * float(np.linalg.norm(first.wrench)) * edge_length(first, cfg)
        return load_factor * first.magnitude
    env = model.environment_at(load_factor)
    return 0.0 if env is None else float(np.linalg.norm(env.b_applied))


def run_scenario(cfg: ScenarioConfig, out_dir, *,
                 quiet: bool = False) -> tuple[SolveReport, FemModel]:
    """Execute one scenario and write CSV, mesh dumps and the solve report.

    An `out_dir` that cannot be created raises ScenarioError.
    """
    model = build_model(cfg)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {out_dir}: "
                            f"{exc.strerror or exc}") from exc

    rows = [(0, 0.0, 0.0, *tip_displacement(model), tip_rotation_angle(model))]
    if cfg.mesh_dumps:
        emit_deformed_geometry(model.mesh, out_dir / "mesh_step_000")

    def on_step(lam, mdl):
        k = len(rows)
        rows.append((k, lam, primary_magnitude(cfg, mdl, lam), *tip_displacement(mdl),
                     tip_rotation_angle(mdl)))
        if cfg.mesh_dumps:
            emit_deformed_geometry(mdl.mesh, out_dir / f"mesh_step_{k:03d}")

    report = run(model, cfg.solver, on_step=on_step, log=None if quiet else print)

    with open(out_dir / cfg.csv_name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "load_factor", "magnitude",
                         "tip_ux", "tip_uy", "tip_uz", "tip_rot_angle"])
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.12e}" for v in row[1:]])

    with open(out_dir / "solve_report.txt", "w") as fh:
        fh.write(f"scenario: {cfg.name}\n")
        fh.write(f"converged: {report.converged}\n")
        fh.write(f"wall_time_s: {report.wall_time:.3f}\n")
        fh.write(f"max_linear_residual: {report.max_linear_residual:.3e}\n")
        fh.write(f"band_scaling: {band_scaling(model.half_bandwidth())}\n")
        fh.write(f"lu_row_interchanges: {report.row_interchanges}\n")
        if report.message:
            fh.write(f"message: {report.message}\n")
        for step, lam, reason in report.rejections:
            fh.write(f"rejected: step {step} load_factor {lam:.6g}: {reason}\n")
        fh.write("log:\n")
        fh.writelines(f"{a.log_line(it)}\n" for a in report.attempts
                      for it in range(1, a.iterations + 1))

    return report, model
