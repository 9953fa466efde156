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

With mesh dumps on, each converged state (the zero state as step 000) gets
`mesh_step_KKK.txt`, `id xi1 xi2 px py pz r11..r33` per node then `id n1 n2
n3 n4` per element, and `mesh_step_KKK.tri`, two triangles per quad for
plotting tools that want simplices.  The text that depends on the chart and
connectivity alone is built once per run (`dump_text`), so each dump formats
only the 12 pose values per node.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .fem import FemModel
from .liegroup import unskew
from .mesh import ShellMesh
from .scenario import ScenarioConfig, ScenarioError, build_model, edge_length
from .solver import SolveReport, band_scaling, run


def dump_text(mesh: ShellMesh) -> tuple[str, str, str]:
    """The text of the dumps that depends on `param` and `conn` alone.

    Returns the node block as a format string, with the header, each node's
    id and chart coordinates already written in and one %.17g left per pose
    value, then the element block and the whole triangle file.
    """
    n, nel = mesh.n_nodes, mesh.n_elements
    chart = np.column_stack([np.arange(n), mesh.param]).ravel().tolist()
    elements = np.column_stack([np.arange(nel), mesh.conn]).ravel().tolist()
    t = 2 * np.arange(nel)
    a, b, c, d = mesh.conn.T
    tris = np.column_stack([t, a, b, c, t + 1, a, c, d]).ravel().tolist()  # 2 rows each
    # "%%" survives the chart formatting as the "%" of each pose value
    node_line = "%d %.17g %.17g" + " %%.17g" * 12 + "\n"
    return (f"# nodes {n}\n" + node_line * n % tuple(chart),
            f"# elements {nel}\n" + "%d %d %d %d %d\n" * nel % tuple(elements),
            f"# triangles {2 * nel}\n" + "%d %d %d %d\n" * (2 * nel) % tuple(tris))


def emit_deformed_geometry(mesh: ShellMesh, path_base, text: tuple[str, str, str]) -> None:
    """Write `path_base`.txt and `path_base`.tri of the mesh's current state
    from its `dump_text`."""
    nodes, elements, triangles = text
    path_base = Path(path_base)
    g = mesh.state.g_nodes
    pose = np.column_stack([g[:, :3, 3], g[:, :3, :3].reshape(len(g), 9)])
    with open(path_base.with_suffix(".txt"), "w") as fh:
        fh.write(nodes % tuple(pose.ravel().tolist()))
        fh.write(elements)
    with open(path_base.with_suffix(".tri"), "w") as fh:
        fh.write(triangles)


def tip_displacement(model: FemModel) -> np.ndarray:
    tip = model.mesh.tip_node()
    return model.mesh.state.g_nodes[tip, :3, 3] - model.mesh.g0_nodes[tip, :3, 3]


def tip_rotation_angle(model: FemModel) -> float:
    """The principal angle of R_t R_0^T at the tip node, in [0, pi]: the atan2
    of its sine |vee(R - R^T)| / 2 and its cosine (tr R - 1) / 2, accurate
    near 0 and near pi alike, where an arccos of the cosine alone is not."""
    tip = model.mesh.tip_node()
    r_rel = model.mesh.state.g_nodes[tip, :3, :3] @ model.mesh.g0_nodes[tip, :3, :3].T
    sin = 0.5 * np.linalg.norm(unskew(r_rel - r_rel.T))
    return float(np.arctan2(sin, 0.5 * (np.trace(r_rel) - 1.0)))


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

    The dump text is built once, before the first dump, and serves every
    dump of the run.  An `out_dir` that cannot be created raises
    ScenarioError.
    """
    model = build_model(cfg)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {out_dir}: "
                            f"{exc.strerror or exc}") from exc

    rows = [(0, 0.0, 0.0, *tip_displacement(model), tip_rotation_angle(model))]
    text = dump_text(model.mesh) if cfg.mesh_dumps else None
    if cfg.mesh_dumps:
        emit_deformed_geometry(model.mesh, out_dir / "mesh_step_000", text)

    def on_step(lam, mdl):
        k = len(rows)
        rows.append((k, lam, primary_magnitude(cfg, mdl, lam), *tip_displacement(mdl),
                     tip_rotation_angle(mdl)))
        if cfg.mesh_dumps:
            emit_deformed_geometry(mdl.mesh, out_dir / f"mesh_step_{k:03d}", text)

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
