#!/usr/bin/env python3
"""Save or compare the final states of the bundled scenarios.

    python scripts/final_states.py save STATES.npz [NAME ...]
    python scripts/final_states.py compare OLD.npz NEW.npz [--tol T]

`save` solves each bundled scenario (all of them by default) with its own
settings and stores its final nodal poses `g_nodes`, the twists `zeta_pts` and
rotations `r_pts` the state carries at its sample points, its system builds
and its Newton attempts.  `compare` prints one row per scenario: whether the
poses, twists and rotations are all exactly equal (`yes`), differ by at most
the tolerance T of `--tol` in each of the four largest differences that
follow (`within`) or not (`no`), the largest nodal position
difference relative to the scenario's length scale, the largest nodal
rotation difference in radians, the largest twist difference, the largest
carried-rotation difference in radians, and the builds and attempts of both
files.  It exits 1 when any scenario is missing from one file, did not
converge, differs in builds or attempts, or is `no`.
"""

import argparse
import sys

import numpy as np

from se3shell.liegroup import unskew
from se3shell.scenario import build_model, list_bundled, load_bundled
from se3shell.solver import run

STATE_KEYS = ("g_nodes", "zeta_pts", "r_pts")


def final_state(name: str) -> dict[str, np.ndarray]:
    cfg = load_bundled(name)
    model = build_model(cfg)
    report = run(model, cfg.solver)
    scale = cfg.length if cfg.geometry_kind == "flat" else cfg.radius
    state = model.mesh.state
    return {"g_nodes": state.g_nodes, "zeta_pts": state.zeta_pts, "r_pts": state.r_pts,
            "counts": np.array([report.iterations, len(report.attempts),
                                report.converged]),
            "scale": np.array(scale)}


def rotation_angle(r: np.ndarray) -> np.ndarray:
    """Angles of rotations (..., 3, 3), accurate near 0 and near pi alike."""
    sin = 0.5 * np.linalg.norm(unskew(r - np.swapaxes(r, -1, -2)), axis=-1)
    cos = 0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(sin, cos)


def save(path: str, names: list[str]) -> None:
    arrays = {}
    for name in names or list_bundled():
        for key, value in final_state(name).items():
            arrays[f"{name}/{key}"] = value
        print(name, flush=True)
    np.savez(path, **arrays)


def compare(old_path: str, new_path: str, tol: float = 0.0) -> int:
    with np.load(old_path) as old_file, np.load(new_path) as new_file:
        old, new = dict(old_file), dict(new_file)
    names = sorted({key.split("/")[0] for key in (*old, *new)})
    print(f"{'scenario':28s} {'equal':>5s} {'max |dp|/L':>11s} {'max |dR| rad':>12s}"
          f" {'max |dzeta|':>11s} {'max |dRpt|':>11s} {'builds':>11s} {'attempts':>9s}")
    failed = identical = 0
    for name in names:
        try:
            s0, s1 = ({key: store[f"{name}/{key}"] for key in STATE_KEYS}
                      for store in (old, new))
            c0, c1 = old[f"{name}/counts"], new[f"{name}/counts"]
        except KeyError:
            print(f"{name:28s} missing from one file")
            failed += 1
            continue
        same_counts = np.array_equal(c0, c1) and c0[2] and c1[2]
        shapes = [(s0[key].shape, s1[key].shape) for key in STATE_KEYS]
        if any(a != b for a, b in shapes):
            print(f"{name:28s} states differ in shape: {shapes}")
            failed += 1
            continue
        equal = all(np.array_equal(s0[key], s1[key]) for key in STATE_KEYS)
        g0, g1 = s0["g_nodes"], s1["g_nodes"]
        dp = np.abs(g1[:, :3, 3] - g0[:, :3, 3]).max() / float(new[f"{name}/scale"])
        dr = rotation_angle(np.swapaxes(g0[:, :3, :3], -1, -2) @ g1[:, :3, :3]).max()
        dz = np.abs(s1["zeta_pts"] - s0["zeta_pts"]).max(initial=0.0)
        drp = rotation_angle(np.swapaxes(s0["r_pts"], -1, -2) @ s1["r_pts"]).max(initial=0.0)
        within = not equal and max(dp, dr, dz, drp) <= tol
        verdict = "yes" if equal else "within" if within else "no"
        print(f"{name:28s} {verdict:>5s} {dp:11.3e} {dr:12.3e}"
              f" {dz:11.3e} {drp:11.3e} {c0[0]:5d}/{c1[0]:<5d} {c0[1]:4d}/{c1[1]:<4d}")
        identical += equal and same_counts
        failed += not ((equal or within) and same_counts)
    print(f"{identical} of {len(names)} scenarios identical, "
          f"{len(names) - failed - identical} within {tol:.1e}")
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    p_save = sub.add_parser("save", help="solve and store final states")
    p_save.add_argument("path")
    p_save.add_argument("names", nargs="*", help="bundled scenarios (default: all)")
    p_compare = sub.add_parser("compare", help="compare two stored files")
    p_compare.add_argument("old")
    p_compare.add_argument("new")
    p_compare.add_argument("--tol", type=float, default=0.0,
                           help="largest difference that counts as within (default 0)")
    args = ap.parse_args()
    if args.command == "save":
        save(args.path, args.names)
        return 0
    return compare(args.old, args.new, args.tol)


if __name__ == "__main__":
    sys.exit(main())
