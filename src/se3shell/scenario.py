"""Scenario configuration: INI-style files, validation, model construction.

The schema is documented in docs/config_schema.md.  Units are SI throughout.
A scenario fully determines one benchmark run: geometry, material, mesh,
boundary conditions, load program, magnetic fields, solver settings and
output selection.
"""

from __future__ import annotations

import configparser
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .constitutive import Material
from .fem import FemModel
from .kinematics import build_cylindrical_arch, build_flat_plate
from .liegroup import exp_so3
from .magnetics import MU0, MagneticEnvironment
from .mesh import build_mesh
from .solver import SolverSettings, StepRejected, perturb_tip_rotation


class ScenarioError(ValueError):
    """Configuration problem; the message names the offending section/key."""


@contextmanager
def _section(name: str):
    """Report a library check's refusal of a section's values as a ScenarioError."""
    try:
        yield
    except (ValueError, ZeroDivisionError, StepRejected) as exc:
        raise ScenarioError(f"[{name}] {exc}") from exc


@dataclass(frozen=True)
class LoadSpec:
    kind: str               # end_moment | end_shear | torsion | drilling | follower_edge
    magnitude: float = 0.0  # total force [N] or moment [N m] over the edge
    frame: str = ""         # follower | dead ('' = default for the kind)
    edge: str = "xi1_max"
    wrench: np.ndarray | None = None  # follower_edge: per-unit-length components


@dataclass(frozen=True)
class MagneticSpec:
    b_r: np.ndarray         # per unit volume; scaled by thickness at build
    b_a: np.ndarray
    mu0: float = MU0
    b_a_start: np.ndarray | None = None  # two-phase program: ramp then rotate


@dataclass(frozen=True)
class PerturbSpec:
    magnitude: float = 0.0
    axis: tuple[float, float, float] = (0.0, 1.0, 0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    geometry_kind: str                  # flat | arch
    length: float = 0.0                 # flat: chart length; arch: unused
    width: float = 0.0
    radius: float = 0.0
    angle_span: float = np.pi
    material: Material | None = None
    nx: int = 1
    ny: int = 1
    clamp: tuple[str, ...] = ("xi1_min",)
    loads: tuple[LoadSpec, ...] = ()
    magnetic: MagneticSpec | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)
    perturb: PerturbSpec | None = None
    csv_name: str = "load_deflection.csv"
    mesh_dumps: bool = True


DEFAULT_FRAMES = {
    "end_moment": "follower",
    "end_shear": "dead",
    "torsion": "follower",
    "drilling": "follower",
    "follower_edge": "follower",
}

_EDGES = ("xi1_min", "xi1_max", "xi2_min", "xi2_max")

_KNOWN_SECTIONS = {"geometry", "material", "mesh", "bc", "magnetic",
                   "solver", "perturb", "outputs"}
_KNOWN_KEYS = {
    "geometry": {"kind", "length", "width", "radius", "angle_span"},
    "material": {"e", "nu", "h", "mu", "lam"},
    "mesh": {"nx", "ny"},
    "bc": {"clamp"},
    "load": {"type", "magnitude", "frame", "edge", "wrench"},
    "magnetic": {"b_r", "b_a", "mu0", "b_a_start"},
    "solver": {"load_steps", "tol", "max_iters"},
    "perturb": {"magnitude", "axis"},
    "outputs": {"csv", "mesh_dumps"},
}


def _vec(text: str, section: str, key: str, n: int = 3) -> np.ndarray:
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ScenarioError(f"[{section}] {key}: expected {n} numbers, got '{text}'")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: not numeric: '{text}'") from exc
    if not np.all(np.isfinite(values)):
        raise ScenarioError(f"[{section}] {key}: not finite: '{text}'")
    return values


def _need(cp, section: str, key: str) -> str:
    if not cp.has_section(section):
        raise ScenarioError(f"missing section [{section}]")
    if not cp.has_option(section, key):
        raise ScenarioError(f"missing key '{key}' in section [{section}]")
    return cp.get(section, key)


def _float(cp, section, key, default=None):
    if not cp.has_option(section, key):
        if default is None:
            raise ScenarioError(f"missing key '{key}' in section [{section}]")
        return default
    text = cp.get(section, key)
    try:
        value = float(text)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: not a number: '{text}'") from exc
    if not np.isfinite(value):
        raise ScenarioError(f"[{section}] {key}: not finite: '{text}'")
    return value


def _int(cp, section, key, default=None) -> int:
    value = _float(cp, section, key, default)
    if value != round(value):
        raise ScenarioError(f"[{section}] {key}: not an integer: "
                            f"'{cp.get(section, key)}'")
    return int(value)


def parse_scenario(path, name: str | None = None) -> ScenarioConfig:
    """Read and validate one scenario file; errors name section and key."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ScenarioError(f"{path.name}: {exc}") from exc

    for section in cp.sections():
        base = "load" if section.startswith("load") else section
        if base not in _KNOWN_SECTIONS and base != "load":
            raise ScenarioError(f"unknown section [{section}]")
        known = _KNOWN_KEYS.get(base, set())
        for key in cp.options(section):
            if key not in known:
                raise ScenarioError(f"unknown key '{key}' in section [{section}]")

    kind = _need(cp, "geometry", "kind").strip()
    if kind not in ("flat", "arch"):
        raise ScenarioError(f"[geometry] kind must be flat or arch, got '{kind}'")
    width = _float(cp, "geometry", "width")
    if kind == "flat":
        length = _float(cp, "geometry", "length")
        radius, span = 0.0, np.pi
    else:
        radius = _float(cp, "geometry", "radius")
        span = _float(cp, "geometry", "angle_span", np.pi)
        length = radius * span

    h = _float(cp, "material", "h")
    if cp.has_option("material", "mu") or cp.has_option("material", "lam"):
        make = Material.from_lame
        args = (_float(cp, "material", "mu"), _float(cp, "material", "lam"), h)
    else:
        make = Material
        args = (_float(cp, "material", "e"), _float(cp, "material", "nu", 0.0), h)
    with _section("material"):
        material = make(*args)

    nx = _int(cp, "mesh", "nx")
    ny = _int(cp, "mesh", "ny", 1)
    if nx < 1 or ny < 1:
        raise ScenarioError(f"[mesh] nx and ny must be at least 1, got {nx} and {ny}")

    clamp = tuple(s.strip() for s in
                  cp.get("bc", "clamp", fallback="xi1_min").split(",") if s.strip())
    for edge in clamp:
        if edge not in _EDGES:
            raise ScenarioError(f"[bc] clamp: unknown edge '{edge}'")

    loads = []
    load_sections = [s for s in cp.sections() if s == "load" or s.startswith("load:")]
    for section in load_sections:
        ltype = _need(cp, section, "type").strip()
        if ltype not in DEFAULT_FRAMES:
            raise ScenarioError(f"[{section}] type: unknown load type '{ltype}'")
        frame = cp.get(section, "frame", fallback=DEFAULT_FRAMES[ltype]).strip()
        if frame not in ("follower", "dead"):
            raise ScenarioError(f"[{section}] frame must be follower or dead")
        edge = cp.get(section, "edge", fallback="xi1_max").strip()
        if edge not in _EDGES:
            raise ScenarioError(f"[{section}] edge: unknown edge '{edge}'")
        wrench = None
        magnitude = 0.0
        if ltype == "follower_edge":
            wrench = _vec(_need(cp, section, "wrench"), section, "wrench", 6)
        else:
            magnitude = _float(cp, section, "magnitude")
        loads.append(LoadSpec(kind=ltype, magnitude=magnitude, frame=frame,
                              edge=edge, wrench=wrench))

    magnetic = None
    if cp.has_section("magnetic"):
        b_a_start = None
        if cp.has_option("magnetic", "b_a_start"):
            b_a_start = _vec(cp.get("magnetic", "b_a_start"), "magnetic", "b_a_start")
        magnetic = MagneticSpec(
            b_r=_vec(_need(cp, "magnetic", "b_r"), "magnetic", "b_r"),
            b_a=_vec(_need(cp, "magnetic", "b_a"), "magnetic", "b_a"),
            mu0=_float(cp, "magnetic", "mu0", MU0),
            b_a_start=b_a_start,
        )
        if b_a_start is not None:
            na, ns = np.linalg.norm(magnetic.b_a), np.linalg.norm(b_a_start)
            if abs(na - ns) > 1e-12 * max(na, ns):
                raise ScenarioError("[magnetic] b_a_start must have the same "
                                    "magnitude as b_a (rotation program)")

    defaults = SolverSettings()
    load_steps = _int(cp, "solver", "load_steps", defaults.load_steps)
    tol = _float(cp, "solver", "tol", defaults.tol_relative)
    max_iters = _int(cp, "solver", "max_iters", defaults.max_iters)
    with _section("solver"):
        solver = SolverSettings(load_steps=load_steps, tol_relative=tol,
                                max_iters=max_iters)

    perturb = None
    if cp.has_section("perturb"):
        axis = _vec(cp.get("perturb", "axis", fallback="0 1 0"), "perturb", "axis")
        if not np.any(axis):
            raise ScenarioError("[perturb] axis: must be a nonzero vector")
        perturb = PerturbSpec(magnitude=_float(cp, "perturb", "magnitude"),
                              axis=tuple(axis))

    csv_name = cp.get("outputs", "csv", fallback="load_deflection.csv")
    if csv_name in ("", "..") or Path(csv_name).name != csv_name:
        raise ScenarioError(f"[outputs] csv: not a plain file name: '{csv_name}'")
    try:
        dumps = cp.getboolean("outputs", "mesh_dumps", fallback=True)
    except ValueError as exc:
        raise ScenarioError(f"[outputs] mesh_dumps: not a boolean: "
                            f"'{cp.get('outputs', 'mesh_dumps')}'") from exc

    return ScenarioConfig(
        name=name or path.stem, geometry_kind=kind, length=length, width=width,
        radius=radius, angle_span=span, material=material, nx=nx, ny=ny,
        clamp=clamp, loads=tuple(loads), magnetic=magnetic, solver=solver,
        perturb=perturb, csv_name=csv_name, mesh_dumps=dumps,
    )


def _edge_wrench(load: LoadSpec, cfg: ScenarioConfig) -> np.ndarray:
    """Total edge load -> wrench per unit edge length in load-frame components."""
    edge_len = cfg.width if load.edge.startswith("xi1") else cfg.length
    w = np.zeros(6)
    m = load.magnitude / edge_len
    if load.kind == "end_moment":
        w[4] = m                      # moment about the width axis
    elif load.kind == "end_shear":
        w[2] = m                      # transverse force
    elif load.kind == "torsion":
        w[3] = m                      # moment about the length axis
    elif load.kind == "drilling":
        w[5] = m                      # moment about the shell normal
    elif load.kind == "follower_edge":
        return np.asarray(load.wrench, dtype=float)
    return w


def _rotation_program(spec: MagneticSpec):
    """Two-phase program: ramp |B| along b_a_start for lam in [0, 1/2], then
    rotate at constant magnitude to b_a for lam in [1/2, 1]."""
    a0 = np.asarray(spec.b_a_start, dtype=float)
    a1 = np.asarray(spec.b_a, dtype=float)
    mag = np.linalg.norm(a1)
    u0 = a0 / np.linalg.norm(a0)
    u1 = a1 / mag
    cosang = float(np.clip(u0 @ u1, -1.0, 1.0))
    angle = np.arccos(cosang)
    axis = np.cross(u0, u1)
    if np.linalg.norm(axis) < 1e-12:
        # opposite or equal directions: pick any perpendicular rotation axis
        trial = np.array([0.0, 1.0, 0.0]) if abs(u0[1]) < 0.9 else np.array([0.0, 0.0, 1.0])
        axis = np.cross(u0, trial)
    axis = axis / np.linalg.norm(axis)

    def program(lam: float) -> MagneticEnvironment:
        if lam <= 0.5:
            return MagneticEnvironment(2.0 * lam * mag * u0, spec.mu0)
        phi = (2.0 * lam - 1.0) * angle
        u = exp_so3(phi * axis) @ u0
        return MagneticEnvironment(mag * u, spec.mu0)

    return program


def build_model(cfg: ScenarioConfig) -> FemModel:
    """Construct mesh, boundary conditions and loading for one scenario."""
    with _section("geometry"):
        if cfg.geometry_kind == "flat":
            surface = build_flat_plate(cfg.length, cfg.width)
        else:
            surface = build_cylindrical_arch(cfg.radius, cfg.angle_span, cfg.width)
    mesh = build_mesh(surface, cfg.nx, cfg.ny)
    for edge in cfg.clamp:
        mesh.clamp_edge(edge)
    for load in cfg.loads:
        mesh.add_edge_load(load.edge, _edge_wrench(load, cfg), frame=load.frame)

    program = None
    if cfg.magnetic is not None:
        spec = cfg.magnetic
        mesh.b_r = np.tile(np.asarray(spec.b_r, dtype=float) * cfg.material.h,
                           (mesh.n_elements, 1))
        with _section("magnetic"):
            final = MagneticEnvironment(spec.b_a, spec.mu0)  # checks mu0 at build
            program = final.scaled if spec.b_a_start is None else _rotation_program(spec)

    model = FemModel(mesh, cfg.material, field=program)
    if cfg.perturb is not None and cfg.perturb.magnitude != 0.0:
        with _section("perturb"):
            perturb_tip_rotation(model, cfg.perturb.magnitude,
                                 np.asarray(cfg.perturb.axis))
    return model


def with_overrides(cfg: ScenarioConfig, *, steps=None, tol=None,
                   max_iters=None) -> ScenarioConfig:
    solver = cfg.solver
    with _section("solver"):
        if steps is not None:
            solver = replace(solver, load_steps=int(steps))
        if tol is not None:
            solver = replace(solver, tol_relative=float(tol))
        if max_iters is not None:
            solver = replace(solver, max_iters=int(max_iters))
    return replace(cfg, solver=solver)


def bundled_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def list_bundled() -> list[str]:
    return sorted(p.stem for p in bundled_dir().glob("*.cfg"))


def load_bundled(name: str) -> ScenarioConfig:
    path = bundled_dir() / f"{name}.cfg"
    if not path.exists():
        raise ScenarioError(
            f"unknown benchmark '{name}'; available: {', '.join(list_bundled())}")
    return parse_scenario(path, name=name)
