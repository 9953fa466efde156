"""Geometrically exact six-DOF Cosserat shell statics on SE(3).

Quasi-static solver for shells whose material points carry full rigid-body
frames, with hard-magnetic body-couple actuation, a locking-free centroid
strain sampling, and a multiplicative Newton update that never interpolates
group elements.
"""

from .constitutive import Material
from .fem import FemModel
from .kinematics import build_cylindrical_arch, build_flat_plate
from .magnetics import MU0, MagneticEnvironment
from .mesh import ShellMesh, build_mesh
from .scenario import ScenarioConfig, load_bundled, parse_scenario
from .solver import SolveReport, SolverSettings, run

__all__ = [
    "Material",
    "FemModel",
    "build_cylindrical_arch",
    "build_flat_plate",
    "MU0",
    "MagneticEnvironment",
    "ShellMesh",
    "build_mesh",
    "ScenarioConfig",
    "load_bundled",
    "parse_scenario",
    "SolveReport",
    "SolverSettings",
    "run",
]
