"""Scenario parsing, run outputs, and CLI behavior."""

import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import SINGULAR_REASON, reject_first_solve
from se3shell import solver
from se3shell.cli import main as cli_main
from se3shell.outputs import run_scenario
from se3shell.scenario import (
    _KNOWN_KEYS,
    ScenarioError,
    bundled_dir,
    list_bundled,
    load_bundled,
    parse_scenario,
    with_overrides,
)
from se3shell.solver import SingularSystemError

EXPECTED_BENCHMARKS = {
    "end_shear", "rollup_2pi", "rollup_4pi", "rollup_6pi",
    "drilling_2pi", "drilling_4pi", "torsion_pi", "torsion_2pi", "torsion_3pi",
    "arch_tangent", "arch_transverse", "arch_rollup",
    "magnetic_cantilever_lh41", "magnetic_cantilever_lh20p5",
    "magnetic_cantilever_lh17p5", "magnetic_cantilever_lh10",
    "magnetic_plate_A", "magnetic_plate_B", "antiparallel",
}


class TestParsing:
    def test_rollup_values(self):
        cfg = load_bundled("rollup_2pi")
        assert cfg.material.e == 12e6
        assert cfg.length == 10.0
        assert cfg.width == 1.0
        assert cfg.material.h == 0.1
        assert cfg.nx == 150 and cfg.ny == 1
        assert cfg.loads[0].kind == "end_moment"
        assert cfg.loads[0].magnitude == pytest.approx(2 * np.pi * 12e6 * (0.1**3 / 12) / 10)

    def test_arch_values(self):
        cfg = load_bundled("arch_tangent")
        assert cfg.geometry_kind == "arch"
        assert cfg.radius == 0.5
        assert cfg.material.e == 7.2e10

    def test_lame_conversion(self):
        cfg = load_bundled("magnetic_cantilever_lh41")
        assert cfg.material.e == pytest.approx(303e3 * (3 * 7.3e6 + 2 * 303e3) / (7.3e6 + 303e3))
        assert cfg.material.nu == pytest.approx(7.3e6 / (2 * (7.3e6 + 303e3)))
        assert cfg.magnetic.b_r[0] == pytest.approx(0.143)
        assert cfg.magnetic.b_a[2] == pytest.approx(0.05)

    def test_missing_key_names_it(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[geometry]\nkind = flat\nlength = 1\nwidth = 1\n"
                       "[material]\nnu = 0.3\nh = 0.1\n[mesh]\nnx = 2\n")
        with pytest.raises(ScenarioError, match="'e'"):
            parse_scenario(bad)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[geometry]\nkind = flat\nlength = 1\nwidth = 1\nbogus = 2\n")
        with pytest.raises(ScenarioError, match="bogus"):
            parse_scenario(bad)

    def test_file_not_utf8_is_a_scenario_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ScenarioError, match="bad.cfg"):
            parse_scenario(bad)
        assert cli_main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "configuration error: bad.cfg" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_inconsistent_magnetic_rotation(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "[geometry]\nkind = flat\nlength = 1\nwidth = 1\n"
            "[material]\ne = 1e6\nnu = 0.0\nh = 0.01\n[mesh]\nnx = 2\nny = 1\n"
            "[magnetic]\nb_r = 0.1 0 0\nb_a = -0.05 0 0\nb_a_start = 0 0 0.08\n")
        with pytest.raises(ScenarioError, match="magnitude"):
            parse_scenario(bad)

    def test_config_docs_list_the_parsed_keys(self):
        # each section of docs/config_schema.md has one table row per key the
        # parser accepts in it, so neither a new nor a retired key goes unnoticed
        text = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
        rows, section = {}, None
        for line in text.splitlines():
            if line.startswith("#"):
                heading = re.match(r"## `\[(\w+)\]`", line)
                section = heading.group(1) if heading else None
                rows.setdefault(section, set())
            elif section is not None:
                key = re.match(r"\| `(\w+)` \|", line)
                if key:
                    rows[section].add(key.group(1))
        rows.pop(None)
        assert rows == _KNOWN_KEYS

    def test_all_benchmarks_bundled(self):
        names = set(list_bundled())
        assert EXPECTED_BENCHMARKS <= names

    def test_per_volume_thickness_scaling(self):
        from se3shell.scenario import build_model

        cfg = load_bundled("magnetic_cantilever_lh41")
        model = build_model(cfg)
        assert model.mesh.b_r[0, 0] == pytest.approx(0.143 * cfg.material.h)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = with_overrides(load_bundled("end_shear"), steps=4)
    cfg = replace(cfg, nx=6)
    report, model = run_scenario(cfg, out, quiet=True)
    return out, cfg, report, model


class TestRunOutputs:
    def test_csv_row_count(self, small_run):
        out, cfg, report, _ = small_run
        assert report.converged
        lines = (out / cfg.csv_name).read_text().strip().splitlines()
        assert len(lines) == cfg.solver.load_steps + 2  # header + zero + steps

    def test_csv_monotone_load(self, small_run):
        out, cfg, _, _ = small_run
        rows = (out / cfg.csv_name).read_text().strip().splitlines()[1:]
        mags = [float(r.split(",")[2]) for r in rows]
        assert all(b >= a for a, b in zip(mags, mags[1:]))
        assert mags[-1] == pytest.approx(cfg.loads[0].magnitude)

    def test_zero_row_is_zero(self, small_run):
        out, cfg, _, _ = small_run
        first = (out / cfg.csv_name).read_text().strip().splitlines()[1].split(",")
        assert float(first[1]) == 0.0
        assert all(abs(float(v)) < 1e-15 for v in first[3:6])

    def test_mesh_dumps_exist(self, small_run):
        out, cfg, _, model = small_run
        dumps = sorted(out.glob("mesh_step_*.txt"))
        assert len(dumps) == cfg.solver.load_steps + 1
        tris = sorted(out.glob("mesh_step_*.tri"))
        assert len(tris) == len(dumps)
        # row/element counts match the mesh
        lines = dumps[0].read_text().strip().splitlines()
        assert lines[0] == f"# nodes {model.mesh.n_nodes}"
        node_lines = lines[1:1 + model.mesh.n_nodes]
        assert all(abs(float(l.split()[5])) < 1e-15 for l in node_lines)  # flat: pz = 0

    def test_report_file(self, small_run):
        out, _, _, _ = small_run
        text = (out / "solve_report.txt").read_text()
        assert "converged: True" in text
        # per-iteration log lines: step iter residual
        log_line = [l for l in text.splitlines() if l.startswith("1 1 ")]
        assert log_line

    def test_determinism(self, tmp_path):
        cfg = with_overrides(load_bundled("end_shear"), steps=2)
        cfg = replace(cfg, nx=4)
        r1, _ = run_scenario(cfg, tmp_path / "a", quiet=True)
        r2, _ = run_scenario(cfg, tmp_path / "b", quiet=True)
        csv1 = (tmp_path / "a" / cfg.csv_name).read_bytes()
        csv2 = (tmp_path / "b" / cfg.csv_name).read_bytes()
        assert csv1 == csv2

    def test_field_program_magnitude(self, tmp_path):
        # antiparallel ramps |B^a| to 0.05 T by load factor 1/2, then rotates it
        cfg = replace(load_bundled("antiparallel"), mesh_dumps=False)
        report, _ = run_scenario(cfg, tmp_path, quiet=True)
        assert report.converged
        rows = (tmp_path / cfg.csv_name).read_text().strip().splitlines()[1:]
        lams = np.array([float(r.split(",")[1]) for r in rows])
        mags = np.array([float(r.split(",")[2]) for r in rows])
        assert len(rows) == cfg.solver.load_steps + 1 and lams[-1] == 1.0
        assert np.allclose(mags, np.minimum(2.0 * lams, 1.0) * 0.05, rtol=1e-12, atol=0.0)

    def test_follower_edge_magnitude_is_the_edge_total(self, tmp_path):
        # the per-unit-length wrench summed over the loaded edge: 5000 N on the arch
        cfg = replace(with_overrides(load_bundled("arch_transverse"), steps=2),
                      nx=4, mesh_dumps=False)
        report, _ = run_scenario(cfg, tmp_path, quiet=True)
        assert report.converged
        rows = (tmp_path / cfg.csv_name).read_text().strip().splitlines()[1:]
        mags = np.array([float(r.split(",")[2]) for r in rows])
        total = np.linalg.norm(cfg.loads[0].wrench) * cfg.width
        assert total == pytest.approx(5000.0, rel=1e-12)
        assert np.allclose(mags, np.array([0.0, 0.5, 1.0]) * total, rtol=1e-12, atol=0.0)

    def test_report_file_comes_from_the_records(self, tmp_path, monkeypatch, capsys):
        # one singular first solve, then an attempt that exhausts max_iters = 3
        cfg = replace(with_overrides(load_bundled("end_shear"), steps=2, max_iters=3),
                      nx=4, mesh_dumps=False)
        reject_first_solve(monkeypatch)
        report, _ = run_scenario(cfg, tmp_path, quiet=False)
        printed = capsys.readouterr().out
        head, log = (tmp_path / "solve_report.txt").read_text().split("\nlog:\n", 1)
        assert printed == log
        rejected = [line for line in head.splitlines() if line.startswith("rejected:")]
        records = [a for a in report.attempts if not a.converged]
        assert records[0].reason == SINGULAR_REASON
        assert any(a.reason.startswith("no convergence in 3 iterations") for a in records)
        assert rejected == [f"rejected: step {a.step} load_factor {a.load_factor:.6g}: "
                            f"{a.reason}" for a in records]
        log = log.splitlines()
        assert report.iterations == len(log) == sum(len(a.residuals) for a in report.attempts)
        assert len(report.attempts) == sum(1 for line in log if line.split()[1] == "1")
        assert log == [f"{a.step} {it} {r:.6e}" for a in report.attempts
                       for it, r in enumerate(a.residuals, 1)]

    def test_rejections_written_before_log(self, tmp_path, monkeypatch):
        cfg = replace(with_overrides(load_bundled("end_shear"), steps=2), nx=4)
        reject_first_solve(monkeypatch)
        report, _ = run_scenario(cfg, tmp_path, quiet=True)
        assert report.converged
        head, log = (tmp_path / "solve_report.txt").read_text().split("\nlog:\n", 1)
        assert f"rejected: step 1 load_factor 0.5: {SINGULAR_REASON}" in head.splitlines()
        # every log line is `step iter residual`
        assert all(len(line.split()) == 3 for line in log.splitlines())
        assert sum(1 for line in log.splitlines() if line.split()[1] == "1") == 4


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "rollup_2pi" in out

    def test_printed_iterations_match_the_report_log(self, tmp_path, capsys, monkeypatch):
        # every Newton iteration counts, those of rejected attempts too
        reject_first_solve(monkeypatch)
        assert cli_main(["bench", "end_shear", "--out", str(tmp_path), "--quiet",
                         "--steps", "2"]) == 0
        out = capsys.readouterr().out
        head, log = (tmp_path / "end_shear" / "solve_report.txt").read_text().split(
            "\nlog:\n", 1)
        log = log.splitlines()
        attempts = sum(1 for line in log if line.split()[1] == "1")
        rejected = sum(1 for line in head.splitlines() if line.startswith("rejected:"))
        assert rejected >= 1
        assert (f"({len(log)} iterations, {attempts} attempts, {rejected} rejected)"
                in out)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[geometry]\nkind = hexagon\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("old, new, section", [
        ("frame = dead", "frame = dead\nedge = bogus", "[load]"),
        ("e = 200e9", "e = -1", "[material]"),
        ("e = 200e9\nnu = 0.0", "mu = 0\nlam = 0", "[material]"),
        ("nx = 20", "nx = 0", "[mesh]"),
        ("load_steps = 20", "load_steps = 0", "[solver]"),
        ("load_steps = 20", "load_steps = 20\ndamping = 0.5", "[solver]"),
        ("length = 1.0", "length = -1.0", "[geometry]"),
        ("length = 1.0", "length = inf", "[geometry]"),
        ("e = 200e9", "e = nan", "[material]"),
        ("nx = 20", "nx = nan", "[mesh]"),
        ("nx = 20", "nx = 2.7", "[mesh]"),
        ("load_steps = 20", "load_steps = 20\ntol = nan", "[solver]"),
        ("load_steps = 20", "load_steps = 20\nscheme = gauss", "[solver]"),
        ("load_steps = 20", "load_steps = 20\n[outputs]\nmesh_dumps = maybe",
         "[outputs] mesh_dumps"),
        ("load_steps = 20", "load_steps = 20\n[outputs]\ncsv = sub/dir.csv", "[outputs] csv"),
        ("[load]", "[loads]", "[loads]"),
    ], ids=["load_edge", "material_e", "material_lame", "mesh_nx", "solver_steps",
            "solver_damping", "geometry_length", "geometry_length_inf", "material_e_nan",
            "mesh_nx_nan", "mesh_nx_fraction", "solver_tol_nan", "solver_scheme",
            "outputs_mesh_dumps", "outputs_csv_path", "load_section_name"])
    def test_invalid_value_exit_code(self, tmp_path, capsys, old, new, section):
        text = (bundled_dir() / "end_shear.cfg").read_text()
        assert old in text
        custom = tmp_path / "invalid.cfg"
        custom.write_text(text.replace(old, new))
        assert cli_main(["run", str(custom), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert section in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, old, new, section", [
        ("arch_rollup", "angle_span = 3.141592653589793", "angle_span = 7", "[geometry]"),
        ("magnetic_cantilever_lh10", "b_a = 0 0 0.05", "b_a = 0 0 0.05\nmu0 = -1",
         "[magnetic]"),
        ("antiparallel", "b_a_start = 0 0 0.05", "b_a_start = 0 0 0.05\nmu0 = -1",
         "[magnetic]"),
        ("antiparallel", "magnitude = 1e-3", "magnitude = 2.0", "[perturb]"),
        ("antiparallel", "[magnetic]", "[magnetic]\nb_r_mode = per_volume", "[magnetic]"),
        ("antiparallel", "[perturb]", "[perturb]\nmode = tip_rotation", "[perturb]"),
        ("antiparallel", "axis = 0 1 0", "axis = 0 0 0", "[perturb] axis"),
        ("antiparallel", "b_a = -0.05 0 0\nb_a_start = 0 0 0.05",
         "b_a = 0 0 0\nb_a_start = 0 0 0", "[magnetic]"),
    ], ids=["arch_angle_span", "magnetic_mu0", "magnetic_mu0_rotation", "perturb_magnitude",
            "magnetic_b_r_mode", "perturb_mode", "perturb_axis_zero",
            "magnetic_rotation_zero_field"])
    def test_invalid_bundled_value_exit_code(self, tmp_path, capsys, name, old, new, section):
        text = (bundled_dir() / f"{name}.cfg").read_text()
        assert old in text
        custom = tmp_path / "invalid.cfg"
        custom.write_text(text.replace(old, new))
        assert cli_main(["run", str(custom), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert section in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [["--steps", "0"], ["--max-iter", "0"],
                                       ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"]],
                             ids=["steps", "max_iter", "tol", "tol_nan", "tol_inf"])
    def test_invalid_override_exit_code(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert cli_main(["bench", "end_shear", "--out", str(out), "--quiet", *flags]) == 2
        assert "[solver]" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_bench_exit_code(self, tmp_path):
        assert cli_main(["bench", "nope", "--out", str(tmp_path)]) == 2

    def test_run_converges_exit_zero(self, tmp_path, capsys):
        cfg_text = (bundled_dir() / "end_shear.cfg").read_text()
        cfg_text = cfg_text.replace("nx = 20", "nx = 4")
        custom = tmp_path / "small.cfg"
        custom.write_text(cfg_text)
        code = cli_main(["run", str(custom), "--out", str(tmp_path / "o"),
                         "--steps", "2", "--quiet"])
        assert code == 0
        assert (tmp_path / "o" / "small" / "load_deflection.csv").exists()

    def test_non_convergence_exit_code(self, tmp_path):
        text = (bundled_dir() / "end_shear.cfg").read_text()
        text = text.replace("nx = 20", "nx = 4")
        text = text.replace("magnitude = 33333.3333333333", "magnitude = 1e9")
        custom = tmp_path / "hopeless.cfg"
        custom.write_text(text)
        code = cli_main(["run", str(custom), "--out", str(tmp_path / "o"),
                         "--steps", "1", "--max-iter", "2", "--quiet"])
        assert code == 3

    def test_singular_tangent_exit_code(self, tmp_path, monkeypatch, capsys):
        text = (bundled_dir() / "end_shear.cfg").read_text().replace("nx = 20", "nx = 4")
        custom = tmp_path / "singular.cfg"
        custom.write_text(text)

        def singular(a, b):
            raise SingularSystemError("singular or ill-posed tangent "
                                      "(1-norm estimate 0.000e+00)")

        monkeypatch.setattr(solver, "newton_step", singular)
        code = cli_main(["run", str(custom), "--out", str(tmp_path / "o"),
                         "--steps", "1", "--quiet"])
        assert code == 3
        assert "singular or ill-posed tangent" in capsys.readouterr().err

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "se3shell.cli", "list"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "antiparallel" in proc.stdout
