import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from precessflow import basis as basis_module
from precessflow import operators, timestepper
from precessflow.basis import save_basis
from precessflow.cli import (CONFIG_KEYS, KNOWN_KEYS, RUN_KEYS, ConfigError, main, parse_config,
                             scenario_from_config)
from precessflow.diagnostics import CSV_HEADER
from precessflow.timestepper import ScenarioConfig

from conftest import MALFORMED_EXPORTS, get_basis, import_error, malformed_export


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SPHEROID_LINES = "domain.beta = 0.5625\nbasis.degree = 2\n"
RUN_LINES = SPHEROID_LINES + (
    "bc.form = stress_free\n"
    "physics.nu_inverse = 1\n"
    "physics.eps_p = 0\n"
    "init.type = solid_rotation\n"
    "init.amplitude = 0.1\n"
    "time.dt = 0.01\n"
    "time.t_end = 0.05\n"
    "time.record_every = 0.01\n"
)


# keys that a run would ignore: (test id, config lines, message)
IGNORED_KEYS = [
    ("run_restart_omega_without_time", RUN_LINES + "restart.omega = 0.5\n",
     "config key restart.omega is ignored without restart.time"),
    ("run_amplitude_without_solid_rotation",
     RUN_LINES.replace("init.type = solid_rotation", "init.type = poincare"),
     "config key init.amplitude is ignored unless init.type is solid_rotation, not poincare"),
    ("run_omega_without_its_init_type", RUN_LINES + "init.omega = 3\n",
     "config key init.omega is ignored unless init.type is poincare_plus_rotation"),
    ("run_init_eps_p_without_poincare", RUN_LINES + "init.eps_p = 0.25\n",
     "config key init.eps_p is ignored unless init.type is poincare or poincare_plus_rotation"),
    ("run_path_without_coefficients", RUN_LINES + "init.path = coeffs.txt\n",
     "config key init.path is ignored unless init.type is coefficients"),
]


class TestParseConfig:
    def test_unknown_key_reports_line(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "domain.beta = 0.5\nbogus.key = 1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*bogus\.key"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, "dup.cfg", "domain.beta = 0.5\ndomain.beta = 0.6\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = write(tmp_path, "noeq.cfg", "domain.beta 0.5\n")
        with pytest.raises(ConfigError, match="noeq.cfg:1"):
            parse_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path, "ok.cfg", "# comment\n\ndomain.beta = 0.5625\n")
        assert parse_config(path) == {"domain.beta": "0.5625"}

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_beta_and_axes_exclusive(self, tmp_path):
        path = write(tmp_path, "both.cfg", RUN_LINES + "domain.a = 1\n")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            scenario_from_config(parse_config(path))

    def test_beta_and_axes_give_one_message(self, tmp_path):
        path = write(tmp_path, "both.cfg", RUN_LINES + "domain.a = 1\n")
        with pytest.raises(ConfigError) as from_config:
            scenario_from_config(parse_config(path))
        scenario = ScenarioConfig(degree=2, bc_form="stress_free", nu_inverse=1.0, eps_p=0.0,
                                  init_type="solid_rotation", dt=0.01, t_end=0.05,
                                  record_every=0.01, beta=Fraction(9, 16), a=Fraction(1))
        with pytest.raises(ValueError) as from_validate:
            scenario.validate()
        assert str(from_config.value) == str(from_validate.value)
        assert "mutually exclusive" in str(from_validate.value)

    def test_missing_run_keys_are_listed_in_field_order(self, tmp_path):
        path = write(tmp_path, "empty.cfg", "domain.beta = 0.5625\n")
        with pytest.raises(ConfigError) as exc:
            scenario_from_config(parse_config(path))
        assert str(exc.value) == (
            "missing required config keys: basis.degree, bc.form, physics.nu_inverse, "
            "physics.eps_p, init.type, time.dt, time.t_end, time.record_every")
        assert RUN_KEYS == tuple(str(exc.value).split(": ")[1].split(", "))

    def test_readme_lists_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"Keys:\n\n```\n(.*?)```", readme, re.DOTALL).group(1)
        listed = re.findall(r"\b[a-z_]+\.[a-z_]+\b", re.sub(r"\(.*?\)", "", block))
        assert sorted(listed) == sorted(CONFIG_KEYS)
        assert KNOWN_KEYS == set(CONFIG_KEYS)

    def test_scenario_requires_time_keys(self, tmp_path):
        path = write(tmp_path, "notime.cfg", SPHEROID_LINES + "bc.form = stress_free\n")
        with pytest.raises(ConfigError, match="missing required"):
            scenario_from_config(parse_config(path))

    def test_exact_fractions_survive(self, tmp_path):
        path = write(tmp_path, "frac.cfg", RUN_LINES)
        scenario = scenario_from_config(parse_config(path))
        from fractions import Fraction
        assert scenario.beta == Fraction(9, 16)


class TestExitCodes:
    def test_basis_ok(self, tmp_path, capsys):
        cfg = write(tmp_path, "b.cfg", SPHEROID_LINES)
        assert main(["basis", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "dim: 11" in out
        assert "PASS basis.tangency" in out

    def test_basis_usage_error_for_degree_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "b0.cfg", "domain.beta = 0.5625\nbasis.degree = 0\n")
        assert main(["basis", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_basis_export(self, tmp_path):
        out = tmp_path / "basis.txt"
        cfg = write(tmp_path, "b.cfg", SPHEROID_LINES + f"output.path = {out}\n")
        assert main(["basis", "--config", cfg]) == 0
        assert out.exists()

    def test_basis_export_replaces_an_earlier_export(self, tmp_path):
        out = tmp_path / "basis.txt"
        save_basis(get_basis("spheroid", 1), out)
        cfg = write(tmp_path, "b.cfg", SPHEROID_LINES + f"output.path = {out}\n")
        assert main(["basis", "--config", cfg]) == 0
        assert "# degree 2 dim 11" in out.read_text()

    @pytest.mark.parametrize("relative", [True, False], ids=["relative", "absolute"])
    def test_basis_missing_output_directory_fails_before_the_build(self, tmp_path, capsys,
                                                                  monkeypatch, relative):
        def no_build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr("precessflow.cli.build_basis", no_build)
        monkeypatch.chdir(tmp_path)
        out = "nodir/basis.txt" if relative else str(tmp_path / "nodir" / "basis.txt")
        cfg = write(tmp_path, "b.cfg", SPHEROID_LINES + f"output.path = {out}\n")
        assert main(["basis", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: output.path {out}: no directory {os.path.dirname(out)}\n"
        assert captured.out == ""

    def test_basis_keeps_a_run_csv(self, tmp_path, capsys):
        # a run config's output.path is its CSV, which basis must not overwrite
        out = tmp_path / "run.csv"
        cfg = write(tmp_path, "r.cfg", RUN_LINES + f"output.path = {out}\n")
        assert main(["run", "--config", cfg]) == 0
        before = out.read_bytes()
        capsys.readouterr()
        assert main(["basis", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: output.path {out} holds a file that is not a "
                                       "basis export")
        assert captured.out == ""
        assert out.read_bytes() == before

    @pytest.mark.parametrize("lines,expected_kernel", [
        ("domain.a = 1\ndomain.b = 1\ndomain.c = 1\nbasis.degree = 2\n", 3),
        (SPHEROID_LINES, 1),
        ("domain.a = 1\ndomain.b = 0.9\ndomain.c = 0.8\nbasis.degree = 2\n", 0),
    ])
    def test_eig_trichotomy(self, tmp_path, capsys, lines, expected_kernel):
        cfg = write(tmp_path, "e.cfg", lines)
        assert main(["eig", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert f"kernel dim (strain-rate stiffness): {expected_kernel}" in out
        assert "kernel dim (gradient stiffness):    0" in out

    @pytest.mark.parametrize("lines,classes", [
        ("domain.a = 1\ndomain.b = 1\ndomain.c = 1\nbasis.degree = 2\n", "3 5 6"),
        (SPHEROID_LINES, "3"),
        ("domain.a = 1\ndomain.b = 0.9\ndomain.c = 0.8\nbasis.degree = 2\n", "none"),
    ], ids=["sphere", "spheroid", "triaxial"])
    def test_eig_names_the_neutral_mode_classes(self, tmp_path, capsys, lines, classes):
        cfg = write(tmp_path, "e.cfg", lines)
        assert main(["eig", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        # the classes line follows the strain-rate kernel dimension
        index = next(i for i, ln in enumerate(out) if ln.startswith("kernel dim (strain"))
        assert out[index + 1] == f"neutral-mode classes (strain-rate stiffness): {classes}"
        assert len(out) == 8

    def test_eig_flags_unrecognized_symmetry_axis(self, tmp_path, capsys):
        # b = c != a has a tangent rotation about x, but the kind enum only
        # recognizes z spheroids, so the trichotomy check reports the mismatch
        cfg = write(tmp_path, "x.cfg",
                    "domain.a = 0.8\ndomain.b = 1\ndomain.c = 1\nbasis.degree = 2\n")
        assert main(["eig", "--config", cfg]) == 3
        out = capsys.readouterr().out
        assert "kernel dim (strain-rate stiffness): 1" in out
        assert "FAIL" in out

    def test_steady_poincare_stress_passes(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.cfg", SPHEROID_LINES +
                    "bc.form = poincare_stress\nphysics.nu_inverse = 0.024\n"
                    "physics.eps_p = 0.25\n")
        assert main(["steady", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6

    def test_steady_gradient_form_passes_on_base_flow(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.cfg", SPHEROID_LINES +
                    "bc.form = poincare_normal_gradient\nphysics.nu_inverse = 0.024\n"
                    "physics.eps_p = 0.25\n")
        assert main(["steady", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "info" in out

    def test_steady_homogeneous_fails(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.cfg", SPHEROID_LINES +
                    "bc.form = stress_free\nphysics.nu_inverse = 0.024\n"
                    "physics.eps_p = 0.25\n")
        assert main(["steady", "--config", cfg]) == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("nu_inverse", ["0", "-1"])
    def test_steady_rejects_a_non_positive_nu_inverse_before_the_build(self, tmp_path, capsys,
                                                                      monkeypatch, nu_inverse):
        def no_build(*args, **kwargs):
            raise AssertionError("the basis was built")

        monkeypatch.setattr("precessflow.cli.build_basis", no_build)
        cfg = write(tmp_path, "s.cfg", SPHEROID_LINES +
                    f"bc.form = poincare_stress\nphysics.nu_inverse = {nu_inverse}\n"
                    "physics.eps_p = 0.25\n")
        assert main(["steady", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: nu_inverse must be positive\n"
        assert captured.out == ""

    def test_steady_rejects_the_triaxial_config(self, capsys):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "freedecay_triaxial.cfg"
        assert main(["steady", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: steady check needs the spheroid with unit equatorial axes\n"
        assert captured.out == ""

    # c = 1 + 1e-13 is a sphere to Domain.kind; the Poincare flow (2 eps/beta) must not pass
    NEAR_SPHERE_LINES = ("domain.a = 1\ndomain.b = 1\ndomain.c = 1.0000000000001\n"
                         "basis.degree = 2\nbc.form = poincare_stress\n"
                         "physics.nu_inverse = 10\nphysics.eps_p = 0.25\n")

    def test_steady_rejects_a_near_sphere(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.cfg", self.NEAR_SPHERE_LINES)
        assert main(["steady", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: steady check needs the spheroid with unit equatorial axes\n"
        assert captured.out == ""

    def test_run_rejects_the_poincare_flow_on_a_near_sphere(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cfg = write(tmp_path, "r.cfg", self.NEAR_SPHERE_LINES +
                    "init.type = poincare\ninit.eps_p = 0.25\ntime.dt = 0.01\n"
                    f"time.t_end = 0.1\ntime.record_every = 0.05\noutput.path = {out}\n")
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(
            "error: the Poincare flow is singular on the sphere")
        assert not out.exists()

    @pytest.mark.parametrize("form", ["stress_free", "normal_gradient"])
    def test_run_rejects_orth_poincare_without_poincare_data(self, tmp_path, capsys,
                                                             monkeypatch, form):
        # the orth functional is identically 0 without Poincare data: refused before a basis
        def no_basis(*args):
            raise AssertionError("a basis was built")

        monkeypatch.setattr("precessflow.timestepper._run_basis", no_basis)
        cfg = write(tmp_path, "r.cfg", RUN_LINES.replace("stress_free", form)
                    + "constraint.mode = orth_poincare\n")
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: constraint.mode orth_poincare needs a bc.form that carries Poincare data, "
            f"not {form}\n")

    @pytest.mark.parametrize("edits, message", [
        ({"time.dt = 0.01": "time.dt = 0.03", "time.t_end = 0.05": "time.t_end = 0.1",
          "time.record_every = 0.01": "time.record_every = 0.03"},
         "t_end = 0.1 is not a whole number of time steps dt = 0.03"),
        ({"time.t_end = 0.05": "time.t_end = 0.004"},
         "t_end = 0.004 is shorter than one time step dt = 0.01"),
        ({"time.record_every = 0.01": "time.record_every = 0.01\nrestart.time = 0.003"},
         "restart_time = 0.003 is not a whole number of time steps dt = 0.01"),
        ({"time.record_every = 0.01": "time.record_every = 0.005"},
         "record_every = 0.005 is not a whole number of time steps dt = 0.01"),
    ], ids=["t_end", "under_one_step", "restart_time", "record_every"])
    def test_run_rejects_times_off_the_dt_grid(self, tmp_path, capsys, monkeypatch, edits,
                                               message):
        def no_basis(*args):
            raise AssertionError("a basis was built")

        monkeypatch.setattr("precessflow.timestepper._run_basis", no_basis)
        out = tmp_path / "run.csv"
        text = RUN_LINES
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = write(tmp_path, "r.cfg", text + f"output.path = {out}\n")
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cfg = write(tmp_path, "r.cfg", RUN_LINES + f"output.path = {out}\n")
        assert main(["run", "--config", cfg]) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_run_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        cfg1 = write(tmp_path, "r1.cfg", RUN_LINES + f"output.path = {out1}\n")
        cfg2 = write(tmp_path, "r2.cfg", RUN_LINES + f"output.path = {out2}\n")
        assert main(["run", "--config", cfg1]) == 0
        assert main(["run", "--config", cfg2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # spin-up from rest: the forced state grows towards |c_P| = 1.64
    SPIN_UP_LINES = (SPHEROID_LINES + "bc.form = poincare_stress\n"
                     "physics.nu_inverse = 1\nphysics.eps_p = 0.25\n"
                     "init.type = solid_rotation\ninit.amplitude = 0\n"
                     "time.dt = 0.01\ntime.t_end = 1\ntime.record_every = 0.01\n")

    def test_run_blowup_exit_code(self, tmp_path, capsys, monkeypatch):
        # a guard at 0.1 |c_P| trips near t = 0.25; the partial CSV must be retained
        monkeypatch.setattr(timestepper, "BLOWUP_FACTOR", 0.1)
        out = tmp_path / "partial.csv"
        cfg = write(tmp_path, "blow.cfg", self.SPIN_UP_LINES + f"output.path = {out}\n")
        assert main(["run", "--config", cfg]) == 2
        assert "blow-up" in capsys.readouterr().err
        assert out.exists()
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_run_spin_up_from_rest_completes(self, tmp_path, capsys):
        out = tmp_path / "spin_up.csv"
        cfg = write(tmp_path, "spin.cfg", self.SPIN_UP_LINES + f"output.path = {out}\n")
        assert main(["run", "--config", cfg]) == 0
        assert "completed 101 records to t = 1" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 102

    def test_run_missing_output_directory_fails_before_the_build(self, tmp_path, capsys,
                                                                monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr("precessflow.timestepper._run_basis", no_build)
        out = tmp_path / "missing" / "run.csv"
        cfg = write(tmp_path, "r.cfg", RUN_LINES + f"output.path = {out}\n")
        assert main(["run", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: output.path {out}: no directory {out.parent}\n"
        assert captured.out == ""

    def test_run_nan_coefficient_file_is_usage_error(self, tmp_path, capsys):
        init = tmp_path / "init.txt"
        np.savetxt(init, np.full(get_basis("spheroid", 2).dim, np.nan))
        out = tmp_path / "run.csv"
        text = RUN_LINES.replace("init.type = solid_rotation\ninit.amplitude = 0.1\n",
                                 f"init.type = coefficients\ninit.path = {init}\n")
        cfg = write(tmp_path, "nan.cfg", text + f"output.path = {out}\n")
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert not out.exists()

    def test_run_nan_restart_omega_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cfg = write(tmp_path, "nan.cfg", RUN_LINES + "restart.time = 0.02\n"
                    f"restart.omega = nan\noutput.path = {out}\n")
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "restart.omega" in err
        assert not out.exists()

    def test_run_overflowing_value_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "big.cfg",
                    RUN_LINES.replace("physics.eps_p = 0\n", "physics.eps_p = 1e400\n"))
        assert main(["run", "--config", cfg]) == 1
        assert "config key physics.eps_p" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, lines", [
        (command, key, lines) for key, lines, commands in (
            ("domain.beta", RUN_LINES.replace("domain.beta = 0.5625", "domain.beta = 1/0"),
             ("basis", "run")),
            ("domain.a", RUN_LINES.replace("domain.beta = 0.5625",
                                           "domain.a = 1/0\ndomain.b = 1\ndomain.c = 1"),
             ("basis", "run")),
            ("time.dt", RUN_LINES.replace("time.dt = 0.01", "time.dt = 1/0"), ("run",)),
        ) for command in commands])
    def test_zero_denominator_is_usage_error(self, tmp_path, capsys, command, key, lines):
        out = tmp_path / "run.csv"
        cfg = write(tmp_path, "zero.cfg", lines + f"output.path = {out}\n")
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config key {key}: zero denominator")
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    STEADY_LINES = SPHEROID_LINES + ("bc.form = poincare_stress\nphysics.nu_inverse = 0.024\n"
                                     "physics.eps_p = 0.25\n")

    @pytest.mark.parametrize("command, lines, message", [
        ("eig", "domain.a = 1e400\ndomain.b = 1\ndomain.c = 1\nbasis.degree = 2\n",
         "semi-axis a is out of the double range"),
        ("eig", "domain.a = 1e-200\ndomain.b = 1\ndomain.c = 1\nbasis.degree = 2\n",
         "semi-axis a is out of the double range"),
        ("run", RUN_LINES.replace("domain.beta = 0.5625", "domain.beta = 1e400"),
         "semi-axis c is out of the double range"),
        ("run", RUN_LINES.replace("physics.nu_inverse = 1\n", "physics.nu_inverse = 1e-320\n"),
         "nu_inverse = 1e-320 is too small"),
        ("steady", STEADY_LINES.replace("0.024", "1e-320"), "nu_inverse = 1e-320 is too small"),
        ("steady", STEADY_LINES.replace("poincare_stress", "no_slip"),
         "unknown boundary condition form 'no_slip'"),
        *(("run", lines, message) for _, lines, message in IGNORED_KEYS),
        ("run", RUN_LINES.replace("init.type = solid_rotation\ninit.amplitude = 0.1",
                                  "init.type = coefficients\ninit.path = nodir/coeffs.txt"),
         "init.path nodir/coeffs.txt: no such file"),
    ], ids=["eig_huge_axis", "eig_tiny_axis", "run_huge_beta", "run_tiny_nu_inverse",
            "steady_tiny_nu_inverse", "steady_unknown_bc_form", *(i for i, _, _ in IGNORED_KEYS),
            "run_path_to_no_file"])
    def test_input_out_of_range_fails_before_the_build(self, tmp_path, capsys, monkeypatch,
                                                       command, lines, message):
        def no_build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr("precessflow.cli.build_basis", no_build)
        monkeypatch.setattr("precessflow.timestepper._run_basis", no_build)
        cfg = write(tmp_path, "x.cfg", lines)
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("lines, message", [case[1:] for case in IGNORED_KEYS],
                             ids=[case[0] for case in IGNORED_KEYS])
    def test_ignored_key_is_rejected_by_validate_and_run(self, tmp_path, capsys, monkeypatch,
                                                         lines, message):
        def no_build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr("precessflow.timestepper._run_basis", no_build)
        cfg = write(tmp_path, "x.cfg", lines)
        assert main(["run", "--config", cfg]) == 1
        cli_message = capsys.readouterr().err.removeprefix("error: ").removesuffix("\n")
        assert message in cli_message
        scenario = ScenarioConfig(**{CONFIG_KEYS[key][0]: CONFIG_KEYS[key][1](value)
                                     for key, value in parse_config(cfg).items()})
        for reject in (scenario.validate, lambda: timestepper.run(scenario)):
            with pytest.raises(ValueError) as rejected:
                reject()
            assert str(rejected.value) == cli_message

    @pytest.mark.parametrize("argv", [["eig", "--config"], ["verify", "--degrees", "3"]],
                             ids=["eig", "verify"])
    def test_failed_kernel_self_check_is_invariant_failure(self, tmp_path, capsys, monkeypatch,
                                                           argv):
        eigh = scipy.linalg.eigh

        def corrupted(a, b):
            # the lowest eigenvector of each block gains the top one: a kernel vector
            # among them no longer satisfies A k = 0
            w, v = eigh(a, b)
            v = v.copy()
            v[:, 0] += v[:, -1]
            return w, v

        monkeypatch.setattr(scipy.linalg, "eigh", corrupted)
        if argv[0] == "eig":
            argv = argv + [write(tmp_path, "k.cfg", SPHEROID_LINES.replace("= 2", "= 4"))]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: claimed kernel vector fails A k = 0\n"
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize("command", ["basis", "eig"])
    def test_failed_basis_gate_is_invariant_failure(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr("precessflow.basis.GRAM_IDENTITY_TOL", 0.0)
        cfg = write(tmp_path, "g.cfg", SPHEROID_LINES)
        assert main([command, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert "error: orthonormalization failed" in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("command", ["basis", "eig"])
    def test_dependent_nullspace_is_invariant_failure(self, tmp_path, capsys, monkeypatch,
                                                      command):
        raw_rows = basis_module._raw_rows_exact

        def duplicated(domain, degree, classes):
            # field 4 becomes a copy of field 1, which lies in the same class
            nums, dens = raw_rows(domain, degree, classes)
            nums[4], dens[4] = nums[1], dens[1]
            return nums, dens

        monkeypatch.setattr(basis_module, "_raw_rows_exact", duplicated)
        cfg = write(tmp_path, "d.cfg", SPHEROID_LINES)
        assert main([command, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert "pivot at field 4:" in captured.err and "numerically dependent" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["explode"]) == 1

    def test_missing_config_flag(self, capsys):
        assert main(["run"]) == 1


class TestVerifyCommand:
    def test_battery_passes(self, capsys):
        assert main(["verify", "--degrees", "1"]) == 0
        out = capsys.readouterr().out
        assert "VERIFY:" in out
        assert " 0 failed" in out

    @pytest.mark.parametrize("degrees", ["1,,2", "1,a", "2.5", "", "0", "-1", "1,0", "1,1", "2,1,2"])
    def test_bad_degree_list_is_usage_error(self, capsys, degrees):
        assert main(["verify", "--degrees", degrees]) == 1
        err = capsys.readouterr().err
        assert "--degrees" in err
        assert "distinct positive integers" in err

    @pytest.mark.parametrize("degrees", ["1", "3"])
    def test_perturbed_advection_detected(self, capsys, monkeypatch, degrees):
        # negative control: +1e-6 on one entry of T's blocks, the pack left as assembled
        advection_operators = operators._advection_operators

        def perturbed(basis):
            blocks, packed = advection_operators(basis)
            key = next(iter(blocks))
            blocks = blocks | {key: blocks[key].copy()}
            blocks[key][0, 0, 0] += 1e-6
            return blocks, packed

        monkeypatch.setattr(operators, "_advection_operators", perturbed)
        assert main(["verify", "--degrees", degrees]) == 3
        out = capsys.readouterr().out
        assert "FAIL operators.advection_antisymmetry" in out
        # the perturbed block no longer matches the pack that runs use
        assert "FAIL operators.advection_parity" in out

    @pytest.mark.parametrize("case", MALFORMED_EXPORTS)
    def test_malformed_basis_file_fails_its_import(self, tmp_path, capsys, case):
        path, line, message = malformed_export(tmp_path, case)
        assert main(["verify", "--degrees", "1", "--basis-file", str(path)]) == 3
        out = capsys.readouterr().out
        assert f"FAIL basis.import file={path}  [{import_error(case, line, message)}" in out
        assert "basis.divergence_free file=" not in out and "basis.tangency file=" not in out

    def test_corrupted_basis_file_detected(self, tmp_path, capsys):
        path = tmp_path / "basis.txt"
        save_basis(get_basis("spheroid", 2), path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("#"):
                tok = line.split()
                tok[0] = tok[0].split(":")[0] + ":2.0"
                lines[i] = " ".join(tok)
                break
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--degrees", "1", "--basis-file", str(path)]) == 3
        out = capsys.readouterr().out
        assert ("FAIL basis.tangency" in out) or ("FAIL basis.divergence_free" in out)
