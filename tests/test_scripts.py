"""The scripts under scripts/ exit nonzero when a claim that they print fails, and
output_digests repeats its digests and sees a one-ulp change."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from precessflow import cli, operators

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_trichotomy_fails_on_a_failed_check(monkeypatch, capsys):
    script = load("kernel_trichotomy")
    monkeypatch.setattr(script, "DEGREES", range(1, 3))
    assert script.main() == 0
    neutral_modes = script.neutral_modes
    monkeypatch.setattr(script, "neutral_modes",
                        lambda b: dataclasses.replace(neutral_modes(b), ok=b.degree != 2))
    assert script.main() == 1


@pytest.mark.parametrize("swap, status", [
    ({}, 0),
    ({None: "rot_momentum"}, 1),        # the unconstrained gap closes
    ({"rot_momentum": None}, 1),        # the constrained run keeps its delta_EK
], ids=["pass", "gap_closes", "no_collapse"])
def test_poincare_family_fails_on_a_failed_claim(monkeypatch, capsys, swap, status):
    script = load("poincare_family")
    twin = script.twin
    monkeypatch.setattr(script, "twin", lambda constraint: twin(swap.get(constraint, constraint)))
    assert script.main() == status


@pytest.mark.parametrize("rising", [False, True])
def test_decay_overview_fails_on_a_nonnegative_rate(monkeypatch, tmp_path, capsys, rising):
    script = load("decay_overview")
    monkeypatch.chdir(tmp_path)
    run = script.run

    def patched(cfg):
        series = run(cfg)
        if rising:
            series.records[-1].dEK_dt = 0.0
        return series

    monkeypatch.setattr(script, "run", patched)
    assert script.main() == (1 if rising else 0)
    out = capsys.readouterr().out
    assert ("(negative everywhere)" in out) is not rising
    if rising:
        assert "max dEK_dt over the run = 0.000e+00\n" in out


KICK_LINES = ("domain.beta = 9/16\nbasis.degree = 2\nbc.form = stress_free\n"
              "physics.nu_inverse = 1\nphysics.eps_p = 0.25\ninit.type = solid_rotation\n"
              "init.amplitude = 0\nrestart.time = 0.5\nrestart.omega = 0.025\ntime.dt = 0.01\n"
              "time.t_end = 1\ntime.record_every = 0.1\noutput.path = kick.csv\n")


def test_output_digests_repeat_and_see_one_ulp(monkeypatch, tmp_path, capsys):
    script = load("output_digests")
    (tmp_path / "kick.cfg").write_text(KICK_LINES)
    monkeypatch.setattr(script, "CONFIGS", [tmp_path / "kick.cfg"])

    def digests():
        assert script.main(["--degrees", "1,2"]) == 0
        return dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())

    first = digests()
    assert digests() == first
    assert list(first) == sorted(first) and "config/kick.cfg" in first
    # one line digests the stdout of `precessflow verify` at the same degrees
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(["verify", "--degrees", "1,2"])
    assert first["verify:1,2"] == hashlib.sha256(out.getvalue().encode()).hexdigest()
    # one line of stepped classes per run: at N = 2 the kick and the Coriolis shift reach
    # G = {0, 3, 5, 6}, whose classes present are 3, 5 and 6; the N = 3-6 runs step all four
    stepped = {label: value for label, value in first.items() if label.startswith("run:")}
    assert stepped == {"run:kick.cfg": "classes 3,5,6",
                       **{f"run:{name}": "classes 0,3,5,6" for name in script.RUNS}}
    assert all(len(value) == 64 for label, value in first.items() if label not in stepped)
    runs = {label for label in first if label.startswith("run/")}
    assert runs == {f"run/{name}" for name in script.RUNS} and len(runs) == 7
    # and one digest of the fields of the basis each run stepped; the twins share theirs
    fields = {label for label in first if label.startswith("stepped/")}
    assert fields == {"stepped/kick.cfg", *(f"stepped/{name}" for name in script.RUNS)}
    assert first["stepped/twin_n5=+omega"] == first["stepped/twin_n5=-omega"]
    # one ulp on the inhomogeneous forcing changes the spheroid's F_bc lines, the
    # poincare_stress runs, verify's stdout (its steady residuals) and no other line
    forcing = operators._forcing_vector

    def nudged(basis, bc, nu):
        f_bc = forcing(basis, bc, nu)
        return np.nextafter(f_bc, np.inf) if bc.is_inhomogeneous else f_bc

    monkeypatch.setattr(operators, "_forcing_vector", nudged)
    changed = {label for label, value in digests().items() if first[label] != value}
    assert changed == {f"{method}/spheroid/N={degree}/F_bc"
                       for method in ("exact", "svd") for degree in (1, 2)} | runs | {"verify:1,2"}
