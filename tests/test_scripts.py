"""The scripts under scripts/ exit nonzero when a claim that they print fails."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

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
