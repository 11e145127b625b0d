"""The verify battery reads the objects that runs use, as the basis keeps them."""

from precessflow import diagnostics, operators
from precessflow.diagnostics import SURFACE_ORDER
from precessflow.verification import run_battery


def test_battery_never_forms_the_dense_advection_tensor(monkeypatch):
    def no_dense(*args):
        raise AssertionError("the dense advection tensor was formed")

    monkeypatch.setattr(operators, "_dense_advection", no_dense)
    results = run_battery(degrees=(1, 3))
    assert [r.line() for r in results if not r.ok] == []


def test_battery_builds_one_diagnostics_context_on_the_run_rule(monkeypatch):
    contexts = []
    init = diagnostics.DiagnosticsContext.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(diagnostics.DiagnosticsContext, "__init__", recording)
    results = run_battery(degrees=(1,))
    assert all(r.ok for r in results)
    assert len(contexts) == 1
    assert len(contexts[0].rule.weights) == SURFACE_ORDER * 2 * SURFACE_ORDER
