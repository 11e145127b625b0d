"""The verify battery reads the objects that runs use, as the basis keeps them."""

import math

import numpy as np
import pytest

from precessflow import basis as basis_module
from precessflow import cli, diagnostics, monomials, operators, verification
from precessflow.basis import Basis
from precessflow.diagnostics import SURFACE_ORDER
from precessflow.verification import _basis_checks, run_battery

from conftest import get_basis


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


@pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
def test_basis_checks_name_the_field_whose_row_breaks_one_identity(kind):
    basis = get_basis(kind, 3)
    domain, n = basis.domain, basis.degree
    nums, dens = basis.rows
    dim_v = monomials.space_dim(n)
    k = math.lcm(*(c.denominator for c in domain.chi.coeffs.values()))
    # (k chi, 0, 0) with q = k d_x chi is tangent, v.grad(chi) = chi q, but its divergence
    # is k d_x chi; a constant added to q breaks tangency alone
    tangent = np.zeros(nums.shape[1], dtype=object)
    for e, c in domain.chi.coeffs.items():
        tangent[monomials.index_map(n)[e]] = int(c * k)
    for e, c in domain.chi.diff(0).coeffs.items():
        tangent[3 * dim_v + monomials.index_map(n - 1)[e]] = int(c * k)
    constant_q = np.zeros(nums.shape[1], dtype=object)
    constant_q[3 * dim_v] = 1
    ctx = f"domain={kind} N={n}"
    for row, delta, broken, kept in ((5, tangent, "divergence_free", "tangency"),
                                     (7, constant_q, "tangency", "divergence_free")):
        perturbed = nums.copy()
        perturbed[row] += delta
        results = []
        _basis_checks(results, kind, domain,
                      Basis(domain, n, basis.coeff_array, (perturbed, dens)))
        lines = {r.name: r.line() for r in results}
        what = "divergence free" if broken == "divergence_free" else "tangent to the boundary"
        assert lines[f"basis.{broken}"] == (f"FAIL basis.{broken} {ctx}  "
                                            f"[basis field {row} is not exactly {what}]")
        assert lines[f"basis.{kept}"] == f"PASS basis.{kept} {ctx}"
        assert [r.name for r in results if not r.ok] == [f"basis.{broken}"]


def test_each_basis_is_proved_once(monkeypatch, tmp_path, capsys):
    # the build's proof is kept on the basis (Basis.row_failures); verify and the basis
    # command report it instead of proving the rows again
    proofs = []
    prove = basis_module.exact_row_failures

    def counting(domain, degree, nums):
        proofs.append((domain, degree))
        return prove(domain, degree, nums)

    monkeypatch.setattr(basis_module, "exact_row_failures", counting)
    results = run_battery(degrees=(1, 2))
    assert all(r.ok for r in results)
    assert len(proofs) == 6 and len(set(proofs)) == 6
    proofs.clear()
    cfg = tmp_path / "b.cfg"
    cfg.write_text("domain.beta = 9/16\nbasis.degree = 3\n")
    assert cli.main(["basis", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS basis.divergence_free" in out and "PASS basis.tangency" in out
    assert len(proofs) == 1


@pytest.mark.parametrize("degrees, line", [
    ((1,), "PASS timestepper.unreached_classes_zero domain=spheroid N=1  "
           "[G 0 3 5 6 holds every class present, 3 5 6]"),
    ((1, 3, 2), "PASS timestepper.unreached_classes_zero domain=spheroid N=2  "
                "[G 0 3 5 6; classes 1 2 4 7 max |c| 0.0e+00 over 100 steps]"),
])
def test_unreached_classes_line_runs_at_the_smallest_degree_from_2(degrees, line):
    lines = [r.line() for r in run_battery(degrees=degrees)
             if r.name == "timestepper.unreached_classes_zero"]
    assert lines == [line]


def test_unreached_classes_line_fails_when_g_misses_a_reached_class(monkeypatch):
    # without the Coriolis shift, G = {0, 3}: classes 5 and 6 are reached all the same
    monkeypatch.setattr(verification, "reachable_classes", lambda *args: (0, 3))
    results = []
    verification._unreached_classes_check(results, "spheroid", get_basis("spheroid", 2))
    (result,) = results
    assert not result.ok
    assert result.line().startswith("FAIL timestepper.unreached_classes_zero domain=spheroid "
                                    "N=2  [G 0 3; classes 1 2 4 5 6 7 max |c| ")


def test_unreached_classes_line_sees_one_tiny_coefficient(monkeypatch):
    # a 1e-30 seed in class 1 that G leaves out must fail the line: the check is exact
    initial = verification.initial_coefficients

    def seeded(cfg, basis):
        coeffs = initial(cfg, basis).copy()
        coeffs[basis.members[1][0]] = 1e-30
        return coeffs

    monkeypatch.setattr(verification, "initial_coefficients", seeded)
    monkeypatch.setattr(verification, "reachable_classes", lambda *args: (0, 3, 5, 6))
    results = []
    verification._unreached_classes_check(results, "spheroid", get_basis("spheroid", 2))
    (result,) = results
    assert not result.ok and "classes 1 2 4 7 max |c| " in result.line()


@pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_coupling_sides_from_the_operators_match_the_exact_integrals(kind, degree):
    # verify's momentum_coupling_identity line reads mom[1] and a nodal form; the exact
    # operators.momentum_coupling_identity integrates each field's polynomials
    basis = get_basis(kind, degree)
    ops = operators.assemble(basis, operators.BoundaryCondition("stress_free"), nu=1.0,
                             eps_p=0.25)
    exact = np.array([operators.momentum_coupling_identity(f, basis.domain)
                      for f in basis.fields])
    lhs, rhs = verification.momentum_coupling_sides(ops)
    assert np.max(np.abs(lhs - exact[:, 0])) <= 1e-14
    assert np.max(np.abs(rhs - exact[:, 1])) <= 1e-14


def test_coupling_sides_see_a_field_that_breaks_the_identity():
    # e_y x x = (z, 0, -x) is solenoidal but not tangent to the spheroid (c != a):
    # lhs - rhs = int z^2 - x^2 = (4 pi / 15) a b c (c^2 - a^2)
    domain = get_basis("spheroid", 1).domain
    rotation = basis_module.solid_rotation((0, 1, 0))
    one = Basis(domain, 1, monomials.field_to_array(rotation, 1)[None])
    ops = operators.assemble(one, operators.BoundaryCondition("stress_free"), nu=1.0,
                             eps_p=0.0)
    lhs, rhs = verification.momentum_coupling_sides(ops)
    exact = operators.momentum_coupling_identity(rotation, domain)
    np.testing.assert_allclose([lhs[0], rhs[0]], exact, rtol=0, atol=1e-14)
    a, b, c = (float(s) for s in domain.axes_exact)
    assert lhs[0] - rhs[0] == pytest.approx(4 * math.pi / 15 * a * b * c * (c * c - a * a))
    assert abs(lhs[0] - rhs[0]) > 0.1
