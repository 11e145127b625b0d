import math
from fractions import Fraction

import numpy as np
import pytest

from precessflow import diagnostics, monomials, timestepper
from precessflow.basis import REFERENCE_RESIDUAL_TOL, poincare_field, project, solid_rotation
from precessflow.diagnostics import (CSV_HEADER, DiagnosticsContext, TimeSeries,
                                     constraint_projection, momentum_balance_residual,
                                     record)
from precessflow.geometry import surface_rule
from precessflow.operators import BoundaryCondition, assemble
from precessflow.timestepper import ScenarioConfig, State, run

from conftest import DOMAINS, get_basis

U_P = poincare_field(Fraction(9, 16), Fraction(1, 4))
GAMMA = 6.4 * math.pi / 15.0        # ||e_z x x||^2 on the beta = 9/16 spheroid


def make_ops(form="stress_free", nu=1.0, eps_p=0.0, degree=2):
    data = U_P if form.startswith("poincare") else None
    return assemble(get_basis("spheroid", degree), BoundaryCondition(form, data),
                    nu=nu, eps_p=eps_p)


def make_ctx(ops, with_up=True):
    u_p = ops.bc.data_field if (with_up and ops.bc.is_inhomogeneous) else None
    return DiagnosticsContext(ops.basis, u_p)


class TestRecord:
    def test_small_rotation_energy(self):
        ops = make_ops()
        ctx = make_ctx(ops)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        rec = record(State(0.0, 0.1 * c_r), ops, ctx)
        # E_K = 0.5 * 0.01 * ||e_z x x||^2 = 0.005 * 6.4 pi / 15
        assert rec.E_K == pytest.approx(0.005 * GAMMA, rel=1e-12)
        assert rec.lam == pytest.approx(0.1, abs=1e-13)
        assert rec.E_perp == pytest.approx(0.0, abs=1e-15)
        assert rec.M_z == pytest.approx(0.1 * GAMMA, rel=1e-12)
        assert abs(rec.M_x) < 1e-15 and abs(rec.M_y) < 1e-15

    def test_poincare_reference_state(self):
        ops = make_ops("poincare_stress", nu=1.0, eps_p=0.25)
        ctx = make_ctx(ops)
        c_p, _ = project(U_P, ops.basis)
        rec = record(State(0.0, c_p), ops, ctx)
        assert rec.delta_EK == pytest.approx(0.0, abs=1e-24)
        assert rec.dE_Kn == pytest.approx(0.0, abs=1e-24)
        assert rec.dE_Ks == pytest.approx(0.0, abs=1e-24)
        assert abs(rec.c_rot) < 1e-10
        assert abs(rec.c_orth) < 1e-10
        assert rec.lam == pytest.approx(1.0, abs=1e-13)

    def test_energy_split_identity(self):
        ops = make_ops()
        ctx = make_ctx(ops)
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = rng.standard_normal(ops.dim)
            rec = record(State(0.0, c), ops, ctx)
            assert (rec.E_K - rec.E_perp - 0.5 * rec.lam**2 * ctx.gamma
                    == pytest.approx(0.0, abs=1e-12 * max(rec.E_K, 1.0)))
            assert (rec.dE_Kn + rec.dE_Ks
                    == pytest.approx(rec.delta_EK, abs=1e-12 * max(rec.delta_EK, 1.0)))

    def test_dimension_check(self):
        ops = make_ops()
        ctx = make_ctx(ops)
        with pytest.raises(ValueError):
            record(State(0.0, np.zeros(3)), ops, ctx)


class TestTimeSeries:
    def test_centered_differences(self):
        # quadratic E_K(t): interior centered differences are exact
        ops = make_ops()
        series = TimeSeries(records=[], dt=0.1)
        ctx = make_ctx(ops)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        for i in range(5):
            rec = record(State(0.0, np.zeros(ops.dim)), ops, ctx)
            rec.t = float(i)
            rec.E_K = float(i * i)
            series.records.append(rec)
        series.finalize()
        d = series.column("dEK_dt")
        np.testing.assert_allclose(d[1:-1], [2.0, 4.0, 6.0], atol=1e-12)
        assert d[0] == pytest.approx(1.0)    # one-sided at the ends
        assert d[-1] == pytest.approx(7.0)

    @pytest.mark.parametrize("restart_time", [2.0, 1.5], ids=["on_a_record", "between_records"])
    def test_no_difference_spans_a_restart(self, restart_time):
        # E_K = t before the kick and 10 + 3 t from the first record after it: each
        # segment's differences are exact, one-sided beside the kick
        ops = make_ops()
        ctx = make_ctx(ops)
        series = TimeSeries(records=[], dt=0.5, restart_time=restart_time)
        for i in range(5):
            rec = record(State(float(i), np.zeros(ops.dim)), ops, ctx)
            rec.E_K = float(i) if i < 2 else 10.0 + 3.0 * i
            series.records.append(rec)
        series.finalize()
        np.testing.assert_array_equal(series.column("dEK_dt"), [1.0, 1.0, 3.0, 3.0, 3.0])

    def test_csv_format(self, tmp_path):
        cfg = ScenarioConfig(degree=1, bc_form="stress_free", nu_inverse=1.0, eps_p=0.0,
                             init_type="solid_rotation", init_amplitude=0.1,
                             dt=0.01, t_end=0.05, record_every=0.01,
                             beta=Fraction(9, 16), output_path=str(tmp_path / "out.csv"))
        run(cfg)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == ("t,E_K,dEK_dt,dissipation,delta_EK,lambda,E_perp,"
                            "M_x,M_y,M_z,dE_Kn,dE_Ks,c_rot,c_orth,c_tot")
        row = lines[1].split(",")
        assert len(row) == 15
        # 17 significant digits survive a parse round trip
        assert float(row[1]) == pytest.approx(0.005 * GAMMA, rel=1e-15)


class TestMomentumBalance:
    def test_rest_state_is_exact(self):
        ops = make_ops()
        ctx = make_ctx(ops)
        series = TimeSeries(records=[], dt=0.01)
        for i in range(5):
            rec = record(State(i * 0.01, np.zeros(ops.dim)), ops, ctx)
            series.records.append(rec)
        series.finalize()
        res = momentum_balance_residual(series, 0.25)
        np.testing.assert_array_equal(res, np.zeros(3))

    def test_needs_three_records(self):
        series = TimeSeries(records=[], dt=0.01)
        with pytest.raises(ValueError):
            momentum_balance_residual(series, 0.25)

    def test_uniform_spacing_required(self):
        ops = make_ops()
        ctx = make_ctx(ops)
        series = TimeSeries(records=[], dt=0.01)
        for t in (0.0, 0.01, 0.03):
            series.records.append(record(State(t, np.zeros(ops.dim)), ops, ctx))
        with pytest.raises(ValueError):
            momentum_balance_residual(series, 0.25)

    def test_no_difference_spans_a_restart_kick(self):
        # the CI kick-from-rest config: the kick jumps M_z, so a centered difference
        # across it reads 0.17; the records at t = 0.4 and 0.5 are left out
        cfg = ScenarioConfig(degree=2, bc_form="stress_free", nu_inverse=1.0, eps_p=0.25,
                             init_type="solid_rotation", init_amplitude=0.0,
                             dt=0.01, t_end=1.0, record_every=0.1, beta=Fraction(9, 16),
                             restart_time=0.5, restart_omega=0.025)
        series = run(cfg)
        t, m_z, m_y = (series.column(name) for name in ("t", "M_z", "M_y"))
        assert len(t) == 11
        res = momentum_balance_residual(series, 0.25)
        centered = (m_z[2:] - m_z[:-2]) / (2.0 * (t[1] - t[0])) + 0.25 * m_y[1:-1]
        kept = ~np.isclose(t[1:-1], 0.4) & ~np.isclose(t[1:-1], 0.5)
        assert np.count_nonzero(kept) == 7
        np.testing.assert_array_equal(res, centered[kept])
        assert np.max(np.abs(res)) < 1e-5
        assert np.min(np.abs(centered[~kept])) > 0.1

    def test_rotation_momentum_conserved_without_precession(self):
        cfg = ScenarioConfig(degree=2, bc_form="stress_free", nu_inverse=1.0, eps_p=0.0,
                             init_type="poincare", init_eps_p=0.25,
                             dt=0.01, t_end=0.5, record_every=0.01, beta=Fraction(9, 16))
        series = run(cfg)
        res = momentum_balance_residual(series, 0.0)
        assert np.max(np.abs(res)) < 1e-8


class TestSurfaceFunctionals:
    @staticmethod
    def node_quadrature(ctx, basis, u_p, coeffs):
        # reference: rebuild u at the rule's nodes and take the weighted sums
        pts, w = ctx.rule.points, ctx.rule.weights
        field_coeffs = np.einsum("i,icm->cm", coeffs, basis.coeff_array)
        u = monomials.vandermonde(pts, basis.degree) @ field_coeffs.T
        rot = solid_rotation((0, 0, 1)).evaluate(pts)
        up = u_p.evaluate(pts) if u_p is not None else np.zeros_like(rot)
        pert = u - up
        return (np.einsum("n,nc,nc->", w, pert, rot), np.einsum("n,nc,nc->", w, pert, up),
                np.einsum("n,nc,nc->", w, u, rot))

    @pytest.mark.parametrize("with_up", [False, True])
    def test_match_node_quadrature(self, with_up):
        ops = make_ops("poincare_stress", nu=1.0, eps_p=0.25, degree=3)
        ctx = make_ctx(ops, with_up)
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = rng.standard_normal(ops.dim)
            got = ctx.surface_functionals(c)
            ref = self.node_quadrature(ctx, ops.basis, U_P if with_up else None, c)
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-13 * abs(r)

    def test_unrepresentable_reference_field_rejected(self, monkeypatch):
        def off_by(u_p, basis):
            return project(u_p, basis)[0], 10 * REFERENCE_RESIDUAL_TOL

        monkeypatch.setattr(diagnostics, "reference_projection", off_by)
        ops = make_ops("poincare_stress", nu=1.0, eps_p=0.25)
        with pytest.raises(ValueError, match="reference field is not representable"):
            make_ctx(ops)


class TestConstraintProjection:
    def test_satisfied_state_unchanged(self):
        ops = make_ops("poincare_stress", nu=1.0, eps_p=0.25)
        ctx = make_ctx(ops)
        c_p, _ = project(U_P, ops.basis)
        out = constraint_projection(State(0.0, c_p.copy()), "rot_momentum", ctx)
        assert np.max(np.abs(out.coeffs - c_p)) < 1e-14

    def test_rotation_perturbation_removed(self):
        ops = make_ops("poincare_stress", nu=1.0, eps_p=0.25)
        ctx = make_ctx(ops)
        c_p, _ = project(U_P, ops.basis)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        state = State(0.0, c_p + 0.025 * c_r)
        out = constraint_projection(state, "rot_momentum", ctx)
        assert np.max(np.abs(out.coeffs - c_p)) < 1e-10
        assert abs(ctx.surface_functionals(out.coeffs)[0]) < 1e-12

    def test_orth_poincare_mode(self):
        ops = make_ops("poincare_stress", nu=1.0, eps_p=0.25)
        ctx = make_ctx(ops)
        c_p, _ = project(U_P, ops.basis)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        out = constraint_projection(State(0.0, c_p + 0.1 * c_r), "orth_poincare", ctx)
        assert abs(ctx.surface_functionals(out.coeffs)[1]) < 1e-12

    def test_total_momentum_on_rest(self):
        ops = make_ops()
        ctx = make_ctx(ops)
        out = constraint_projection(State(0.0, np.zeros(ops.dim)), "total_momentum", ctx)
        assert np.all(out.coeffs == 0.0)

    def test_degenerate_functional_rejected(self):
        ops = make_ops()          # homogeneous: no u_P, c_orth direction degenerate
        ctx = make_ctx(ops)
        with pytest.raises(ValueError):
            constraint_projection(State(0.0, np.zeros(ops.dim)), "orth_poincare", ctx)

    def test_degenerate_functional_fails_before_the_first_step(self, tmp_path, monkeypatch):
        steps = []
        monkeypatch.setattr(timestepper, "integrate", lambda *args: steps.append(args))

        def degenerate(ctx, mode):
            raise ValueError("constraint functional is degenerate on the rotation direction")

        monkeypatch.setattr(DiagnosticsContext, "constraint", degenerate)
        out = tmp_path / "series.csv"
        cfg = ScenarioConfig(degree=2, bc_form="stress_free", nu_inverse=1.0, eps_p=0.0,
                             init_type="solid_rotation", init_amplitude=0.1, dt=0.01,
                             t_end=0.1, record_every=0.02, beta=Fraction(9, 16),
                             constraint_mode="rot_momentum", output_path=str(out))
        with pytest.raises(ValueError, match="degenerate"):
            run(cfg)
        assert steps == [] and not out.exists()

    def test_the_functional_is_chosen_once_per_context(self):
        ops = make_ops("poincare_stress", nu=1.0, eps_p=0.25)
        ctx = make_ctx(ops)
        dens = {"rot_momentum": ctx.den_rot, "orth_poincare": ctx.den_orth,
                "total_momentum": ctx.den_rot}
        for row, mode in enumerate(diagnostics.CONSTRAINT_MODES):
            entry = ctx.constraint(mode)
            assert entry == (row, dens[mode]) and ctx.constraint(mode) is entry

    def test_unknown_mode(self):
        ops = make_ops()
        with pytest.raises(ValueError):
            constraint_projection(State(0.0, np.zeros(ops.dim)), "spin_down",
                                  surface_rule(ops.basis.domain, 16))


class TestFreeDecayScenario:
    def test_lambda_frozen_and_perp_decays(self):
        from precessflow.spectral import coercivity_constant

        cfg = ScenarioConfig(degree=2, bc_form="stress_free", nu_inverse=1.0, eps_p=0.0,
                             init_type="poincare", init_eps_p=0.25,
                             dt=0.005, t_end=2.0, record_every=0.05, beta=Fraction(9, 16))
        series = run(cfg)
        lam = series.column("lambda")
        e_perp = series.column("E_perp")
        assert np.max(np.abs(lam - lam[0])) < 1e-10
        assert np.all(np.diff(e_perp) <= 1e-15)
        # every non-rotation mode decays at least at the coercivity rate
        k_n = coercivity_constant(make_ops(degree=2), "kernel").K_N
        bound = e_perp[0] * math.exp(-4.0 * 1.0 * k_n * series.records[-1].t)
        assert e_perp[-1] <= bound * 1.05
