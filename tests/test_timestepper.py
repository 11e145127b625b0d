import math
from fractions import Fraction

import numpy as np
import pytest

from precessflow.basis import poincare_field, project, solid_rotation
from precessflow.diagnostics import CSV_HEADER
from precessflow.operators import BoundaryCondition, assemble
from precessflow.spectral import viscous_kernel
from precessflow.timestepper import (BlowUpError, ScenarioConfig, State,
                                     initial_coefficients, integrate, run, step)

from conftest import get_basis

U_P = poincare_field(Fraction(9, 16), Fraction(1, 4))


def spheroid_ops(degree=2, form="stress_free", nu=1.0, eps_p=0.0, **kw):
    data = U_P if form.startswith("poincare") else None
    return assemble(get_basis("spheroid", degree), BoundaryCondition(form, data),
                    nu=nu, eps_p=eps_p, **kw)


def base_config(**overrides):
    cfg = dict(degree=2, bc_form="stress_free", nu_inverse=1.0, eps_p=0.0,
               init_type="solid_rotation", init_amplitude=0.1,
               dt=0.01, t_end=0.1, record_every=0.02, beta=Fraction(9, 16))
    cfg.update(overrides)
    return ScenarioConfig(**cfg)


class TestScenarioConfig:
    def test_valid(self):
        base_config().validate()

    @pytest.mark.parametrize("overrides", [
        dict(degree=0),
        dict(bc_form="slippery"),
        dict(nu_inverse=0.0),
        dict(dt=-0.01),
        dict(t_end=0.0),
        dict(record_every=0.0),
        dict(t_end=math.inf),
        dict(init_type="vortex"),
        dict(init_type="coefficients"),
        dict(restart_time=5.0),
        dict(constraint_mode="momentum"),
        dict(beta=None),
        dict(a=1, b=1, c=1),
    ])
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            base_config(**overrides).validate()

    @pytest.mark.parametrize("name", ["eps_p", "init_amplitude", "init_omega", "init_eps_p",
                                      "restart_omega", "blowup_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            base_config(**{name: value}).validate()

    def test_domain_construction(self):
        assert base_config().domain().kind == "spheroid_z"
        cfg = base_config(beta=None, a=1, b=Fraction(9, 10), c=Fraction(4, 5))
        assert cfg.domain().kind == "triaxial"


class TestStep:
    def test_rest_state_invariant(self):
        ops = spheroid_ops()
        state = State(0.0, np.zeros(ops.dim))
        state = integrate(state, ops, 0.01, 20)
        assert np.all(state.coeffs == 0.0)
        assert state.t == pytest.approx(0.2)

    def test_dt_positive(self):
        ops = spheroid_ops()
        with pytest.raises(ValueError):
            step(State(0.0, np.zeros(ops.dim)), ops, 0.0)

    def test_rotation_is_exact_fixed_point(self):
        ops = spheroid_ops(nu=0.01)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        state = State(0.0, 0.1 * c_r)
        e0 = 0.5 * float(state.coeffs @ state.coeffs)
        drift = 0.0
        for _ in range(500):
            state = step(state, ops, 0.01)
            e_k = 0.5 * float(state.coeffs @ state.coeffs)
            drift = max(drift, abs(e_k - e0) / e0)
        assert drift < 1e-13

    def test_poincare_family_stationary(self):
        ops = spheroid_ops(form="poincare_stress", nu=1.0 / 0.024, eps_p=0.25)
        c_p, _ = project(U_P, ops.basis)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        start = c_p + 0.025 * c_r
        state = integrate(State(0.0, start.copy()), ops, 0.01, 100)
        rel = np.linalg.norm(state.coeffs - start) / np.linalg.norm(start)
        assert rel < 1e-12

    def test_stokes_eigenmode_decay_rate(self):
        ops = spheroid_ops(3, include_advection=False)
        report = viscous_kernel(ops, stiffness="sym")
        eigvals, eigvecs = np.linalg.eigh(ops.A_sym)
        first = np.argmax(eigvals > 1e-8)
        lam = eigvals[first]
        state = State(0.0, eigvecs[:, first].copy())
        n, dt = 400, 5e-4
        e0 = 0.5 * float(state.coeffs @ state.coeffs)
        state = integrate(state, ops, dt, n, include_advection=False)
        e1 = 0.5 * float(state.coeffs @ state.coeffs)
        rate = math.log(e0 / e1) / (n * dt)
        assert rate == pytest.approx(2.0 * ops.nu * lam, rel=1e-4)

    def test_energy_monotone_homogeneous(self):
        # no step may raise the energy in a homogeneous stress-free run
        ops = spheroid_ops(2, nu=1.0 / 0.024, eps_p=0.25)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        state = State(0.0, 0.1 * c_r)
        e_prev = 0.5 * float(state.coeffs @ state.coeffs)
        e0 = e_prev
        for _ in range(400):
            state = step(state, ops, 0.02)
            e_k = 0.5 * float(state.coeffs @ state.coeffs)
            assert e_k <= e_prev + 1e-12 * e0
            e_prev = e_k

    def test_energy_audit_third_order_per_step(self):
        # E^{n+1} - E^n minus the trapezoid of the instantaneous rate is
        # O(dt^3) per step: halving dt must shrink the worst defect ~8x
        def audit(dt):
            ops = spheroid_ops(2, form="poincare_stress", nu=0.1, eps_p=0.25)
            c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
            state = State(0.0, 0.1 * c_r)
            worst = 0.0
            e_prev = 0.5 * float(state.coeffs @ state.coeffs)
            r_prev = (-float(state.coeffs @ (ops.V @ state.coeffs))
                      + float(state.coeffs @ ops.F_bc))
            for _ in range(int(round(1.0 / dt))):
                state = step(state, ops, dt)
                e_k = 0.5 * float(state.coeffs @ state.coeffs)
                rate = (-float(state.coeffs @ (ops.V @ state.coeffs))
                        + float(state.coeffs @ ops.F_bc))
                defect = abs(e_k - e_prev - 0.5 * dt * (rate + r_prev))
                worst = max(worst, defect)
                e_prev, r_prev = e_k, rate
            return worst

        # startup is third-order too, so the halving ratio sits near 8
        w1, w2 = audit(0.01), audit(0.005)
        assert 5.0 < w1 / w2 < 11.0

    def test_blow_up_guard(self):
        ops = spheroid_ops()
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        state = State(0.0, 0.1 * c_r)
        with pytest.raises(BlowUpError):
            integrate(state, ops, 0.01, 10, max_norm=1e-6)


class TestInitialConditions:
    def test_solid_rotation(self):
        basis = get_basis("spheroid", 2)
        cfg = base_config(init_amplitude=0.3)
        c = initial_coefficients(cfg, basis)
        c_r, _ = project(solid_rotation((0, 0, 1)), basis)
        np.testing.assert_allclose(c, 0.3 * c_r, atol=1e-15)

    def test_poincare_with_field_epsilon(self):
        basis = get_basis("spheroid", 2)
        cfg = base_config(init_type="poincare", init_eps_p=0.25, eps_p=0.0)
        c = initial_coefficients(cfg, basis)
        c_p, _ = project(U_P, basis)
        np.testing.assert_allclose(c, c_p, atol=1e-14)

    def test_poincare_plus_rotation(self):
        basis = get_basis("spheroid", 2)
        cfg = base_config(init_type="poincare_plus_rotation", init_omega=0.025,
                          eps_p=0.25)
        c = initial_coefficients(cfg, basis)
        c_p, _ = project(U_P, basis)
        c_r, _ = project(solid_rotation((0, 0, 1)), basis)
        np.testing.assert_allclose(c, c_p + 0.025 * c_r, atol=1e-14)

    def test_coefficients_from_file(self, tmp_path):
        basis = get_basis("spheroid", 1)
        path = tmp_path / "init.txt"
        np.savetxt(path, np.arange(basis.dim, dtype=float))
        cfg = base_config(degree=1, init_type="coefficients", init_path=str(path))
        np.testing.assert_array_equal(initial_coefficients(cfg, basis),
                                      np.arange(basis.dim, dtype=float))
        np.savetxt(path, np.arange(basis.dim + 1, dtype=float))
        with pytest.raises(ValueError):
            initial_coefficients(cfg, basis)

    def test_poincare_init_needs_unit_equator(self):
        cfg = base_config(beta=None, a=2, b=2, c=1, init_type="poincare")
        basis_dom = cfg.domain()
        from precessflow.basis import build_basis
        with pytest.raises(ValueError):
            initial_coefficients(cfg, build_basis(basis_dom, 1))


class TestRun:
    def test_records_and_output(self, tmp_path):
        out = tmp_path / "series.csv"
        cfg = base_config(t_end=0.1, record_every=0.02, output_path=str(out))
        series = run(cfg)
        assert len(series.records) == 6      # t = 0 plus five intervals
        assert series.records[0].t == 0.0
        assert series.records[-1].t == pytest.approx(0.1)
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == 7
        assert "\r" not in text

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(base_config(output_path=str(out1)))
        run(base_config(output_path=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_restart_perturbation(self):
        cfg = base_config(bc_form="poincare_stress", nu_inverse=0.024, eps_p=0.25,
                          init_type="poincare", t_end=0.2, record_every=0.01,
                          restart_time=0.1, restart_omega=0.025)
        series = run(cfg)
        lam = series.column("lambda")
        t = series.column("t")
        before = lam[t < 0.1 - 1e-12]
        after = lam[t > 0.1 + 1e-12]
        assert np.allclose(before, 1.0, atol=1e-10)
        assert np.allclose(after, 1.025, atol=1e-10)

    def test_blow_up_writes_partial_csv(self, tmp_path):
        out = tmp_path / "partial.csv"
        cfg = base_config(bc_form="poincare_stress", nu_inverse=1.0, eps_p=0.25,
                          init_type="solid_rotation", init_amplitude=0.0,
                          blowup_factor=0.5, output_path=str(out),
                          t_end=1.0, record_every=0.01)
        with pytest.raises(BlowUpError) as err:
            run(cfg)
        assert err.value.series is not None
        assert out.exists()
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_blow_up_partial_csv_holds_every_record(self, tmp_path):
        # the guard trips mid-run: the partial CSV carries exactly the records
        # taken before the trip, the last of them within one interval of it
        out = tmp_path / "partial.csv"
        cfg = base_config(bc_form="poincare_stress", nu_inverse=1.0, eps_p=0.25,
                          init_amplitude=0.01, blowup_factor=5.0, output_path=str(out),
                          t_end=1.0, record_every=0.02)
        with pytest.raises(BlowUpError) as err:
            run(cfg)
        records = err.value.series.records
        rows = out.read_text().splitlines()[1:]
        assert len(records) > 1
        assert len(rows) == len(records)
        last_t = float(rows[-1].split(",")[0])
        assert last_t == records[-1].t
        t_trip = float(str(err.value).rsplit("t = ", 1)[1])
        assert records[-1].t < t_trip <= records[-1].t + 0.02 + 1e-12

    def test_non_finite_coefficient_file_writes_no_csv(self, tmp_path):
        path = tmp_path / "init.txt"
        data = np.zeros(get_basis("spheroid", 2).dim)
        data[1] = np.inf
        np.savetxt(path, data)
        out = tmp_path / "series.csv"
        cfg = base_config(init_type="coefficients", init_path=str(path), output_path=str(out))
        with pytest.raises(ValueError, match="non-finite"):
            run(cfg)
        assert not out.exists()

    def test_nan_restart_omega_writes_no_csv(self, tmp_path):
        out = tmp_path / "series.csv"
        cfg = base_config(restart_time=0.05, restart_omega=math.nan, output_path=str(out))
        with pytest.raises(ValueError, match="restart_omega must be finite"):
            run(cfg)
        assert not out.exists()

    def test_stokes_only_flag(self):
        series = run(base_config(include_advection=False, t_end=0.05))
        assert len(series.records) >= 2
