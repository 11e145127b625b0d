import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from precessflow import basis as basis_module
from precessflow import diagnostics, timestepper
from precessflow.basis import build_basis, poincare_field, project, solid_rotation
from precessflow.diagnostics import CSV_HEADER
from precessflow.operators import BoundaryCondition, assemble
from precessflow.spectral import viscous_kernel
from precessflow.timestepper import (BlowUpError, ScenarioConfig, State,
                                     initial_coefficients, integrate, run, step)

from conftest import DOMAINS, get_basis

U_P = poincare_field(Fraction(9, 16), Fraction(1, 4))


def spheroid_ops(degree=2, form="stress_free", nu=1.0, eps_p=0.0, **kw):
    data = U_P if form.startswith("poincare") else None
    return assemble(get_basis("spheroid", degree), BoundaryCondition(form, data),
                    nu=nu, eps_p=eps_p, **kw)


def base_config(**overrides):
    cfg = dict(degree=2, bc_form="stress_free", nu_inverse=1.0, eps_p=0.0,
               init_type="solid_rotation", dt=0.01, t_end=0.1, record_every=0.02,
               beta=Fraction(9, 16))
    cfg.update(overrides)
    if cfg["init_type"] == "solid_rotation":     # the one init type that reads it
        cfg.setdefault("init_amplitude", 0.1)
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
        dict(output_path="no-such-directory/series.csv"),
        dict(output_path="/no-such-directory/series.csv"),
        # times off the dt grid: run() would end at t = 0.09, take no step,
        # kick at t = 0 or record every step
        dict(dt=0.03, t_end=0.1, record_every=0.03),
        dict(t_end=0.004),
        dict(restart_time=0.003),
        dict(record_every=0.005),
    ])
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            base_config(**overrides).validate()

    @pytest.mark.parametrize("name", ["eps_p", "init_amplitude", "init_omega", "init_eps_p",
                                      "restart_omega"])
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

    @pytest.mark.parametrize("dt", [-1.0, 0.0, -0.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("n_steps", [0, 1, 5])
    def test_a_dt_that_is_not_positive_and_finite_fails_before_any_factoring(
            self, dt, n_steps, monkeypatch):
        ops = spheroid_ops()
        monkeypatch.setattr(timestepper, "_solver", None)   # any factoring would raise TypeError
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate(State(0.0, np.zeros(ops.dim)), ops, dt, n_steps)

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
        state = integrate(state, ops, dt, n)
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


def scipy_lu_solve(lu_piv, rhs):
    return scipy.linalg.lu_solve(lu_piv, rhs, check_finite=False)


class TestLuSolve:
    @pytest.mark.parametrize("method", ["exact", "svd"])
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_matches_scipy_lu_solve_bitwise(self, degree, kind, method):
        basis = build_basis(DOMAINS[kind], degree, method)
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=0.1, eps_p=0.25,
                       include_advection=False)
        rng = np.random.default_rng(degree)
        for lu_piv in timestepper._solver(ops, 0.01):
            rhs = rng.standard_normal(ops.dim)
            expected = scipy_lu_solve(lu_piv, rhs)
            assert np.array_equal(timestepper._lu_solve(lu_piv, rhs.copy()), expected)

    @pytest.mark.parametrize("kind, form", [
        ("spheroid", "poincare_stress"),
        ("triaxial", "stress_free"),
    ])
    def test_step_matches_scipy_reference_bitwise(self, kind, form, monkeypatch):
        data = U_P if form.startswith("poincare") else None
        ops = assemble(get_basis(kind, 3), BoundaryCondition(form, data),
                       nu=1.0 / 0.024, eps_p=0.25)
        rng = np.random.default_rng(7)
        c0, c1 = 0.1 * rng.standard_normal((2, ops.dim))
        starts = [State(0.0, c0), State(0.01, c1, prev_coeffs=c0)]
        got = [step(st, ops, 0.01) for st in starts]
        got5 = integrate(starts[0], ops, 0.01, 5)       # the startup, then four BDF2 steps
        solves = []

        def counted(lu_piv, rhs):
            solves.append(rhs.shape)
            return scipy_lu_solve(lu_piv, rhs)

        monkeypatch.setattr(timestepper, "_lu_solve", counted)
        for st, new in zip(starts, got):
            ref = step(st, ops, 0.01)
            assert np.array_equal(new.coeffs, ref.coeffs)
        # the startup solves three systems, a BDF2 step one
        assert solves == [(ops.dim,)] * (3 + 1)
        ref5 = integrate(starts[0], ops, 0.01, 5)
        assert len(solves) == 4 + 3 + 4
        assert np.array_equal(got5.coeffs, ref5.coeffs)
        assert np.array_equal(got5.prev_coeffs, ref5.prev_coeffs)

    @pytest.mark.parametrize("bdf2", [False, True])
    def test_nan_state_raises(self, bdf2):
        ops = spheroid_ops()
        c = np.zeros(ops.dim)
        c[0] = math.nan
        state = State(0.01, c, prev_coeffs=np.zeros(ops.dim) if bdf2 else None)
        with pytest.raises(BlowUpError, match="non-finite coefficients"):
            step(state, ops, 0.01)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_overflowing_norm_of_finite_state_is_not_flagged(self):
        # the squared norm overflows while every entry stays finite: the
        # step guard must let it through and leave the trip to integrate
        ops = spheroid_ops(eps_p=0.25, include_advection=False)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        state = State(0.0, 1e200 * c_r)
        new = step(state, ops, 0.01)
        assert np.all(np.isfinite(new.coeffs))
        assert not math.isfinite(new.coeffs @ new.coeffs)
        with pytest.raises(BlowUpError, match="state norm exceeded"):
            integrate(state, ops, 0.01, 5, max_norm=1e300)


def bits(state):
    """The bytes of state's t, coeffs and prev_coeffs: -0.0 and +0.0 differ, as in the CSV."""
    prev = b"" if state.prev_coeffs is None else state.prev_coeffs.tobytes()
    return np.float64(state.t).tobytes(), state.coeffs.tobytes(), prev


def stepped_one_by_one(state, ops, dt, n_steps, projector=None):
    """n_steps calls of step(), each projected when projector is given."""
    for _ in range(n_steps):
        state = step(state, ops, dt)
        if projector is not None:
            state = State(state.t, projector(state.coeffs), state.prev_coeffs)
    return state


def restarted_between_chunks(integrate_chunk, state, chunks):
    """state advanced chunk by chunk, restarted (prev_coeffs None) after every chunk but
    the last, as an observer that replaces the state between step() calls would."""
    for i, n_steps in enumerate(chunks):
        state = integrate_chunk(state, n_steps)
        if i < len(chunks) - 1:
            state = State(state.t, state.coeffs, prev_coeffs=None)
    return state


def counted_solves(monkeypatch):
    """A list that gains one entry per LU solve of timestepper."""
    solves = []

    def counted(lu_piv, rhs, _solve=timestepper._lu_solve):
        solves.append(rhs.shape)
        return _solve(lu_piv, rhs)

    monkeypatch.setattr(timestepper, "_lu_solve", counted)
    return solves


@pytest.fixture(scope="module")
def poincare_ops():
    """N = 3 under Poincare stress at nu^-1 = 0.00375, where u_P is a steady state."""
    return spheroid_ops(3, form="poincare_stress", nu=1.0 / 0.00375, eps_p=0.25)


def settled(ops, projector=None):
    """The state that stepping u_P one step at a time settles on: a bitwise fixed point."""
    c_p, _ = project(U_P, ops.basis)
    state = stepped_one_by_one(State(0.37, c_p), ops, 0.01, 150, projector)
    assert state.coeffs.tobytes() == state.prev_coeffs.tobytes()
    return state


class TestFixedPoint:
    """integrate() skips the steps after a BDF2 step that returns its input bit for bit."""

    def test_integrate_equals_repeated_steps_bit_for_bit(self, poincare_ops, monkeypatch):
        state = settled(poincare_ops)
        ref = stepped_one_by_one(state, poincare_ops, 0.01, 1000)
        # t + k*dt would round to other bits than k repeated additions
        assert ref.t != state.t + 1000 * 0.01
        solves = counted_solves(monkeypatch)
        got = integrate(state, poincare_ops, 0.01, 1000)
        assert bits(got) == bits(ref)
        assert len(solves) == 1

    def test_chunks_with_a_restart_between_them_give_the_bits_of_repeated_steps(
            self, poincare_ops):
        # a restart drops prev at the fixed point: integrate takes the startup step and
        # finds the fixed point afresh in every chunk
        state, chunks = settled(poincare_ops), (40, 1, 25, 60)
        got = restarted_between_chunks(
            lambda st, n: integrate(st, poincare_ops, 0.01, n), state, chunks)
        ref = restarted_between_chunks(
            lambda st, n: stepped_one_by_one(st, poincare_ops, 0.01, n), state, chunks)
        assert got.t == ref.t and got.prev_coeffs is not None
        assert bits(got) == bits(ref)

    def test_a_state_whose_next_differs_only_in_the_sign_of_zero_is_not_skipped(self):
        # 4 (-0.0) - (-0.0) is +0.0: the step from -0.0 returns +0.0, equal under
        # np.array_equal but printed otherwise in the CSV
        ops = spheroid_ops()
        zero = np.full(ops.dim, -0.0)
        state = State(0.0, zero, prev_coeffs=zero.copy())
        after_one = step(state, ops, 0.01)
        assert np.array_equal(after_one.coeffs, zero)
        assert after_one.coeffs.tobytes() != zero.tobytes()
        assert bits(integrate(state, ops, 0.01, 5)) == bits(stepped_one_by_one(state, ops,
                                                                               0.01, 5))

    def test_a_step_that_keeps_c_but_not_prev_is_not_skipped(self):
        # one decaying field: find the prev for which a BDF2 step returns c bit for bit;
        # the next step, from (c, c), decays, so (c, prev) was no fixed point
        ops = assemble(get_basis("triaxial", 1), BoundaryCondition("stress_free"), nu=1.0,
                       eps_p=0.0, include_advection=False)
        c = np.zeros(ops.dim)
        c[0] = 1.0

        def after(p):
            return step(State(0.0, c, p * c), ops, 0.01).coeffs

        # the step is affine in prev: aim at the hit and try the 100 doubles around the aim
        slope = (after(1.0)[0] - after(0.99)[0]) / 0.01
        aim = np.float64(1.0 + (1.0 - after(1.0)[0]) / slope)
        near = (aim.view(np.int64) + np.arange(-50, 50)).view(np.float64)
        hits = [p for p in near if after(p).tobytes() == c.tobytes()]
        assert hits
        kept = State(0.0, c, hits[0] * c)
        assert step(State(0.0, c, c), ops, 0.01).coeffs.tobytes() != c.tobytes()
        assert bits(integrate(kept, ops, 0.01, 5)) == bits(stepped_one_by_one(kept, ops,
                                                                              0.01, 5))

    @pytest.mark.parametrize("mode", diagnostics.CONSTRAINT_MODES)
    def test_a_projected_run_at_a_fixed_point_is_skipped(self, poincare_ops, mode,
                                                         monkeypatch):
        projector = diagnostics.shared_context(poincare_ops.basis, U_P).projector(mode)
        state = settled(poincare_ops, projector)
        ref = stepped_one_by_one(state, poincare_ops, 0.01, 200, projector)
        solves = counted_solves(monkeypatch)
        got = integrate(state, poincare_ops, 0.01, 200, project=projector)
        assert bits(got) == bits(ref)
        # the first step's norm filter compares the kept, projected norms
        assert len(solves) == 1

    @pytest.mark.parametrize("scale, max_norm, message", [
        (1.0, 0.5, "state norm exceeded 5.000e-01 at t = 1.88"),
        (math.nan, None, "non-finite coefficients after step to t = 1.88"),
    ])
    def test_the_blow_up_messages_are_unchanged(self, poincare_ops, scale, max_norm, message):
        state = settled(poincare_ops)
        state = State(state.t, scale * state.coeffs, scale * state.prev_coeffs)
        with pytest.raises(BlowUpError) as err:
            integrate(state, poincare_ops, 0.01, 100, max_norm)
        assert str(err.value) == message


def twin_orbit_config(sign=+1):
    """The twin_proj_n5 benchmark's run: u_P + sign 0.025 e_z x x at N = 5 under rot_momentum."""
    return base_config(degree=5, bc_form="poincare_stress", nu_inverse=0.00375, eps_p=0.25,
                       init_type="poincare_plus_rotation", init_omega=sign * 0.025,
                       t_end=8.0, record_every=1.0, constraint_mode="rot_momentum")


@pytest.fixture(scope="module")
def period_three():
    """(ops, projector, state): a pair of the bitwise period-3 orbit that the stepped N = 5
    twin run falls into about 55 steps after its start."""
    cfg = twin_orbit_config()
    domain = cfg.domain()
    basis, coeffs = timestepper._stepped_basis(cfg, domain)
    bc_data = timestepper._bc_data(cfg, domain)
    ops = assemble(basis, BoundaryCondition(cfg.bc_form, bc_data), nu=1.0 / cfg.nu_inverse,
                   eps_p=cfg.eps_p, precession_axis=timestepper.PRECESSION_AXIS)
    projector = diagnostics.shared_context(basis, bc_data).projector(cfg.constraint_mode)
    state = stepped_one_by_one(State(0.37, coeffs), ops, 0.01, 100, projector)
    pair = bits(state)[1:]
    later = [bits(stepped_one_by_one(state, ops, 0.01, n, projector))[1:] for n in (1, 2, 3)]
    assert later[0] != pair and later[1] != pair and later[2] == pair
    return ops, projector, state


class TestCycle:
    """integrate() skips whole periods of a bitwise cycle of the pair (c, prev)."""

    @pytest.mark.parametrize("n_steps", range(1, 13))
    def test_every_chunk_length_gives_the_bits_of_as_many_steps(self, period_three, n_steps,
                                                                 monkeypatch):
        # from inside the orbit the search finds period 3 after 6 steps; 9, 10 and 11
        # steps leave a remainder of 0, 1 and 2 steps
        ops, projector, state = period_three
        ref = stepped_one_by_one(state, ops, 0.01, n_steps, projector)
        solves = counted_solves(monkeypatch)
        got = integrate(state, ops, 0.01, n_steps, project=projector)
        assert bits(got) == bits(ref)
        assert len(solves) == (n_steps if n_steps < 7 else 6 + (n_steps - 6) % 3)

    def test_a_long_chunk_solves_a_few_steps(self, period_three, monkeypatch):
        ops, projector, state = period_three
        ref = stepped_one_by_one(state, ops, 0.01, 800, projector)
        assert ref.t != state.t + 800 * 0.01
        solves = counted_solves(monkeypatch)
        assert bits(integrate(state, ops, 0.01, 800, project=projector)) == bits(ref)
        assert len(solves) <= 8

    def test_chunks_with_a_restart_between_them_give_the_bits_of_repeated_steps(
            self, period_three):
        # a restart drops prev inside the orbit: the pair (c, None) is never saved, and
        # the chunks after it search the cycle afresh
        ops, projector, state = period_three
        chunks = (30, 2, 17, 40)
        got = restarted_between_chunks(
            lambda st, n: integrate(st, ops, 0.01, n, project=projector), state, chunks)
        ref = restarted_between_chunks(
            lambda st, n: stepped_one_by_one(st, ops, 0.01, n, projector), state, chunks)
        assert got.t == ref.t and got.prev_coeffs is not None
        assert bits(got) == bits(ref)

    def test_a_startup_step_that_returns_its_input_is_not_skipped(self):
        # at a viscosity this small a step moves one decaying field by round-off alone:
        # find a state that the startup returns bit for bit but a BDF2 step from (c, c)
        # does not, so the pair (c, None) is not the pair (c, c) after it
        ops = assemble(get_basis("triaxial", 1), BoundaryCondition("stress_free"), nu=1e-17,
                       eps_p=0.0, include_advection=False)

        def startup_only(x):
            c = np.zeros(ops.dim)
            c[0] = x
            return (step(State(0.0, c), ops, 0.01).coeffs.tobytes() == c.tobytes()
                    != step(State(0.0, c, c), ops, 0.01).coeffs.tobytes())

        x = next(x for x in np.linspace(0.5, 2.0, 200) if startup_only(x))
        state = State(0.0, np.eye(ops.dim)[0] * x)
        assert bits(integrate(state, ops, 0.01, 5)) == bits(stepped_one_by_one(state, ops,
                                                                               0.01, 5))


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

    @pytest.mark.parametrize("init_type", ["poincare", "poincare_plus_rotation"])
    def test_unrepresentable_poincare_flow_rejected(self, monkeypatch, init_type):
        def off_by(u_p, basis):
            return project(u_p, basis)[0], 10 * basis_module.REFERENCE_RESIDUAL_TOL

        monkeypatch.setattr(timestepper, "reference_projection", off_by)
        cfg = base_config(init_type=init_type, eps_p=0.25, init_omega=0.025)
        with pytest.raises(ValueError, match="Poincare flow is not representable"):
            initial_coefficients(cfg, get_basis("spheroid", 2))

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

    def test_restart_at_time_zero(self):
        # the kick lands before the first record: lambda starts at 0.1 + 0.05
        series = run(base_config(restart_time=0.0, restart_omega=0.05))
        np.testing.assert_allclose(series.column("lambda"), 0.15, rtol=1e-12)

    def test_spin_up_from_rest_runs_to_t_end(self):
        cfg = base_config(bc_form="poincare_stress", nu_inverse=1.0, eps_p=0.25,
                          init_amplitude=0.0, t_end=1.0, record_every=0.1)
        series = run(cfg)
        assert series.records[-1].t == pytest.approx(1.0)
        assert series.records[0].E_K == 0.0 < series.records[-1].E_K

    @pytest.mark.parametrize("amplitude", [0.0, 1e-9])
    def test_kick_from_rest_runs_to_t_end(self, amplitude):
        # the blow-up guard scales with the kick, not only the initial state and c_P
        cfg = base_config(eps_p=0.25, init_amplitude=amplitude, t_end=1.0, record_every=0.1,
                          restart_time=0.5, restart_omega=0.025)
        series = run(cfg)
        t, lam = series.column("t"), series.column("lambda")
        assert t[-1] == pytest.approx(1.0)
        assert lam[np.isclose(t, 0.5)] == pytest.approx([0.025], abs=1e-8)
        # the energy rate beside the kick is the decay of its own segment, never the jump
        rate, dissipation = series.column("dEK_dt"), series.column("dissipation")
        before = t < 0.5 - 1e-9
        assert np.all(np.abs(rate[before] - dissipation[before]) <= 1e-9)
        assert np.all(rate[~before] < 0.0)

    def test_rest_without_forcing_stays_at_rest(self):
        series = run(base_config(init_amplitude=0.0))
        assert series.records[-1].t == pytest.approx(0.1)
        assert np.all(series.column("E_K") == 0.0)

    def test_blow_up_writes_partial_csv(self, tmp_path, monkeypatch):
        # from rest the state grows towards |c_P| = 1.64 and crosses 0.1 |c_P| near t = 0.25
        monkeypatch.setattr(timestepper, "BLOWUP_FACTOR", 0.1)
        out = tmp_path / "partial.csv"
        cfg = base_config(bc_form="poincare_stress", nu_inverse=1.0, eps_p=0.25,
                          init_type="solid_rotation", init_amplitude=0.0,
                          output_path=str(out), t_end=1.0, record_every=0.01)
        with pytest.raises(BlowUpError) as err:
            run(cfg)
        assert err.value.series is not None
        assert out.exists()
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_blow_up_partial_csv_holds_every_record(self, tmp_path, monkeypatch):
        # the guard trips mid-run: the partial CSV carries exactly the records
        # taken before the trip, the last of them within one interval of it
        monkeypatch.setattr(timestepper, "BLOWUP_FACTOR", 0.1)
        out = tmp_path / "partial.csv"
        cfg = base_config(bc_form="poincare_stress", nu_inverse=1.0, eps_p=0.25,
                          init_amplitude=0.01, output_path=str(out),
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


def twin_config(sign, constraint, path, **overrides):
    """One run of scripts/poincare_family.py's twin pair, shortened, at N=3."""
    cfg = dict(degree=3, bc_form="poincare_stress", nu_inverse=0.00375, eps_p=0.25,
               init_type="poincare_plus_rotation", init_omega=sign * 0.025,
               t_end=0.5, record_every=0.1, constraint_mode=constraint,
               output_path=str(path))
    return base_config(**(cfg | overrides))


@pytest.fixture
def built(monkeypatch):
    """The bases run() builds, from a cold memo; the memo is emptied again afterwards."""
    bases = []

    def counting(*args, **kwargs):
        bases.append(build_basis(*args, **kwargs))
        return bases[-1]

    timestepper._run_basis.cache_clear()
    monkeypatch.setattr(timestepper, "build_basis", counting)
    yield bases
    timestepper._run_basis.cache_clear()


def stepped(built, series):
    """The basis the run of series stepped: the one basis built, of the classes stepped alone."""
    (basis,) = built
    assert tuple(basis.members) == series.classes
    assert basis is timestepper._run_basis(basis.domain, basis.degree, series.classes)
    return basis


@pytest.fixture
def set_up_calls(monkeypatch):
    """Running counts of the set-up work of runs: factorizations, contexts, surface rules, projections."""
    counts = dict.fromkeys(("lu_factor", "context", "surface_rule", "project"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, attr, name in ((scipy.linalg, "lu_factor", "lu_factor"),
                              (diagnostics.DiagnosticsContext, "__init__", "context"),
                              (diagnostics, "surface_rule", "surface_rule"),
                              (basis_module, "project", "project")):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    return counts


def set_up_per_run(counts, configs):
    """The set-up calls each of the runs of configs makes, in order."""
    per_run = []
    for cfg in configs:
        if cfg is None:
            timestepper._run_basis.cache_clear()
            continue
        before = dict(counts)
        run(cfg)
        per_run.append({name: counts[name] - before[name] for name in counts})
    return per_run


# a cold run projects its initial fields, u_P and e_z x x, once, on the restriction it
# steps (see stepped): their classes give the classes it can reach without a projection
COLD_SET_UP = dict(lu_factor=3, context=1, surface_rule=1, project=2)
WARM_SET_UP = dict.fromkeys(COLD_SET_UP, 0)


@pytest.mark.parametrize("init_eps_p, u_p_builds", [(None, 1), (0.1, 2)])
def test_a_run_builds_its_domain_and_u_p_once(tmp_path, monkeypatch, init_eps_p, u_p_builds):
    # the bc data is u_P at eps_p; an initial state at the same eps_p shares it, and the
    # warm -omega twin on the same domain and eps builds none
    calls = dict.fromkeys(("scenario_domain", "poincare_field"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(timestepper, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(timestepper, name, counted)
    timestepper._poincare_data.cache_clear()
    for sign, builds in ((+1, u_p_builds), (-1, 0)):
        before = dict(calls)
        run(twin_config(sign, "rot_momentum", tmp_path / "run.csv", init_eps_p=init_eps_p))
        assert {name: calls[name] - before[name] for name in calls} == {
            "scenario_domain": 1, "poincare_field": builds}


class TestRunBasisMemo:
    def test_consecutive_runs_build_the_basis_once(self, tmp_path, built):
        run(twin_config(+1, None, tmp_path / "plus.csv"))
        run(twin_config(-1, None, tmp_path / "minus.csv"))
        assert len(built) == 1

    def test_warm_runs_match_cold_runs_byte_for_byte(self, tmp_path, built):
        cases = [(sign, constraint) for constraint in (None, "rot_momentum")
                 for sign in (+1, -1)]
        for n, (sign, constraint) in enumerate(cases):
            run(twin_config(sign, constraint, tmp_path / f"warm{n}.csv"))
        assert len(built) == 1
        for n, (sign, constraint) in enumerate(cases):
            timestepper._run_basis.cache_clear()
            run(twin_config(sign, constraint, tmp_path / f"cold{n}.csv"))
            warm, cold = (tmp_path / f"{side}{n}.csv" for side in ("warm", "cold"))
            assert warm.read_bytes() == cold.read_bytes()
        assert len(built) == 1 + len(cases)

    def test_a_new_domain_or_degree_rebuilds(self, built):
        short = dict(t_end=0.02, record_every=0.01)
        sequence = [({}, 1), ({}, 1), ({"degree": 3}, 2), ({"degree": 3}, 2),
                    ({"degree": 3, "beta": Fraction(1, 4)}, 3), ({}, 4)]
        for overrides, builds in sequence:
            cfg = base_config(**(short | overrides))
            run(cfg)
            assert len(built) == builds
            assert (built[-1].domain, built[-1].degree) == (cfg.domain(), cfg.degree)

    def test_no_dense_tensor_or_fraction_fields_on_the_run_path(self, tmp_path, built):
        basis = stepped(built, run(twin_config(+1, "rot_momentum", tmp_path / "run.csv")))
        assert "T" in basis._assembly_cache and "T_dense" not in basis._assembly_cache
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0)
        blocks, pack = ops.T_blocks, ops.T_packed
        assert sum(b.size for b in blocks.values()) < basis.dim ** 3
        assert all(a.size < basis.dim ** 3 for a in pack)
        assert "fields" not in vars(basis) and "fields" not in vars(built[0])

    def test_the_run_builds_only_the_classes_it_steps(self, tmp_path, built):
        # one build, of G's classes: no full basis, and so no restriction of one
        series = run(twin_config(+1, "rot_momentum", tmp_path / "run.csv"))
        assert series.classes == (0, 3, 5, 6)
        basis = stepped(built, series)
        assert basis.dim == 18 < get_basis("spheroid", 3).dim
        assert "restrict" not in basis._assembly_cache

    def test_a_warm_twin_run_sets_up_only_its_forcing_vector(self, tmp_path, built,
                                                            set_up_calls):
        twins = [twin_config(sign, "rot_momentum", tmp_path / f"{sign}.csv") for sign in (+1, -1)]
        assert set_up_per_run(set_up_calls, twins) == [COLD_SET_UP, WARM_SET_UP]

    def test_a_cleared_memo_makes_the_next_run_cold(self, tmp_path, built, set_up_calls):
        cfg = twin_config(+1, "rot_momentum", tmp_path / "run.csv")
        per_run = set_up_per_run(set_up_calls, [cfg, cfg, None, cfg])
        assert per_run == [COLD_SET_UP, WARM_SET_UP, COLD_SET_UP]
        assert len(built) == 2

    @pytest.mark.parametrize("change", [
        dict(dt=0.02), dict(nu=0.5), dict(eps_p=0.1), dict(form="normal_gradient"),
        dict(axis=(0.0, 0.0, 1.0)),
    ], ids=["dt", "nu", "eps_p", "sym_to_grad", "axis"])
    def test_changed_parameters_give_fresh_factors_equal_to_a_cold_build(self, change):
        def factors(basis, dt, nu, eps_p, form, axis):
            ops = assemble(basis, BoundaryCondition(form), nu=nu, eps_p=eps_p,
                           precession_axis=axis, include_advection=False)
            return timestepper._solver(ops, dt)

        base = dict(dt=0.01, nu=1.0, eps_p=0.25, form="stress_free", axis=(1.0, 0.0, 0.0))
        basis = build_basis(DOMAINS["spheroid"], 3)
        first = factors(basis, **base)
        assert factors(basis, **base) is first
        fresh = factors(basis, **(base | change))
        cold = factors(build_basis(DOMAINS["spheroid"], 3), **(base | change))
        assert fresh is not first
        for (lu, piv), (lu_cold, piv_cold) in zip(fresh, cold, strict=True):
            assert lu.tobytes() == lu_cold.tobytes() and piv.tobytes() == piv_cold.tobytes()

    def test_orth_poincare_after_another_eps_p_matches_a_cold_run(self, tmp_path, built):
        # a context or projection kept from eps_p = 0.25 would give another c_orth
        run(twin_config(+1, "orth_poincare", tmp_path / "first.csv"))
        later = twin_config(-1, "orth_poincare", tmp_path / "warm.csv", eps_p=0.1)
        run(later)
        timestepper._run_basis.cache_clear()
        run(twin_config(-1, "orth_poincare", tmp_path / "cold.csv", eps_p=0.1))
        assert len(built) == 2
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()

    def test_a_dt_sweep_keeps_one_entry_of_each_kind(self, tmp_path, built):
        for dt in (0.01, 0.02, 0.025, 0.05, 0.1):
            series = run(twin_config(+1, "rot_momentum", tmp_path / "run.csv", dt=dt))
        cache = stepped(built, series)._assembly_cache
        assert sorted(cache) == sorted(["core", "C_x", "T", "lu", "context", "u_P", "e_z x x"])
        assert cache["lu"][0][0] == 0.1

    def test_the_shared_run_set_up_is_read_only(self, tmp_path, built):
        basis = stepped(built, run(twin_config(+1, "rot_momentum", tmp_path / "run.csv")))
        cache = basis._assembly_cache
        ctx = cache["context"][1]
        arrays = [a for lu_piv in cache["lu"][1] for a in lu_piv]
        arrays += [cache["u_P"][1][0], cache["e_z x x"][0], basis.values, basis.grad]
        arrays += [basis.coeff_array, basis.classes, basis.gram, *basis.rows]
        arrays += [ctx.c_p, ctx.c_rot_dir, ctx.functionals, ctx.offsets,
                   ctx.rule.points, ctx.rule.weights]
        assert not any(a.flags.writeable for a in arrays)
