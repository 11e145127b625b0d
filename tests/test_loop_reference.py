"""run(), step() and integrate() against the per-step loop they replaced, byte for byte.

The reference below is the earlier stepping code, kept as it was: step()
builds a State per step and integrate() calls it, run() passes a per-step
closure that projects, kicks and records, and the projection picks its
functional and tests it for degeneracy on every call.  The loop in
timestepper steps in chunks between records instead, and skips the steps
after a bitwise cycle of the pair (c, prev); every CSV byte and every
BlowUpError message must stay the same.  The reference steps the
basis that run steps, built on the classes the run can reach
(timestepper._stepped_basis), from the same initial coefficients.
"""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from precessflow import cli, diagnostics, timestepper
from precessflow.basis import build_basis, rotation_projection
from precessflow.operators import BoundaryCondition, advection_term, assemble
from precessflow.timestepper import BlowUpError, ScenarioConfig, State, integrate, run, step

from conftest import get_basis, get_ops


def _lu_solve(lu_piv, rhs):
    # bit-identical to timestepper._lu_solve (test_timestepper.TestLuSolve)
    return scipy.linalg.lu_solve(lu_piv, rhs, check_finite=False)


def _euler_solve(ops, lu, coeffs, star, dt_eff):
    rhs = ops.M @ coeffs / dt_eff + ops.F_bc
    if ops.T_packed is not None:
        rhs = rhs - advection_term(ops, star)
    return _lu_solve(lu, rhs)


def reference_step(state, ops, dt):
    if not dt > 0:
        raise ValueError("dt must be positive")
    lu_be, lu_half, lu_bdf = timestepper._solver(ops, dt)
    c = state.coeffs
    if state.prev_coeffs is None:
        half = _euler_solve(ops, lu_half, c, c, dt / 2.0)
        half2 = _euler_solve(ops, lu_half, half, half, dt / 2.0)
        full = _euler_solve(ops, lu_be, c, c, dt)
        new = 2.0 * half2 - full
    else:
        prev = state.prev_coeffs
        new = _euler_solve(ops, lu_bdf, 4.0 * c - prev, 2.0 * c - prev, 2.0 * dt)
    if not math.isfinite(new @ new) and not np.all(np.isfinite(new)):
        raise BlowUpError(f"non-finite coefficients after step to t = {state.t + dt:.6g}")
    return State(t=state.t + dt, coeffs=new, prev_coeffs=c)


def reference_integrate(state, ops, dt, n_steps, max_norm=None, callback=None):
    for _ in range(n_steps):
        state = reference_step(state, ops, dt)
        if max_norm is not None and math.sqrt(state.coeffs @ state.coeffs) > max_norm:
            raise BlowUpError(
                f"state norm exceeded {max_norm:.3e} at t = {state.t:.6g}")
        if callback is not None:
            cb_state = callback(state)
            if cb_state is not None:
                state = cb_state
    return state


def reference_projection(state, mode, ctx):
    if mode not in diagnostics.CONSTRAINT_MODES:
        raise ValueError(f"unknown constraint mode {mode!r}")
    c = np.asarray(state.coeffs, dtype=float)
    c_rot, c_orth, c_tot = ctx.surface_functionals(c)
    if mode == "rot_momentum":
        value, den = c_rot, ctx.den_rot
    elif mode == "orth_poincare":
        value, den = c_orth, ctx.den_orth
    else:
        value, den = c_tot, ctx.den_rot
    if abs(den) <= 1e-12 * ctx.degeneracy_scale:
        raise ValueError(f"constraint functional is degenerate on the rotation direction "
                         f"(denominator {den:.3e})")
    alpha = value / den
    return dataclasses.replace(state, coeffs=c - alpha * ctx.c_rot_dir)


def reference_run(cfg):
    cfg.validate()
    domain = cfg.domain()
    bc_data = timestepper._bc_data(cfg, domain)
    # the basis of the classes the run can reach, as run steps it
    basis, coeffs = timestepper._stepped_basis(cfg, domain)
    ops = assemble(basis, BoundaryCondition(cfg.bc_form, bc_data), nu=1.0 / cfg.nu_inverse,
                   eps_p=cfg.eps_p, precession_axis=timestepper.PRECESSION_AXIS)
    ctx = diagnostics.shared_context(basis, bc_data)
    state = State(t=0.0, coeffs=coeffs)
    kick = (abs(timestepper._or_zero(cfg.restart_omega))
            * float(np.linalg.norm(rotation_projection(basis)[0])))
    max_norm = timestepper.BLOWUP_FACTOR * max(float(np.linalg.norm(state.coeffs)),
                                               float(np.linalg.norm(ctx.c_p)), kick)
    n_steps = int(round(cfg.t_end / cfg.dt))
    every = int(round(cfg.record_every / cfg.dt))
    restart_step = (int(round(cfg.restart_time / cfg.dt))
                    if cfg.restart_time is not None else None)
    series = diagnostics.TimeSeries(records=[], dt=cfg.dt, restart_time=cfg.restart_time)
    k = 0

    def per_step(st):
        nonlocal k
        k += 1
        if cfg.constraint_mode is not None:
            st = reference_projection(st, cfg.constraint_mode, ctx)
        if k == restart_step:
            st = timestepper._apply_restart(st, cfg, basis)
        if k % every == 0 or k == n_steps:
            series.records.append(diagnostics.record(st, ops, ctx))
        return st

    if restart_step == 0:
        state = timestepper._apply_restart(state, cfg, basis)
    series.records.append(diagnostics.record(state, ops, ctx))
    try:
        reference_integrate(state, ops, cfg.dt, n_steps, max_norm, per_step)
    except BlowUpError as exc:
        series.finalize()
        if cfg.output_path:
            series.to_csv(cfg.output_path)
        exc.series = series
        raise
    series.finalize()
    if cfg.output_path:
        series.to_csv(cfg.output_path)
    return series


def config(**overrides):
    """A short N = 3 spheroid run: the steady Poincare flow, kicked between records."""
    cfg = dict(degree=3, bc_form="poincare_stress", nu_inverse=0.00375, eps_p=0.25,
               init_type="poincare_plus_rotation", init_omega=0.025, dt=0.01, t_end=0.2,
               record_every=0.04, restart_time=0.1, restart_omega=0.025,
               beta=Fraction(9, 16))
    return ScenarioConfig(**(cfg | overrides))


def outputs(runner, cfg, path):
    """(CSV bytes, BlowUpError message or None) of one run writing to path."""
    message = None
    try:
        runner(dataclasses.replace(cfg, output_path=str(path)))
    except BlowUpError as exc:
        message = str(exc)
    return path.read_bytes(), message


def assert_same_as_reference(cfg, tmp_path):
    got = outputs(run, cfg, tmp_path / "run.csv")
    ref = outputs(reference_run, cfg, tmp_path / "reference.csv")
    assert got == ref
    return got


SCHEDULES = {
    "kick_at_step_0": dict(restart_time=0.0),
    "kick_at_a_record": dict(restart_time=0.08),
    "kick_between_records": dict(restart_time=0.1),
    "kick_a_step_after_a_record": dict(restart_time=0.09),
    "kick_a_step_before_a_record": dict(restart_time=0.11),
    "kick_at_the_last_step": dict(restart_time=0.2),
    "t_end_off_the_record_grid": dict(record_every=0.03),
    "record_every_beyond_t_end": dict(record_every=0.3, restart_time=None, restart_omega=None),
    "one_record_per_step": dict(record_every=0.01),
}


class TestRunMatchesReference:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_schedules(self, schedule, tmp_path):
        text, message = assert_same_as_reference(config(**SCHEDULES[schedule]), tmp_path)
        assert message is None
        assert text.count(b"\n") > 2

    @pytest.mark.parametrize("mode", diagnostics.CONSTRAINT_MODES)
    def test_constraint_modes(self, mode, tmp_path):
        assert_same_as_reference(config(constraint_mode=mode), tmp_path)

    @pytest.mark.parametrize("mode", diagnostics.CONSTRAINT_MODES)
    def test_constraint_mode_with_a_kick_at_a_record(self, mode, tmp_path):
        assert_same_as_reference(config(constraint_mode=mode, restart_time=0.08), tmp_path)

    @pytest.mark.parametrize("record_every", [0.01, 0.3])
    def test_blow_up_mid_chunk_writes_the_same_partial_csv(self, record_every, tmp_path,
                                                           monkeypatch):
        # from near rest the state grows towards |c_P| and crosses 0.1 |c_P| near t = 0.25,
        # within the first chunk when records are 0.3 apart
        monkeypatch.setattr(timestepper, "BLOWUP_FACTOR", 0.1)
        cfg = config(degree=2, nu_inverse=1.0, init_type="solid_rotation", init_omega=None,
                     init_amplitude=0.01, t_end=1.0, record_every=record_every,
                     restart_time=None, restart_omega=None)
        text, message = assert_same_as_reference(cfg, tmp_path)
        assert message.startswith("state norm exceeded")
        assert text.count(b"\n") >= 2

    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    def test_exact_and_svd_bases(self, method, degree, tmp_path, monkeypatch):
        monkeypatch.setattr(timestepper, "build_basis",
                            lambda domain, n, classes=None: build_basis(domain, n, method,
                                                                        classes))
        timestepper._run_basis.cache_clear()
        try:
            assert_same_as_reference(config(degree=degree, constraint_mode="rot_momentum",
                                            record_every=0.03), tmp_path)
            assert_same_as_reference(config(degree=degree, bc_form="stress_free",
                                            init_type="solid_rotation", init_omega=None,
                                            init_amplitude=0.1), tmp_path)
        finally:
            timestepper._run_basis.cache_clear()


FIG2 = Path(__file__).resolve().parent.parent / "configs" / "fig2_poincare.cfg"


def fig2_config(**overrides):
    """configs/fig2_poincare.cfg as the CLI reads it: u_P, a steady state, kicked at t = 1100
    by a rotation that persists; from a few dozen steps after its start and after the kick,
    every BDF2 step returns its input bit for bit."""
    cfg = cli.scenario_from_config(cli.parse_config(FIG2))
    return dataclasses.replace(cfg, **overrides)


class TestFixedPointsMatchReference:
    """run() skips the steps after a bitwise fixed point; the reference steps every one."""

    @pytest.mark.parametrize("record_every", [2.0, 4.0], ids=["kick_at_a_record",
                                                           "kick_between_records"])
    def test_a_shortened_fig2_run_solves_a_few_percent_of_its_steps(self, record_every,
                                                                     tmp_path, monkeypatch):
        cfg = fig2_config(t_end=80.0, restart_time=70.0, record_every=record_every)
        assert cfg.degree == 3 and cfg.init_type == "poincare"
        solves = []

        def counted(lu_piv, rhs, _solve=timestepper._lu_solve):
            solves.append(rhs.shape)
            return _solve(lu_piv, rhs)

        monkeypatch.setattr(timestepper, "_lu_solve", counted)
        text, message = assert_same_as_reference(cfg, tmp_path)
        assert message is None and text.count(b"\n") == 2 + round(80.0 / record_every)
        assert len(solves) < 0.05 * round(80.0 / cfg.dt)

    def test_the_bundled_fig2_run(self, tmp_path):
        assert_same_as_reference(fig2_config(), tmp_path)



def twin_config(sign):
    """The twin_proj_n5 benchmark's run at omega = sign 0.025: from about 55 steps after its
    start the kept pair (c, prev) repeats every 3 steps bit for bit."""
    return config(degree=5, init_omega=sign * 0.025, t_end=8.0, record_every=1.0,
                  restart_time=None, restart_omega=None, constraint_mode="rot_momentum")


class TestCyclesMatchReference:
    """run() skips whole periods of a bitwise cycle; the reference steps every step."""

    def test_the_projected_twin_pair_solves_under_a_fifth_of_its_steps(self, tmp_path,
                                                                       monkeypatch):
        solves = []

        def counted(lu_piv, rhs, _solve=timestepper._lu_solve):
            solves.append(rhs.shape)
            return _solve(lu_piv, rhs)

        monkeypatch.setattr(timestepper, "_lu_solve", counted)
        for sign in (+1, -1):
            cfg = twin_config(sign)
            del solves[:]
            text, message = outputs(run, cfg, tmp_path / "run.csv")
            assert len(solves) < 0.2 * round(cfg.t_end / cfg.dt)
            assert (text, message) == outputs(reference_run, cfg, tmp_path / "reference.csv")
            assert message is None and text.count(b"\n") == 2 + 8

def assert_same_state(got, ref):
    assert got.t == ref.t
    assert np.array_equal(got.coeffs, ref.coeffs)
    assert (got.prev_coeffs is None) == (ref.prev_coeffs is None)
    if ref.prev_coeffs is not None:
        assert np.array_equal(got.prev_coeffs, ref.prev_coeffs)


def raised(fn, *args, **kwargs):
    """(result, None), or (None, message) of the BlowUpError fn raises."""
    try:
        return fn(*args, **kwargs), None
    except BlowUpError as exc:
        return None, str(exc)


class TestIntegrateMatchesReference:
    @pytest.mark.parametrize("kind", ["spheroid", "triaxial"])
    @pytest.mark.parametrize("n_steps", [0, 1, 2, 7])
    @pytest.mark.parametrize("warm", [False, True])
    def test_steps(self, kind, n_steps, warm):
        ops = get_ops(kind, 3, nu=1.0 / 0.024, eps_p=0.25)
        rng = np.random.default_rng(n_steps)
        c0, c1 = 0.1 * rng.standard_normal((2, ops.dim))
        state = State(0.01, c1, prev_coeffs=c0) if warm else State(0.0, c0)
        assert_same_state(integrate(state, ops, 0.01, n_steps),
                          reference_integrate(state, ops, 0.01, n_steps))
        if n_steps == 1:
            assert_same_state(step(state, ops, 0.01), reference_step(state, ops, 0.01))

    def test_a_callback_that_restarts_the_multistep(self):
        # integrate in chunks with a kicked state, prev_coeffs None, between them, against
        # the reference's per-step callback that kicks every third step
        ops = get_ops("spheroid", 3, nu=1.0, eps_p=0.25)
        state = State(0.0, 0.1 * np.random.default_rng(3).standard_normal(ops.dim))

        def kicked(st):
            return State(st.t, 1.01 * st.coeffs, prev_coeffs=None)

        def kick_every_third(st):
            return kicked(st) if round(st.t / 0.01) % 3 == 0 else None

        got, kicks = state, 0
        for chunk in (3, 3, 3, 1):
            got = integrate(got, ops, 0.01, chunk, 1e3)
            if round(got.t / 0.01) % 3 == 0:
                got, kicks = kicked(got), kicks + 1
        assert kicks == 3 and got.prev_coeffs is not None
        assert_same_state(got, reference_integrate(state, ops, 0.01, 10, 1e3, kick_every_third))

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("scale, max_norm", [
        (1.0, 0.05),          # the norm guard trips
        (math.nan, None),     # the finiteness guard trips
        (1e200, 1e300),       # finite entries whose squared norm overflows: the norm guard
        (1e200, None),        # ... and without a guard, no error
    ])
    def test_guards(self, scale, max_norm):
        ops = assemble(get_basis("spheroid", 2), BoundaryCondition("stress_free"), nu=1.0,
                       eps_p=0.25, include_advection=False)
        state = State(0.0, scale * np.ones(ops.dim) / ops.dim)
        got, got_message = raised(integrate, state, ops, 0.01, 5, max_norm)
        ref, ref_message = raised(reference_integrate, state, ops, 0.01, 5, max_norm)
        assert got_message == ref_message
        assert (got_message is None) == (scale == 1e200 and max_norm is None)
        if ref is not None:
            assert_same_state(got, ref)
