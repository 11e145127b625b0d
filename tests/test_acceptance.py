"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with -s; pytest -v also
reports one line per criterion through the test names).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from precessflow.basis import build_basis, poincare_field, project, solid_rotation
from precessflow.diagnostics import momentum_balance_residual
from precessflow.operators import (BoundaryCondition, advection_term, assemble,
                                   momentum_coupling_identity, residual)
from precessflow.spectral import coercivity_constant, viscous_kernel
from precessflow.timestepper import ScenarioConfig, State, integrate, run, step

from conftest import DOMAINS, get_basis

BETA = Fraction(9, 16)
EPS_P = 0.25
U_P = poincare_field(BETA, Fraction(1, 4))


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _spheroid_ops(degree, form="stress_free", nu=1.0, eps_p=0.0, **kw):
    data = U_P if form.startswith("poincare") else None
    return assemble(get_basis("spheroid", degree), BoundaryCondition(form, data),
                    nu=nu, eps_p=eps_p, **kw)


def test_criterion_01_kernel_trichotomy():
    expected = {"sphere": 3, "spheroid": 1, "triaxial": 0}
    results = {}
    for kind in ("sphere", "spheroid", "triaxial"):
        for degree in (1, 2):
            ops = assemble(get_basis(kind, degree), BoundaryCondition("stress_free"),
                           nu=1.0, eps_p=0.0, include_advection=False)
            results[(kind, degree, "sym")] = viscous_kernel(ops, stiffness="sym").kernel_dim
            results[(kind, degree, "grad")] = viscous_kernel(ops, stiffness="grad").kernel_dim
    # N = 4 timed from scratch, including the exact basis construction
    t0 = time.monotonic()
    for kind in ("sphere", "spheroid", "triaxial"):
        basis = build_basis(DOMAINS[kind], 4)
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                       include_advection=False)
        results[(kind, 4, "sym")] = viscous_kernel(ops, stiffness="sym").kernel_dim
        results[(kind, 4, "grad")] = viscous_kernel(ops, stiffness="grad").kernel_dim
    elapsed = time.monotonic() - t0
    mismatches = [k for k, v in results.items()
                  if v != (expected[k[0]] if k[2] == "sym" else 0)]
    _report(1, not mismatches and elapsed < 60.0,
            f"kernel dims 3/1/0 (strain) and 0 (gradient) at N in (1,2,4); "
            f"N=4 batch took {elapsed:.1f}s (< 60s); mismatches: {mismatches}")


def test_criterion_02_poincare_steadiness():
    worst = 0.0
    for degree in (1, 2, 4):
        c_p, _ = project(U_P, get_basis("spheroid", degree))
        for nu_inverse in (0.024, 0.00375):
            ops = _spheroid_ops(degree, "poincare_stress", nu=1.0 / nu_inverse,
                                eps_p=EPS_P)
            worst = max(worst, float(np.max(np.abs(residual(c_p, ops)))))
    _report(2, worst < 1e-10,
            f"max |residual(u_P)|_inf over N in (1,2,4), 1/nu in (0.024, 0.00375): "
            f"{worst:.3e} (< 1e-10)")


def test_criterion_03_rotation_shift_non_attractivity():
    worst = 0.0
    for degree in (1, 2, 4):
        basis = get_basis("spheroid", degree)
        c_p, _ = project(U_P, basis)
        c_r, _ = project(solid_rotation((0, 0, 1)), basis)
        ops = _spheroid_ops(degree, "poincare_stress", nu=1.0 / 0.024, eps_p=EPS_P)
        for omega in (0.025, -0.025, 0.1, -0.1, 1.0):
            worst = max(worst, float(np.max(np.abs(residual(c_p + omega * c_r, ops)))))
    basis = get_basis("spheroid", 2)
    c_p, _ = project(U_P, basis)
    c_r, _ = project(solid_rotation((0, 0, 1)), basis)
    ops = _spheroid_ops(2, "poincare_stress", nu=1.0 / 0.024, eps_p=EPS_P)
    start = c_p + 0.025 * c_r
    state = integrate(State(0.0, start.copy()), ops, 0.01, 100)
    drift = float(np.linalg.norm(state.coeffs - start) / np.linalg.norm(start))
    _report(3, worst < 1e-10 and drift < 1e-9,
            f"family residuals max {worst:.3e} (< 1e-10); "
            f"100-step relative drift {drift:.3e} (< 1e-9)")


def test_criterion_04_perpetual_rotation():
    ops = _spheroid_ops(2, "stress_free", nu=0.01, eps_p=0.0)
    c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
    gamma = float(c_r @ (ops.M @ c_r))
    state = State(0.0, 0.1 * c_r)
    e0 = 0.5 * float(state.coeffs @ (ops.M @ state.coeffs))
    lam0 = float((ops.mom @ state.coeffs)[2]) / gamma
    e_drift = lam_drift = 0.0
    for _ in range(10_000):
        state = step(state, ops, 0.01)
        e_k = 0.5 * float(state.coeffs @ (ops.M @ state.coeffs))
        lam = float((ops.mom @ state.coeffs)[2]) / gamma
        e_drift = max(e_drift, abs(e_k - e0) / e0)
        lam_drift = max(lam_drift, abs(lam - lam0))
    _report(4, e_drift < 1e-12 and lam_drift < 1e-12,
            f"over 1e4 steps: max relative E_K drift {e_drift:.2e} (< 1e-12), "
            f"max lambda drift {lam_drift:.2e} (< 1e-12)")


def test_criterion_05_free_decay_rate():
    nu = 1.0
    ops = _spheroid_ops(4, "stress_free", nu=nu, eps_p=0.0, include_advection=False)
    k_n = coercivity_constant(ops, "kernel").K_N
    eigvals, eigvecs = np.linalg.eigh(ops.A_sym)
    first = int(np.argmax(eigvals > 1e-8 * eigvals[-1]))
    state = State(0.0, eigvecs[:, first].copy())
    n_steps, dt = 400, 5e-4
    e0 = 0.5 * float(state.coeffs @ state.coeffs)
    state = integrate(state, ops, dt, n_steps)
    e1 = 0.5 * float(state.coeffs @ state.coeffs)
    rate = math.log(e0 / e1) / (n_steps * dt)
    target = 4.0 * nu * k_n
    _report(5, abs(rate - target) < 0.05 * target,
            f"measured energy e-folding rate {rate:.6f} vs 4 nu K_N {target:.6f} "
            f"(relative error {abs(rate - target) / target:.2e} < 5%)")


def test_criterion_06_decay_to_rest_under_precession():
    cfg = ScenarioConfig(degree=2, bc_form="stress_free", nu_inverse=0.024,
                         eps_p=EPS_P, init_type="solid_rotation", init_amplitude=0.1,
                         dt=0.05, t_end=4000.0, record_every=20.0, beta=BETA)
    series = run(cfg)
    d_ek = series.column("dEK_dt")
    e_k = series.column("E_K")
    max_rate = float(np.nanmax(d_ek))
    ratio = float(e_k[-1] / e_k[0])
    lam_end = abs(series.records[-1].lam)
    _report(6, max_rate <= 1e-12 and ratio < 1e-6,
            f"dEK_dt always <= {max_rate:.2e} (+1e-12 allowed); "
            f"E_K(end)/E_K(0) = {ratio:.2e} (< 1e-6); |lambda(end)| = {lam_end:.2e}")


def test_criterion_07_momentum_balance_convergence():
    def max_residual(dt):
        cfg = ScenarioConfig(degree=2, bc_form="poincare_stress", nu_inverse=10.0,
                             eps_p=EPS_P, init_type="solid_rotation",
                             init_amplitude=0.1, dt=dt, t_end=2.0, record_every=dt,
                             beta=BETA)
        series = run(cfg)
        return float(np.max(np.abs(momentum_balance_residual(series, EPS_P))))

    r_coarse = max_residual(0.005)
    r_fine = max_residual(0.0025)
    factor = r_coarse / r_fine
    _report(7, 3.5 <= factor <= 4.5 and r_fine < 1e-6,
            f"halving dt reduces max |dM_z/dt + eps M_y| by {factor:.2f} "
            f"(in [3.5, 4.5]); residual at dt=0.0025 is {r_fine:.3e} (< 1e-6)")


def test_criterion_08_momentum_coupling_identity_exhaustive():
    worst = 0.0
    for kind in ("sphere", "spheroid", "triaxial"):
        domain = DOMAINS[kind]
        for f in get_basis(kind, 4).fields:
            lhs, rhs = momentum_coupling_identity(f, domain)
            worst = max(worst, abs(lhs - rhs))
    _report(8, worst < 1e-12,
            f"max |lhs - rhs| over all N=4 basis fields on three domains: "
            f"{worst:.3e} (< 1e-12)")


def test_criterion_09_energy_neutrality():
    ops = _spheroid_ops(4, "stress_free", nu=1.0, eps_p=EPS_P)
    rng = np.random.default_rng(20240229)
    worst_adv = worst_cor = 0.0
    for _ in range(100):
        c = rng.standard_normal(ops.dim)
        c /= np.linalg.norm(c)
        worst_adv = max(worst_adv, abs(float(c @ advection_term(ops, c))))
        worst_cor = max(worst_cor, abs(float(c @ (ops.C_x @ c))))
    _report(9, worst_adv < 1e-11 and worst_cor < 1e-13,
            f"100 random unit states: max |c.T(c,c)| {worst_adv:.2e} (< 1e-11), "
            f"max |c.C_x c| {worst_cor:.2e} (< 1e-13)")


def test_criterion_10_persistent_family_twin_runs():
    ops = _spheroid_ops(2, "poincare_stress", nu=1.0 / 0.00375, eps_p=EPS_P)
    basis = ops.basis
    c_p, _ = project(U_P, basis)
    c_r, _ = project(solid_rotation((0, 0, 1)), basis)
    plus = State(0.0, c_p + 0.025 * c_r)
    minus = State(0.0, c_p - 0.025 * c_r)
    d0 = float(np.linalg.norm(plus.coeffs - minus.coeffs))
    min_ratio = 1.0
    for _ in range(1000):
        plus = step(plus, ops, 0.01)
        minus = step(minus, ops, 0.01)
        ratio = float(np.linalg.norm(plus.coeffs - minus.coeffs)) / d0
        min_ratio = min(min_ratio, ratio)
    _report(10, min_ratio >= 0.9,
            f"twin runs from u_P +/- 0.025 rotation stay separated: "
            f"min distance ratio {min_ratio:.6f} (>= 0.9) over t in [0, 10]")


def test_criterion_11_constraint_projection_restores_attraction():
    cfg = ScenarioConfig(degree=2, bc_form="poincare_stress", nu_inverse=0.024,
                         eps_p=EPS_P, init_type="poincare_plus_rotation",
                         init_omega=0.025, dt=0.01, t_end=1.0, record_every=0.1,
                         beta=BETA, constraint_mode="rot_momentum")
    series = run(cfg)
    initial = series.records[0].delta_EK
    final = series.records[-1].delta_EK
    _report(11, final < 1e-6 * initial,
            f"per-step rot_momentum projection: delta_EK falls from "
            f"{initial:.3e} to {final:.3e} (ratio {final / initial:.2e} < 1e-6)")
