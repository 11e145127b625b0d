"""Semi-implicit BDF2 time integration of the Galerkin system.

    M du/dt + N(u,u) + V u + 2 eps_p C_x u = F_bc

Viscous and Coriolis terms are implicit.  The linear operator is constant, so
three matrices are LU-factored once per (operator set, dt): the full-step and
half-step backward-Euler matrices of the startup and the BDF2 matrix.
Advection is explicit through the second-order extrapolant
u* = 2 u^n - u^(n-1).  The first step bootstraps with backward Euler.  dt is
fixed within a run for reproducible output.

Per BDF2 step: the parity-packed advection (see operators.advection_term),
about dim^3 / 16 multiply-adds plus three gathers, one mass-matrix product
and one LU back-substitution.  The back-substitution is a direct LAPACK
getrs on the cached factors (_lu_solve).  scipy.linalg.lu_solve calls the
same routine, so the solution is bit-identical, but at dim 26 its wrapper
took 14 us per call against 1.8 us for getrs itself; with it gone a step
takes about 13 us there instead of 24 us (2-vCPU x86-64 host, best of 7
runs of 5000 steps).  No finiteness scan precedes the solve: the right-hand
side comes from a state that the post-step guard has checked, and run()
rejects non-finite inputs before the first step.  The guard is one dot
product.  A constraint projection adds one (3, dim) matrix-vector product
per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrs

from . import diagnostics
from .basis import Basis, build_basis, poincare_field, project, solid_rotation
from .geometry import Domain, surface_rule
from .operators import BC_FORMS, BoundaryCondition, OperatorSet, advection_term, assemble

INIT_TYPES = ("solid_rotation", "poincare", "poincare_plus_rotation", "coefficients")


class BlowUpError(RuntimeError):
    """Raised when the state norm exceeds the configured blow-up threshold."""

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


@dataclass
class State:
    """Time-integration state; prev_coeffs is None before the first step."""

    t: float
    coeffs: np.ndarray
    prev_coeffs: np.ndarray | None = None


def _solver(ops: OperatorSet, dt: float):
    key = ("lu", dt)
    cached = ops._solver_cache.get(key)
    if cached is None:
        linear = ops.V + 2.0 * ops.eps_p * ops.C_x
        lu_be = scipy.linalg.lu_factor(ops.M / dt + linear)
        lu_half = scipy.linalg.lu_factor(2.0 * ops.M / dt + linear)
        lu_bdf = scipy.linalg.lu_factor(1.5 * ops.M / dt + linear)
        cached = (lu_be, lu_half, lu_bdf)
        ops._solver_cache[key] = cached
    return cached


def _lu_solve(lu_piv, rhs):
    """Solve with factors from scipy.linalg.lu_factor; rhs is overwritten."""
    x, info = dgetrs(*lu_piv, rhs, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
    return x


def _euler_solve(ops, lu, coeffs, star, dt_eff, use_advection):
    rhs = ops.M @ coeffs / dt_eff + ops.F_bc
    if use_advection:
        rhs = rhs - advection_term(ops, star)
    return _lu_solve(lu, rhs)


def step(state: State, ops: OperatorSet, dt: float, include_advection: bool = True) -> State:
    """One BDF2 step; the first step is Richardson-extrapolated backward Euler.

    The advecting velocity is the extrapolant 2 u^n - u^(n-1); the constant
    implicit matrix (3/(2 dt)) M + V + 2 eps_p C_x is factored once per
    (operator set, dt) and cannot be singular for nu > 0, dt > 0.  The
    startup combines one full and two half backward-Euler steps
    (2 u_{dt/2,dt/2} - u_dt), which keeps the whole trajectory second-order
    accurate; a plain backward-Euler start would leave a first-order startup
    artifact in difference-based diagnostics such as the momentum-balance
    residual.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    lu_be, lu_half, lu_bdf = _solver(ops, dt)
    c = state.coeffs
    use_advection = include_advection and ops.T is not None
    if state.prev_coeffs is None:
        half = _euler_solve(ops, lu_half, c, c, dt / 2.0, use_advection)
        half2 = _euler_solve(ops, lu_half, half, half, dt / 2.0, use_advection)
        full = _euler_solve(ops, lu_be, c, c, dt, use_advection)
        new = 2.0 * half2 - full
    else:
        rhs = ops.M @ (4.0 * c - state.prev_coeffs) / (2.0 * dt) + ops.F_bc
        if use_advection:
            star = 2.0 * c - state.prev_coeffs
            rhs = rhs - advection_term(ops, star)
        new = _lu_solve(lu_bdf, rhs)
    # a finite sum of squares proves every entry finite; an overflowing one
    # may still come from finite entries, so it falls back to the full test
    if not math.isfinite(new @ new) and not np.all(np.isfinite(new)):
        raise BlowUpError(f"non-finite coefficients after step to t = {state.t + dt:.6g}")
    return State(t=state.t + dt, coeffs=new, prev_coeffs=c)


def integrate(state: State, ops: OperatorSet, dt: float, n_steps: int,
              include_advection: bool = True, max_norm: float | None = None,
              callback=None) -> State:
    """Advance n_steps; optional norm guard and per-step callback."""
    for _ in range(n_steps):
        state = step(state, ops, dt, include_advection)
        if max_norm is not None and math.sqrt(state.coeffs @ state.coeffs) > max_norm:
            raise BlowUpError(
                f"state norm exceeded {max_norm:.3e} at t = {state.t:.6g}")
        if callback is not None:
            cb_state = callback(state)
            if cb_state is not None:
                state = cb_state
    return state


@dataclass
class ScenarioConfig:
    """Complete description of one run (mirrors the CLI config file)."""

    degree: int
    bc_form: str
    nu_inverse: float
    eps_p: float
    init_type: str
    dt: float
    t_end: float
    record_every: float
    beta: Fraction | None = None
    a: object = None
    b: object = None
    c: object = None
    init_amplitude: float = 0.0
    init_omega: float = 0.0
    init_eps_p: float | None = None
    init_path: str | None = None
    restart_time: float | None = None
    restart_omega: float = 0.0
    constraint_mode: str | None = None
    output_path: str | None = None
    include_advection: bool = True
    blowup_factor: float = 1e6
    basis_method: str = "exact"

    def validate(self) -> None:
        if self.degree < 1:
            raise ValueError("basis degree must be at least 1")
        if self.bc_form not in BC_FORMS:
            raise ValueError(f"unknown bc form {self.bc_form!r}")
        if not self.nu_inverse > 0:
            raise ValueError("nu_inverse must be positive")
        if not self.dt > 0 or not self.t_end > 0:
            raise ValueError("dt and t_end must be positive")
        if not self.record_every > 0:
            raise ValueError("record_every must be positive")
        for name in ("nu_inverse", "eps_p", "dt", "t_end", "record_every", "init_amplitude",
                     "init_omega", "init_eps_p", "restart_time", "restart_omega",
                     "blowup_factor"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.blowup_factor > 0:
            raise ValueError("blowup_factor must be positive")
        if self.init_type not in INIT_TYPES:
            raise ValueError(f"unknown init type {self.init_type!r}")
        if self.init_type == "coefficients" and not self.init_path:
            raise ValueError("init type 'coefficients' requires init.path")
        if self.restart_time is not None and not 0 <= self.restart_time <= self.t_end:
            raise ValueError("restart time must lie within [0, t_end]")
        if self.constraint_mode is not None and self.constraint_mode not in diagnostics.CONSTRAINT_MODES:
            raise ValueError(f"unknown constraint mode {self.constraint_mode!r}")
        has_axes = any(v is not None for v in (self.a, self.b, self.c))
        if (self.beta is None) == (not has_axes):
            raise ValueError("specify either domain.beta or explicit axes, not both")
        if has_axes and not all(v is not None for v in (self.a, self.b, self.c)):
            raise ValueError("all three axes a, b, c are required")

    def domain(self) -> Domain:
        if self.beta is not None:
            return Domain.from_beta(self.beta)
        return Domain(self.a, self.b, self.c)


def _poincare_data(domain: Domain, eps_value) -> object:
    if abs(domain.a - 1.0) > 1e-12 or abs(domain.b - 1.0) > 1e-12:
        raise ValueError("the Poincare flow needs unit equatorial axes (a = b = 1)")
    beta = domain.beta
    if beta == 0:
        raise ValueError("the Poincare flow is singular on the sphere (beta = 0)")
    return poincare_field(beta, Fraction(eps_value))


def initial_coefficients(cfg: ScenarioConfig, basis: Basis) -> np.ndarray:
    eps = cfg.init_eps_p if cfg.init_eps_p is not None else cfg.eps_p
    if cfg.init_type == "solid_rotation":
        coeffs, _ = project(solid_rotation((0, 0, 1)), basis)
        return cfg.init_amplitude * coeffs
    if cfg.init_type == "poincare":
        coeffs, res = project(_poincare_data(basis.domain, eps), basis)
        if res > 1e-10:
            raise ValueError("Poincare flow is not representable in this basis")
        return coeffs
    if cfg.init_type == "poincare_plus_rotation":
        c_p, _ = project(_poincare_data(basis.domain, eps), basis)
        c_r, _ = project(solid_rotation((0, 0, 1)), basis)
        return c_p + cfg.init_omega * c_r
    data = np.loadtxt(cfg.init_path).ravel()
    if data.shape != (basis.dim,):
        raise ValueError(
            f"coefficient file has {data.size} entries, basis dimension is {basis.dim}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"coefficient file {cfg.init_path} holds non-finite values")
    return data


def run(cfg: ScenarioConfig) -> diagnostics.TimeSeries:
    """Execute a scenario: build, integrate, record, and write the CSV output.

    On blow-up the partial series is written to the configured output path
    before BlowUpError is raised (with the series attached).
    """
    cfg.validate()
    domain = cfg.domain()
    basis = build_basis(domain, cfg.degree, cfg.basis_method)

    bc_data = None
    if cfg.bc_form in ("poincare_stress", "poincare_normal_gradient"):
        bc_data = _poincare_data(domain, cfg.eps_p)
    bc = BoundaryCondition(cfg.bc_form, bc_data)
    ops = assemble(basis, bc, nu=1.0 / cfg.nu_inverse, eps_p=cfg.eps_p,
                   include_advection=cfg.include_advection)

    rule = surface_rule(domain, *diagnostics.SURFACE_ORDERS)
    ctx = diagnostics.DiagnosticsContext(ops, bc_data, rule)

    state = State(t=0.0, coeffs=initial_coefficients(cfg, basis))
    init_norm = float(np.linalg.norm(state.coeffs))
    max_norm = cfg.blowup_factor * max(init_norm, 1e-30)

    n_steps = int(round(cfg.t_end / cfg.dt))
    every = max(1, int(round(cfg.record_every / cfg.dt)))
    restart_step = (int(round(cfg.restart_time / cfg.dt))
                    if cfg.restart_time is not None else None)

    series = diagnostics.TimeSeries(records=[], dt=cfg.dt,
                                    record_interval=every * cfg.dt)

    k = 0

    def per_step(st):
        nonlocal k
        k += 1
        if cfg.constraint_mode is not None:
            st = diagnostics.constraint_projection(st, ops, cfg.constraint_mode, ctx)
        if k == restart_step:
            st = _apply_restart(st, cfg, basis)
        if k % every == 0 or k == n_steps:
            series.records.append(diagnostics.record(st, ops, ctx))
        return st

    if restart_step == 0:
        state = _apply_restart(state, cfg, basis)
    series.records.append(diagnostics.record(state, ops, ctx))
    try:
        integrate(state, ops, cfg.dt, n_steps, cfg.include_advection, max_norm, per_step)
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


def _apply_restart(state: State, cfg: ScenarioConfig, basis: Basis) -> State:
    """Add the configured rigid-rotation perturbation and restart the multistep."""
    c_r, _ = project(solid_rotation((0, 0, 1)), basis)
    return State(t=state.t, coeffs=state.coeffs + cfg.restart_omega * c_r,
                 prev_coeffs=None)
