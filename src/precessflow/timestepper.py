"""Semi-implicit BDF2 time integration of the Galerkin system.

    M du/dt + N(u,u) + V u + 2 eps_p C_x u = F_bc

Viscous and Coriolis terms are implicit.  The linear operator is constant, so
three matrices are LU-factored once per basis and (dt, nu, eps_p, stiffness
form, precession axis): the full-step and half-step backward-Euler matrices of
the startup and the BDF2 matrix.
Advection is explicit through the second-order extrapolant
u* = 2 u^n - u^(n-1).  The first step bootstraps with backward Euler.  dt is
fixed within a run for reproducible output.

One loop steps every run: integrate() carries (t, c, prev) as a float and
two arrays.  Before its first step it fetches the three LU factors, M, F_bc
and whether advection is on; step() is integrate() for one step.  A
constraint projection reaches the loop as a map of coefficient arrays
(DiagnosticsContext.projector).  run() integrates in chunks that end at each
record step, the restart step and the last step, and kicks and records
between chunks.  The loop has no per-step hook: observers call step(), one
step at a time, and read or replace each State it returns.

Bitwise cycles.  The step map, its guards and the constraint projection
are deterministic functions of the bits of the kept pair (c, prev), and
nothing in them reads t: F_bc is constant and kicks fall between chunks.
The step map is autonomous, so once a pair recurs bit for bit, lam steps
after it was seen, every later step repeats that cycle; a forcing that
depended on t would break this.  integrate() finds such a cycle with
Brent's search (one saved pair, refreshed when the steps since its save
reach a power of two) and then adds dt to t once per step of the whole
periods left, as stepping would, and solves only the last (steps left) mod
lam steps.  A BDF2 step that returns its input (c, c) is the period-1
case, tested on every step.  The test is bitwise (no tolerance, and -0.0
is not +0.0), and a pair without prev is never saved.  The steady
Poincare flow and the kicked u_P + omega e_z x x are fixed points a few
dozen steps after their start and after the kick, so a steady stretch
costs one solve per chunk: fig2_poincare.cfg advances 120,000 steps with
646 LU solves, and the benchmark's 8,000-step fig2 run with 86.  The rot_momentum twins of scripts/poincare_family.py fall into
a bitwise orbit about 55 steps in, of period 3 at N = 5: each 800-step run
of the benchmark's twin pair solves 118 steps, and each 2,000-step run of
the script (N = 2, period 2) 144.

Per BDF2 step: the parity-packed advection (see operators.advection_term),
about dim^3 / 16 multiply-adds plus three gathers, one mass-matrix product
and one LU back-substitution.  The back-substitution is a direct LAPACK
getrs on the cached factors (_lu_solve): scipy.linalg.lu_solve calls the
same routine, so the solution is bit-identical, but at desk-scale dims its
wrapper costs several times the solve.  No finiteness scan precedes the
solve: the right-hand side comes from a state that the post-step guard has
checked, and run() rejects non-finite inputs before the first step.  The
guard is one dot product: new @ new is both the finiteness test and the
squared norm that the blow-up guard compares.  A constraint projection adds one (3, dim) matrix-vector product per step;
its mode's functional is chosen and tested for degeneracy before the first
step, not per step.

Reachable classes.  Each basis field lies in one of the 8 mirror-reflection
classes, Z_2^3 under XOR, whose rules basis holds: advection maps classes
(P, Q) to P ^ Q, the Coriolis term about an axis maps P to P ^ s for each
of its shifts s (basis.coriolis_shifts: 6 for e_x), and a kick or a
constraint projection adds e_z x x (class 3).  reachable_classes alone
decides the subgroup G that a run reaches about PRECESSION_AXIS, the one
axis run() assembles with.  G's fields span an invariant subspace: M, V and
C_x couple a class of G only with classes of G, partial pivoting never
picks a pivot outside its column's block, so the LU factors and every solve
keep the other fields at exactly 0.0.  run() therefore steps a basis of
G's fields alone (_stepped_basis), built on G's classes by
build_basis(..., classes=G), and the full basis only when G holds no field
of the degree (G = {0} at N = 2).  u_P (classes 3, 6) and e_z x x (3)
generate the centrosymmetric classes {0, 3, 5, 6}, the fields with
v(-x) = -v(x) (odd polynomials); every bundled config steps them, or
{0, 3} for an axial rotation at eps_p = 0.  The other coset, {1, 2, 4, 7},
holds the even fields, and the growing modes of the Poincare instability
lie wholly in it (ROADMAP items 9 and 10), so a run seeded only in
{0, 3, 5, 6} never meets that instability: it needs a seed in
{1, 2, 4, 7}, which steps every class.  The classes of a projected
initial state are those of the analytic fields it adds (_initial_fields,
which initial_coefficients projects): a projection keeps each field's
classes, so G is known before anything is built or projected.  A
coefficients file keeps the full basis's dimension: it is read on the full
basis, which is built whole, and sliced to full.restrict(G).  The CSV is
computed on the stepped basis; it differs from the full basis's only by
the round-off of shorter sums (fig2_poincare.cfg's is byte-identical).  A basis of G holds the full
basis's fields of G bit for bit unless the two builds take different polish
decisions (build_basis): at N = 6 on the verify domains, a run's classes
{0, 3, 5, 6} skip the polish pass that classes outside them trigger, and
its fields, and so its CSV, move by round-off.

Set-up once per basis.  run() builds its Domain once.  u_P comes from
_poincare_data, a two-entry functools.lru_cache keyed on (domain, eps), so
the bc data and the initial state at one eps share one build, and so do
consecutive runs on one domain.  run() takes its basis from _run_basis, a
one-entry functools.lru_cache keyed on (domain, degree, G), so consecutive
runs that step one basis (the +/- omega twins of
scripts/poincare_family.py, say) share its assembly cache: the core
matrices, C_x, the advection blocks and pack, the LU factors, the
diagnostics context and the projections of e_z x x and u_P are each formed
once, and a warm run forms only the forcing vector.  The basis cache keeps
one entry of each kind, replaced when its key changes, so a sweep over dt
or nu holds one set of factors.  The shared arrays are read-only; nothing
on the run path forms the dense T or Basis.fields.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrs

from . import diagnostics
from .basis import (REFERENCE_RESIDUAL_TOL, ROTATION_CLASSES, Basis, build_basis,
                    class_subgroup, coriolis_shifts, field_classes, poincare_field,
                    poincare_obstacle, reference_projection, rotation_projection)
from .geometry import Domain
from .operators import BC_FORMS, BoundaryCondition, OperatorSet, advection_term, assemble

# init type -> the init fields it reads; validate() rejects any other init field that is set
INIT_TYPES = {
    "solid_rotation": ("init_amplitude",),
    "poincare": ("init_eps_p",),
    "poincare_plus_rotation": ("init_omega", "init_eps_p"),
    "coefficients": ("init_path",),
}
# the precession axis of every run: run() assembles C_x about it, reachable_classes shifts by it
PRECESSION_AXIS = (1.0, 0.0, 0.0)
# a run raises BlowUpError once the state norm exceeds this multiple of the largest of
# its initial norm, the norm of the projected bc data c_P and the norm of the restart kick
BLOWUP_FACTOR = 1e6


class BlowUpError(RuntimeError):
    """Raised when the state norm exceeds the blow-up threshold."""

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
    """LU factors of the full-step, half-step and BDF2 matrices, kept on the basis.

    The key, dt and ops.implicit_params, is everything the matrices read
    beyond the basis's cached M, A_sym, A_grad and C_x.
    """
    return ops.basis.cached(("lu", (dt, ops.implicit_params)), _factor, ops, dt)


def _factor(basis: Basis, ops: OperatorSet, dt: float):
    linear = ops.V + 2.0 * ops.eps_p * ops.C_x
    return tuple(scipy.linalg.lu_factor(scale * ops.M / dt + linear) for scale in (1.0, 2.0, 1.5))


def _lu_solve(lu_piv, rhs):
    """Solve with factors from scipy.linalg.lu_factor; rhs is overwritten."""
    x, info = dgetrs(*lu_piv, rhs, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
    return x


def _euler_solve(ops, lu, coeffs, star, dt_eff):
    rhs = ops.M @ coeffs / dt_eff + ops.F_bc
    if ops.T_packed is not None:
        rhs = rhs - advection_term(ops, star)
    return _lu_solve(lu, rhs)


def step(state: State, ops: OperatorSet, dt: float) -> State:
    """One step of integrate: the startup when state.prev_coeffs is None, else BDF2."""
    return integrate(state, ops, dt, 1)


def integrate(state: State, ops: OperatorSet, dt: float, n_steps: int,
              max_norm: float | None = None, project=None) -> State:
    """Advance n_steps; optional norm guard and constraint projection.

    The advecting velocity is the extrapolant 2 u^n - u^(n-1); the constant
    implicit matrix (3/(2 dt)) M + V + 2 eps_p C_x is factored once per basis
    and (dt, nu, eps_p, stiffness form, axis) and cannot be singular for
    nu > 0, dt > 0.  A step from a state without prev_coeffs is the startup:
    one full and two half backward-Euler steps, combined as
    2 u_{dt/2,dt/2} - u_dt, which keeps the whole trajectory second-order
    accurate; a plain backward-Euler start would leave a first-order startup
    artifact in difference-based diagnostics such as the momentum-balance
    residual.  Advection enters when ops was assembled with it.  A dt that is
    not positive and finite raises ValueError before anything is factored.

    After each step a non-finite state raises BlowUpError, and so does a norm
    above max_norm.  project, if given, maps the checked coefficients to the
    ones the step keeps (a constraint projection).  Only the last State is
    returned: observers call step() and read or replace each State.

    Cycles.  integrate runs Brent's cycle search on the kept pair (c, prev).
    When a new pair equals the saved one bit for bit, lam steps after its
    save, or a BDF2 step maps (c, c) to (c, c) (lam = 1), every later step
    repeats the cycle: the step map, the guards and project are
    deterministic functions of those bits and read no t, so the skip relies
    on an autonomous step map (a forcing that depended on t would invalidate
    it).  integrate then advances t by the repeated t += dt of the whole
    periods left (t + k*dt rounds differently) and steps only the remaining
    (steps left) mod lam.  A pair without prev_coeffs, the input of a
    startup step, is never saved.  The
    comparison is bitwise, not np.array_equal, which equates -0.0 and +0.0;
    equal squared norms of the kept states come first, as a filter.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_steps < 1:
        return state
    lu_be, lu_half, lu_bdf = _solver(ops, dt)
    m, f_bc, advect, dt2 = ops.M, ops.F_bc, ops.T_packed is not None, 2.0 * dt
    t, c, prev = state.t, state.coeffs, state.prev_coeffs
    s_last = c @ c
    # Brent's search: one saved pair (c, prev, c @ c), `since` steps back, saved
    # afresh each time `since` reaches a power of two; never a pair without prev
    saved = None if prev is None else (c, prev, s_last)
    since, power = 0, 1
    left = n_steps
    while left:
        left -= 1
        if prev is None:
            half = _euler_solve(ops, lu_half, c, c, dt / 2.0)
            half2 = _euler_solve(ops, lu_half, half, half, dt / 2.0)
            full = _euler_solve(ops, lu_be, c, c, dt)
            new = 2.0 * half2 - full
        else:
            rhs = m @ (4.0 * c - prev) / dt2 + f_bc
            if advect:
                rhs = rhs - advection_term(ops, 2.0 * c - prev)
            new = _lu_solve(lu_bdf, rhs)
        t += dt
        # a finite sum of squares proves every entry finite; an overflowing one
        # may still come from finite entries, so it falls back to the full test
        s = new @ new
        if not math.isfinite(s) and not np.all(np.isfinite(new)):
            raise BlowUpError(f"non-finite coefficients after step to t = {t:.6g}")
        if max_norm is not None and math.sqrt(s) > max_norm:
            raise BlowUpError(f"state norm exceeded {max_norm:.3e} at t = {t:.6g}")
        if project is not None:
            new = project(new)
            s = new @ new   # the norm filters compare kept states
        # a BDF2 step from (c, c) to (c, c), or a new pair (new, c) equal to the saved
        # pair bit for bit, closes a cycle of lam steps that every step left repeats
        lam, since = 0, since + 1
        if (s == s_last and prev is not None
                and new.tobytes() == c.tobytes() == prev.tobytes()):
            lam = 1
        elif (saved is not None and s == saved[2]
                and new.tobytes() == saved[0].tobytes() and c.tobytes() == saved[1].tobytes()):
            lam = since
        elif since == power:
            saved, since, power = (new, c, s), 0, 2 * power
        s_last, prev, c = s, c, new
        if lam:
            for _ in range(left - left % lam):
                t += dt
            left %= lam
    return State(t, c, prev)


@dataclass
class ScenarioConfig:
    """Complete description of one run (mirrors the CLI config file).

    A field that the run would ignore stays None; validate() rejects it when set.
    """

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
    init_amplitude: float | None = None
    init_omega: float | None = None
    init_eps_p: float | None = None
    init_path: str | None = None
    restart_time: float | None = None
    restart_omega: float | None = None
    constraint_mode: str | None = None
    output_path: str | None = None

    def validate(self) -> Domain:
        """Reject a config that no run can take, before anything is built; returns its Domain."""
        domain = self.domain()  # the beta-versus-axes rule and the checks of Domain itself
        if self.degree < 1:
            raise ValueError("basis degree must be at least 1")
        if self.bc_form not in BC_FORMS:
            raise ValueError(f"unknown bc form {self.bc_form!r}")
        self.check_nu_inverse(self.nu_inverse)
        if not self.dt > 0 or not self.t_end > 0:
            raise ValueError("dt and t_end must be positive")
        if not self.record_every > 0:
            raise ValueError("record_every must be positive")
        for name in ("eps_p", "dt", "t_end", "record_every", "init_amplitude", "init_omega",
                     "init_eps_p", "restart_time", "restart_omega"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end = {self.t_end:g} is shorter than one time step "
                             f"dt = {self.dt:g}")
        for name in ("t_end", "record_every", "restart_time"):
            value = getattr(self, name)
            if value is not None and not math.isclose(value / self.dt, round(value / self.dt),
                                                      rel_tol=1e-9):
                raise ValueError(f"{name} = {value:g} is not a whole number of time steps "
                                 f"dt = {self.dt:g}")
        if self.init_type not in INIT_TYPES:
            raise ValueError(f"unknown init type {self.init_type!r}")
        if self.init_type == "coefficients" and not self.init_path:
            raise ValueError("init type 'coefficients' requires init.path")
        if self.restart_time is not None and not 0 <= self.restart_time <= self.t_end:
            raise ValueError("restart time must lie within [0, t_end]")
        if self.constraint_mode is not None and self.constraint_mode not in diagnostics.CONSTRAINT_MODES:
            raise ValueError(f"unknown constraint mode {self.constraint_mode!r}")
        # without Poincare data the orth functional is identically 0
        if (self.constraint_mode == "orth_poincare"
                and not BoundaryCondition.form_carries_data(self.bc_form)):
            raise ValueError(f"constraint.mode orth_poincare needs a bc.form that carries "
                             f"Poincare data, not {self.bc_form}")
        # the coefficients are read after the build and the assembly, so their file is
        # checked before them, as the CSV's directory is before the run
        if self.init_type == "coefficients" and not os.path.isfile(self.init_path):
            raise ValueError(f"init.path {self.init_path}: no such file")
        self.check_output_path(self.output_path)
        if self.restart_omega is not None and self.restart_time is None:
            raise ValueError("config key restart.omega is ignored without restart.time")
        # config-key spelling: the field name with its first "_" read as "."
        for name in ("init_amplitude", "init_omega", "init_eps_p", "init_path"):
            types = [t for t, fields in INIT_TYPES.items() if name in fields]
            if getattr(self, name) is not None and self.init_type not in types:
                raise ValueError(f"config key {name.replace('_', '.', 1)} is ignored unless "
                                 f"init.type is {' or '.join(types)}, not {self.init_type}")
        return domain

    @staticmethod
    def check_output_path(path: str | None) -> None:
        """Reject an output.path in a missing directory; basis shares the check."""
        out_dir = os.path.dirname(path or "") or "."
        if not os.path.isdir(out_dir):
            raise ValueError(f"output.path {path}: no directory {out_dir}")

    @staticmethod
    def check_nu_inverse(nu_inverse: float) -> None:
        """Reject a nu_inverse whose 1 / nu_inverse is no viscosity; steady shares the check."""
        if not nu_inverse > 0:
            raise ValueError("nu_inverse must be positive")
        if not math.isfinite(nu_inverse):
            raise ValueError(f"nu_inverse must be finite, got {nu_inverse}")
        if not math.isfinite(1.0 / nu_inverse):
            raise ValueError(f"nu_inverse = {nu_inverse} is too small: the viscosity "
                             "1 / nu_inverse is not finite")

    def domain(self) -> Domain:
        return scenario_domain(self.beta, self.a, self.b, self.c)


def scenario_domain(beta=None, a=None, b=None, c=None) -> Domain:
    """The domain of a run: the spheroid of beta, or the ellipsoid of all three axes."""
    if beta is not None and (a, b, c) != (None, None, None):
        raise ValueError("domain.beta and explicit axes are mutually exclusive")
    if beta is None and None in (a, b, c):
        raise ValueError("specify domain.beta or all of domain.a, domain.b, domain.c")
    return Domain(a, b, c) if beta is None else Domain.from_beta(beta)


@functools.lru_cache(maxsize=2)
def _poincare_data(domain: Domain, eps_value) -> object:
    """u_P on domain at eps_value, kept for the last two (domain, eps) keys: a run's bc
    data and initial state at one eps, and the next run on the domain, share one build."""
    obstacle = poincare_obstacle(domain)
    if obstacle is not None:
        raise ValueError(obstacle)
    return poincare_field(domain.beta, Fraction(eps_value))


def _or_zero(value: float | None) -> float:
    """An unset amplitude, omega or kick as 0.0; `value or 0.0` would turn -0.0 into 0.0."""
    return 0.0 if value is None else value


def _bc_data(cfg: ScenarioConfig, domain: Domain):
    """u_P at eps_p, the data of a bc form that carries Poincare data, else None."""
    return (_poincare_data(domain, cfg.eps_p)
            if BoundaryCondition.form_carries_data(cfg.bc_form) else None)


def _initial_fields(cfg: ScenarioConfig, domain: Domain) -> tuple:
    """The analytic fields that cfg's projected initial state adds, (u_P at init_eps_p, else
    at eps_p; the amplitude of e_z x x), each None when it adds none (a coefficients file)."""
    u_p = amplitude = None
    if cfg.init_type in ("poincare", "poincare_plus_rotation"):
        u_p = _poincare_data(domain, cfg.eps_p if cfg.init_eps_p is None else cfg.init_eps_p)
    if cfg.init_type in ("solid_rotation", "poincare_plus_rotation"):
        amplitude = _or_zero(cfg.init_amplitude if u_p is None else cfg.init_omega)
    return u_p, amplitude


def _read_coefficients(path: str, dim: int) -> np.ndarray:
    data = np.loadtxt(path).ravel()
    if data.shape != (dim,):
        raise ValueError(f"coefficient file has {data.size} entries, basis dimension is {dim}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"coefficient file {path} holds non-finite values")
    return data


def initial_coefficients(cfg: ScenarioConfig, basis: Basis) -> np.ndarray:
    """cfg's initial state on basis: a coefficients file, or the projection of u_P (or 0)
    plus the amplitude times e_z x x."""
    if cfg.init_type == "coefficients":
        return _read_coefficients(cfg.init_path, basis.dim)
    u_p, amplitude = _initial_fields(cfg, basis.domain)
    if u_p is None:
        return amplitude * rotation_projection(basis)[0]
    c_p, res = reference_projection(u_p, basis)
    if res > REFERENCE_RESIDUAL_TOL:
        raise ValueError(f"Poincare flow is not representable in this basis "
                         f"(projection residual {res:.2e})")
    if amplitude is None:
        return c_p.copy()
    return c_p + amplitude * rotation_projection(basis)[0]


def reachable_classes(cfg: ScenarioConfig, degree: int, found=(),
                      domain: Domain | None = None) -> tuple[int, ...]:
    """G, the reflection classes that the run of cfg can reach on a basis of degree `degree`,
    given the classes `found` of a coefficients file's nonzero entries.

    G is generated by `found`, the classes of the fields the run adds (its
    projected initial state, and its bc data, whose classes hold F_bc and
    c_P), e_z x x's when a kick or a projection is set, and for eps_p != 0
    the Coriolis shifts about PRECESSION_AXIS (see the module docstring).
    domain is the run's, cfg.domain() when None.
    """
    domain = cfg.domain() if domain is None else domain
    bc_data = _bc_data(cfg, domain)
    u_p, amplitude = _initial_fields(cfg, domain)
    classes = set(found).union(*(field_classes(v, degree) for v in (u_p, bc_data)
                                 if v is not None))
    if _or_zero(amplitude) or cfg.restart_time is not None or cfg.constraint_mode is not None:
        classes.add(ROTATION_CLASSES[2])
    if cfg.eps_p != 0:
        classes.update(coriolis_shifts(PRECESSION_AXIS))
    return class_subgroup(classes)


def _stepped_basis(cfg: ScenarioConfig, domain: Domain) -> tuple[Basis, np.ndarray]:
    """The basis that the run of cfg on domain steps, and its initial coefficients there.

    A projected initial state has the classes of the fields it adds
    (_initial_fields), so G (reachable_classes) is known before any build: the
    basis is _run_basis(domain, N, G), and the state is projected on it alone, as
    the diagnostics' c_P is.  A coefficients file is read on the full basis, where
    its classes are those of its nonzero entries, and sliced to full.restrict(G), or
    kept on full when G holds every class of full or none.
    """
    if cfg.init_type != "coefficients":
        basis = _run_basis(domain, cfg.degree, reachable_classes(cfg, cfg.degree, (), domain))
        return basis, initial_coefficients(cfg, basis)
    full = _run_basis(domain, cfg.degree, None)
    coeffs = _read_coefficients(cfg.init_path, full.dim)
    found = full.classes[coeffs != 0].tolist()
    kept = set(reachable_classes(cfg, full.degree, found, domain)) & set(full.members)
    if not kept or kept == set(full.members):
        return full, coeffs
    return full.restrict(kept), coeffs[np.isin(full.classes, list(kept))]


@functools.lru_cache(maxsize=1)
def _run_basis(domain: Domain, degree: int, classes) -> Basis:
    """The basis of the last run, reused while (domain, degree, classes) stays the same.

    It is build_basis on the classes G that a run steps, or on every class
    for classes None; when G holds no field of this degree (G = {0} at N = 2,
    say), the full basis.  The build polishes when one of the classes it
    builds misses I by more than 1e-13 (see build_basis), so a basis of G may
    differ from the full basis's restriction to G by round-off (on the verify
    domains, at N = 6 alone).
    build_basis is looked up as a module global at call time, so a wrapper
    installed on it sees every build; cache_clear() makes the next run cold.
    """
    basis = build_basis(domain, degree, classes=classes)
    return basis if basis.dim else build_basis(domain, degree)


def run(cfg: ScenarioConfig) -> diagnostics.TimeSeries:
    """Execute a scenario: build, integrate, record, and write the CSV output.

    The run steps a basis of the classes it can reach (see the module
    docstring), and the series names them (classes).  The basis, with
    everything cached on it, is shared with the previous run when that had
    the same domain, degree and classes.  On blow-up the partial series
    is written to the configured output path before BlowUpError is raised
    (with the series attached).
    """
    domain = cfg.validate()
    basis, coeffs = _stepped_basis(cfg, domain)
    bc_data = _bc_data(cfg, domain)

    bc = BoundaryCondition(cfg.bc_form, bc_data)
    ops = assemble(basis, bc, nu=1.0 / cfg.nu_inverse, eps_p=cfg.eps_p,
                   precession_axis=PRECESSION_AXIS)

    ctx = diagnostics.shared_context(basis, bc_data)

    state = State(t=0.0, coeffs=coeffs)
    # a forced run from rest grows towards c_P and a kicked one jumps by the kick; a zero
    # state with neither stays zero
    kick = abs(_or_zero(cfg.restart_omega)) * float(np.linalg.norm(rotation_projection(basis)[0]))
    max_norm = BLOWUP_FACTOR * max(float(np.linalg.norm(state.coeffs)),
                                   float(np.linalg.norm(ctx.c_p)), kick)

    # validate() has put t_end, record_every and restart_time on the dt grid
    n_steps = int(round(cfg.t_end / cfg.dt))
    every = int(round(cfg.record_every / cfg.dt))
    restart_step = (int(round(cfg.restart_time / cfg.dt))
                    if cfg.restart_time is not None else None)

    series = diagnostics.TimeSeries(records=[], dt=cfg.dt, restart_time=cfg.restart_time,
                                    classes=tuple(basis.members))

    # a degenerate functional fails here, before any step
    project = None if cfg.constraint_mode is None else ctx.projector(cfg.constraint_mode)

    if restart_step == 0:
        state = _apply_restart(state, cfg, basis)
    series.records.append(diagnostics.record(state, ops, ctx))
    # step in chunks that end at each record step, the restart step and the last step;
    # the projection follows every step, then the kick, then the record
    k = 0
    try:
        while k < n_steps:
            stop = min(n_steps, (k // every + 1) * every)
            if restart_step is not None and k < restart_step < stop:
                stop = restart_step
            state = integrate(state, ops, cfg.dt, stop - k, max_norm, project=project)
            k = stop
            if k == restart_step:
                state = _apply_restart(state, cfg, basis)
            if k % every == 0 or k == n_steps:
                series.records.append(diagnostics.record(state, ops, ctx))
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
    kick = _or_zero(cfg.restart_omega) * rotation_projection(basis)[0]
    return State(t=state.t, coeffs=state.coeffs + kick, prev_coeffs=None)
