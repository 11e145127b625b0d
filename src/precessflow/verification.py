"""Cross-module invariant battery backing the ``verify`` subcommand.

Every check returns a named result so failures are attributable from the
machine-readable report.  The battery runs on the three DOMAINS at a list of
degrees, on what runs use as the basis keeps it: T's blocks, the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import diagnostics
from .basis import (GRAM_IDENTITY_TOL, ROTATION_CLASSES, Basis, build_basis, curl_form_fields,
                    load_basis, nodal_form, poincare_field, poincare_obstacle, project_fields,
                    reference_projection, rotation_projection)
from .geometry import Domain, half_monomial_integral, monomial_integral, surface_rule
from .operators import BoundaryCondition, advection_term, assemble, residual
from .spectral import class_label, neutral_modes
from .timestepper import (PRECESSION_AXIS, ScenarioConfig, State, initial_coefficients,
                          integrate, reachable_classes)

# shifts omega of the steady family u_P + omega (e_z x x) and its residual bound
STEADY_SWEEP = (0.0, 0.025, -0.025, 0.1, -0.1, 1.0)
STEADY_TOL = 1e-10

DOMAINS = (
    ("sphere", Domain(1, 1, 1)),
    ("spheroid", Domain.from_beta(Fraction(9, 16))),
    ("triaxial", Domain(1, Fraction(9, 10), Fraction(4, 5))),
)


@dataclass
class CheckResult:
    name: str
    context: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        detail = f"  [{self.detail}]" if self.detail else ""
        return f"{status} {self.name} {self.context}{detail}"


def steady_residuals(ops, u_p) -> dict[float, float]:
    """omega -> |residual(u_P + omega (e_z x x))|_inf, in the order of STEADY_SWEEP."""
    c_p, _ = reference_projection(u_p, ops.basis)
    c_r, _ = rotation_projection(ops.basis)
    return {omega: float(np.max(np.abs(residual(c_p + omega * c_r, ops))))
            for omega in STEADY_SWEEP}


def _check(results, name, context, ok, detail=""):
    results.append(CheckResult(name, context, bool(ok), detail))


def _geometry_checks(results, label, domain):
    ctx = f"domain={label}"
    worst = 0.0
    for p in range(0, 7):
        for q in range(0, 7 - p):
            for r in range(0, 7 - p - q):
                full = monomial_integral(p, q, r, domain)
                north = half_monomial_integral(p, q, r, domain, "north")
                south = half_monomial_integral(p, q, r, domain, "south")
                worst = max(worst, abs(north + south - full))
    _check(results, "geometry.half_split", ctx, worst <= 1e-14, f"max dev {worst:.2e}")

    rule = surface_rule(domain, 16)
    _check(results, "geometry.surface_weights_positive", ctx,
           bool((rule.weights > 0).all()))
    areas = [surface_rule(domain, n).total_weight for n in (8, 16, 32, 64)]
    errors = [abs(a - areas[-1]) for a in areas[:-1]]
    monotone = all(errors[i + 1] <= errors[i] + 1e-13 for i in range(len(errors) - 1))
    _check(results, "geometry.surface_area_converges", ctx, monotone,
           f"errors {['%.2e' % e for e in errors]}")


def _basis_checks(results, label, domain, basis: Basis):
    """Checks on an exact basis: both constraints are proved on its integer rows (the
    build's proof, Basis.row_failures), and a failure names the first field that breaks each."""
    ctx = f"domain={label} N={basis.degree}"
    for name, (what, bad) in zip(("basis.divergence_free", "basis.tangency"),
                                 basis.row_failures.items()):
        _check(results, name, ctx, bad is None,
               "" if bad is None else f"basis field {bad} is not exactly {what}")
    _check(results, "basis.gram_identity", ctx,
           basis.gram_identity_deviation() < GRAM_IDENTITY_TOL,
           f"dev {basis.gram_identity_deviation():.2e}")

    worst = float(np.max(project_fields(curl_form_fields(domain, basis.degree), basis)[1]))
    _check(results, "basis.curl_form_span", ctx, worst < 1e-10, f"max residual {worst:.2e}")

    # e_z x x is tangent only when a = b, so membership is asserted there only
    if domain.kind in ("sphere", "spheroid_z"):
        _, res_rot = rotation_projection(basis)
        _check(results, "basis.contains_rotation", ctx, res_rot < 1e-12,
               f"residual {res_rot:.2e}")
    if poincare_obstacle(domain) is None:
        u_p = poincare_field(domain.beta, Fraction(1, 4))
        _, res_p = reference_projection(u_p, basis)
        _check(results, "basis.contains_poincare", ctx, res_p < 1e-12, f"residual {res_p:.2e}")


def advection_skew(blocks: dict) -> float:
    """max |T[i, j, k] + T[i, k, j]| on T's class-pair blocks: (P, Q) against (P, P ^ Q)."""
    return max(float(np.max(np.abs(b + blocks[p, p ^ q].transpose(0, 2, 1))))
               for (p, q), b in blocks.items())


def momentum_coupling_sides(ops) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of operators.momentum_coupling_identity for each basis field, from ops:
    mom[1] (the functional behind M_y) and the nodal form 2 int (e_z x x).(e_x x b_k),
    which pairs the class of e_z x x with the fields that C_x about e_x shifts into it."""
    basis = ops.basis
    ez_x = np.cross((0.0, 0.0, 1.0), basis.points).T[None]
    ex_b = np.cross((1.0, 0.0, 0.0), basis.values, axisb=1, axisc=1)
    shifted = {p ^ ROTATION_CLASSES[0]: m for p, m in basis.members.items()}
    return ops.mom[1], 2.0 * nodal_form(ez_x, basis.weights, ex_b, {ROTATION_CLASSES[2]: [0]},
                                        shifted)[0]


def _operator_checks(results, label, domain, basis):
    ctx = f"domain={label} N={basis.degree}"
    ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.25)
    blocks = ops.T_blocks
    members = basis.members

    dev_t = advection_skew(blocks)
    _check(results, "operators.advection_antisymmetry", ctx, dev_t <= 1e-12,
           f"max dev {dev_t:.2e}")
    # the pack that runs use against sum_ij c_i c_j T[i, j, k] of the blocks it is gathered from
    c = np.random.default_rng(20240517).standard_normal(ops.dim)
    n_c = np.zeros(ops.dim)
    for (p, q), b in blocks.items():
        n_c[members[p ^ q]] += np.einsum("ikj,i,j->k", b, c[members[p]], c[members[q]])
    t_max = max(float(np.max(np.abs(b))) for b in blocks.values())
    dev_p = float(np.max(np.abs(advection_term(ops, c) - n_c)) / t_max / (c @ c))
    _check(results, "operators.advection_parity", ctx, dev_p <= 1e-14,
           f"{len(members)} classes, max |pack - blocks| {dev_p:.2e} of max|T| |c|^2")
    dev_c = float(np.max(np.abs(ops.C_x + ops.C_x.T)))
    _check(results, "operators.coriolis_antisymmetry", ctx, dev_c <= 1e-13,
           f"max dev {dev_c:.2e}")
    dev_h = float(np.max(np.abs(ops.Hn + ops.Hs - ops.M)))
    _check(results, "operators.hemisphere_split", ctx, dev_h <= 1e-14, f"max dev {dev_h:.2e}")

    rng = np.random.default_rng(20240517)
    worst_t, worst_c = 0.0, 0.0
    for _ in range(20):
        c = rng.standard_normal(ops.dim)
        c /= np.linalg.norm(c)
        worst_t = max(worst_t, abs(float(c @ advection_term(ops, c))))
        worst_c = max(worst_c, abs(float(c @ (ops.C_x @ c))))
    _check(results, "operators.advection_energy_neutral", ctx, worst_t < 1e-11,
           f"max {worst_t:.2e}")
    _check(results, "operators.coriolis_energy_neutral", ctx, worst_c < 1e-13,
           f"max {worst_c:.2e}")

    lhs, rhs = momentum_coupling_sides(ops)
    worst = float(np.max(np.abs(lhs - rhs)))
    _check(results, "operators.momentum_coupling_identity", ctx, worst < 1e-12,
           f"max |lhs-rhs| {worst:.2e}")

    if poincare_obstacle(domain) is None:
        u_p = poincare_field(domain.beta, Fraction(1, 4))
        ops_p = assemble(basis, BoundaryCondition("poincare_stress", u_p),
                         nu=1.0 / 0.024, eps_p=0.25)
        worst = max(steady_residuals(ops_p, u_p).values())
        _check(results, "operators.poincare_steadiness", ctx, worst < STEADY_TOL,
               f"max residual {worst:.2e}")


def _spectral_checks(results, label, basis):
    ctx = f"domain={label} N={basis.degree}"
    modes = neutral_modes(basis)
    _check(results, "spectral.kernel_strain", ctx, modes.strain_ok,
           f"dim {modes.sym.kernel_dim}, classes {class_label(modes.sym.kernel_classes)}, "
           f"expected {modes.expected_dim}, classes {class_label(modes.expected_classes)}")
    _check(results, "spectral.kernel_gradient", ctx, modes.gradient_ok,
           f"dim {modes.grad.kernel_dim}")
    k_n = modes.coercivity.K_N
    _check(results, "spectral.coercivity_positive", ctx, k_n > 0, f"K_N {k_n:.6g}")


def _dynamics_checks(results, label, basis):
    """Short integration checks on the spheroid only (kept cheap)."""
    ctx = f"domain={label} N={basis.degree}"
    ops = assemble(basis, BoundaryCondition("stress_free"), nu=0.01, eps_p=0.0)
    state = State(0.0, 0.1 * rotation_projection(basis)[0])
    e0 = 0.5 * float(state.coeffs @ (ops.M @ state.coeffs))
    energies = []
    integrate(state, ops, 0.01, 200,
              callback=lambda st: energies.append(0.5 * float(st.coeffs @ (ops.M @ st.coeffs))))
    drift = max(abs(e_k - e0) / e0 for e_k in energies)
    _check(results, "timestepper.rotation_energy_constant", ctx, drift < 1e-12,
           f"max drift {drift:.2e}")

    ctx_d = diagnostics.shared_context(basis, None)
    rng = np.random.default_rng(99)
    c = rng.standard_normal(basis.dim)
    rec = diagnostics.record(State(0.0, c), ops, ctx_d)
    split = abs(rec.E_K - rec.E_perp - 0.5 * rec.lam**2 * ctx_d.gamma)
    _check(results, "diagnostics.energy_split", ctx, split < 1e-12 * max(rec.E_K, 1.0),
           f"dev {split:.2e}")
    hemi = abs(rec.dE_Kn + rec.dE_Ks - rec.delta_EK)
    _check(results, "diagnostics.hemispheric_split", ctx,
           hemi < 1e-12 * max(rec.delta_EK, 1.0), f"dev {hemi:.2e}")
    projected = diagnostics.constraint_projection(State(0.0, c), "total_momentum", ctx_d)
    again = diagnostics.constraint_projection(projected, "total_momentum", ctx_d)
    dev = float(np.max(np.abs(again.coeffs - projected.coeffs)))
    _check(results, "diagnostics.projection_idempotent", ctx, dev < 1e-14 * max(1.0, float(np.max(np.abs(c)))),
           f"dev {dev:.2e}")


def _unreached_classes_check(results, label, basis, n_steps=100):
    """The forced, precessing run of timestepper.run's reachable classes, stepped on the
    whole basis: every field outside G stays exactly 0 at every step.

    G is reachable_classes of a poincare_stress run about PRECESSION_AXIS at eps_p =
    0.25 from u_P + 0.025 e_z x x, the set-up of the bundled poincare configs.
    """
    ctx = f"domain={label} N={basis.degree}"
    cfg = ScenarioConfig(degree=basis.degree, bc_form="poincare_stress", nu_inverse=0.024,
                         eps_p=0.25, init_type="poincare_plus_rotation", init_omega=0.025,
                         dt=0.01, t_end=n_steps * 0.01, record_every=n_steps * 0.01,
                         beta=basis.domain.beta)
    group = reachable_classes(cfg, basis.degree)
    outside = set(basis.members) - set(group)
    if not outside:
        _check(results, "timestepper.unreached_classes_zero", ctx, True,
               f"G {class_label(group)} holds every class present, {class_label(basis.members)}")
        return
    mask = np.isin(basis.classes, list(outside))
    worst = 0.0

    def watch(st):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(st.coeffs[mask]))))

    u_p = poincare_field(basis.domain.beta, Fraction(cfg.eps_p))
    ops = assemble(basis, BoundaryCondition("poincare_stress", u_p), nu=1.0 / cfg.nu_inverse,
                   eps_p=cfg.eps_p, precession_axis=PRECESSION_AXIS)
    integrate(State(0.0, initial_coefficients(cfg, basis)), ops, cfg.dt, n_steps, callback=watch)
    _check(results, "timestepper.unreached_classes_zero", ctx, worst == 0.0,
           f"G {class_label(group)}; classes {class_label(outside)} max |c| {worst:.1e} "
           f"over {n_steps} steps")


def run_battery(degrees=(1, 2, 4), basis_file: str | None = None) -> list[CheckResult]:
    """Run every module's invariant checks; returns one result per check.

    The dynamics checks run on the spheroid at the smallest degree, and the
    unreached-classes check at the smallest degree >= 2 (at N = 1 every class
    present lies in G), or at N = 1 when no other degree is listed.
    """
    results: list[CheckResult] = []
    subspace_degree = min((d for d in degrees if d >= 2), default=min(degrees))
    for label, domain in DOMAINS:
        _geometry_checks(results, label, domain)
    for label, domain in DOMAINS:
        for degree in degrees:
            basis = build_basis(domain, degree)
            _basis_checks(results, label, domain, basis)
            _operator_checks(results, label, domain, basis)
            _spectral_checks(results, label, basis)
            if label == "spheroid" and degree == min(degrees):
                _dynamics_checks(results, label, basis)
            if label == "spheroid" and degree == subspace_degree:
                _unreached_classes_check(results, label, basis)
    if basis_file is not None:
        results.extend(check_basis_file(basis_file))
    return results


def check_basis_file(path) -> list[CheckResult]:
    """Numeric invariant checks on an imported basis artifact."""
    results: list[CheckResult] = []
    ctx = f"file={path}"
    try:
        basis = load_basis(path)
    except Exception as exc:
        _check(results, "basis.import", ctx, False, str(exc))
        return results
    _check(results, "basis.import", ctx, True, f"dim {basis.dim}")
    chi = basis.domain.chi
    worst_div, worst_tan = 0.0, 0.0
    for f in basis.fields:
        scale = max(max(c.max_abs_coeff() for c in f.components), 1e-30)
        worst_div = max(worst_div, f.divergence().max_abs_coeff() / scale)
        worst_tan = max(worst_tan, f.tangency_remainder(chi).max_abs_coeff() / scale)
    _check(results, "basis.divergence_free", ctx, worst_div <= 1e-10,
           f"max rel residual {worst_div:.2e}")
    _check(results, "basis.tangency", ctx, worst_tan <= 1e-8,
           f"max rel remainder {worst_tan:.2e}")
    dev = basis.gram_identity_deviation()
    _check(results, "basis.gram_identity", ctx, dev < 1e-10, f"dev {dev:.2e}")
    return results
