"""Scalar diagnostics, constraint functionals, and the time-series CSV format.

Quadratic quantities (energies, hemispheric energies, angular momentum and the
rotation amplitude lambda) come from the exactly assembled Gram/moment
operators.  The three surface constraint functionals are quadrature sums over
the polynomial reconstruction of the state, precomputed as linear functionals
of the coefficients.  ``dEK_dt`` is a post-hoc centered difference of the
recorded energy, never taken across a restart kick; the instantaneous energy
rate (viscous dissipation plus boundary-forcing work) is emitted alongside it
as the ``dissipation`` column, so the two estimates bracket the
time-discretization error.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import monomials
from .basis import (REFERENCE_RESIDUAL_TOL, Basis, _read_only, reference_projection,
                    rotation_projection, solid_rotation)
from .geometry import surface_rule, volume_integral
from .operators import OperatorSet
from .polynomials import VectorField

# constraint mode -> the row of DiagnosticsContext.functionals (c_rot, c_orth, c_tot) it zeroes
CONSTRAINT_ROWS = {"rot_momentum": 0, "orth_poincare": 1, "total_momentum": 2}
CONSTRAINT_MODES = tuple(CONSTRAINT_ROWS)

# order n of the surface rule behind the constraint functionals: n x 2n nodes
SURFACE_ORDER = 32


@dataclass
class DiagnosticsRecord:
    t: float
    E_K: float
    dEK_dt: float          # filled post hoc from the record sequence
    dissipation: float
    delta_EK: float
    lam: float
    E_perp: float
    M_x: float
    M_y: float
    M_z: float
    dE_Kn: float
    dE_Ks: float
    c_rot: float
    c_orth: float
    c_tot: float

    def csv_row(self) -> str:
        return ",".join(f"{getattr(self, name):.17g}" for name in _COLUMN_FIELDS.values())


# CSV column -> record field, in field order: the CSV spells lam as lambda
_COLUMN_FIELDS = {("lambda" if f.name == "lam" else f.name): f.name
                  for f in dataclasses.fields(DiagnosticsRecord)}
CSV_HEADER = ",".join(_COLUMN_FIELDS)


class DiagnosticsContext:
    """Precomputed context of the runs on one basis: reference fields and the surface functionals.

    The three surface functionals are linear in the coefficients: the rule's
    weights and target values are folded through the Vandermonde once, so each
    evaluation is one (3, dim) matvec minus constant offsets.  The projections
    of u_P and e_z x x are the basis's shared ones, the surface rule has order
    SURFACE_ORDER, and every array is read-only, so the runs with one
    reference field share one context (shared_context keeps it on the basis).
    """

    def __init__(self, basis: Basis, u_p: VectorField | None):
        domain = basis.domain
        self.rule = surface_rule(domain, SURFACE_ORDER)
        if u_p is not None:
            self.c_p, p_res = reference_projection(u_p, basis)
            if p_res > REFERENCE_RESIDUAL_TOL:
                raise ValueError(f"reference field is not representable in the basis "
                                 f"(projection residual {p_res:.2e})")
        else:
            self.c_p = np.zeros(basis.dim)

        rot = solid_rotation((0, 0, 1))
        self.gamma = volume_integral(rot.dot(rot), domain)  # ||e_z x x||^2, exact
        self.c_rot_dir, _ = rotation_projection(basis)

        w = self.rule.weights
        vander = monomials.vandermonde(self.rule.points, basis.degree)
        rot_nodes = rot.evaluate(self.rule.points)
        up_nodes = (u_p.evaluate(self.rule.points) if u_p is not None
                    else np.zeros_like(rot_nodes))

        def functional(target_nodes):
            # coefficient row of  sum_n w_n u(x_n) . target(x_n)
            fold = vander.T @ (w[:, None] * target_nodes)           # (D_N, 3)
            return np.einsum("icm,mc->i", basis.coeff_array, fold)

        g_rot = functional(rot_nodes)
        self.functionals = np.stack([g_rot, functional(up_nodes), g_rot])
        self.offsets = np.array([float(np.einsum("n,nc,nc->", w, up_nodes, rot_nodes)),
                                 float(np.einsum("n,nc,nc->", w, up_nodes, up_nodes)),
                                 0.0])
        self.den_rot, self.den_orth, _ = (float(v) for v in self.functionals @ self.c_rot_dir)
        # size of the rotation direction on the surface, for the degeneracy test
        dir_nodes = vander @ np.einsum("i,icm->cm", self.c_rot_dir, basis.coeff_array).T
        self.degeneracy_scale = float(np.sum(w)) * max(1.0, float(np.max(np.abs(dir_nodes))))
        self._constraints = {}
        _read_only((self.c_p, self.functionals, self.offsets, self.rule.points, self.rule.weights))

    def surface_functionals(self, coeffs: np.ndarray):
        """(c_rot, c_orth, c_tot) of the state with the given coefficients."""
        c_rot, c_orth, c_tot = self.functionals @ coeffs - self.offsets
        return float(c_rot), float(c_orth), float(c_tot)

    def constraint(self, mode: str) -> tuple[int, float]:
        """(row, den): the functional that constraint mode zeroes and its value on the
        rotation direction.  Chosen and tested for degeneracy once per mode."""
        entry = self._constraints.get(mode)
        if entry is None:
            row = CONSTRAINT_ROWS[mode]
            den = (self.den_rot, self.den_orth, self.den_rot)[row]
            if abs(den) <= 1e-12 * self.degeneracy_scale:
                raise ValueError(f"constraint functional is degenerate on the rotation "
                                 f"direction (denominator {den:.3e})")
            entry = self._constraints[mode] = (row, den)
        return entry


def shared_context(basis: Basis, u_p: VectorField | None) -> DiagnosticsContext:
    """The context of the runs on basis with reference field u_p (or None), kept on the basis."""
    key = ("context", None if u_p is None else u_p.components)
    return basis.cached(key, DiagnosticsContext, u_p)


def record(state, ops: OperatorSet, ctx: DiagnosticsContext) -> DiagnosticsRecord:
    """Compute every diagnostic scalar for one state."""
    c = np.asarray(state.coeffs, dtype=float)
    if c.shape != (ops.dim,):
        raise ValueError("coefficient vector does not match the operator set")
    mc = ops.M @ c
    e_k = 0.5 * float(c @ mc)
    diff = c - ctx.c_p
    delta = 0.5 * float(diff @ (ops.M @ diff))
    de_kn = 0.5 * float(diff @ (ops.Hn @ diff))
    de_ks = 0.5 * float(diff @ (ops.Hs @ diff))
    m_vec = ops.mom @ c
    lam = float(m_vec[2]) / ctx.gamma   # (u, e_z x x) = M_z
    e_perp = max(e_k - 0.5 * lam * lam * ctx.gamma, 0.0)
    dissipation = -float(c @ (ops.V @ c)) + float(c @ ops.F_bc)
    c_rot, c_orth, c_tot = ctx.surface_functionals(c)
    return DiagnosticsRecord(
        t=float(state.t), E_K=e_k, dEK_dt=math.nan, dissipation=dissipation,
        delta_EK=delta, lam=lam, E_perp=e_perp,
        M_x=float(m_vec[0]), M_y=float(m_vec[1]), M_z=float(m_vec[2]),
        dE_Kn=de_kn, dE_Ks=de_ks, c_rot=c_rot, c_orth=c_orth, c_tot=c_tot,
    )


@dataclass
class TimeSeries:
    records: list
    dt: float
    restart_time: float | None = None   # the time of the restart kick, if any

    def kicked(self) -> np.ndarray:
        """Whether each record follows the restart kick: the kick splits the series in two
        segments, the second from the record that holds the kicked state on."""
        kick = math.inf if self.restart_time is None else self.restart_time - 0.5 * self.dt
        return self.column("t") >= kick

    def finalize(self) -> "TimeSeries":
        """Fill dEK_dt by centered differences, one-sided at the ends of each segment
        (see kicked).  A record alone in its segment gets 0."""
        recs = self.records
        n = len(recs)
        kicked = self.kicked()
        for i in range(n):
            lo = i - 1 if i > 0 and kicked[i - 1] == kicked[i] else i
            hi = i + 1 if i < n - 1 and kicked[i + 1] == kicked[i] else i
            span = recs[hi].t - recs[lo].t
            if span > 0:
                recs[i].dEK_dt = (recs[hi].E_K - recs[lo].E_K) / span
            else:
                recs[i].dEK_dt = 0.0
        return self

    def column(self, name: str) -> np.ndarray:
        attr = _COLUMN_FIELDS.get(name, name)
        return np.array([getattr(r, attr) for r in self.records])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in self.records:
                fh.write(r.csv_row() + "\n")


def momentum_balance_residual(series: TimeSeries, eps_p: float) -> np.ndarray:
    """Centered-difference residual of  dM_z/dt + eps_p M_y  at the interior records
    whose stencil stays in one segment (TimeSeries.kicked): none beside a kick."""
    if len(series.records) < 3:
        raise ValueError("need at least three records for a centered difference")
    t = series.column("t")
    spacing = np.diff(t)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-12):
        raise ValueError("records are not uniformly spaced")
    m_z, m_y, kicked = series.column("M_z"), series.column("M_y"), series.kicked()
    one_segment = kicked[2:] == kicked[:-2]
    return ((m_z[2:] - m_z[:-2]) / (2.0 * spacing[0]) + eps_p * m_y[1:-1])[one_segment]


def constraint_projection(state, mode: str, ctx: DiagnosticsContext) -> object:
    """Remove the rigid-rotation amount that zeroes the selected surface functional.

    Subtracts alpha * (projected e_z x x) from the state so that c_rot,
    c_orth, or c_tot vanishes; everything orthogonal to the rotation direction
    is untouched.  ``ctx`` is the run's prepared DiagnosticsContext and
    ``state`` a timestepper.State.
    """
    if mode not in CONSTRAINT_ROWS:
        raise ValueError(f"unknown constraint mode {mode!r}")
    row, den = ctx.constraint(mode)
    c = np.asarray(state.coeffs, dtype=float)
    alpha = (ctx.functionals @ c - ctx.offsets)[row] / den
    return type(state)(state.t, c - alpha * ctx.c_rot_dir, state.prev_coeffs)
