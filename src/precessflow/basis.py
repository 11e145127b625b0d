"""Discrete velocity space: divergence-free polynomial fields tangent to the boundary.

The space of degree <= N vector polynomials v with

    div v = 0           identically, and
    v . grad(chi)       divisible by chi  (exact tangency to {chi = 0})

is computed as the exact rational nullspace of the linear system of
polynomial-identity constraints {div v = 0, v . grad(chi) - chi q = 0} in the
coefficients of v and of an auxiliary multiplier q of degree <= N-1.  The
classical curl construction grad(chi) x grad(psi) is provided as an
independent cross-check of the span, not as the primary construction, since
its completeness is not established.

Orthonormalization is modified Gram-Schmidt (two passes) against the exact
mass Gram; the resulting combination coefficients are re-applied in rational
arithmetic so every stored basis field satisfies both constraints exactly,
not merely to round-off.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import monomials
from .geometry import Domain
from .polynomials import Polynomial3, VectorField

__all__ = [
    "Basis", "build_basis", "curl_form_fields", "stream_cross_field",
    "poincare_field", "solid_rotation", "project", "save_basis", "load_basis", "gram_form",
]

GRAM_IDENTITY_TOL = 1e-12


class Basis:
    """Orthonormal basis of the tangent solenoidal polynomial space."""

    def __init__(self, domain: Domain, degree: int, fields: list[VectorField],
                 coeff_array: np.ndarray, gram: np.ndarray, raw_gram_cond: float):
        self.domain = domain
        self.degree = degree
        self.fields = fields
        # (dim, 3, D_N) float coefficients over the degree-N monomial list
        self.coeff_array = coeff_array
        self.coeff_array.flags.writeable = False
        self.gram = gram
        self.raw_gram_cond = raw_gram_cond
        self.dim = len(fields)
        self._assembly_cache: dict = {}

    def gram_identity_deviation(self) -> float:
        return float(np.max(np.abs(self.gram - np.eye(self.dim))))

    def __repr__(self):
        return (f"Basis(domain={self.domain!r}, degree={self.degree}, dim={self.dim})")


# ---------------------------------------------------------------------------
# special analytic fields

def poincare_field(beta, eps_p) -> VectorField:
    """Steady linear flow of the precessing spheroid x^2 + y^2 + (1+beta) z^2 = 1.

    u = (-y, x - (2 eps/beta)(1+beta) z, (2 eps/beta) y); solenoidal and exactly
    tangent to the spheroid for every beta > -1, beta != 0.
    """
    fb = Fraction(beta)
    fe = Fraction(eps_p)
    if fb == 0:
        raise ValueError("beta must be nonzero (the flow is singular at beta = 0)")
    if fb <= -1:
        raise ValueError("beta must exceed -1")
    k = 2 * fe / fb
    x = Polynomial3.variable(0)
    y = Polynomial3.variable(1)
    z = Polynomial3.variable(2)
    return VectorField((-y, x - z.scale(k * (1 + fb)), y.scale(k)))


def solid_rotation(axis) -> VectorField:
    """Rigid rotation axis x position; identically zero strain rate."""
    ax = [Fraction(a) for a in axis]
    nrm2 = float(sum(a * a for a in ax))
    if abs(nrm2 - 1.0) > 1e-12:
        raise ValueError("axis must be a unit vector")
    x = Polynomial3.variable(0)
    y = Polynomial3.variable(1)
    z = Polynomial3.variable(2)
    return VectorField((
        z.scale(ax[1]) - y.scale(ax[2]),
        x.scale(ax[2]) - z.scale(ax[0]),
        y.scale(ax[0]) - x.scale(ax[1]),
    ))


def stream_cross_field(domain: Domain, psi: Polynomial3) -> VectorField:
    """grad(chi) x grad(psi): solenoidal and tangent by construction."""
    chi = domain.chi
    gc = [chi.diff(a) for a in range(3)]
    gp = [psi.diff(a) for a in range(3)]
    return VectorField((
        gc[1] * gp[2] - gc[2] * gp[1],
        gc[2] * gp[0] - gc[0] * gp[2],
        gc[0] * gp[1] - gc[1] * gp[0],
    ))


def curl_form_fields(domain: Domain, degree: int) -> list[VectorField]:
    """grad(chi) x grad(psi) for every monomial psi with 1 <= deg psi <= degree."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    fields = []
    for e in monomials.exponents(degree)[1:]:
        psi = Polynomial3.monomial(tuple(int(v) for v in e), Fraction(1))
        fields.append(stream_cross_field(domain, psi))
    return fields


# ---------------------------------------------------------------------------
# exact nullspace of the constraint system

def _fraction_nullspace(rows: list[dict], ncols: int) -> list[list[Fraction]]:
    """Nullspace basis of a sparse rational matrix (rows are {col: Fraction})."""
    pivot_rows: dict[int, dict] = {}  # pivot column -> normalized row
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = pivot_rows.get(lead)
            if piv is None:
                inv = 1 / row[lead]
                pivot_rows[lead] = {c: v * inv for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in piv.items():
                s = row.get(c, Fraction(0)) - factor * v
                if s:
                    row[c] = s
                elif c in row:
                    del row[c]
    # back-substitution to reduced echelon form
    for lead in sorted(pivot_rows, reverse=True):
        piv = pivot_rows[lead]
        for other_lead, other in pivot_rows.items():
            if other_lead >= lead or lead not in other:
                continue
            factor = other[lead]
            for c, v in piv.items():
                s = other.get(c, Fraction(0)) - factor * v
                if s:
                    other[c] = s
                elif c in other:
                    del other[c]
    free_cols = [c for c in range(ncols) if c not in pivot_rows]
    vectors = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for lead, piv in pivot_rows.items():
            if f in piv:
                vec[lead] = -piv[f]
        vectors.append(vec)
    return vectors


def _constraint_rows(domain: Domain, degree: int):
    """Rows of {div v = 0; v.grad(chi) - chi q = 0} over (v, q) coefficients."""
    n = degree
    exps_v = monomials.exponents(n).tolist()
    exps_q = monomials.exponents(n - 1).tolist()
    imap_v = monomials.index_map(n)
    imap_q = monomials.index_map(n - 1)
    dim_v = len(exps_v)
    dim_q = len(exps_q)
    q_offset = 3 * dim_v
    inv2 = [1 / domain.a2, 1 / domain.b2, 1 / domain.c2]

    rows = []
    # div v = 0, one identity per monomial of degree <= N-1
    for e in exps_q:
        row = {}
        for axis in range(3):
            src = list(e)
            src[axis] += 1
            idx = imap_v[tuple(src)]
            row[axis * dim_v + idx] = Fraction(src[axis])
        rows.append(row)
    # v.grad(chi) = chi q, one identity per monomial of degree <= N+1
    for g in monomials.exponents(n + 1).tolist():
        row = {}
        for axis in range(3):
            src = list(g)
            src[axis] -= 1
            if src[axis] >= 0 and sum(src) <= n:
                row[axis * dim_v + imap_v[tuple(src)]] = -2 * inv2[axis]
        g_t = tuple(g)
        if sum(g_t) <= n - 1:
            row[q_offset + imap_q[g_t]] = row.get(q_offset + imap_q[g_t], Fraction(0)) - 1
        for axis in range(3):
            src = list(g)
            src[axis] -= 2
            if src[axis] >= 0 and sum(src) <= n - 1:
                col = q_offset + imap_q[tuple(src)]
                row[col] = row.get(col, Fraction(0)) + inv2[axis]
        rows.append(row)
    return rows, dim_v, dim_q


def _fields_from_nullspace(vectors, dim_v: int, degree: int) -> list[VectorField]:
    """Velocity fields of nullspace vectors laid out as (v_x, v_y, v_z, q) coefficients.

    No field comes out zero: v = 0 forces chi q = 0, hence q = 0.
    """
    exps = [tuple(e) for e in monomials.exponents(degree).tolist()]
    fields = []
    for vec in vectors:
        comps = (Polynomial3(dict(zip(exps, vec[a * dim_v:(a + 1) * dim_v]))) for a in range(3))
        fields.append(VectorField(tuple(comps)))
    return fields


def _raw_fields_exact(domain: Domain, degree: int) -> list[VectorField]:
    rows, dim_v, dim_q = _constraint_rows(domain, degree)
    return _fields_from_nullspace(_fraction_nullspace(rows, 3 * dim_v + dim_q), dim_v, degree)


def _raw_fields_svd(domain: Domain, degree: int, rank_rtol: float = 1e-10) -> list[VectorField]:
    """Float fallback for large N: pivoted nullspace with relative rank cutoff."""
    rows, dim_v, dim_q = _constraint_rows(domain, degree)
    ncols = 3 * dim_v + dim_q
    mat = np.zeros((len(rows), ncols))
    for i, row in enumerate(rows):
        for c, v in row.items():
            mat[i, c] = float(v)
    u, s, vt = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > rank_rtol * s[0])) if s.size else 0
    return _fields_from_nullspace(vt[rank:], dim_v, degree)


# ---------------------------------------------------------------------------
# orthonormalization

def _orthonormal_coefficients(g_raw: np.ndarray) -> np.ndarray:
    """Q with Q G Q^T = I via modified Gram-Schmidt with reorthogonalization."""
    n = g_raw.shape[0]
    scale = 1.0 / np.sqrt(np.diag(g_raw))
    q = np.diag(scale)
    for k in range(n):
        v = q[k].copy()
        for _ in range(2):
            for j in range(k):
                v -= (v @ g_raw @ q[j]) * q[j]
        nrm2 = float(v @ g_raw @ v)
        if not nrm2 > 0.0 or nrm2 < 1e-24:
            raise RuntimeError(
                f"non-positive pivot at field {k}: nullspace fields are numerically dependent")
        q[k] = v / math.sqrt(nrm2)
    return q


def build_basis(domain: Domain, degree: int, method: str = "exact") -> Basis:
    """Construct the orthonormal tangent solenoidal basis of total degree <= N.

    method='exact' solves the constraint nullspace in rational arithmetic (the
    default; rank decisions are exact, and the nullspace takes 0.1-0.2 s at
    N = 8-10).  method='svd' takes the nullspace from a float SVD instead: a
    fallback that needs no rational arithmetic, and an independent
    cross-check of the exact construction.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if method == "exact":
        raw = _raw_fields_exact(domain, degree)
    elif method == "svd":
        raw = _raw_fields_svd(domain, degree)
    else:
        raise ValueError(f"unknown method {method!r}")

    j_nn = monomials.gram(domain, degree, degree)
    raw_arr, g_raw = _coeff_gram(raw, degree, j_nn)
    g_raw = 0.5 * (g_raw + g_raw.T)
    raw_cond = float(np.linalg.cond(g_raw))

    def orthonormalize(q):
        if method == "exact":
            fields = _combine_exact(raw, q)
        else:
            arr = np.einsum("ik,kcm->icm", q, raw_arr)
            fields = [monomials.array_to_field(arr[i], degree) for i in range(arr.shape[0])]
        coeff, gram = _coeff_gram(fields, degree, j_nn)
        return fields, coeff, gram, float(np.max(np.abs(gram - np.eye(len(fields)))))

    q = _orthonormal_coefficients(g_raw)
    fields, coeff, gram, dev = orthonormalize(q)
    if dev > 1e-13:
        # one symmetric polish pass fixes residual loss of orthogonality
        correction = np.linalg.inv(np.linalg.cholesky(0.5 * (gram + gram.T)))
        fields, coeff, gram, dev = orthonormalize(correction @ q)
    if dev > GRAM_IDENTITY_TOL:
        raise RuntimeError(f"orthonormalization failed: gram deviates from identity by {dev:.3e}")

    basis = Basis(domain, degree, fields, coeff, gram, raw_cond)
    if method == "exact":
        _check_exact_invariants(basis)
    return basis


def gram_form(a: np.ndarray, j: np.ndarray, b: np.ndarray) -> np.ndarray:
    """G[i, k] = sum_c a[i, c] . J . b[k, c]: every bilinear form over coefficient arrays.

    a is (rows, C, D_a), j is (D_a, D_b) and b is (cols, C, D_b); a field's
    Gram, a one-row projection and each stiffness form (C = 9 tensor
    components) all take this one summation path.
    """
    return np.einsum("icm,mn,jcn->ij", a, j, b, optimize=True)


def _coeff_gram(fields: list[VectorField], degree: int, j_nn: np.ndarray):
    """(dim, 3, D_N) float coefficients of the fields and their mass Gram."""
    coeff = np.stack([monomials.field_to_array(f.to_float(), degree) for f in fields])
    return coeff, gram_form(coeff, j_nn, coeff)


def _combine_exact(raw: list[VectorField], q: np.ndarray) -> list[VectorField]:
    """Apply float combination coefficients in rational arithmetic.

    Keeps div v = 0 and chi | v.grad(chi) as exact polynomial identities for
    the orthonormalized fields (floats are exact rationals).
    """
    fields = []
    for i in range(q.shape[0]):
        comps = [dict(), dict(), dict()]
        for k in range(q.shape[1]):
            if q[i, k] == 0.0:
                continue
            s = Fraction(q[i, k])
            for c in range(3):
                for exp, coef in raw[k].components[c].coeffs.items():
                    acc = comps[c].get(exp, Fraction(0)) + s * coef
                    if acc:
                        comps[c][exp] = acc
                    elif exp in comps[c]:
                        del comps[c][exp]
        fields.append(VectorField(tuple(Polynomial3(c) for c in comps)))
    return fields


def _check_exact_invariants(basis: Basis) -> None:
    chi = basis.domain.chi
    for i, f in enumerate(basis.fields):
        if not f.divergence().is_zero():
            raise RuntimeError(f"basis field {i} is not exactly divergence free")
        if not f.tangency_remainder(chi).is_zero():
            raise RuntimeError(f"basis field {i} is not exactly tangent to the boundary")


# ---------------------------------------------------------------------------
# projection and the portable text format

def project(v: VectorField, basis: Basis):
    """L2-orthogonal projection onto the basis span.

    Returns (coefficients, residual) with residual = || v - sum c_i b_i ||_L2,
    measured on the explicitly formed residual field so that exact members
    come back at round-off level rather than at the sqrt(eps) cancellation
    floor of the normal-equation identity.
    """
    deg = max(v.degree, 0)
    arr = monomials.field_to_array(v.to_float(), deg)
    j_vb = monomials.gram(basis.domain, deg, basis.degree)
    rhs = gram_form(arr[None], j_vb, basis.coeff_array)[0]
    coeffs = np.linalg.solve(basis.gram, rhs)
    top = max(deg, basis.degree)
    dim_top = monomials.space_dim(top)
    res_arr = np.zeros((3, dim_top))
    res_arr[:, :arr.shape[1]] = arr
    recon = np.einsum("i,icm->cm", coeffs, basis.coeff_array)
    res_arr[:, :recon.shape[1]] -= recon
    j_tt = monomials.gram(basis.domain, top, top)
    res2 = float(gram_form(res_arr[None], j_tt, res_arr[None])[0, 0])
    return coeffs, math.sqrt(max(res2, 0.0))


def save_basis(basis: Basis, path) -> None:
    """Portable text export: one line per field, exponent/coefficient pairs."""
    with open(path, "w", newline="\n") as fh:
        fh.write("# precessflow basis v1\n")
        if basis.domain.axes_exact is not None:
            fa, fb, fc = basis.domain.axes_exact
            fh.write(f"# axes {fa} {fb} {fc}\n")
        else:
            fh.write(f"# beta {basis.domain.beta}\n")
        fh.write(f"# degree {basis.degree} dim {basis.dim}\n")
        for f in basis.fields:
            groups = []
            for comp in f.components:
                if comp.is_zero():
                    groups.append("-")
                    continue
                items = sorted(comp.coeffs.items())
                groups.append(" ".join(
                    f"{i},{j},{k}:{float(c):.17g}" for (i, j, k), c in items))
            fh.write(" ; ".join(groups) + "\n")


def load_basis(path) -> Basis:
    """Read a basis export; fields come back with float coefficients."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith("# precessflow basis"):
        raise ValueError("not a basis export file")
    domain = None
    degree = None
    dim = None
    fields = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            parts = ln[1:].split()
            if parts[0] == "axes":
                domain = Domain(*(Fraction(p) for p in parts[1:4]))
            elif parts[0] == "beta":
                domain = Domain.from_beta(Fraction(parts[1]))
            elif parts[0] == "degree":
                degree = int(parts[1])
                dim = int(parts[3])
            continue
        if not ln.strip():
            continue
        comps = []
        for group in ln.split(";"):
            group = group.strip()
            coeffs = {}
            if group != "-":
                for tok in group.split():
                    exppart, val = tok.split(":")
                    i, j, k = (int(t) for t in exppart.split(","))
                    coeffs[(i, j, k)] = float(val)
            comps.append(Polynomial3(coeffs))
        fields.append(VectorField(tuple(comps)))
    if domain is None or degree is None:
        raise ValueError("basis export is missing its header")
    if dim is not None and dim != len(fields):
        raise ValueError(f"basis export announces dim {dim} but carries {len(fields)} fields")
    coeff, gram = _coeff_gram(fields, degree, monomials.gram(domain, degree, degree))
    return Basis(domain, degree, fields, coeff, gram, float("nan"))
