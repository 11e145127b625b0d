"""Indexing of trivariate monomials and precomputed integral tables.

Everything downstream of the basis (mass/stiffness/advection assembly,
projections, surface evaluation) works on flat coefficient vectors over the
graded monomial list of a fixed maximal degree.  This module owns that
indexing plus cached tables of exact monomial integrals per domain.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import Domain, half_monomial_integral, monomial_integral
from .polynomials import Polynomial3, VectorField


@lru_cache(maxsize=None)
def exponents(max_degree: int) -> np.ndarray:
    """(D, 3) int array of exponent triples with total degree <= max_degree.

    Graded order (total degree, then lexicographic); index 0 is the constant.
    """
    exps = [(i, j, k)
            for d in range(max_degree + 1)
            for i in range(d, -1, -1)
            for j in range(d - i, -1, -1)
            for k in (d - i - j,)]
    arr = np.array(exps, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def index_map(max_degree: int) -> dict:
    return {tuple(e): i for i, e in enumerate(exponents(max_degree).tolist())}


def space_dim(max_degree: int) -> int:
    return len(exponents(max_degree))


def _encode(exps: np.ndarray, span: int) -> np.ndarray:
    """Flat table index of each exponent triple; linear, so a product's code is a sum of codes."""
    return (exps[..., 0] * span + exps[..., 1]) * span + exps[..., 2]


@lru_cache(maxsize=None)
def _integral_flat(domain: Domain, max_degree: int, hemisphere: str | None) -> np.ndarray:
    span = max_degree + 1
    flat = np.zeros(span**3)
    for i in range(span):
        for j in range(span - i):
            for k in range(span - i - j):
                if hemisphere is None:
                    v = monomial_integral(i, j, k, domain)
                else:
                    v = half_monomial_integral(i, j, k, domain, hemisphere)
                flat[(i * span + j) * span + k] = v
    flat.flags.writeable = False
    return flat


def gram(domain: Domain, d1: int, d2: int, hemisphere: str | None = None) -> np.ndarray:
    """J[m1, m2] = integral of monomial_m1 * monomial_m2."""
    total = d1 + d2
    flat = _integral_flat(domain, total, hemisphere)
    c1, c2 = (_encode(exponents(d), total + 1) for d in (d1, d2))
    return flat[c1[:, None] + c2[None, :]]


def triple_product_table(domain: Domain, d1: int, d2: int, d3: int) -> np.ndarray:
    """G[m1, m2, m3] = integral of the product of three monomials."""
    total = d1 + d2 + d3
    flat = _integral_flat(domain, total, None)
    c1, c2, c3 = (_encode(exponents(d), total + 1) for d in (d1, d2, d3))
    return flat[c1[:, None, None] + c2[None, :, None] + c3[None, None, :]]


@lru_cache(maxsize=None)
def derivative_arrays(degree: int, axis: int):
    """(src, dst, mult) index arrays realizing d/dx_axis : P_degree -> P_(degree-1)."""
    exps = exponents(degree)
    lower = index_map(degree - 1)
    src, dst, mult = [], [], []
    for idx, e in enumerate(exps):
        if e[axis] > 0:
            t = list(e)
            t[axis] -= 1
            src.append(idx)
            dst.append(lower[tuple(t)])
            mult.append(float(e[axis]))
    return np.array(src), np.array(dst), np.array(mult)


def apply_derivative(coeffs: np.ndarray, degree: int, axis: int) -> np.ndarray:
    """Differentiate coefficient vectors (..., D_degree) -> (..., D_(degree-1))."""
    src, dst, mult = derivative_arrays(degree, axis)
    out = np.zeros(coeffs.shape[:-1] + (space_dim(degree - 1),))
    out[..., dst] = coeffs[..., src] * mult
    return out


@lru_cache(maxsize=None)
def shift_arrays(degree: int, axis: int):
    """Index arrays realizing multiplication by x_axis : P_degree -> P_(degree+1)."""
    exps = exponents(degree)
    upper = index_map(degree + 1)
    dst = []
    for e in exps:
        t = list(e)
        t[axis] += 1
        dst.append(upper[tuple(t)])
    return np.array(dst)


def poly_to_vec(poly: Polynomial3, degree: int) -> np.ndarray:
    imap = index_map(degree)
    vec = np.zeros(space_dim(degree))
    for e, c in poly.coeffs.items():
        if tuple(e) not in imap:
            raise ValueError(f"monomial {e} exceeds degree {degree}")
        vec[imap[tuple(e)]] = float(c)
    return vec


def vec_to_poly(vec: np.ndarray, degree: int) -> Polynomial3:
    exps = exponents(degree).tolist()
    return Polynomial3({tuple(e): float(c) for e, c in zip(exps, vec) if abs(c) > 0.0})


def field_to_array(field: VectorField, degree: int) -> np.ndarray:
    return np.stack([poly_to_vec(c, degree) for c in field.components])


def array_to_field(arr: np.ndarray, degree: int) -> VectorField:
    return VectorField(tuple(vec_to_poly(arr[c], degree) for c in range(3)))


def vandermonde(points: np.ndarray, degree: int) -> np.ndarray:
    """V[n, m] = monomial_m evaluated at point n."""
    pts = np.asarray(points, dtype=float)
    powers = [np.ones((pts.shape[0], degree + 1)) for _ in range(3)]
    for axis in range(3):
        for d in range(1, degree + 1):
            powers[axis][:, d] = powers[axis][:, d - 1] * pts[:, axis]
    exps = exponents(degree)
    return powers[0][:, exps[:, 0]] * powers[1][:, exps[:, 1]] * powers[2][:, exps[:, 2]]
