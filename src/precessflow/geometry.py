"""Ellipsoidal container geometry: exact volume integrals and the quadrature rules.

Volume integrals of monomials over the ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 < 1
have a closed form in half-integer Gamma functions: pi times a rational times
powers of the axes, formed as one unreduced pair of Python ints and divided
once, which rounds correctly.  They serve the odd-in-z part of the hemispheric
Grams, the one form that is not even in x, y and z, and exact references.  Every other form of the basis
fields (see basis) has an integrand even in x, y and z, which the
octant rule integrates exactly from the nodes with x, y, z > 0 alone, weights
times 8: a Gauss product rule for the ball (Stroud, Approximate Calculation
of Multiple Integrals, 1971).  Surface integrals have no elementary closed
form on a general ellipsoid and are done by tensorized Gauss-Legendre /
trapezoid quadrature on the polar parametrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polynomials import Polynomial3

_KIND_TOL = 1e-12  # relative tolerance deciding axis equality


def _to_fraction(x) -> Fraction:
    if isinstance(x, (Fraction, int, str, float)):
        return Fraction(x)  # a float at the exact value of its binary form
    raise TypeError(f"cannot interpret {x!r} as an exact axis length")


def _sqrt_fraction(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if f < 0:
        raise ValueError("negative radicand")
    pn = math.isqrt(f.numerator)
    pd = math.isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def _finite_nonzero_double(x: Fraction) -> bool:
    try:
        return 0.0 < abs(float(x)) < math.inf
    except OverflowError:
        return False


def _close(u: float, v: float) -> bool:
    return abs(u - v) <= _KIND_TOL * max(abs(u), abs(v))


class Domain:
    """Ellipsoid with semi-axes a, b, c > 0.

    Axes given as str/int/Fraction are kept exact; floats are interpreted as
    their exact binary rational values.  ``kind`` classifies the symmetry:
    sphere (a=b=c), spheroid_z (a=b != c), triaxial otherwise, with relative
    tolerance 1e-12 on the comparisons.  Immutable and hashable.
    """

    __slots__ = ("a", "b", "c", "a2", "b2", "c2", "axes_exact", "kind", "_chi")

    def __init__(self, a, b, c):
        fa, fb, fc = _to_fraction(a), _to_fraction(b), _to_fraction(c)
        if fa <= 0 or fb <= 0 or fc <= 0:
            raise ValueError("semi-axes must be positive")
        self._set_slots((fa * fa, fb * fb, fc * fc), (fa, fb, fc))

    def _set_slots(self, squares, axes_exact) -> None:
        """Exact squared axes and the exact axes (None when irrational); sets the float axes.

        Every axis, its square and its reciprocal square must be finite nonzero
        doubles; the square and its reciprocal being so makes the axis so too.
        """
        for name, square in zip("abc", squares):
            if not (_finite_nonzero_double(square) and _finite_nonzero_double(1 / square)):
                raise ValueError(f"semi-axis {name} is out of the double range: {name}, {name}^2 "
                                 f"and 1/{name}^2 must be finite nonzero doubles")
        axes = ([float(x) for x in axes_exact] if axes_exact is not None
                else [math.sqrt(float(s)) for s in squares])
        for name, value in zip(("a", "b", "c", "a2", "b2", "c2", "axes_exact"),
                               (*axes, *squares, axes_exact)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "kind", self._classify())
        object.__setattr__(self, "_chi", None)

    @classmethod
    def from_beta(cls, beta) -> "Domain":
        """Spheroid x^2 + y^2 + (1+beta) z^2 = 1, i.e. a = b = 1, c = (1+beta)^(-1/2)."""
        fb = _to_fraction(beta)
        if fb <= -1:
            raise ValueError("beta must exceed -1")
        c2 = 1 / (1 + fb)
        c = _sqrt_fraction(c2)
        if c is not None:
            return cls(1, 1, c)
        dom = cls.__new__(cls)
        dom._set_slots((Fraction(1), Fraction(1), c2), None)
        return dom

    def _classify(self) -> str:
        ab = _close(self.a, self.b)
        if ab and _close(self.b, self.c) and _close(self.a, self.c):
            return "sphere"
        if ab:
            return "spheroid_z"
        return "triaxial"

    @property
    def beta(self) -> Fraction:
        """beta with respect to the z axis: 1/c^2 - 1 (exact)."""
        return 1 / self.c2 - 1

    @property
    def chi(self) -> Polynomial3:
        """chi(x,y,z) = 1 - x^2/a^2 - y^2/b^2 - z^2/c^2 (exact coefficients)."""
        if self._chi is None:
            poly = Polynomial3({
                (0, 0, 0): Fraction(1),
                (2, 0, 0): -1 / self.a2,
                (0, 2, 0): -1 / self.b2,
                (0, 0, 2): -1 / self.c2,
            })
            object.__setattr__(self, "_chi", poly)
        return self._chi

    def __setattr__(self, name, value):
        raise AttributeError("Domain is immutable")

    def __eq__(self, other):
        return isinstance(other, Domain) and (self.a2, self.b2, self.c2) == (other.a2, other.b2, other.c2)

    def __hash__(self):
        return hash((self.a2, self.b2, self.c2))

    def __repr__(self):
        return f"Domain(a={self.a!r}, b={self.b!r}, c={self.c!r}, kind={self.kind!r})"


def _times_axes(num: int, den: int, powers, domain: Domain) -> float:
    """pi (num / den) a^P b^Q c^R for powers (P, Q, R), with one division of Python ints.

    With exact axes the whole rational is one unreduced pair of ints.  With an
    irrational axis the squares carry the even part of each power and the
    float axes, multiplied in after the division in the order a, b, c, the odd
    part.  A division of ints is correctly rounded, as Fraction.__float__ is,
    so the value is float(Fraction(num, den) * ...) to the last bit.
    """
    if domain.axes_exact is not None:
        for axis, power in zip(domain.axes_exact, powers):
            num *= axis.numerator ** power
            den *= axis.denominator ** power
        return num / den * math.pi
    odd = []
    for square, axis, power in zip((domain.a2, domain.b2, domain.c2),
                                   (domain.a, domain.b, domain.c), powers):
        num *= square.numerator ** (power // 2)
        den *= square.denominator ** (power // 2)
        if power % 2:
            odd.append(axis)
    value = num / den
    for axis in odd:
        value *= axis
    return value * math.pi


def monomial_integral(p: int, q: int, r: int, domain: Domain) -> float:
    """Exact integral of x^p y^q z^r over the ellipsoid volume.

    Zero when any exponent is odd; otherwise
    a^(p+1) b^(q+1) c^(r+1) * Gamma((p+1)/2) Gamma((q+1)/2) Gamma((r+1)/2)
    / Gamma((p+q+r+3)/2 + 1), which is pi a^(p+1) b^(q+1) c^(r+1) times
    the rational 16 p! q! r! k! / ((p/2)! (q/2)! (r/2)! (2k)!), k = (p+q+r)/2 + 2.
    That rational is formed as an unreduced pair of Python ints and divided
    once (_times_axes), correctly rounded (validated against a Monte Carlo
    oracle and, bit for bit, against the Fraction formula in the test suite).
    """
    if min(p, q, r) < 0:
        raise ValueError("exponents must be nonnegative")
    if (p | q | r) & 1:
        return 0.0
    f = math.factorial
    k = (p + q + r) // 2 + 2
    return _times_axes(16 * f(p) * f(q) * f(r) * f(k), f(p // 2) * f(q // 2) * f(r // 2) * f(2 * k),
                       (p + 1, q + 1, r + 1), domain)


def half_monomial_integral(p: int, q: int, r: int, domain: Domain, hemisphere: str) -> float:
    """Integral of x^p y^q z^r over the half-ellipsoid z > 0 (north) or z < 0 (south).

    Half the full integral for even r.  For odd r, from the hemisphere surface
    moment formula integrated radially, the north integral is
    pi a^(p+1) b^(q+1) c^(r+1) times p! q! (n-1)! / (2^(p+q+1) (p/2)! (q/2)!
    (p/2 + q/2 + n + 1)!), n = (r+1)/2, formed and divided as monomial_integral's.
    """
    if hemisphere not in ("north", "south"):
        raise ValueError("hemisphere must be 'north' or 'south'")
    if min(p, q, r) < 0:
        raise ValueError("exponents must be nonnegative")
    if (p & 1) or (q & 1):
        return 0.0
    if r % 2 == 0:
        return 0.5 * monomial_integral(p, q, r, domain)
    f = math.factorial
    n = (r + 1) // 2
    value = _times_axes(f(p) * f(q) * f(n - 1),
                        f(p // 2) * f(q // 2) * f((p + q) // 2 + n + 1) << (p + q + 1),
                        (p + 1, q + 1, r + 1), domain)
    return value if hemisphere == "north" else -value


@dataclass(frozen=True)
class SurfaceRule:
    """Quadrature nodes/weights on the ellipsoid boundary.

    Weights carry the exact area element of the parametrization
    (a sin t cos s, b sin t sin s, c cos t), so sum(w * f(points)) approximates
    the surface integral of f with spectral accuracy in the order.
    """

    points: np.ndarray
    weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def surface_rule(domain: Domain, n: int) -> SurfaceRule:
    """Quadrature rule of order n on the boundary: n Gauss-Legendre polar angles x 2n
    uniform azimuths, so that both directions resolve the same angular degree."""
    if n < 2:
        raise ValueError("surface rule order n must be at least 2")
    n_theta, n_phi = n, 2 * n
    t_nodes, t_weights = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * math.pi * (t_nodes + 1.0)
    w_theta = 0.5 * math.pi * t_weights
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 2.0 * math.pi / n_phi)

    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    a, b, c = domain.a, domain.b, domain.c

    x = a * np.outer(st, cp)
    y = b * np.outer(st, sp)
    z = c * np.outer(ct, np.ones(n_phi))
    # |d_theta X x d_phi X| = sin t * sqrt(b^2 c^2 sin^2 t cos^2 s
    #                                      + a^2 c^2 sin^2 t sin^2 s + a^2 b^2 cos^2 t)
    area = np.outer(st, np.ones(n_phi)) * np.sqrt(
        (b * c) ** 2 * np.outer(st**2, cp**2)
        + (a * c) ** 2 * np.outer(st**2, sp**2)
        + (a * b) ** 2 * np.outer(ct**2, np.ones(n_phi))
    )
    weights = np.outer(w_theta, w_phi) * area
    points = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    return SurfaceRule(points=points, weights=weights.ravel())


@lru_cache(maxsize=None)
def octant_rule(domain: Domain, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (points (n, 3), weights (n,)) on x, y, z > 0 that integrate over the
    ellipsoid every polynomial of degree <= degree even in x, y, z; n = (degree // 4 + 1)^3.

    An even polynomial of degree 2m has degree <= m in s = r^2, v = cos^2 t and cos 2p.
    The q = degree // 4 + 1 nodes r > 0 of the (2q + 1)-point Gauss-Legendre rule (weight
    w r^2) and cos t > 0 of the 2q-point one are the Gauss-Jacobi rules in s and v, and
    p at the midpoints of q steps on (0, pi/2) is Gauss-Chebyshev in 2p: each is exact to
    degree m.
    """
    q = degree // 4 + 1
    r, w_r = np.polynomial.legendre.leggauss(2 * q + 1)
    ct, w_t = np.polynomial.legendre.leggauss(2 * q)
    r, w_r, ct, w_t = r[q + 1:, None, None], w_r[q + 1:] * r[q + 1:] ** 2, ct[q:, None], w_t[q:]
    st, p = np.sqrt((1.0 - ct) * (1.0 + ct)), 0.5 * math.pi * (np.arange(q) + 0.5) / q
    points = np.stack([(domain.a * r * st * np.cos(p)).ravel(),
                       (domain.b * r * st * np.sin(p)).ravel(),
                       (domain.c * r * ct * np.ones(q)).ravel()], axis=1)
    # 8 octants, a b c from the map, pi / (2 q) per p
    weights = (8.0 * domain.a * domain.b * domain.c * 0.5 * math.pi / q
               * np.repeat(np.outer(w_r, w_t).ravel(), q))
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def volume_integral(poly: Polynomial3, domain: Domain) -> float:
    """Exact integral of a polynomial over the ellipsoid (term by term)."""
    return sum(float(c) * monomial_integral(*e, domain) for e, c in poly.coeffs.items())
