"""Exact trivariate polynomial arithmetic and polynomial vector fields.

Coefficients may be ``fractions.Fraction`` (exact, preferred for anything
feeding a rank decision or a symbolic identity check) or ``float`` (used for
orthonormalized bases and imported artifacts).  All operations are plain
dictionary manipulation on exponent triples, so exactness is whatever the
coefficient type provides.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

Exponent = tuple[int, int, int]

_ZERO_EXP: Exponent = (0, 0, 0)


def _is_exact(value) -> bool:
    return isinstance(value, (Fraction, int))


class Polynomial3:
    """A polynomial in (x, y, z) stored as {exponent triple: coefficient}.

    Zero coefficients are never stored, so ``not p.coeffs`` means p == 0 and
    symbolic identities can be asserted by checking emptiness.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c:
                    cleaned[tuple(exp)] = c
        self.coeffs = cleaned

    @classmethod
    def zero(cls) -> "Polynomial3":
        return cls()

    @classmethod
    def constant(cls, c) -> "Polynomial3":
        return cls({_ZERO_EXP: c})

    @classmethod
    def monomial(cls, exponent: Exponent, c=1) -> "Polynomial3":
        return cls({tuple(exponent): c})

    @classmethod
    def variable(cls, axis: int) -> "Polynomial3":
        e = [0, 0, 0]
        e[axis] = 1
        return cls({tuple(e): Fraction(1)})

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(i + j + k for (i, j, k) in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.coeffs.values())

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(float(c)) for c in self.coeffs.values())

    def __add__(self, other: "Polynomial3") -> "Polynomial3":
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return Polynomial3(out)

    def __sub__(self, other: "Polynomial3") -> "Polynomial3":
        return self + (-other)

    def __neg__(self) -> "Polynomial3":
        return Polynomial3({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial3):
            out: dict[Exponent, object] = {}
            for (i1, j1, k1), c1 in self.coeffs.items():
                for (i2, j2, k2), c2 in other.coeffs.items():
                    exp = (i1 + i2, j1 + j2, k1 + k2)
                    s = out.get(exp, 0) + c1 * c2
                    if s:
                        out[exp] = s
                    elif exp in out:
                        del out[exp]
            return Polynomial3(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "Polynomial3":
        if not s:
            return Polynomial3()
        return Polynomial3({e: c * s for e, c in self.coeffs.items()})

    def diff(self, axis: int) -> "Polynomial3":
        out = {}
        for exp, c in self.coeffs.items():
            n = exp[axis]
            if n:
                e = list(exp)
                e[axis] = n - 1
                out[tuple(e)] = c * n
        return Polynomial3(out)

    def evaluate(self, x, y, z):
        """Evaluate at scalars or (broadcastable) numpy arrays."""
        if not self.coeffs:
            shape = np.broadcast(x, y, z).shape
            return np.zeros(shape) if shape else 0.0
        total = 0.0
        for (i, j, k), c in self.coeffs.items():
            total = total + float(c) * (x**i) * (y**j) * (z**k)
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial3) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial3(0)"
        parts = []
        for exp in sorted(self.coeffs, key=lambda e: (sum(e), e), reverse=True):
            parts.append(f"{self.coeffs[exp]}*x^{exp[0]}y^{exp[1]}z^{exp[2]}")
        return "Polynomial3(" + " + ".join(parts) + ")"


def remainder_mod(poly: Polynomial3, divisor: Polynomial3) -> Polynomial3:
    """Remainder of ``poly`` under multivariate division by ``divisor``.

    The divisor's leading term is taken in lexicographic order x > y > z.  A
    single divisor is always a Groebner basis of the ideal it generates, so
    the remainder vanishes exactly when ``divisor`` divides ``poly``.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead = max(divisor.coeffs, key=lambda e: e)
    lead_c = divisor.coeffs[lead]
    rest = Polynomial3({e: c for e, c in divisor.coeffs.items() if e != lead})
    work = Polynomial3(dict(poly.coeffs))
    remainder: dict[Exponent, object] = {}
    while work.coeffs:
        exp = max(work.coeffs, key=lambda e: e)
        c = work.coeffs[exp]
        if all(exp[i] >= lead[i] for i in range(3)):
            q_exp = (exp[0] - lead[0], exp[1] - lead[1], exp[2] - lead[2])
            factor = Polynomial3.monomial(q_exp, c / lead_c)
            # remove the reduced term outright so float round-off cannot
            # resurrect it and stall the loop
            del work.coeffs[exp]
            work = work - factor * rest
        else:
            remainder[exp] = c
            del work.coeffs[exp]
    return Polynomial3(remainder)


class VectorField:
    """A triple of polynomials (u_x, u_y, u_z)."""

    __slots__ = ("components",)

    def __init__(self, components):
        cx, cy, cz = components
        self.components = (cx, cy, cz)

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.components)

    def is_exact(self) -> bool:
        return all(c.is_exact() for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, s) -> "VectorField":
        return VectorField(tuple(c.scale(s) for c in self.components))

    def divergence(self) -> Polynomial3:
        return sum((self.components[a].diff(a) for a in range(3)), Polynomial3())

    def gradient(self):
        """grad[a][c] = d(u_c)/d(x_a)."""
        return [[self.components[c].diff(a) for c in range(3)] for a in range(3)]

    def strain(self):
        """Symmetric part of the velocity gradient, as a 3x3 of polynomials."""
        g = self.gradient()
        half = Fraction(1, 2) if self.is_exact() else 0.5
        return [[(g[a][b] + g[b][a]).scale(half) for b in range(3)] for a in range(3)]

    def dot(self, other: "VectorField") -> Polynomial3:
        return sum((a * b for a, b in zip(self.components, other.components)), Polynomial3())

    def dot_grad_scalar(self, p: Polynomial3) -> Polynomial3:
        """v . grad(p)."""
        return sum((self.components[a] * p.diff(a) for a in range(3)), Polynomial3())

    def cross_const(self, w) -> "VectorField":
        """Constant vector w crossed with this field: w x u."""
        ux, uy, uz = self.components
        w0, w1, w2 = w
        return VectorField((
            uz.scale(w1) - uy.scale(w2),
            ux.scale(w2) - uz.scale(w0),
            uy.scale(w0) - ux.scale(w1),
        ))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, 3) array of points; returns (n, 3)."""
        pts = np.asarray(points, dtype=float)
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        out = np.empty(pts.shape, dtype=float)
        for c in range(3):
            val = self.components[c].evaluate(x, y, z)
            out[..., c] = val
        return out

    def tangency_remainder(self, chi: Polynomial3) -> Polynomial3:
        """Remainder of (u . grad chi) mod chi; zero iff u is tangent to {chi=0}."""
        return remainder_mod(self.dot_grad_scalar(chi), chi)

    def __repr__(self) -> str:
        return f"VectorField({self.components!r})"
