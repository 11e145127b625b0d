"""Exact-rational referees: the constraint nullspace in Fraction arithmetic, the Fraction
fields of an exact basis, sampled entries of M, A_sym, C_x and T, and of mom and F_bc,
the dense integer kernels of the exact build and the Fraction monomial integrals.

The nullspace referee is a textbook Gauss-Jordan elimination over Fractions,
one new object and one gcd per operation, with the reduced echelon form read
off as one vector per free column: the reference that the build's
fraction-free integer elimination must reproduce exactly.

The field referee turns integer rows into Fraction polynomial fields, on
which Polynomial3 arithmetic proves div v = 0 and tangency independently of
the integer maps that the build's exact_row_failures runs.

The dense kernels are the integer-row combination and the row proof as
products of whole object arrays, zeros included (dense_combine_rows,
dense_row_failures): the oracles the build's nonzero-only kernels must match
entry for entry and first failing row for first failing row.  The integral
oracles evaluate the closed forms of geometry.monomial_integral and
half_monomial_integral in Fraction arithmetic with one float conversion.

Every float coefficient of a basis is a binary rational m 2^-e, so field i is
an integer coefficient array over one power of two.  Every monomial integral
over an ellipsoid with rational semi-axes is pi times a rational
(ball_monomial_fraction), so the integrals up to the degree of T
are one integer table over a common denominator.  An entry is then an exact
integer sum over the monomials its fields use, divided once and times pi:
the value of the operator for the fields the basis really holds, free of the
summation error of any float assembly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from precessflow import monomials
from precessflow.basis import _constraint_rows, _shift_index, solid_rotation
from precessflow.polynomials import Polynomial3, VectorField


def fraction_nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Nullspace basis of a sparse rational matrix; rows {col: number}, vectors {col: Fraction}."""
    pivot_rows: dict[int, dict] = {}  # pivot column -> normalized row
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
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
        vec = {f: Fraction(1)}
        for lead, piv in pivot_rows.items():
            if f in piv:
                vec[lead] = -piv[f]
        vectors.append(vec)
    return vectors


def vectors_to_rows(vectors: list[dict], ncols: int):
    """(nums, dens) of Fraction vectors: object arrays of ints, dens[i] the lcm of the
    denominators of vector i and nums[i] its entries over dens[i]."""
    nums = np.zeros((len(vectors), ncols), dtype=object)
    dens = np.ones(len(vectors), dtype=object)
    for i, vec in enumerate(vectors):
        den = math.lcm(*(v.denominator for v in vec.values()))
        for c, v in vec.items():
            nums[i, c] = v.numerator * (den // v.denominator)
        dens[i] = den
    return nums, dens


def exact_nullspace(domain, degree):
    """The constraint nullspace of a degree-N basis on domain as Fraction vectors."""
    rows, dim_v, dim_q, _ = _constraint_rows(domain, degree)
    return fraction_nullspace(rows, 3 * dim_v + dim_q), dim_v, dim_q


def fields_from_vectors(vectors, dim_v: int, degree: int) -> list[VectorField]:
    """Velocity fields of nullspace vectors laid out as (v_x, v_y, v_z, q) coefficients.

    No field comes out zero: v = 0 forces chi q = 0, hence q = 0.
    """
    exps = [tuple(e) for e in monomials.exponents(degree).tolist()]
    fields = []
    for vec in vectors:
        comps = (Polynomial3(dict(zip(exps, vec[a * dim_v:(a + 1) * dim_v]))) for a in range(3))
        fields.append(VectorField(tuple(comps)))
    return fields


def exact_fields(basis) -> list[VectorField]:
    """The fields of an exact basis's integer rows, one Fraction per nonzero coefficient."""
    nums, dens = basis.rows
    dim_v = monomials.space_dim(basis.degree)
    vectors = [[Fraction(c, den) if c else 0 for c in row[:3 * dim_v]]
               for row, den in zip(nums.tolist(), dens.tolist())]
    return fields_from_vectors(vectors, dim_v, basis.degree)


def _integer_rows(coeff: np.ndarray):
    """Integer arrays and one power-of-two denominator per field of a float array."""
    ints = np.zeros(coeff.shape, dtype=object)
    dens = []
    for i, field in enumerate(coeff):
        ratios = [x.as_integer_ratio() for x in field.ravel().tolist()]
        den = max(d for _, d in ratios)
        ints[i] = np.array([m * (den // d) for m, d in ratios], dtype=object).reshape(field.shape)
        dens.append(den)
    return ints, dens


def dense_combine_rows(nums, dens, members: dict, q):
    """The exact rows of q @ (nums / dens), q block diagonal by class, as dense products.

    Per class block, the rows are brought over L, the lcm of their
    denominators, and row i of q over 2^E_i, the largest denominator of its
    floats (float.as_integer_ratio); the block is one object-array product
    over the columns the class's rows use.
    """
    out = np.zeros((q.shape[0], nums.shape[1]), dtype=object)
    out_dens = np.ones(q.shape[0], dtype=object)
    for idx in members.values():
        cols = np.flatnonzero(np.any(nums[idx] != 0, axis=0))
        lcm = math.lcm(*dens[idx])
        raw = nums[np.ix_(idx, cols)] * (lcm // dens[idx])[:, None]
        scaled = []
        for i, row in zip(idx, q[np.ix_(idx, idx)].tolist()):
            ratios = [x.as_integer_ratio() for x in row]
            scale = max(d for _, d in ratios)
            scaled.append([m * (scale // d) for m, d in ratios])
            out_dens[i] = scale * lcm
        out[np.ix_(idx, cols)] = np.array(scaled, dtype=object).dot(raw)
    return out, out_dens


def dense_row_failures(domain, degree, nums) -> dict:
    """exact_row_failures by dense object arrays: div v and K (v.grad(chi) - chi q) of every
    row in full, K the lcm of chi's denominators; the first row with a nonzero of each."""
    n = degree
    dim_v = monomials.space_dim(n)
    v = [nums[:, a * dim_v:(a + 1) * dim_v] for a in range(3)]
    q = nums[:, 3 * dim_v:]

    div = np.zeros((nums.shape[0], monomials.space_dim(n - 1)), dtype=object)
    for a in range(3):
        src, dst, mult = monomials.derivative_arrays(n, a)
        div[:, dst] += v[a][:, src] * mult.astype(np.int64).astype(object)

    chi = domain.chi.coeffs
    k = math.lcm(*(c.denominator for c in chi.values()))
    exps2 = [tuple(e) for e in monomials.exponents(2).tolist()]
    kchi = np.array([int(chi.get(e, 0) * k) for e in exps2], dtype=object)
    exps1 = monomials.exponents(1).tolist()
    tan = np.zeros((nums.shape[0], monomials.space_dim(n + 1)), dtype=object)
    for a in range(3):
        src, dst, mult = monomials.derivative_arrays(2, a)
        grad = np.zeros(len(exps1), dtype=object)
        grad[dst] = kchi[src] * mult.astype(np.int64).astype(object)
        for m in np.flatnonzero(grad != 0):
            tan[:, _shift_index(n, exps1[m])] += v[a] * grad[m]
    for m in np.flatnonzero(kchi != 0):
        tan[:, _shift_index(n - 1, exps2[m])] -= q * kchi[m]

    failures = {}
    for what, residual in (("divergence free", div), ("tangent to the boundary", tan)):
        bad = np.flatnonzero(np.any(residual != 0, axis=1))
        failures[what] = int(bad[0]) if bad.size else None
    return failures


def _gamma_half_ratio(k: int) -> Fraction:
    """Gamma(k + 1/2) / sqrt(pi) = (2k)! / (4^k k!)."""
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k))


def ball_monomial_fraction(p: int, q: int, r: int) -> Fraction:
    """Integral of x^p y^q z^r over the unit ball, divided by pi (even exponents)."""
    k1, k2, k3 = p // 2, q // 2, r // 2
    num = _gamma_half_ratio(k1) * _gamma_half_ratio(k2) * _gamma_half_ratio(k3)
    return num / _gamma_half_ratio(k1 + k2 + k3 + 2)


def half_ball_odd_fraction(p: int, q: int, r: int) -> Fraction:
    """Northern-half integral of x^p y^q z^r over the unit ball, divided by pi (p, q even,
    r odd)."""
    k1, k2 = p // 2, q // 2
    n = (r + 1) // 2
    num = _gamma_half_ratio(k1) * _gamma_half_ratio(k2) * math.factorial(n - 1)
    return num / (2 * math.factorial(k1 + k2 + n + 1))


def fraction_monomial_integral(p: int, q: int, r: int, domain) -> float:
    """geometry.monomial_integral in Fraction arithmetic, one float conversion."""
    if (p | q | r) & 1:
        return 0.0
    rational = (ball_monomial_fraction(p, q, r)
                * domain.a2 ** (p // 2) * domain.b2 ** (q // 2) * domain.c2 ** (r // 2))
    if domain.axes_exact is not None:
        fa, fb, fc = domain.axes_exact
        return float(rational * fa * fb * fc) * math.pi
    return float(rational) * domain.a * domain.b * domain.c * math.pi


def fraction_half_monomial_integral(p: int, q: int, r: int, domain, hemisphere: str) -> float:
    """geometry.half_monomial_integral in Fraction arithmetic, one float conversion."""
    if (p & 1) or (q & 1):
        return 0.0
    if r % 2 == 0:
        return 0.5 * fraction_monomial_integral(p, q, r, domain)
    rational = (half_ball_odd_fraction(p, q, r)
                * domain.a2 ** (p // 2) * domain.b2 ** (q // 2) * domain.c2 ** ((r + 1) // 2))
    if domain.axes_exact is not None:
        fa, fb, _ = domain.axes_exact
        value = float(rational * fa * fb) * math.pi
    else:
        value = float(rational) * domain.a * domain.b * math.pi
    return value if hemisphere == "north" else -value


class Referee:
    def __init__(self, basis):
        domain, n = basis.domain, basis.degree
        assert domain.axes_exact is not None, "the referee needs rational semi-axes"
        self.b, self.den = _integer_rows(basis.coeff_array)               # (dim, 3, D_N)
        self.db = np.zeros(self.b.shape[:2] + (3, monomials.space_dim(n - 1)), dtype=object)
        for a in range(3):
            src, dst, mult = monomials.derivative_arrays(n, a)
            self.db[:, :, a, dst] = self.b[:, :, src] * mult.astype(np.int64).astype(object)
        # integrals of x^p y^q z^r up to degree 3N - 1, / pi, over one denominator
        self.span = 3 * n
        fa, fb, fc = domain.axes_exact
        table = {}
        for p in range(0, self.span, 2):
            for q in range(0, self.span - p, 2):
                for r in range(0, self.span - p - q, 2):
                    table[(p * self.span + q) * self.span + r] = (
                        ball_monomial_fraction(p, q, r) * domain.a2 ** (p // 2)
                        * domain.b2 ** (q // 2) * domain.c2 ** (r // 2) * fa * fb * fc)
        self.lcm = math.lcm(*(v.denominator for v in table.values()))
        self.table = np.zeros(self.span ** 3, dtype=object)
        for code, v in table.items():
            self.table[code] = v.numerator * (self.lcm // v.denominator)
        self.code = {d: (monomials.exponents(d) * [self.span ** 2, self.span, 1]).sum(axis=1)
                     for d in {1, n - 1, n}}
        self.n = n

    def _integral(self, *factors) -> int:
        """Integer integral (over lcm) of a product of (int coefficients, degree) polynomials."""
        support = [np.flatnonzero(c != 0) for c, _ in factors]
        if any(s.size == 0 for s in support):
            return 0
        codes = sum(np.ix_(*[self.code[d][s] for (_, d), s in zip(factors, support)]))
        total = self.table[codes]
        for (c, _), s in reversed(list(zip(factors, support))):
            total = total @ c[s]
        return total

    def _value(self, total, *fields) -> float:
        den = self.lcm * math.prod(self.den[i] for i in fields)
        return float(Fraction(total, den)) * math.pi

    def mass(self, i, k) -> float:
        n = self.n
        total = sum(self._integral((self.b[i, c], n), (self.b[k, c], n)) for c in range(3))
        return self._value(total, i, k)

    def strain(self, i, k) -> float:
        """A_sym[i, k] = 2 int eps(b_i) : eps(b_k), with 2 eps = d_a b[c] + d_c b[a]."""
        n, db = self.n - 1, self.db
        total = sum(self._integral((db[i, c, a] + db[i, a, c], n), (db[k, c, a] + db[k, a, c], n))
                    for c in range(3) for a in range(3))
        return self._value(total, i, k) / 2

    def coriolis_x(self, i, k) -> float:
        """C_x[i, k] = int b_i . (e_x x b_k) = int (b_i[z] b_k[y] - b_i[y] b_k[z])."""
        n, b = self.n, self.b
        total = (self._integral((b[i, 2], n), (b[k, 1], n))
                 - self._integral((b[i, 1], n), (b[k, 2], n)))
        return self._value(total, i, k)

    def momentum(self, a, i) -> float:
        """mom[a, i] = int (x cross b_i)_a = int b_i . (e_a x x)."""
        rot = monomials.field_to_array(solid_rotation(np.eye(3)[a]), 1).astype(int).astype(object)
        total = sum(self._integral((rot[c], 1), (self.b[i, c], self.n)) for c in range(3))
        return self._value(total, i)

    def gradient_integral(self, i, data) -> float:
        """sum_(c, a) data[c][a] int d_a b_i[c] for rational constants data[c][a]."""
        total = sum(Fraction(data[c][a]) * self._integral((self.db[i, c, a], self.n - 1))
                    for c in range(3) for a in range(3))
        return self._value(total, i)

    def advection(self, i, j, k) -> float:
        """T[i, j, k] = int (b_i . grad b_j) . b_k."""
        n, b, db = self.n, self.b, self.db
        total = sum(self._integral((b[i, a], n), (db[j, c, a], n - 1), (b[k, c], n))
                    for a in range(3) for c in range(3))
        return self._value(total, i, j, k)


def sample_pairs(classes, shift, count, rng):
    """Random (i, k) with cls(i) ^ cls(k) == shift, plus the diagonal's ends when shift is 0."""
    i, k = np.nonzero((classes[:, None] ^ classes[None, :]) == shift)
    pick = rng.choice(len(i), size=min(count, len(i)), replace=False)
    pairs = list(zip(i[pick].tolist(), k[pick].tolist()))
    if shift == 0:
        pairs += [(0, 0), (len(classes) - 1, len(classes) - 1)]
    return pairs


def sample_triples(t, classes, count, rng):
    """The entries with the largest |T + T^T| (over j <-> k), then random on-rule ones."""
    skew = np.abs(t + t.transpose(0, 2, 1)).ravel()
    top = np.argsort(skew)[::-1][:count]
    on_rule = np.flatnonzero(
        ((classes[:, None, None] ^ classes[None, :, None] ^ classes[None, None, :]) == 0).ravel())
    rand = rng.choice(on_rule, size=min(count, len(on_rule)), replace=False)
    return [tuple(int(x) for x in np.unravel_index(f, t.shape))
            for f in dict.fromkeys(np.concatenate([top, rand]).tolist())]
