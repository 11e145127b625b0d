import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from precessflow import monomials
from precessflow.basis import poincare_field, solid_rotation
from precessflow.geometry import (Domain, half_monomial_integral, monomial_integral,
                                  surface_rule, volume_integral)
from precessflow.polynomials import Polynomial3

from conftest import DOMAINS
from exact_referee import fraction_half_monomial_integral, fraction_monomial_integral

SPHERE = DOMAINS["sphere"]
SPHEROID = DOMAINS["spheroid"]
TRIAXIAL = DOMAINS["triaxial"]


def surface_sum(poly, rule):
    """The rule's weighted sum of a polynomial at its nodes."""
    return rule.weights @ poly.evaluate(*rule.points.T)


class TestDomain:
    def test_kind_classification(self):
        assert SPHERE.kind == "sphere"
        assert SPHEROID.kind == "spheroid_z"
        assert TRIAXIAL.kind == "triaxial"
        # a spheroid about the x axis is not recognized as spheroid_z
        assert Domain(Fraction(4, 5), 1, 1).kind == "triaxial"

    def test_kind_tolerance(self):
        assert Domain(1.0, 1.0 + 1e-13, 1.0).kind == "sphere"
        assert Domain(1.0, 1.0 + 1e-11, 1.0).kind == "triaxial"

    def test_positive_axes_required(self):
        with pytest.raises(ValueError):
            Domain(1, -1, 1)
        with pytest.raises(ValueError):
            Domain(0, 1, 1)

    @pytest.mark.parametrize("axes, beta, name", [
        (("1e400", 1, 1), None, "a"), (("1e-200", 1, 1), None, "a"),
        ((1, "1e-155", 1), None, "b"), ((1, 1, "1e155"), None, "c"),
        (None, "1e400", "c"), (None, Fraction(-1) + Fraction(1, 10 ** 400), "c"),
    ])
    def test_axes_beyond_the_double_range_rejected(self, axes, beta, name):
        # the axis, its square and its reciprocal square must all be finite nonzero doubles
        with pytest.raises(ValueError, match=f"semi-axis {name} is out of the double range"):
            Domain(*axes) if beta is None else Domain.from_beta(beta)

    def test_axes_at_the_edge_of_the_double_range_accepted(self):
        d = Domain("1e-154", "1e154", 1)
        assert (d.a, d.b) == (1e-154, 1e154)

    def test_from_beta_exact_axis(self):
        d = Domain.from_beta(Fraction(9, 16))
        assert d.c == 0.8
        assert d.c2 == Fraction(16, 25)
        assert d.beta == Fraction(9, 16)
        with pytest.raises(ValueError):
            Domain.from_beta(-1)

    def test_from_beta_irrational_axis(self):
        d = Domain.from_beta(Fraction(1, 2))
        assert (d.a, d.b, d.c) == (1.0, 1.0, math.sqrt(2 / 3))
        assert (d.a2, d.b2, d.c2) == (1, 1, Fraction(2, 3))
        assert d.axes_exact is None and d.kind == "spheroid_z"
        assert d.beta == Fraction(1, 2) and d == Domain.from_beta(0.5)
        with pytest.raises(AttributeError):
            d.c = 1.0

    def test_chi_values(self):
        chi = SPHEROID.chi
        assert chi.evaluate(0.0, 0.0, 0.0) == 1.0
        for pt in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 0.8), (0, 0, -0.8)]:
            assert abs(chi.evaluate(*map(float, pt))) < 1e-12

    def test_immutability_and_hash(self):
        with pytest.raises(AttributeError):
            SPHERE.a = 2.0
        assert Domain(1, 1, 1) == SPHERE
        assert hash(Domain(1, 1, 1)) == hash(SPHERE)


class TestMonomialIntegral:
    def test_ball_volume(self):
        assert math.isclose(monomial_integral(0, 0, 0, SPHERE), 4 * math.pi / 3,
                            rel_tol=1e-15)

    def test_odd_exponent_vanishes(self):
        assert monomial_integral(1, 0, 0, TRIAXIAL) == 0.0
        assert monomial_integral(2, 3, 0, SPHEROID) == 0.0

    def test_x_squared_over_ball(self):
        # cross-checked against the Monte Carlo oracle below
        assert math.isclose(monomial_integral(2, 0, 0, SPHERE), 4 * math.pi / 15,
                            rel_tol=1e-15)

    def test_scaled_ball_volume(self):
        d = Domain(1, 1, Fraction(4, 5))
        assert math.isclose(monomial_integral(0, 0, 0, d), 0.8 * 4 * math.pi / 3,
                            rel_tol=1e-15)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            monomial_integral(-1, 0, 0, SPHERE)

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    def test_affine_scaling_law(self, p, q, r):
        ball = monomial_integral(p, q, r, SPHERE)
        tri = monomial_integral(p, q, r, TRIAXIAL)
        factor = (TRIAXIAL.a ** (p + 1)) * (TRIAXIAL.b ** (q + 1)) * (TRIAXIAL.c ** (r + 1))
        assert math.isclose(tri, factor * ball, rel_tol=1e-13, abs_tol=1e-15)

    @given(st.integers(0, 4).map(lambda k: 2 * k), st.integers(0, 3).map(lambda k: 2 * k),
           st.integers(0, 3).map(lambda k: 2 * k))
    def test_even_integrals_positive(self, p, q, r):
        assert monomial_integral(p, q, r, SPHEROID) > 0


class TestHalfIntegral:
    def test_half_ball_volume(self):
        assert math.isclose(half_monomial_integral(0, 0, 0, SPHERE, "north"),
                            2 * math.pi / 3, rel_tol=1e-15)

    def test_z_moment_north(self):
        # spherical-coordinates oracle: int r^3 dr * int cos sin dtheta * 2 pi = pi/4
        assert math.isclose(half_monomial_integral(0, 0, 1, SPHERE, "north"),
                            math.pi / 4, rel_tol=1e-15)

    def test_odd_equatorial_exponent_vanishes(self):
        assert half_monomial_integral(1, 0, 0, SPHERE, "north") == 0.0

    def test_bad_hemisphere(self):
        with pytest.raises(ValueError):
            half_monomial_integral(0, 0, 0, SPHERE, "up")

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_halves_sum_to_full(self, p, q, r):
        for d in (SPHERE, SPHEROID, TRIAXIAL):
            north = half_monomial_integral(p, q, r, d, "north")
            south = half_monomial_integral(p, q, r, d, "south")
            full = monomial_integral(p, q, r, d)
            assert north + south == pytest.approx(full, abs=1e-15)

    def test_south_is_signed_mirror(self):
        v_n = half_monomial_integral(2, 0, 3, SPHEROID, "north")
        v_s = half_monomial_integral(2, 0, 3, SPHEROID, "south")
        assert v_n == -v_s != 0


def _mc_moments(domain, n_samples, seed):
    """Monte Carlo estimates of all monomial moments with p+q+r <= 8.

    Uniform box sampling with the indicator folded in as zeros.  Per chunk, the
    inside points' power tables x^p, y^q, z^r give every sum over the chunk of
    x^p y^q z^r (and of its square, and of either north-weighted) as one product
    of the (p, q) columns, p + q <= 8, with the z columns.
    """
    rng = np.random.default_rng(seed)
    exps = monomials.exponents(8)
    pq = exps[exps[:, 2] == 0][:, :2]               # the (p, q) pairs with p + q <= 8
    pair = np.zeros((9, 9), dtype=int)
    pair[pq[:, 0], pq[:, 1]] = np.arange(len(pq))
    col = pair[exps[:, 0], exps[:, 1]]
    box = 8.0 * domain.a * domain.b * domain.c
    sums = np.zeros((2, len(pq), 18))              # (plain, squared), pair, (z^r, north z^r)
    chunk = 250_000
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        pts = rng.uniform(-1.0, 1.0, size=(m, 3))
        pts *= (domain.a, domain.b, domain.c)
        inside = ((pts[:, 0] / domain.a) ** 2 + (pts[:, 1] / domain.b) ** 2
                  + (pts[:, 2] / domain.c) ** 2) < 1.0
        pts = pts[inside]
        powers = np.ones((len(pts), 3, 9))
        powers[:, :, 1:] = pts[:, :, None]
        powers = np.cumprod(powers, axis=2)          # powers[n, axis, d] = pts[n, axis]^d
        xy = powers[:, 0, pq[:, 0]] * powers[:, 1, pq[:, 1]]
        z = powers[:, 2]
        z = np.concatenate([z, z * (pts[:, 2] > 0.0)[:, None]], axis=1)
        sums[0] += xy.T @ z
        sums[1] += (xy * xy).T @ (z * z)
        done += m
    total, total_n = sums[0][col, exps[:, 2]], sums[0][col, 9 + exps[:, 2]]
    total_sq, total_n_sq = sums[1][col, exps[:, 2]], sums[1][col, 9 + exps[:, 2]]
    mean = total / n_samples
    sem = np.sqrt(np.maximum(total_sq / n_samples - mean**2, 0.0) / n_samples)
    mean_n = total_n / n_samples
    sem_n = np.sqrt(np.maximum(total_n_sq / n_samples - mean_n**2, 0.0) / n_samples)
    return exps, box * mean, box * sem, box * mean_n, box * sem_n


@pytest.mark.parametrize("kind,seed", [("sphere", 101), ("spheroid", 404), ("triaxial", 303)])
def test_monte_carlo_oracle(kind, seed):
    """Validate the closed-form integrals against 1e7-sample Monte Carlo, 3 sigma."""
    domain = DOMAINS[kind]
    n = 10_000_000
    exps, est, sem, est_n, sem_n = _mc_moments(domain, n, seed)
    for (p, q, r), e, s, en, sn in zip(exps.tolist(), est, sem, est_n, sem_n):
        exact = monomial_integral(p, q, r, domain)
        exact_n = half_monomial_integral(p, q, r, domain, "north")
        tol = 3.0 * s if s > 0 else 1e-12
        tol_n = 3.0 * sn if sn > 0 else 1e-12
        assert abs(e - exact) <= tol, (p, q, r, e, exact, s)
        assert abs(en - exact_n) <= tol_n, (p, q, r, en, exact_n, sn)


class TestSurfaceRule:
    def test_order_preconditions(self):
        with pytest.raises(ValueError):
            surface_rule(SPHERE, 1)

    def test_sphere_area(self):
        rule = surface_rule(SPHERE, 32)
        assert abs(rule.total_weight - 4 * math.pi) < 1e-10

    def test_odd_integrand_vanishes(self):
        rule = surface_rule(SPHERE, 32)
        z = Polynomial3.variable(2)
        assert abs(surface_sum(z, rule)) < 1e-12

    def test_z_squared_moment(self):
        # by symmetry int z^2 = area/3 = 4 pi / 3 on the unit sphere
        rule = surface_rule(SPHERE, 32)
        z2 = Polynomial3.monomial((0, 0, 2), 1.0)
        assert abs(surface_sum(z2, rule) - 4 * math.pi / 3) < 1e-8

    def test_nodes_on_boundary(self):
        for d in (SPHERE, SPHEROID, TRIAXIAL):
            rule = surface_rule(d, 16)
            chi = d.chi
            pts = rule.points
            vals = chi.evaluate(pts[:, 0], pts[:, 1], pts[:, 2])
            assert np.max(np.abs(vals)) < 1e-12

    def test_weights_positive_and_converging(self):
        reference = surface_rule(TRIAXIAL, 128).total_weight
        errors = []
        for n in (8, 16, 32, 64):
            rule = surface_rule(TRIAXIAL, n)
            assert (rule.weights > 0).all()
            errors.append(abs(rule.total_weight - reference))
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-13

    def test_rotation_flux_vanishes(self):
        # (e_z x x) . n integrates to zero over the boundary, even off-axis
        rot = solid_rotation((0, 0, 1))
        for d in (SPHEROID, TRIAXIAL):
            def flux(points, d=d):
                vals = rot.evaluate(points)
                grad = np.stack([
                    -2.0 * points[:, 0] / d.a**2,
                    -2.0 * points[:, 1] / d.b**2,
                    -2.0 * points[:, 2] / d.c**2,
                ], axis=1)
                normal = -grad / np.linalg.norm(grad, axis=1, keepdims=True)
                return np.einsum("nc,nc->n", vals, normal)
            rule = surface_rule(d, 32)
            assert abs(rule.weights @ flux(rule.points)) < 1e-12

    def test_zero_integrand(self):
        u_p = poincare_field(Fraction(9, 16), Fraction(1, 4))
        diff = u_p - u_p
        rule = surface_rule(SPHEROID, 16)
        assert surface_sum(diff.dot(u_p), rule) == 0.0

    def test_poincare_rotation_baseline(self):
        # frozen regression value, converged under order doubling to < 1e-10; the
        # runs' order-32 rule matches it
        u_p = poincare_field(Fraction(9, 16), Fraction(1, 4))
        rot = solid_rotation((0, 0, 1))
        value = surface_sum(u_p.dot(rot), surface_rule(SPHEROID, 32))
        assert value == pytest.approx(7.059257062001076, rel=1e-10)


def test_volume_integral_matches_monomials():
    poly = Polynomial3({(2, 0, 0): 2.0, (0, 0, 0): -1.0, (1, 1, 0): 3.0})
    expected = (2.0 * monomial_integral(2, 0, 0, SPHEROID)
                - monomial_integral(0, 0, 0, SPHEROID)
                + 3.0 * monomial_integral(1, 1, 0, SPHEROID))
    assert volume_integral(poly, SPHEROID) == pytest.approx(expected, rel=1e-15)


# the integral tables' domains: exact axes, beta = 1/3 (c = sqrt(3) / 2, irrational) and
# float axes (exact binary rationals with long numerators and denominators)
TABLE_DOMAINS = {"sphere": SPHERE, "spheroid": SPHEROID, "triaxial": TRIAXIAL,
                 "beta_1_3": Domain.from_beta(Fraction(1, 3)),
                 "float_axes": Domain(0.9, 1.1, 0.7)}


@pytest.mark.parametrize("name", sorted(TABLE_DOMAINS))
def test_integral_tables_match_the_fraction_formulas_bit_for_bit(name):
    domain = TABLE_DOMAINS[name]
    assert (domain.axes_exact is None) == (name == "beta_1_3")
    degree = 16
    span = degree + 1
    for hemisphere in (None, "north", "south"):
        expected = np.zeros(span ** 3)
        for p in range(span):
            for q in range(span - p):
                for r in range(span - p - q):
                    expected[(p * span + q) * span + r] = (
                        fraction_monomial_integral(p, q, r, domain) if hemisphere is None
                        else fraction_half_monomial_integral(p, q, r, domain, hemisphere))
        table = monomials._integral_flat(domain, degree, hemisphere)
        assert table.tobytes() == expected.tobytes(), hemisphere
