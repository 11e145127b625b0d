import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from precessflow.polynomials import Polynomial3, VectorField, remainder_mod

coeffs_strategy = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=8),
    max_size=6,
)


def polys():
    return coeffs_strategy.map(Polynomial3)


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + Polynomial3.zero() == p
    assert (p - p).is_zero()


@given(polys(), polys(), st.integers(0, 2))
def test_product_rule(p, q, axis):
    lhs = (p * q).diff(axis)
    rhs = p.diff(axis) * q + p * q.diff(axis)
    assert lhs == rhs


@given(polys(), polys())
def test_evaluate_is_homomorphic(p, q):
    x, y, z = 0.3, -1.2, 0.7
    assert math.isclose(
        (p * q).evaluate(x, y, z),
        p.evaluate(x, y, z) * q.evaluate(x, y, z),
        rel_tol=1e-9, abs_tol=1e-9,
    )


def test_degree_and_pruning():
    p = Polynomial3({(2, 0, 0): Fraction(1), (0, 0, 0): Fraction(0)})
    assert p.degree == 2
    assert (0, 0, 0) not in p.coeffs
    assert Polynomial3.zero().degree == -1


def test_evaluate_array_and_zero():
    p = Polynomial3({(1, 1, 0): 2.0})
    x = np.array([1.0, 2.0])
    y = np.array([3.0, -1.0])
    np.testing.assert_allclose(p.evaluate(x, y, 0.0), [6.0, -4.0])
    z = Polynomial3.zero()
    assert z.evaluate(1.0, 1.0, 1.0) == 0.0
    np.testing.assert_array_equal(z.evaluate(x, y, x), np.zeros(2))


@given(polys(), polys())
def test_division_remainder(p, chi_extra):
    # chi-like divisor: constant + quadratic terms, exact arithmetic
    chi = Polynomial3({(0, 0, 0): Fraction(1), (2, 0, 0): Fraction(-2),
                       (0, 2, 0): Fraction(-1), (0, 0, 2): Fraction(-3)})
    product = chi * p
    assert remainder_mod(product, chi).is_zero()
    # adding a remainder with x-degree < 2 must survive division untouched
    low = Polynomial3({(1, 2, 3): Fraction(5, 2), (0, 1, 0): Fraction(-1)})
    rem = remainder_mod(product + low, chi)
    assert rem == remainder_mod(low, chi)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        remainder_mod(Polynomial3.constant(1), Polynomial3.zero())


def test_float_division_terminates():
    chi = Polynomial3({(0, 0, 0): 1.0, (2, 0, 0): -1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.5625})
    p = Polynomial3({(4, 0, 0): 0.37, (2, 1, 1): -1.2})
    rem = remainder_mod(chi * p, chi)
    assert rem.max_abs_coeff() < 1e-14


unit_axes = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda a: 0.1 < math.hypot(*a))


@given(unit_axes)
def test_rigid_rotation_strain_vanishes(axis):
    n = math.hypot(*axis)
    axis = tuple(v / n for v in axis)
    x = Polynomial3.variable(0)
    y = Polynomial3.variable(1)
    z = Polynomial3.variable(2)
    v = VectorField((z.scale(axis[1]) - y.scale(axis[2]),
                     x.scale(axis[2]) - z.scale(axis[0]),
                     y.scale(axis[0]) - x.scale(axis[1])))
    strain = v.strain()
    assert max(strain[a][b].max_abs_coeff() for a in range(3) for b in range(3)) < 1e-15
    assert v.divergence().max_abs_coeff() < 1e-15


def test_vector_field_operations():
    x = Polynomial3.variable(0)
    y = Polynomial3.variable(1)
    z = Polynomial3.variable(2)
    v = VectorField((y * z, x * x, z))
    assert v.degree == 2
    # divergence = 0 + 0 + 1
    assert v.divergence() == Polynomial3.constant(Fraction(1))
    # e_x cross v = (0, -v_z, v_y)
    w = v.cross_const((1, 0, 0))
    assert w.components[0].is_zero()
    assert w.components[1] == -z
    assert w.components[2] == x * x


def test_tangency_remainder_detects_non_tangent_fields():
    chi = Polynomial3({(0, 0, 0): Fraction(1), (2, 0, 0): Fraction(-1),
                       (0, 2, 0): Fraction(-1), (0, 0, 2): Fraction(-1)})
    x = Polynomial3.variable(0)
    y = Polynomial3.variable(1)
    rot = VectorField((-y, x, Polynomial3.zero()))
    assert rot.tangency_remainder(chi).is_zero()
    const = VectorField((Polynomial3.constant(Fraction(1)), Polynomial3.zero(),
                         Polynomial3.zero()))
    assert not const.tangency_remainder(chi).is_zero()
