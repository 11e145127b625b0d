import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from precessflow import geometry, monomials
from precessflow import basis as basis_module
from precessflow.basis import (GRAM_IDENTITY_TOL, Basis, InvariantError, build_basis,
                               coefficient_classes, curl_form_fields, exact_row_failures,
                               gram_form, load_basis,
                               poincare_field, poincare_obstacle, project, project_fields,
                               save_basis, solid_rotation, stream_cross_field, _by_class,
                               _check_exact_rows, _integer_nullspace,
                               _orthonormal_coefficients, _raw_coeff_svd, _raw_rows_exact,
                               _rows_to_float)
from precessflow.geometry import Domain, surface_rule, volume_integral
from precessflow.operators import BoundaryCondition, assemble
from precessflow.polynomials import Polynomial3, VectorField

from conftest import DOMAINS, MALFORMED_EXPORTS, get_basis, import_error, malformed_export
from exact_referee import (dense_combine_rows, dense_row_failures, exact_fields,
                           exact_nullspace, fields_from_vectors, fraction_nullspace,
                           vectors_to_rows)

# dimension of the constrained space, from the exact nullspace (regression;
# empirically N (N+1) (2N+7) / 6, identical across domain kinds)
EXPECTED_DIMS = {1: 3, 2: 11, 3: 26, 4: 50}


def _to_float(nums, dens, degree):
    """_rows_to_float of integer rows at the nonzeros one scan finds."""
    return _rows_to_float(nums, dens, np.nonzero(nums != 0), degree)


class TestPoincareField:
    def test_components_beta_05625(self):
        u = poincare_field(Fraction(9, 16), Fraction(1, 4))
        # 2 eps / beta = 8/9, (1+beta) factor gives 25/18
        assert u.components[0] == Polynomial3({(0, 1, 0): Fraction(-1)})
        assert u.components[1] == Polynomial3({(1, 0, 0): Fraction(1),
                                               (0, 0, 1): Fraction(-25, 18)})
        assert u.components[2] == Polynomial3({(0, 1, 0): Fraction(8, 9)})

    def test_zero_precession_is_rotation(self):
        u = poincare_field(Fraction(9, 16), 0)
        r = solid_rotation((0, 0, 1))
        assert all((a - b).is_zero() for a, b in zip(u.components, r.components))

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            poincare_field(0, Fraction(1, 4))
        with pytest.raises(ValueError):
            poincare_field(-2, Fraction(1, 4))

    def test_obstacle_follows_domain_kind_on_a_near_sphere(self):
        near = Domain(1, 1, 1 + Fraction(1, 10**13))
        assert near.kind == "sphere" and near.beta != 0
        assert poincare_obstacle(near) == "the Poincare flow is singular on the sphere (beta = 0)"
        assert poincare_obstacle(DOMAINS["spheroid"]) is None

    def test_solenoidal_and_tangent(self):
        u = poincare_field(Fraction(9, 16), Fraction(1, 4))
        assert u.divergence().is_zero()
        assert u.tangency_remainder(DOMAINS["spheroid"].chi).is_zero()

    def test_max_speed(self):
        # Exact maximization of |u_P|^2 over the closed domain gives 181/81 at
        # y = 0 (the quoted value 1.25 elsewhere equals sqrt(1+beta), a
        # different quantity); dense boundary sampling agrees.
        u = poincare_field(Fraction(9, 16), Fraction(1, 4))
        rule = surface_rule(DOMAINS["spheroid"], 400)
        speeds = np.linalg.norm(u.evaluate(rule.points), axis=1)
        exact = math.sqrt(181.0) / 9.0
        assert speeds.max() <= exact + 1e-12
        assert speeds.max() == pytest.approx(exact, abs=2e-5)


class TestSolidRotation:
    def test_z_axis(self):
        r = solid_rotation((0, 0, 1))
        assert r.components[0] == Polynomial3({(0, 1, 0): Fraction(-1)})
        assert r.components[1] == Polynomial3({(1, 0, 0): Fraction(1)})
        assert r.components[2].is_zero()

    def test_x_axis(self):
        r = solid_rotation((1, 0, 0))
        assert r.components[0].is_zero()
        assert r.components[1] == Polynomial3({(0, 0, 1): Fraction(-1)})
        assert r.components[2] == Polynomial3({(0, 1, 0): Fraction(1)})

    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            solid_rotation((1, 1, 0))

    @given(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
           .filter(lambda a: any(a)))
    def test_strain_vanishes(self, raw_axis):
        n2 = sum(Fraction(v) ** 2 for v in raw_axis)
        # scale to unit length in float, keep exactness of the pattern
        axis = tuple(float(v) / math.sqrt(float(n2)) for v in raw_axis)
        r = solid_rotation(axis)
        strain = r.strain()
        assert max(strain[a][b].max_abs_coeff() for a in range(3) for b in range(3)) == 0.0


class TestBuildBasis:
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_dimensions(self, kind, degree):
        assert get_basis(kind, degree).dim == EXPECTED_DIMS[degree]

    def test_dimension_monotone(self):
        dims = [get_basis("spheroid", n).dim for n in (1, 2, 3, 4)]
        assert dims == sorted(dims)

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            build_basis(DOMAINS["sphere"], 0)

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_linear_fields_are_scaled_rotations(self, kind):
        # N=1 nullspace is {S^-1 W x : W antisymmetric}, S = diag(1/a^2, ...)
        domain = DOMAINS[kind]
        basis = get_basis(kind, 1)
        x = Polynomial3.variable(0)
        y = Polynomial3.variable(1)
        z = Polynomial3.variable(2)
        a2, b2, c2 = domain.a2, domain.b2, domain.c2
        generators = [
            VectorField((Polynomial3.zero(), z.scale(-b2), y.scale(c2))),
            VectorField((z.scale(a2), Polynomial3.zero(), x.scale(-c2))),
            VectorField((y.scale(-a2), x.scale(b2), Polynomial3.zero())),
        ]
        for g in generators:
            assert g.divergence().is_zero()
            assert g.tangency_remainder(domain.chi).is_zero()
            _, res = project(g, basis)
            assert res < 1e-12

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_fields_satisfy_constraints_exactly(self, kind, degree):
        # Polynomial3 arithmetic on the rows' Fraction fields: a proof independent of the
        # integer maps of exact_row_failures, which the build and verify run
        domain = DOMAINS[kind]
        basis = get_basis(kind, degree)
        chi = domain.chi
        for f in exact_fields(basis):
            assert f.is_exact()
            assert f.divergence().is_zero()
            assert f.tangency_remainder(chi).is_zero()

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_gram_is_identity(self, kind, degree):
        basis = get_basis(kind, degree)
        assert basis.gram_identity_deviation() < 1e-12
        assert np.isfinite(basis.raw_gram_cond)

    def test_rotation_membership(self):
        for kind in ("sphere", "spheroid"):
            for degree in (1, 2, 3):
                _, res = project(solid_rotation((0, 0, 1)), get_basis(kind, degree))
                assert res < 1e-12

    def test_poincare_membership(self):
        for degree in (1, 2, 3, 4):
            basis = get_basis("spheroid", degree)
            _, res = project(poincare_field(Fraction(9, 16), Fraction(1, 4)), basis)
            assert res < 1e-12

    def test_rotation_not_tangent_on_triaxial(self):
        _, res = project(solid_rotation((0, 0, 1)), get_basis("triaxial", 3))
        assert res > 1e-3

    def test_svd_fallback_matches_dimensions(self):
        for kind in ("sphere", "triaxial"):
            basis = build_basis(DOMAINS[kind], 2, method="svd")
            assert basis.dim == EXPECTED_DIMS[2]
            assert basis.gram_identity_deviation() < 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            build_basis(DOMAINS["sphere"], 2, method="magic")

    def test_orthonormalization_rejects_rank_deficiency(self):
        g = np.array([[1.0, 1.0], [1.0, 1.0]])  # exactly dependent fields
        with pytest.raises(RuntimeError, match="non-positive pivot|dependent"):
            _orthonormal_coefficients(g)

    @pytest.mark.parametrize("g, field", [
        ([[1.0, 2.0], [2.0, 1.0]], 1),                      # eigenvalues 3 and -1
        ([[4.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]], 2),
        ([[0.0, 0.0], [0.0, 1.0]], 0),                      # a zero field
    ], ids=["indefinite", "indefinite_3x3", "zero_field"])
    def test_orthonormalization_rejects_an_indefinite_gram(self, g, field):
        with pytest.raises(InvariantError, match=f"pivot at field {field}: .*dependent"):
            _orthonormal_coefficients(np.array(g))

    @pytest.mark.parametrize("g, field", [
        # the second field's Cholesky pivot is 2^-52 of its squared norm: below 2 eps
        ([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]], 1),
        ([[4.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0 + 2.0 ** -52]], 2),
    ], ids=["2x2", "3x3"])
    def test_orthonormalization_rejects_a_negligible_pivot(self, g, field):
        # positive definite in exact arithmetic: every pivot of the elimination is positive
        a = [[Fraction(x) for x in row] for row in g]
        for k in range(len(a)):
            assert a[k][k] > 0
            for i in range(k + 1, len(a)):
                a[i] = [x - a[i][k] / a[k][k] * y for x, y in zip(a[i], a[k])]
        with pytest.raises(InvariantError, match=f"pivot at field {field}: .*dependent"):
            _orthonormal_coefficients(np.array(g))

    def test_orthonormalization_of_a_well_conditioned_gram(self):
        g = np.array([[4.0, 2.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 3.0]])
        q = _orthonormal_coefficients(g)
        np.testing.assert_array_equal(q, np.tril(q))
        np.testing.assert_allclose(q @ g @ q.T, np.eye(3), atol=4 * np.finfo(float).eps)

    def test_dependent_raw_fields_raise_invariant_error(self, monkeypatch):
        raw_rows = basis_module._raw_rows_exact

        def duplicated(domain, degree, classes):
            # field 4 becomes a copy of field 1, which lies in the same class (7)
            nums, dens = raw_rows(domain, degree, classes)
            nums[4], dens[4] = nums[1], dens[1]
            return nums, dens

        monkeypatch.setattr(basis_module, "_raw_rows_exact", duplicated)
        # named by its index in the basis, not within its class block
        with pytest.raises(InvariantError, match="pivot at field 4: .*dependent"):
            build_basis(DOMAINS["spheroid"], 2)

    def test_shared_arrays_are_read_only(self):
        basis = get_basis("spheroid", 2)
        nums, dens = basis.rows
        for arr in (basis.gram, basis.coeff_array, basis.classes, basis.vander, basis.values,
                    basis.grad, nums, dens):
            first = (0,) * arr.ndim
            with pytest.raises(ValueError, match="read-only"):
                arr[first] = arr[first]

    @pytest.mark.parametrize("method", ["exact", "svd"])
    def test_fields_are_formed_on_first_read(self, monkeypatch, method):
        calls = []
        array_to_field = monomials.array_to_field

        def counting(*args):
            calls.append(args[1])
            return array_to_field(*args)

        monkeypatch.setattr(monomials, "array_to_field", counting)
        basis = build_basis(DOMAINS["triaxial"], 3, method)
        assert calls == [] and "fields" not in vars(basis)
        fields = basis.fields
        # the float view: one field per row of coeff_array, formed once
        assert calls == [3] * basis.dim
        assert basis.fields is fields and len(fields) == basis.dim
        for f, c in zip(fields, basis.coeff_array):
            assert all(type(v) is float for comp in f.components for v in comp.coeffs.values())
            np.testing.assert_array_equal(monomials.field_to_array(f, 3), c)


class TestOneEvaluation:
    """The Basis constructor is the one evaluation of a set of fields at the basis rule."""

    @staticmethod
    def _assert_same_evaluation(basis, other):
        for name in ("classes", "vander", "values", "gram"):
            a, b = getattr(basis, name), getattr(other, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert basis.grad.tobytes() == other.grad.tobytes()

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    def test_a_rebuilt_basis_is_bit_identical(self, kind, degree, method):
        basis = (get_basis(kind, degree) if method == "exact"
                 else build_basis(DOMAINS[kind], degree, method))
        self._assert_same_evaluation(basis, Basis(DOMAINS[kind], degree, basis.coeff_array))

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 3, 6])
    def test_a_loaded_basis_is_bit_identical(self, kind, degree, tmp_path):
        basis = get_basis(kind, degree)
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        loaded = load_basis(path)
        assert loaded.coeff_array.tobytes() == basis.coeff_array.tobytes()
        self._assert_same_evaluation(basis, loaded)
        assert math.isnan(loaded.raw_gram_cond)

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", range(1, 9))
    @pytest.mark.parametrize("method", ["exact", "svd"])
    def test_grad_matches_its_own_vandermonde_bit_for_bit(self, kind, degree, method):
        # the reference evaluates the degree-(N-1) monomials on their own
        basis = (get_basis(kind, degree) if method == "exact"
                 else build_basis(DOMAINS[kind], degree, method))
        db = np.stack([monomials.apply_derivative(basis.coeff_array, degree, a)
                       for a in range(3)], axis=2)
        reference = db @ monomials.vandermonde(basis.points, degree - 1).T
        assert basis.grad.shape == reference.shape
        assert basis.grad.tobytes() == reference.tobytes()


class TestMembers:
    """Basis.members, found once by the constructor, partitions the fields by class."""

    @staticmethod
    def _assert_partition(basis):
        members = basis.members
        assert list(members) == np.unique(basis.classes).tolist()
        assert all(type(p) is int for p in members)
        for p, m in members.items():
            assert m.dtype == np.intp and np.all(np.diff(m) > 0)
            assert np.all(basis.classes[m] == p)
            with pytest.raises(ValueError, match="read-only"):
                m[0] = m[0]
        # disjoint and covering: the indices, merged, are range(dim) once each
        merged = np.concatenate(list(members.values()))
        assert np.array_equal(np.sort(merged), np.arange(basis.dim))

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    def test_members_partition_the_fields(self, kind, degree, method):
        basis = (get_basis(kind, degree) if method == "exact"
                 else build_basis(DOMAINS[kind], degree, method))
        self._assert_partition(basis)

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 3, 6])
    def test_a_loaded_basis_has_the_same_members(self, kind, degree, tmp_path):
        basis = get_basis(kind, degree)
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        loaded = load_basis(path)
        self._assert_partition(loaded)
        assert list(loaded.members) == list(basis.members)
        for p, m in basis.members.items():
            assert np.array_equal(loaded.members[p], m)


class TestCurlForm:
    def test_psi_z_gives_twice_rotation(self):
        f = stream_cross_field(DOMAINS["spheroid"], Polynomial3.variable(2))
        twice = solid_rotation((0, 0, 1)).scale(2)
        assert all((a - b).is_zero() for a, b in zip(f.components, twice.components))

    def test_psi_linear_gives_poincare(self):
        psi = (Polynomial3.variable(0).scale(Fraction(1, 4) / Fraction(9, 16))
               + Polynomial3.variable(2).scale(Fraction(1, 2)))
        f = stream_cross_field(DOMAINS["spheroid"], psi)
        u_p = poincare_field(Fraction(9, 16), Fraction(1, 4))
        assert all((a - b).is_zero() for a, b in zip(f.components, u_p.components))

    def test_constant_psi_gives_zero(self):
        f = stream_cross_field(DOMAINS["sphere"], Polynomial3.constant(Fraction(3)))
        assert all(c.is_zero() for c in f.components)

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_fields_satisfy_invariants_and_span(self, kind):
        domain = DOMAINS[kind]
        basis = get_basis(kind, 3)
        for f in curl_form_fields(domain, 3):
            assert f.divergence().is_zero()
            assert f.tangency_remainder(domain.chi).is_zero()
            _, res = project(f, basis)
            assert res < 1e-10


class TestGramForm:
    @staticmethod
    def _reference(a, j, b):
        out = np.zeros((a.shape[0], b.shape[0]))
        for i in range(a.shape[0]):
            for k in range(b.shape[0]):
                for c in range(a.shape[1]):
                    for m in range(a.shape[2]):
                        for n in range(b.shape[2]):
                            out[i, k] += a[i, c, m] * j[m, n] * b[k, c, n]
        return out

    def test_matches_explicit_loops(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3, 5))
        j = rng.standard_normal((5, 7))          # rectangular, as for mixed degrees
        b = rng.standard_normal((6, 3, 7))
        np.testing.assert_allclose(gram_form(a, j, b), self._reference(a, j, b),
                                   rtol=1e-12, atol=1e-12)
        row = a[1][None]                         # one-row operand, as in project
        out = gram_form(row, j, b)
        assert out.shape == (1, 6)
        np.testing.assert_allclose(out, self._reference(row, j, b), rtol=1e-12, atol=1e-12)


class TestProject:
    def test_exact_members_reconstruct(self):
        basis = get_basis("spheroid", 2)
        for field in (poincare_field(Fraction(9, 16), Fraction(1, 4)),
                      solid_rotation((0, 0, 1))):
            coeffs, res = project(field, basis)
            assert res < 1e-12
            recon = np.einsum("i,icm->cm", coeffs, basis.coeff_array)
            direct = monomials.field_to_array(field, 2)
            np.testing.assert_allclose(recon, direct, atol=1e-13)

    def test_constant_field_residual(self):
        # e_x is not tangent; the residual is the non-representable remainder,
        # cross-checked against the normal-equation identity
        domain = DOMAINS["spheroid"]
        basis = get_basis("spheroid", 3)
        e_x = VectorField((Polynomial3.constant(1.0), Polynomial3.zero(), Polynomial3.zero()))
        coeffs, res = project(e_x, basis)
        assert res > 0.1
        norm2 = volume_integral(e_x.dot(e_x), domain)
        gram_identity = norm2 - float(coeffs @ np.linalg.solve(basis.gram, coeffs))
        assert res**2 == pytest.approx(gram_identity, rel=1e-6)

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_batched_projection_matches_one_field_at_a_time(self, kind):
        # one solve with k right-hand sides: the same coefficients up to the round-off of
        # the triangular solves (the Gram is I to 1e-12), and every residual at round-off
        basis = get_basis(kind, 4)
        fields = curl_form_fields(DOMAINS[kind], 4)
        coeffs, residuals = project_fields(fields, basis)
        single = [project(f, basis) for f in fields]
        np.testing.assert_allclose(coeffs, np.stack([c for c, _ in single]), rtol=0,
                                   atol=64 * np.finfo(float).eps * np.max(np.abs(coeffs)))
        assert residuals.shape == (len(fields),)
        assert np.max(residuals) < 1e-13 and max(r for _, r in single) < 1e-13

    def test_field_above_the_basis_degree_rejected(self):
        x = Polynomial3.variable(0)
        cubic = VectorField((Polynomial3.zero(), Polynomial3.zero(), x * x * x))
        with pytest.raises(ValueError, match="exceeds degree 2"):
            project(cubic, get_basis("spheroid", 2))

    def test_the_volume_nodes_are_evaluated_once(self, monkeypatch):
        basis = build_basis(DOMAINS["spheroid"], 3)
        degrees, vandermonde = [], monomials.vandermonde
        monkeypatch.setattr(monomials, "vandermonde",
                            lambda pts, d: degrees.append(d) or vandermonde(pts, d))
        bc = BoundaryCondition("poincare_stress", poincare_field(Fraction(9, 16), Fraction(1, 4)))
        assemble(basis, bc, nu=1.0, eps_p=0.25)
        assemble(basis, bc, nu=1.0, eps_p=0.25, precession_axis=(0.0, 0.6, 0.8),
                 include_advection=False)
        for _ in range(10):
            project(solid_rotation((0, 0, 1)), basis)
        # the build evaluated the degree-3 values, whose Vandermonde matrix the
        # degree-2 gradients read too
        assert degrees == []

    @staticmethod
    def _octant_rule_projection(v, basis):
        """The reference: the octant rule and its Vandermonde matrix evaluated per call."""
        top = max(v.degree, basis.degree)
        points, weights = geometry.octant_rule(basis.domain, max(3 * basis.degree - 1, 2 * top))
        vander = monomials.vandermonde(points, top).T
        masks = basis_module._class_table(top) == np.arange(basis_module.N_CLASSES)[:, None, None]
        arr = monomials.field_to_array(v, top)
        d_n = basis.coeff_array.shape[-1]
        rhs = np.einsum("icn,icn->i", (basis.coeff_array @ vander[:d_n]) * weights,
                        (np.where(masks, arr, 0.0) @ vander)[basis.classes])
        coeffs = np.linalg.solve(basis.gram, rhs)
        arr[:, :d_n] -= np.einsum("i,icm->cm", coeffs, basis.coeff_array)
        return coeffs, math.sqrt(float(np.sum((np.where(masks, arr, 0.0) @ vander) ** 2
                                              @ weights)))

    def test_cached_values_give_the_octant_rule_projection_bit_for_bit(self):
        basis = get_basis("spheroid", 4)
        fields = curl_form_fields(DOMAINS["spheroid"], 4) + [
            solid_rotation((0, 0, 1)), poincare_field(Fraction(9, 16), Fraction(1, 4))]
        for field in fields:
            coeffs, res = project(field, basis)
            ref_coeffs, ref_res = self._octant_rule_projection(field, basis)
            assert coeffs.tobytes() == ref_coeffs.tobytes()
            assert res == ref_res


class TestExportImport:
    @pytest.mark.parametrize("domain", [DOMAINS["sphere"], DOMAINS["triaxial"],
                                        Domain.from_beta(Fraction(1, 2))],
                             ids=["sphere", "triaxial", "beta_half"])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    def test_export_forms_no_fields_and_prints_them(self, tmp_path, monkeypatch, domain,
                                                    method):
        calls = []
        array_to_field = monomials.array_to_field
        monkeypatch.setattr(monomials, "array_to_field",
                            lambda *args: calls.append(args[1]) or array_to_field(*args))
        basis = build_basis(domain, 4, method)
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        assert calls == [] and "fields" not in vars(basis)
        # each field line is what the fields' coefficients print, in exponent order: the
        # float view's, and for an exact basis the correctly rounded Fraction fields' too
        references = [basis.fields] + ([exact_fields(basis)] if method == "exact" else [])
        for fields in references:
            for line, field in zip(path.read_text().splitlines()[3:], fields, strict=True):
                groups = [" ".join(f"{i},{j},{k}:{float(c):.17g}"
                                   for (i, j, k), c in sorted(comp.coeffs.items())) or "-"
                          for comp in field.components]
                assert line == " ; ".join(groups)

    def test_roundtrip(self, tmp_path):
        basis = get_basis("spheroid", 2)
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        loaded = load_basis(path)
        assert loaded.dim == basis.dim
        assert loaded.degree == basis.degree
        assert loaded.domain == basis.domain
        assert loaded.gram_identity_deviation() < 1e-12
        for f, g in zip(basis.fields, loaded.fields):
            diff = (monomials.field_to_array(f, basis.degree)
                    - monomials.field_to_array(g, basis.degree))
            assert np.max(np.abs(diff)) < 1e-15

    def test_roundtrip_triaxial_axes(self, tmp_path):
        basis = get_basis("triaxial", 1)
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        assert load_basis(path).domain == DOMAINS["triaxial"]

    def test_roundtrip_irrational_axis_spheroid(self, tmp_path):
        # c = (1 + beta)^(-1/2) = sqrt(3) / 2 at beta = 1/3: the export carries "# beta 1/3"
        from precessflow.verification import check_basis_file

        basis = build_basis(Domain.from_beta(Fraction(1, 3)), 2)
        assert basis.domain.axes_exact is None
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        assert "# beta 1/3" in path.read_text().splitlines()
        loaded = load_basis(path)
        assert loaded.domain == basis.domain
        assert loaded.coeff_array.tobytes() == basis.coeff_array.tobytes()
        assert all(r.ok for r in check_basis_file(path))

    def test_corrupted_field_detected(self, tmp_path):
        from precessflow.verification import check_basis_file

        basis = get_basis("spheroid", 2)
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        lines = path.read_text().splitlines()
        # damage one coefficient on the first field line
        for i, line in enumerate(lines):
            if not line.startswith("#"):
                tok = line.split()
                tok[0] = tok[0].split(":")[0] + ":1.5"
                lines[i] = " ".join(tok)
                break
        path.write_text("\n".join(lines) + "\n")
        results = check_basis_file(path)
        failed = {r.name for r in results if not r.ok}
        assert "basis.tangency" in failed or "basis.divergence_free" in failed

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a basis\n")
        with pytest.raises(ValueError):
            load_basis(path)

    @pytest.mark.parametrize("case", MALFORMED_EXPORTS)
    def test_malformed_line_raises_value_error_naming_it(self, tmp_path, case):
        path, line, message = malformed_export(tmp_path, case)
        with pytest.raises(ValueError, match="^" + re.escape(import_error(case, line, message))):
            load_basis(path)


def _field_classes(field) -> set:
    """Reflection classes of a field's nonzero coefficients, by explicit loops."""
    classes = set()
    for c, comp in enumerate(field.components):
        for exp, coef in comp.coeffs.items():
            if coef:
                classes.add(sum(1 << a for a in range(3) if (exp[a] + (a == c)) % 2))
    return classes


class TestReflectionClasses:
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_exact_fields_are_parity_pure(self, kind, degree):
        basis = get_basis(kind, degree)
        cls = basis.classes
        assert [_field_classes(f) for f in exact_fields(basis)] == [{int(k)} for k in cls]

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_roundtrip_keeps_classes(self, kind, degree, tmp_path):
        basis = get_basis(kind, degree)
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        loaded = load_basis(path)
        cls = loaded.classes
        assert [_field_classes(f) for f in loaded.fields] == [{int(k)} for k in cls]
        np.testing.assert_array_equal(cls, basis.classes)

    def test_svd_basis_is_class_pure(self):
        # one SVD per class: the same class sizes as the exact basis
        basis = build_basis(DOMAINS["triaxial"], 3, method="svd")
        assert [_field_classes(f) for f in basis.fields] == [{int(k)} for k in basis.classes]
        np.testing.assert_array_equal(np.bincount(basis.classes, minlength=8),
                                      np.bincount(get_basis("triaxial", 3).classes, minlength=8))

    @pytest.mark.parametrize("field", [
        {(0, 0, 0): 1.0, (1, 0, 0): 1.0},      # v_x: constant (class 1) and x (class 0)
        {},                                      # zero
    ], ids=["mixed", "zero"])
    def test_a_field_outside_one_class_is_rejected(self, field):
        coeff = np.array(get_basis("triaxial", 2).coeff_array)
        coeff[3] = 0.0
        for e, c in field.items():
            coeff[3, 0, monomials.index_map(2)[e]] = c
        with pytest.raises(ValueError, match="field 3 does not lie in one reflection class"):
            coefficient_classes(coeff, 2)


# ---------------------------------------------------------------------------
# reference: the exact build in Fraction arithmetic, field by field

def _raw_fields_exact(domain, degree):
    """The exact nullspace as Fraction-valued VectorFields (velocity part only)."""
    vectors, dim_v, _ = exact_nullspace(domain, degree)
    dense = [[vec.get(c, Fraction(0)) for c in range(3 * dim_v)] for vec in vectors]
    return fields_from_vectors(dense, dim_v, degree)


def _coeff_gram(fields, domain, degree):
    """(dim, 3, D_N) float coefficients of the fields and their (nodal) mass Gram."""
    coeff = np.stack([monomials.field_to_array(f, degree) for f in fields])
    return coeff, Basis(domain, degree, coeff).gram


def _combine_exact(raw, q):
    """Apply float combination coefficients to the raw fields in rational arithmetic."""
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


def _fraction_build(domain, degree):
    """build_basis(method='exact') in Fraction arithmetic, with the polynomial invariant check.

    Returns (coeff_array, gram, raw_gram_cond, classes, fields, polished).
    """
    raw = _raw_fields_exact(domain, degree)
    raw_arr = np.stack([monomials.field_to_array(f, degree) for f in raw])
    raw_basis = Basis(domain, degree, raw_arr)
    classes, g_raw = raw_basis.classes, raw_basis.gram

    def orthonormalize(q):
        fields = _combine_exact(raw, q)
        coeff, gram = _coeff_gram(fields, domain, degree)
        return fields, coeff, gram, float(np.max(np.abs(gram - np.eye(len(fields)))))

    q = _by_class(_orthonormal_coefficients, g_raw, raw_basis.members)
    fields, coeff, gram, dev = orthonormalize(q)
    polished = dev > 1e-13
    if polished:
        q = _by_class(_orthonormal_coefficients, gram, raw_basis.members) @ q
        fields, coeff, gram, dev = orthonormalize(q)
    assert dev <= GRAM_IDENTITY_TOL
    for f in fields:
        assert f.divergence().is_zero()
        assert f.tangency_remainder(domain.chi).is_zero()
    return coeff, gram, _class_block_cond(g_raw, raw_basis.members), classes, fields, polished


def _class_block_cond(gram, members):
    """The condition number of a Gram that is 0 between classes, from its class blocks."""
    eigs = np.abs(np.concatenate([np.linalg.eigvalsh(gram[np.ix_(m, m)])
                                  for m in members.values()]))
    return float(eigs.max() / eigs.min())


class TestIntegerLattice:
    """The integer-row build gives what the Fraction build gives, bit for bit."""

    @staticmethod
    def _assert_same(basis, reference):
        coeff, gram, cond, classes, fields, _ = reference
        np.testing.assert_array_equal(basis.coeff_array, coeff)
        np.testing.assert_array_equal(basis.gram, gram)
        assert basis.raw_gram_cond == cond
        np.testing.assert_array_equal(basis.classes, classes)
        basis_fields = exact_fields(basis)
        assert len(basis_fields) == len(fields)
        for f, g in zip(basis_fields, fields):
            for a, b in zip(f.components, g.components):
                assert a.coeffs == b.coeffs
                assert all(type(c) is Fraction for c in a.coeffs.values())

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_fraction_build(self, kind, degree):
        basis = get_basis(kind, degree) if degree <= 6 else build_basis(DOMAINS[kind], degree)
        self._assert_same(basis, _fraction_build(DOMAINS[kind], degree))

    def test_matches_with_polish_pass_spheroid_n6(self):
        reference = _fraction_build(DOMAINS["spheroid"], 6)
        assert reference[-1], "the first pass leaves the Gram within 1e-13: no polish"
        self._assert_same(get_basis("spheroid", 6), reference)

    def test_matches_without_polish_pass_spheroid_n5(self):
        reference = _fraction_build(DOMAINS["spheroid"], 5)
        assert not reference[-1], "the polish pass triggers"
        self._assert_same(get_basis("spheroid", 5), reference)

    def test_rows_beyond_the_double_range_raise_value_error(self):
        nums = np.zeros((2, 3 * monomials.space_dim(1)), dtype=object)
        nums[0, 1], nums[1, 2] = 3, 10 ** 400
        dens = np.array([7, 1], dtype=object)
        with pytest.raises(ValueError, match="degree-1 basis rows"):
            _to_float(nums, dens, 1)
        nums[1, 2] = 10 ** 300
        assert _to_float(nums, dens, 1)[0, 0, 1] == 3 / 7


def _velocity_row(field, degree, dim_q):
    """Integer (v, q = 0) row of a field with integer coefficients."""
    exps = [tuple(e) for e in monomials.exponents(degree).tolist()]
    row = np.zeros(3 * len(exps) + dim_q, dtype=object)
    for a, comp in enumerate(field.components):
        for e, c in comp.coeffs.items():
            assert Fraction(c).denominator == 1
            row[a * len(exps) + exps.index(e)] = int(c)
    return row


class TestExactRowCheck:
    """Negative controls of the integer exactness check run by build_basis."""

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 3, 5])
    def test_raw_rows_pass(self, kind, degree):
        nums, _ = _raw_rows_exact(DOMAINS[kind], degree)
        _check_exact_rows(exact_row_failures(DOMAINS[kind], degree, nums))

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_v_numerator_plus_one_trips_divergence(self, kind):
        degree = 3
        nums, _ = _raw_rows_exact(DOMAINS[kind], degree)
        # v_x at monomial x^2 y (the first dim_v columns are v_x): d/dx of the +1 is 2 x y
        nums[5, monomials.index_map(degree)[(2, 1, 0)]] += 1
        with pytest.raises(InvariantError, match="basis field 5 is not exactly divergence free"):
            _check_exact_rows(exact_row_failures(DOMAINS[kind], degree, nums))

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_q_numerator_plus_one_trips_tangency(self, kind):
        degree = 3
        nums, _ = _raw_rows_exact(DOMAINS[kind], degree)
        nums[7, 3 * monomials.space_dim(degree)] += 1
        with pytest.raises(InvariantError,
                           match="basis field 7 is not exactly tangent to the boundary"):
            _check_exact_rows(exact_row_failures(DOMAINS[kind], degree, nums))

    def test_rotation_rejected_on_triaxial(self):
        # e_z x x is divergence free, and tangent only when a = b
        rotation = solid_rotation((0, 0, 1))
        degree = 2
        dim_q = monomials.space_dim(degree - 1)
        nums, _ = _raw_rows_exact(DOMAINS["triaxial"], degree)
        nums[4] = _velocity_row(rotation, degree, dim_q)
        with pytest.raises(InvariantError,
                           match="basis field 4 is not exactly tangent to the boundary"):
            _check_exact_rows(exact_row_failures(DOMAINS["triaxial"], degree, nums))
        assert rotation.divergence().is_zero()
        assert not rotation.tangency_remainder(DOMAINS["triaxial"].chi).is_zero()
        # on the sphere the same row passes: v.grad(chi) = 0 = chi q with q = 0
        nums, _ = _raw_rows_exact(DOMAINS["sphere"], degree)
        nums[4] = _velocity_row(rotation, degree, dim_q)
        _check_exact_rows(exact_row_failures(DOMAINS["sphere"], degree, nums))

    def test_build_rejects_a_corrupted_combination(self, monkeypatch):
        combine = basis_module._combine_rows

        def corrupted(*args):
            nums, dens, at = combine(*args)
            nums[4, np.flatnonzero(nums[4] != 0)[0]] += 1
            return nums, dens, at

        monkeypatch.setattr(basis_module, "_combine_rows", corrupted)
        with pytest.raises(InvariantError, match="basis field 4 is not exactly"):
            build_basis(DOMAINS["triaxial"], 3)


def _both_passes(kind, degree):
    """The raw rows (nums, dens), their class partition and the two combinations q that a
    build can apply: the first pass and the polish pass's product of triangles."""
    nums, dens = _raw_rows_exact(DOMAINS[kind], degree)
    raw = Basis(DOMAINS[kind], degree, _to_float(nums, dens, degree))
    q = _by_class(_orthonormal_coefficients, raw.gram, raw.members)
    first = Basis(DOMAINS[kind], degree,
                  _to_float(*dense_combine_rows(nums, dens, raw.members, q), degree))
    polish = _by_class(_orthonormal_coefficients, first.gram, raw.members) @ q
    return nums, dens, raw.members, (q, polish)


class TestNonzeroKernels:
    """The build's nonzero-only combination and proof against the dense object-array
    oracles of exact_referee: the same rows, entry for entry, and the same failing rows."""

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_combination_and_proof_match_the_dense_kernels(self, kind, degree):
        nums, dens, members, qs = _both_passes(kind, degree)
        blocks = basis_module._class_blocks(nums, dens, np.nonzero(nums != 0), members)
        for q in qs:
            *rows, at = basis_module._combine_rows(blocks, q, nums.shape[1])
            expected = dense_combine_rows(nums, dens, members, q)
            for got, want in zip(rows, expected, strict=True):
                assert got.dtype == object and got.shape == want.shape
                assert got.tolist() == want.tolist()
                assert all(type(v) is int for v in got.ravel().tolist())
            # the written entries hold every nonzero, so the float view reads them alone
            written = set(zip(*(a.tolist() for a in at)))
            assert set(zip(*(a.tolist() for a in np.nonzero(rows[0] != 0)))) <= written
            np.testing.assert_array_equal(_rows_to_float(*rows, at, degree),
                                          _to_float(*rows, degree))
            failures = exact_row_failures(DOMAINS[kind], degree, rows[0])
            assert failures == dense_row_failures(DOMAINS[kind], degree, rows[0])
            assert failures == {"divergence free": None, "tangent to the boundary": None}
        assert exact_row_failures(DOMAINS[kind], degree, nums) == \
            {"divergence free": None, "tangent to the boundary": None}

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [2, 4, 7])
    def test_negative_controls_name_the_same_first_row(self, kind, degree):
        nums, dens, members, (q, _) = _both_passes(kind, degree)
        blocks = basis_module._class_blocks(nums, dens, np.nonzero(nums != 0), members)
        rows = basis_module._combine_rows(blocks, q, nums.shape[1])[0]
        dim_v = monomials.space_dim(degree)
        classes = np.empty(len(q), dtype=int)
        for p, idx in members.items():
            classes[idx] = p
        col_classes = np.concatenate([basis_module._class_table(degree).ravel(),
                                      (monomials.exponents(degree - 1) % 2) @ basis_module._CLASS_BITS])
        last = len(rows) - 1

        def v_plus_one(nums, i):      # +1 on a v numerator the row holds
            nums[i, np.flatnonzero(nums[i, :3 * dim_v] != 0)[0]] += 1

        def q_plus_one(nums, i):      # +1 on the constant term of q
            nums[i, 3 * dim_v] += 1

        def off_class(nums, i):       # a nonzero where the row's class has none
            nums[i, np.flatnonzero(col_classes != classes[i])[-1]] = -7

        for corrupt in (v_plus_one, q_plus_one, off_class):
            for picked in ((last,), (last, last // 2), (0, last)):
                bad = rows.copy()
                for i in picked:
                    corrupt(bad, i)
                failures = exact_row_failures(DOMAINS[kind], degree, bad)
                assert failures == dense_row_failures(DOMAINS[kind], degree, bad)
                assert min(r for r in failures.values() if r is not None) == min(picked)


def _raw_gram(kind, degree):
    """Float coefficients, mass Gram and classes of the raw exact nullspace fields."""
    nums, dens = _raw_rows_exact(DOMAINS[kind], degree)
    raw = Basis(DOMAINS[kind], degree, _to_float(nums, dens, degree))
    return raw.coeff_array, raw.gram, raw.classes


# axes in the ratio 5 : 4 : 3, more eccentric than DOMAINS["triaxial"]
TRIAXIAL_543 = Domain(1, Fraction(4, 5), Fraction(3, 5))
ALL_DOMAINS = DOMAINS | {"triaxial_543": TRIAXIAL_543}


def _scaled_to_integers(rows):
    """Each rational row {col: Fraction} times the lcm of its denominators."""
    scaled = []
    for row in rows:
        den = math.lcm(*(Fraction(v).denominator for v in row.values()))
        scaled.append({c: int(v * den) for c, v in row.items()})
    return scaled


@st.composite
def _rational_systems(draw):
    """(ncols, rows): sparse rational rows with zero, duplicate and dependent rows among them."""
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    rows = list(base)
    if base:
        pick = st.integers(0, len(base) - 1)
        coef = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2)])
        for i, j, a, b in draw(st.lists(st.tuples(pick, pick, coef, coef), max_size=4)):
            rows.insert(draw(st.integers(0, len(rows))),
                        [a * x + b * y for x, y in zip(base[i], base[j])])
    return ncols, [{c: v for c, v in enumerate(row) if v} for row in rows]


class TestIntegerNullspace:
    """The fraction-free elimination returns the Fraction referee's reduced echelon basis."""

    @pytest.mark.parametrize("kind", ALL_DOMAINS)
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_raw_rows_match_the_fraction_referee(self, kind, degree):
        nums, dens = _raw_rows_exact(ALL_DOMAINS[kind], degree)
        vectors, dim_v, dim_q = exact_nullspace(ALL_DOMAINS[kind], degree)
        ref_nums, ref_dens = vectors_to_rows(vectors, 3 * dim_v + dim_q)
        assert nums.shape == ref_nums.shape
        assert nums.tolist() == ref_nums.tolist()
        assert dens.tolist() == ref_dens.tolist()
        assert all(type(x) is int for x in nums.ravel().tolist() + dens.tolist())

    @given(_rational_systems())
    @example((3, [{0: Fraction(1)}, {1: Fraction(2, 3)}, {2: Fraction(-5, 4)}]))   # full rank
    @example((4, [{}, {1: Fraction(1, 2), 3: Fraction(1, 3)}, {1: Fraction(3), 3: Fraction(2)}]))
    def test_random_systems_match_the_fraction_referee(self, system):
        ncols, rows = system
        nums, dens = _integer_nullspace(_scaled_to_integers(rows), ncols)
        ref_nums, ref_dens = vectors_to_rows(fraction_nullspace(rows, ncols), ncols)
        assert nums.shape == ref_nums.shape
        assert nums.tolist() == ref_nums.tolist()
        assert dens.tolist() == ref_dens.tolist()
        for row in rows:
            for vec in nums.tolist():
                assert sum(v * vec[c] for c, v in row.items()) == 0


class TestClassBlocks:
    """The mirror-reflection classes split M, A_sym, A_grad and the orthonormalization."""

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_cross_class_entries_are_exact_zeros(self, kind, degree):
        _, g_raw, raw_cls = _raw_gram(kind, degree)
        basis = get_basis(kind, degree)
        cls = basis.classes
        np.testing.assert_array_equal(cls, raw_cls)
        assert len(np.unique(cls)) > 1
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                       include_advection=False)
        cross = cls[:, None] != cls[None, :]
        for name, mat in (("raw Gram", g_raw), ("gram", basis.gram), ("A_sym", ops.A_sym),
                          ("A_grad", ops.A_grad)):
            assert np.all(mat[cross] == 0.0), name

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_coriolis_couples_p_only_with_p_xor_6(self, kind, degree):
        # rotation about e_x flips y and z: bits 2 and 4 of the class
        basis = get_basis(kind, degree)
        cls = basis.classes
        c_x = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                       include_advection=False).C_x
        coupled = (cls[:, None] ^ cls[None, :]) == 6
        assert np.all(c_x[~coupled] == 0.0)
        assert np.any(c_x[coupled] != 0.0)

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_raw_gram_cond_matches_the_full_gram(self, kind, method, degree):
        # the build takes it from the class blocks' eigenvalues, not the full Gram's SVD
        domain = DOMAINS[kind]
        if method == "exact":
            basis, g_raw = get_basis(kind, degree), _raw_gram(kind, degree)[1]
        else:
            basis = build_basis(domain, degree, method)
            g_raw = Basis(domain, degree, _raw_coeff_svd(domain, degree)).gram
        cond = np.linalg.cond(g_raw)
        assert abs(basis.raw_gram_cond - cond) <= cond * 1e-14 * cond

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_blocked_mgs_is_block_diagonal_and_matches_one_block(self, kind, degree):
        # the orthonormalization kernel (an inverse Cholesky factor) run per class block
        _, g_raw, cls = _raw_gram(kind, degree)
        g_raw = 0.5 * (g_raw + g_raw.T)
        q = _by_class(_orthonormal_coefficients, g_raw,
                      {p: np.flatnonzero(cls == p) for p in np.unique(cls)})
        assert np.all(q[cls[:, None] != cls[None, :]] == 0.0)
        # same Cholesky factor, other summation order: first-order round-off is cond * eps
        dense = _orthonormal_coefficients(g_raw)
        bound = np.finfo(float).eps * np.linalg.cond(g_raw) * np.max(np.abs(dense))
        assert np.max(np.abs(q - dense)) <= bound

    @pytest.mark.parametrize("kind", ALL_DOMAINS)
    def test_svd_nullspace_has_the_exact_class_sizes(self, kind):
        for degree in range(1, 9):
            raw = _raw_coeff_svd(ALL_DOMAINS[kind], degree)
            assert len(raw) == degree * (degree + 1) * (2 * degree + 7) // 6
            exact = _to_float(*_raw_rows_exact(ALL_DOMAINS[kind], degree), degree)
            np.testing.assert_array_equal(
                np.bincount(coefficient_classes(raw, degree), minlength=8),
                np.bincount(coefficient_classes(exact, degree), minlength=8))

    @pytest.mark.parametrize("kind", ALL_DOMAINS)
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_svd_span_equals_exact_span(self, kind, degree):
        # both bases are orthonormal, so their spans agree exactly when the cross
        # Gram <svd_i, exact_k> (exact monomial integrals) is an orthogonal matrix
        domain = ALL_DOMAINS[kind]
        svd = build_basis(domain, degree, method="svd")
        exact = get_basis(kind, degree) if kind in DOMAINS else build_basis(domain, degree)
        cross = gram_form(svd.coeff_array, monomials.gram(domain, degree, degree),
                          exact.coeff_array)
        assert np.max(np.abs(cross @ cross.T - np.eye(svd.dim))) < 1e-12
        assert np.all(cross[svd.classes[:, None] != exact.classes[None, :]] == 0.0)


class TestGramGate:
    """The gate reads the mass Gram on the octant rule, which is exact for the fields held."""

    @pytest.mark.parametrize("kind", ALL_DOMAINS)
    def test_degree_7_passes(self, kind):
        basis = build_basis(ALL_DOMAINS[kind], 7)
        assert basis.gram_identity_deviation() <= GRAM_IDENTITY_TOL

    @pytest.mark.parametrize("kind", ALL_DOMAINS)
    @pytest.mark.parametrize("method", ["exact", "svd"])
    def test_degree_8_passes(self, kind, method):
        basis = build_basis(ALL_DOMAINS[kind], 8, method=method)
        assert basis.dim == 276
        assert basis.gram_identity_deviation() <= GRAM_IDENTITY_TOL

    def test_failed_gate_raises_invariant_error(self, monkeypatch):
        monkeypatch.setattr("precessflow.basis.GRAM_IDENTITY_TOL", 0.0)
        with pytest.raises(InvariantError, match="orthonormalization failed"):
            build_basis(DOMAINS["spheroid"], 2)
