import math
from fractions import Fraction

import numpy as np
import pytest

from precessflow import monomials
from precessflow.basis import (build_basis, load_basis, poincare_field, project, save_basis,
                               solid_rotation)
from precessflow.geometry import volume_integral
from precessflow.operators import (BoundaryCondition, advection_term, assemble,
                                   dump_operator_set, momentum_coupling_identity, residual)
from precessflow.polynomials import Polynomial3, VectorField
from precessflow.verification import advection_skew

from conftest import DOMAINS, get_basis
from exact_referee import Referee, sample_pairs, sample_triples

U_P = poincare_field(Fraction(9, 16), Fraction(1, 4))
# u = G x with every entry of G nonzero
LINEAR_DATA = VectorField(tuple(
    Polynomial3({(1, 0, 0): gx, (0, 1, 0): gy, (0, 0, 1): gz})
    for gx, gy, gz in ((Fraction(1), Fraction(-2), Fraction(1, 3)),
                       (Fraction(3, 4), Fraction(2), Fraction(-5)),
                       (Fraction(-1, 2), Fraction(7), Fraction(1)))))


def spheroid_ops(degree=2, form="stress_free", nu=1.0, eps_p=0.0):
    data = U_P if form.startswith("poincare") else None
    return assemble(get_basis("spheroid", degree), BoundaryCondition(form, data),
                    nu=nu, eps_p=eps_p)


class TestBoundaryCondition:
    def test_forms_validated(self):
        with pytest.raises(ValueError):
            BoundaryCondition("free_slip")
        with pytest.raises(ValueError):
            BoundaryCondition("poincare_stress")            # missing data
        with pytest.raises(ValueError):
            BoundaryCondition("stress_free", U_P)           # spurious data

    def test_stiffness_selector(self):
        assert not BoundaryCondition("stress_free").uses_gradient_stiffness
        assert BoundaryCondition("normal_gradient").uses_gradient_stiffness
        assert BoundaryCondition("poincare_normal_gradient", U_P).uses_gradient_stiffness


class TestAssemble:
    def test_viscosity_positive(self):
        with pytest.raises(ValueError):
            spheroid_ops(nu=0.0)
        with pytest.raises(ValueError):
            spheroid_ops(nu=-1.0)

    def test_precession_axis_unit(self):
        with pytest.raises(ValueError):
            assemble(get_basis("spheroid", 1), BoundaryCondition("stress_free"),
                     nu=1.0, eps_p=0.0, precession_axis=(1.0, 1.0, 0.0))

    @pytest.mark.parametrize("axis", [(1.0, 0.0), (1.0,), (0.0, 0.0, 1.0, 0.0)],
                             ids=["two", "one", "four"])
    def test_precession_axis_needs_three_components(self, axis):
        # unit length, but not a vector of three components
        basis = build_basis(DOMAINS["spheroid"], 1)
        with pytest.raises(ValueError, match="three components"):
            assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                     precession_axis=axis)
        assert basis._assembly_cache == {}

    @pytest.mark.parametrize("bad", [
        {"precession_axis": (math.nan, 0.0, 0.0)},
        {"precession_axis": (1.0, math.nan, 0.0)},
        {"eps_p": math.nan},
        {"eps_p": math.inf},
        {"nu": math.inf},
        {"nu": math.nan},
    ], ids=["axis_x_nan", "axis_y_nan", "eps_p_nan", "eps_p_inf", "nu_inf", "nu_nan"])
    def test_non_finite_inputs_rejected_before_assembly(self, bad):
        # a fresh basis, so the empty operator cache shows that nothing was assembled
        basis = build_basis(DOMAINS["spheroid"], 1)
        args = {"nu": 1.0, "eps_p": 0.25, "precession_axis": (1.0, 0.0, 0.0)} | bad
        with pytest.raises(ValueError, match="finite"):
            assemble(basis, BoundaryCondition("stress_free"), **args)
        assert basis._assembly_cache == {}

    def test_nonlinear_data_field_rejected(self):
        x = Polynomial3.variable(0)
        quad = VectorField((x * x, Polynomial3.zero(), Polynomial3.zero()))
        with pytest.raises(ValueError):
            assemble(get_basis("spheroid", 2), BoundaryCondition("poincare_stress", quad),
                     nu=1.0, eps_p=0.25)
        with pytest.raises(ValueError):
            assemble(get_basis("spheroid", 2),
                     BoundaryCondition("poincare_normal_gradient", quad),
                     nu=1.0, eps_p=0.25)

    def test_mass_is_identity(self):
        ops = spheroid_ops(3)
        assert np.max(np.abs(ops.M - np.eye(ops.dim))) < 1e-12

    @pytest.mark.parametrize("source", ["exact", "svd", "roundtrip"])
    def test_mass_is_basis_gram(self, source, tmp_path):
        basis = build_basis(DOMAINS["triaxial"], 3, "exact" if source == "roundtrip" else source)
        if source == "roundtrip":
            save_basis(basis, tmp_path / "basis.txt")
            basis = load_basis(tmp_path / "basis.txt")
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                       include_advection=False)
        np.testing.assert_array_equal(ops.M, basis.gram)

    def test_coriolis_antisymmetric(self):
        for kind in ("sphere", "spheroid", "triaxial"):
            ops = assemble(get_basis(kind, 2), BoundaryCondition("stress_free"),
                           nu=1.0, eps_p=0.25)
            assert np.max(np.abs(ops.C_x + ops.C_x.T)) < 1e-13

    def test_general_precession_axis(self):
        ops = assemble(get_basis("spheroid", 2), BoundaryCondition("stress_free"),
                       nu=1.0, eps_p=0.25, precession_axis=(0.0, 1.0, 0.0))
        assert np.max(np.abs(ops.C_x + ops.C_x.T)) < 1e-13
        # for the y axis, (e_y x b_j) . b_i reduces to z-x moments; non-trivial
        assert np.max(np.abs(ops.C_x)) > 1e-3

    def test_advection_antisymmetry(self):
        ops = spheroid_ops(3)
        assert np.max(np.abs(ops.T + ops.T.transpose(0, 2, 1))) < 1e-12

    def test_hemisphere_split(self):
        for kind in ("sphere", "spheroid", "triaxial"):
            ops = assemble(get_basis(kind, 2), BoundaryCondition("stress_free"),
                           nu=1.0, eps_p=0.0)
            assert np.max(np.abs(ops.Hn + ops.Hs - ops.M)) < 1e-14

    def test_strain_stiffness_kills_rotation(self):
        for kind in ("sphere", "spheroid"):
            ops = assemble(get_basis(kind, 3), BoundaryCondition("stress_free"),
                           nu=1.0, eps_p=0.0)
            c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
            assert np.max(np.abs(ops.A_sym @ c_r)) < 1e-12

    def test_forcing_orthogonal_to_rotation(self):
        ops = spheroid_ops(2, "poincare_stress", nu=1.0 / 0.024, eps_p=0.25)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        assert abs(ops.F_bc @ c_r) < 1e-12

    def test_stiffnesses_positive_semidefinite(self):
        ops = spheroid_ops(3)
        sym_eigs = np.linalg.eigvalsh(ops.A_sym)
        grad_eigs = np.linalg.eigvalsh(ops.A_grad)
        assert sym_eigs[0] > -1e-12
        assert grad_eigs[0] > 1e-10   # trivial kernel for the gradient form

    def test_core_cache_reused(self):
        basis = get_basis("spheroid", 2)
        ops1 = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0)
        ops2 = assemble(basis, BoundaryCondition("normal_gradient"), nu=2.0, eps_p=0.1)
        assert ops1.T is ops2.T

    def test_no_advection_independent_of_cache_history(self):
        # an earlier assembly with advection must not leak T into a later
        # include_advection=False assembly on the same basis
        bc = BoundaryCondition("poincare_stress", U_P)
        warm = build_basis(DOMAINS["spheroid"], 2)
        assert assemble(warm, bc, nu=1.0, eps_p=0.25).T is not None
        ops_warm = assemble(warm, bc, nu=1.0, eps_p=0.25, include_advection=False)
        ops_cold = assemble(build_basis(DOMAINS["spheroid"], 2), bc, nu=1.0, eps_p=0.25,
                            include_advection=False)
        assert ops_warm.T is None
        c = 0.5 * np.random.default_rng(7).standard_normal(ops_warm.dim)
        np.testing.assert_array_equal(residual(c, ops_warm), residual(c, ops_cold))


class TestSharedArrays:
    """Every array an operator set shares with its basis, and with later runs, is read-only."""

    def test_in_place_writes_raise(self):
        ops = spheroid_ops(3, "poincare_stress", nu=2.0, eps_p=0.25)
        shared = {"M": ops.M, "gram": ops.basis.gram, "A_sym": ops.A_sym,
                  "A_grad": ops.A_grad, "mom": ops.mom, "Hn": ops.Hn, "Hs": ops.Hs,
                  "C_x": ops.C_x, "T": ops.T}
        shared |= {f"blocks{key}": b for key, b in ops.T_blocks.items()}
        shared |= {f"pack.{name}": a for name, a in ops.T_packed._asdict().items()}
        assert ops.M is ops.basis.gram
        for name, arr in shared.items():
            first = (0,) * arr.ndim
            with pytest.raises(ValueError, match="read-only"):
                arr[first] = arr[first]
        # the per-assembly forcing vector is the caller's own
        ops.F_bc[0] = ops.F_bc[0]

    @pytest.mark.parametrize("form, stiffness", [("stress_free", "A_sym"),
                                                 ("normal_gradient", "A_grad")])
    def test_viscous_operator_is_formed_once_read_only(self, form, stiffness):
        ops = spheroid_ops(3, form, nu=2.0 / 3.0, eps_p=0.25)
        v = ops.V
        assert ops.V is v and not v.flags.writeable
        assert v.tobytes() == (2.0 / 3.0 * getattr(ops, stiffness)).tobytes()


def _contract(s, t) -> Polynomial3:
    """Full contraction s : t of two 3x3 tensors of polynomials."""
    return sum((s[a][c] * t[a][c] for a in range(3) for c in range(3)), Polynomial3())


class TestEntriesAgainstExactIntegrals:
    """Assembled entries against exact integrals of the polynomial integrands.

    Entries are compared with a relative tolerance of 1e-12 (entries that
    vanish exactly, by parity, with the same tolerance on the matrix scale).
    """

    @staticmethod
    def _check(assembled, exact):
        np.testing.assert_allclose(assembled, exact, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(exact)))

    def test_triaxial_matrices(self):
        # no axis symmetry on the triaxial domain can hide a transposed index
        basis = get_basis("triaxial", 2)
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                       include_advection=False)
        domain = basis.domain
        fields = basis.fields
        strains = [f.strain() for f in fields]
        grads = [f.gradient() for f in fields]
        rng = range(basis.dim)
        a_sym = [[2.0 * volume_integral(_contract(strains[i], strains[j]), domain)
                  for j in rng] for i in rng]
        a_grad = [[volume_integral(_contract(grads[i], grads[j]), domain)
                   for j in rng] for i in rng]
        c_x = [[volume_integral(fields[i].dot(fields[j].cross_const((1, 0, 0))), domain)
                for j in rng] for i in rng]
        self._check(ops.A_sym, np.array(a_sym))
        self._check(ops.A_grad, np.array(a_grad))
        self._check(ops.C_x, np.array(c_x))

    @pytest.mark.parametrize("form", ["poincare_stress", "poincare_normal_gradient"])
    def test_spheroid_forcing(self, form):
        nu = 0.5
        ops = spheroid_ops(2, form, nu=nu, eps_p=0.25)
        domain = ops.basis.domain
        if form == "poincare_stress":
            f_bc = [2.0 * nu * volume_integral(_contract(f.strain(), U_P.strain()), domain)
                    for f in ops.basis.fields]
        else:
            f_bc = [nu * volume_integral(_contract(f.gradient(), U_P.gradient()), domain)
                    for f in ops.basis.fields]
        self._check(ops.F_bc, np.array(f_bc))


class TestResidual:
    def test_rest_state(self):
        ops = spheroid_ops(2)
        assert np.max(np.abs(residual(np.zeros(ops.dim), ops))) == 0.0

    def test_dimension_mismatch(self):
        ops = spheroid_ops(2)
        with pytest.raises(ValueError):
            residual(np.zeros(3), ops)

    @pytest.mark.parametrize("nu_inverse", [0.024, 0.00375])
    def test_poincare_steady(self, nu_inverse):
        ops = spheroid_ops(2, "poincare_stress", nu=1.0 / nu_inverse, eps_p=0.25)
        c_p, _ = project(U_P, ops.basis)
        assert np.max(np.abs(residual(c_p, ops))) < 1e-10

    def test_poincare_steady_at_degree_8(self):
        # nu A_sym amplifies the projection's round-off: with u_P projected through
        # monomial integrals the residual read 1.5e-10 here against the nodal A_sym
        basis = build_basis(DOMAINS["spheroid"], 8)
        ops = assemble(basis, BoundaryCondition("poincare_stress", U_P), nu=1.0 / 0.024,
                       eps_p=0.25)
        c_p, _ = project(U_P, basis)
        assert np.max(np.abs(residual(c_p, ops))) < 1e-10

    def test_rotation_shift_family_steady(self):
        ops = spheroid_ops(2, "poincare_stress", nu=1.0 / 0.024, eps_p=0.25)
        c_p, _ = project(U_P, ops.basis)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        for omega in (0.025, -0.025, 0.1, -0.1, 1.0):
            assert np.max(np.abs(residual(c_p + omega * c_r, ops))) < 1e-10

    def test_gradient_form_poincare_steady_but_family_not(self):
        ops = spheroid_ops(2, "poincare_normal_gradient", nu=1.0 / 0.024, eps_p=0.25)
        c_p, _ = project(U_P, ops.basis)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        assert np.max(np.abs(residual(c_p, ops))) < 1e-10
        assert np.max(np.abs(residual(c_p + 0.1 * c_r, ops))) > 1e-2

    def test_homogeneous_stress_free_does_not_balance_poincare(self):
        ops = spheroid_ops(2, "stress_free", nu=1.0 / 0.024, eps_p=0.25)
        c_p, _ = project(U_P, ops.basis)
        assert np.max(np.abs(residual(c_p, ops))) > 1e-3

    def test_advection_requires_tensor(self):
        basis = get_basis("spheroid", 1)
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                       include_advection=False)
        with pytest.raises(ValueError):
            advection_term(ops, np.zeros(ops.dim))


class TestAngularMomentum:
    def test_rotation_moment(self):
        # exact value (4 pi / 15) a b c (a^2 + b^2) on a=b=1, c=0.8
        ops = spheroid_ops(2)
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        m = ops.mom @ c_r
        expected = 4 * math.pi / 15 * 0.8 * 2.0
        assert m[2] == pytest.approx(expected, rel=1e-12)
        assert abs(m[0]) < 1e-14 and abs(m[1]) < 1e-14

    def test_rest(self):
        ops = spheroid_ops(1)
        np.testing.assert_array_equal(ops.mom @ np.zeros(ops.dim), np.zeros(3))


class TestMomentumCouplingIdentity:
    def test_rotation_gives_zero(self):
        lhs, rhs = momentum_coupling_identity(solid_rotation((0, 0, 1)),
                                              DOMAINS["spheroid"])
        assert lhs == 0.0 and rhs == 0.0

    def test_poincare_gives_zero_baseline(self):
        lhs, rhs = momentum_coupling_identity(U_P, DOMAINS["spheroid"])
        assert abs(lhs) < 1e-14 and abs(rhs - lhs) < 1e-14

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_all_basis_fields(self, kind):
        domain = DOMAINS[kind]
        for f in get_basis(kind, 3).fields:
            lhs, rhs = momentum_coupling_identity(f, domain)
            assert abs(lhs - rhs) < 1e-12


class TestAdvectionTerm:
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree, method",
                             [(2, "exact"), (3, "exact"), (4, "exact"), (5, "exact"), (3, "svd")],
                             ids=["2", "3", "4", "5", "3-svd"])
    def test_matches_tensor_contraction(self, kind, degree, method):
        basis = (get_basis(kind, degree) if method == "exact"
                 else build_basis(DOMAINS[kind], degree, method))
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0)
        rng = np.random.default_rng(degree)
        for _ in range(5):
            c = rng.standard_normal(ops.dim)
            expected = np.einsum("i,j,ijk->k", c, c, ops.T)
            # relative to the largest entry: entries that vanish analytically
            # carry only the round-off of either summation order
            err = np.max(np.abs(advection_term(ops, c) - expected))
            assert err <= 1e-14 * np.max(np.abs(expected))

    def test_packed_operator_is_a_fraction_of_the_tensor(self):
        ops = spheroid_ops(5)
        assert sum(a.nbytes for a in ops.T_packed) < 0.25 * ops.T.nbytes

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_tensor_vanishes_off_the_parity_rule(self, kind, degree):
        ops = assemble(get_basis(kind, degree), BoundaryCondition("stress_free"),
                       nu=1.0, eps_p=0.0)
        cls = ops.basis.classes
        assert len(np.unique(cls)) > 1
        off_rule = (cls[:, None, None] ^ cls[None, :, None] ^ cls[None, None, :]) != 0
        assert np.all(ops.T[off_rule] == 0.0)


def _dense_advection_tensor(basis):
    """T by the three dense einsums over all monomials: the assembly before class blocks."""
    n = basis.degree
    bc_arr = basis.coeff_array
    db = np.stack([monomials.apply_derivative(bc_arr, n, a) for a in range(3)], axis=2)
    g3 = monomials.triple_product_table(basis.domain, n, n - 1, n)
    u = np.einsum("mno,kco->mnkc", g3, bc_arr, optimize=True)
    v2 = np.einsum("jcan,mnkc->majk", db, u, optimize=True)
    return np.einsum("iam,majk->ijk", bc_arr, v2, optimize=True)


def _scattered_tensor(basis, blocks):
    """T from the class-pair blocks, one (i, j) field pair at a time.

    The assignments of _dense_advection's per-block scatter, written
    independently of it: the fields of each class are found from basis.classes.
    """
    members = {p: np.flatnonzero(basis.classes == p) for p in range(8)}
    t = np.zeros((basis.dim,) * 3)
    for (p, q), b in blocks.items():
        for a, i in enumerate(members[p]):
            for c, j in enumerate(members[q]):
                t[i, j, members[p ^ q]] = b[a, :, c]
    return t


_svd_bases: dict = {}


def get_any_basis(kind, degree, method):
    """The exact bases of conftest, and svd bases built once here."""
    if method == "exact":
        return get_basis(kind, degree)
    if (kind, degree) not in _svd_bases:
        _svd_bases[kind, degree] = build_basis(DOMAINS[kind], degree, "svd")
    return _svd_bases[kind, degree]


class TestClassBlockedTensor:
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_matches_dense_assembly(self, kind, method, degree):
        basis = get_any_basis(kind, degree, method)
        t = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0).T
        assert t.flags.c_contiguous and t.shape == (basis.dim,) * 3
        tol = 1e-13 if degree <= 5 else 2e-13
        if degree <= 4:
            # the float contraction over monomial integrals is within 1e-15 * max|T| here
            reference = _dense_advection_tensor(basis)
            assert np.max(np.abs(t - reference)) <= tol * np.max(np.abs(reference))
            return
        # beyond N = 4 the float contraction's own error exceeds the tolerance
        # (2.6-2.9e-13 * max|T| at N = 5, 1.7-2.4e-12 at N = 6): sampled entries
        # are compared with the exact-rational referee instead
        referee = Referee(basis)
        rng = np.random.default_rng(degree)
        for i, j, k in sample_triples(t, basis.classes, 12, rng):
            assert abs(t[i, j, k] - referee.advection(i, j, k)) <= tol * np.max(np.abs(t))

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_blocks_are_keyed_by_class_pair_without_padding(self, kind, method, degree):
        basis = get_any_basis(kind, degree, method)
        blocks = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0).T_blocks
        present = set(basis.classes.tolist())
        assert set(blocks) == {(p, q) for p in present for q in present if p ^ q in present}
        sizes = np.bincount(basis.classes, minlength=8)
        for (p, q), b in blocks.items():
            assert b.shape == (sizes[p], sizes[p ^ q], sizes[q])
            assert b.flags.c_contiguous and not b.flags.writeable

    def test_every_operator_set_of_a_basis_shares_one_blocks_dict(self):
        basis = build_basis(DOMAINS["spheroid"], 3)
        assert assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                        include_advection=False).T_blocks is None
        assert "T" not in basis._assembly_cache
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0)
        assert isinstance(ops.T_blocks, dict) and ops.T_blocks
        others = [assemble(basis, BoundaryCondition("normal_gradient"), nu=2.0, eps_p=0.1),
                  assemble(basis, BoundaryCondition("poincare_stress", U_P), nu=0.5,
                           eps_p=0.25, precession_axis=(0.0, 0.0, 1.0))]
        assert all(other.T_blocks is ops.T_blocks for other in others)
        assert assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                        include_advection=False).T_blocks is None

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_dense_tensor_is_formed_on_first_read(self, kind, method, degree):
        basis = build_basis(DOMAINS[kind], degree, method)
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0)
        blocks, pack = ops.T_blocks, ops.T_packed
        assert "T_dense" not in basis._assembly_cache
        assert sum(b.size for b in blocks.values()) < basis.dim ** 3
        assert all(a.size < basis.dim ** 3 for a in pack)
        t = ops.T
        assert basis._assembly_cache["T_dense"] is t
        assert t.tobytes() == _scattered_tensor(basis, blocks).tobytes()
        assert not t.flags.writeable and t.flags.c_contiguous
        # verify's antisymmetry, read on the blocks, is the dense max |T + T^T| bit for bit
        skew = advection_skew(blocks)
        assert skew == float(np.max(np.abs(t + t.transpose(0, 2, 1))))
        # once per basis: a second read, or another operator set, gives the same array
        assert ops.T is t
        assert assemble(basis, BoundaryCondition("normal_gradient"), nu=2.0, eps_p=0.1).T is t
        assert assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                        include_advection=False).T is None


def _pack_from_dense(ops):
    """(g, pi, pj, unpad) read off the dense T: for each output class R, in Basis.members
    order, the pairs i <= j with cls(i) ^ cls(j) = R in np.triu_indices order, their
    column T[i, j, k] + T[j, i, k] (T[i, i, k] on the diagonal) over the outputs k of
    R, and zero padding; unpad sends k to its (class slot, row) entry."""
    basis, t = ops.basis, ops.T
    members, cls = basis.members, basis.classes
    rows = max(len(m) for m in members.values())
    pairs = {r: [] for r in members}
    for i, j in zip(*np.triu_indices(basis.dim)):
        if cls[i] ^ cls[j] in pairs:
            pairs[cls[i] ^ cls[j]].append((i, j))
    width = max(len(p) for p in pairs.values())
    g = np.zeros((len(members), rows, width))
    pi = np.zeros((len(members), width), dtype=np.intp)
    pj = np.zeros_like(pi)
    unpad = np.empty(basis.dim, dtype=np.intp)
    for s, (r, k) in enumerate(members.items()):
        unpad[k] = s * rows + np.arange(len(k))
        for col, (i, j) in enumerate(pairs[r]):
            pi[s, col], pj[s, col] = i, j
            g[s, :len(k), col] = t[i, i, k] if i == j else t[i, j, k] + t[j, i, k]
    return g, pi, pj, unpad


class TestPackLayout:
    """The packed advection operator, array for array and bit for bit, against its
    definition on the dense tensor: the column order is the summation order of
    advection_term, so it is pinned as well as the values."""

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("classes", [None, (0, 3, 5, 6), (3,)])
    def test_pack_is_the_dense_definition(self, kind, method, degree, classes):
        basis = get_any_basis(kind, degree, method)
        if classes is not None:
            basis = basis.restrict(classes)
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0)
        for got, want in zip(ops.T_packed, _pack_from_dense(ops), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        if classes == (3,):       # no two classes XOR to a present one: no pair at all
            assert ops.T_packed.g.shape[2] == 0
            np.testing.assert_array_equal(advection_term(ops, np.ones(basis.dim)),
                                          np.zeros(basis.dim))


class TestExactReferee:
    """Sampled entries of the float operators against exact rationals of the same fields."""

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_sampled_entries_within_1e_13(self, kind, method, degree):
        basis = get_any_basis(kind, degree, method)
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0)
        referee = Referee(basis)
        rng = np.random.default_rng([degree, len(kind)])
        cls = basis.classes
        for name, op, exact, shift in (("M", ops.M, referee.mass, 0),
                                       ("A_sym", ops.A_sym, referee.strain, 0),
                                       ("C_x", ops.C_x, referee.coriolis_x, 6)):
            worst = max(abs(op[i, k] - exact(i, k)) for i, k in sample_pairs(cls, shift, 12, rng))
            assert worst <= 1e-13 * np.max(np.abs(op)), name
        t = ops.T
        worst = max(abs(t[i, j, k] - referee.advection(i, j, k))
                    for i, j, k in sample_triples(t, cls, 8, rng))
        assert worst <= 1e-13 * np.max(np.abs(t))

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_angular_momentum_within_1e_13(self, kind, method, degree):
        basis = get_any_basis(kind, degree, method)
        mom = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                       include_advection=False).mom
        referee = Referee(basis)
        exact = np.array([[referee.momentum(a, i) for i in range(basis.dim)] for a in range(3)])
        assert np.max(np.abs(mom - exact)) <= 1e-13 * np.max(np.abs(mom))

    # the linear field's gradient fills all nine entries, so every class of the
    # (comp, axis) mask carries data; u_P's only on some
    @pytest.mark.parametrize("kind, data", [("spheroid", "u_P"), ("sphere", "linear"),
                                            ("spheroid", "linear"), ("triaxial", "linear")])
    @pytest.mark.parametrize("method", ["exact", "svd"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_forcing_within_1e_13(self, kind, data, method, degree):
        basis = get_any_basis(kind, degree, method)
        field = U_P if data == "u_P" else LINEAR_DATA
        # grad[c][a] = d field_c / d x_a, read off the linear coefficients
        grad = [[Fraction(field.components[c].coeffs.get(tuple(np.eye(3, dtype=int)[a]), 0))
                 for a in range(3)] for c in range(3)]
        strain = [[(grad[c][a] + grad[a][c]) / 2 for a in range(3)] for c in range(3)]
        referee = Referee(basis)
        # the largest single term int d_a b_i[c]: the stress forcing on the sphere
        # cancels to 0, so max|F_bc| is no scale there
        units = np.eye(9, dtype=int).reshape(9, 3, 3).tolist()
        term = max(abs(referee.gradient_integral(i, u)) for i in range(basis.dim) for u in units)
        nu = 0.5
        for form, weight, tensor in (("poincare_stress", 2 * nu, strain),
                                     ("poincare_normal_gradient", nu, grad)):
            f_bc = assemble(basis, BoundaryCondition(form, field), nu=nu, eps_p=0.25,
                            include_advection=False).F_bc
            exact = np.array([weight * referee.gradient_integral(i, tensor)
                              for i in range(basis.dim)])
            scale = weight * float(max(abs(v) for row in tensor for v in row)) * term
            assert np.max(np.abs(f_bc - exact)) <= 1e-13 * scale, form

    def test_referee_catches_a_perturbed_entry(self):
        # negative control: the largest entry of T, off by 1e-12 of itself
        basis = get_basis("spheroid", 3)
        t = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0).T
        i, j, k = np.unravel_index(np.argmax(np.abs(t)), t.shape)
        exact = Referee(basis).advection(i, j, k)
        assert abs(t[i, j, k] - exact) <= 1e-14 * abs(exact)
        assert abs(t[i, j, k] * (1 + 1e-12) - exact) > 1e-13 * abs(exact)


class TestEnergyNeutrality:
    def test_random_states(self):
        ops = spheroid_ops(3, eps_p=0.25)
        rng = np.random.default_rng(42)
        for _ in range(30):
            c = rng.standard_normal(ops.dim)
            c /= np.linalg.norm(c)
            assert abs(c @ advection_term(ops, c)) < 1e-11
            assert abs(c @ (ops.C_x @ c)) < 1e-13


def test_dump_operator_set(tmp_path):
    ops = spheroid_ops(1, "poincare_stress", nu=2.0, eps_p=0.25)
    path = tmp_path / "ops.txt"
    dump_operator_set(ops, path)
    text = path.read_text()
    assert text.startswith("# precessflow operators dim 3")
    lines = text.splitlines()
    idx = lines.index("# M 3 3")
    m = np.array([[float(v) for v in lines[idx + 1 + i].split()] for i in range(3)])
    np.testing.assert_allclose(m, ops.M, atol=1e-16)
    assert "# T 3 3 3" in text
