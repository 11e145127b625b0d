from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from precessflow.basis import build_basis, project, solid_rotation
from precessflow.geometry import Domain
from precessflow.operators import BoundaryCondition, assemble
from precessflow.spectral import (NEUTRAL_MODE_CLASSES, coercivity_constant, neutral_modes,
                                  viscous_kernel)

from conftest import DOMAINS, get_basis

EXPECTED_KERNEL = {"sphere": 3, "spheroid": 1, "triaxial": 0}
# e_z x x is in class 3, e_y x x in 5, e_x x x in 6
EXPECTED_CLASSES = {"sphere": (3, 5, 6), "spheroid": (3,), "triaxial": ()}

# regression values from the generalized eigenproblem (exclusion = kernel)
SPHEROID_K = {2: 0.3086890243902438, 3: 0.23255052415478786,
              4: 0.2325505241547687, 5: 0.2318076671766105}


def stress_ops_on(basis):
    return assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                    include_advection=False)


def stress_ops(kind, degree):
    return stress_ops_on(get_basis(kind, degree))


def complement_k_n(ops):
    """Reference K_N: a second eigenproblem on an explicit basis of the kernel's
    M-orthogonal complement (an SVD null space), inf when the complement is empty."""
    report = viscous_kernel(ops, stiffness="sym")
    if report.kernel_fields:
        kernel = np.stack(report.kernel_fields, axis=1)
        comp = scipy.linalg.null_space((ops.M @ kernel).T)
    else:
        comp = np.eye(ops.dim)
    if comp.shape[1] == 0:
        return float("inf")
    a_c = comp.T @ ops.A_sym @ comp
    m_c = comp.T @ ops.M @ comp
    eigvals = scipy.linalg.eigh(0.5 * (a_c + a_c.T), 0.5 * (m_c + m_c.T), eigvals_only=True)
    return float(eigvals[0]) / 2.0


class TestViscousKernel:
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_trichotomy(self, kind, degree):
        ops = stress_ops(kind, degree)
        assert viscous_kernel(ops, stiffness="sym").kernel_dim == EXPECTED_KERNEL[kind]
        assert viscous_kernel(ops, stiffness="grad").kernel_dim == 0

    def test_default_stiffness_follows_bc(self):
        ops = assemble(get_basis("spheroid", 2), BoundaryCondition("normal_gradient"),
                       nu=1.0, eps_p=0.0, include_advection=False)
        # each report's spectrum is its stiffness's: A_grad for "grad", A_sym for "sym"
        for stiffness, a_mat in (("grad", ops.A_grad), ("sym", ops.A_sym)):
            reference = scipy.linalg.eigh(a_mat, ops.M, eigvals_only=True)
            np.testing.assert_allclose(viscous_kernel(ops, stiffness).eigenvalues, reference,
                                       rtol=0, atol=1e-12 * reference[-1])
        assert viscous_kernel(ops, "grad").kernel_dim == 0
        with pytest.raises(TypeError):
            viscous_kernel(ops)     # the stiffness form has no default

    def test_spheroid_kernel_is_axial_rotation(self):
        ops = stress_ops("spheroid", 3)
        report = viscous_kernel(ops, stiffness="sym")
        assert report.kernel_dim == 1
        k = report.kernel_fields[0]
        c_r, _ = project(solid_rotation((0, 0, 1)), ops.basis)
        cosine = abs(k @ c_r) / (np.linalg.norm(k) * np.linalg.norm(c_r))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues_sorted_and_kernel_small(self):
        ops = stress_ops("spheroid", 3)
        report = viscous_kernel(ops, stiffness="sym")
        assert np.all(np.diff(report.eigenvalues) >= -1e-12)
        assert report.eigenvalues[0] < 1e-12 * report.eigenvalues[-1]
        assert report.eigenvalues[1] > 1e-6 * report.eigenvalues[-1]

    def test_kernel_vectors_annihilated(self):
        ops = stress_ops("sphere", 3)
        report = viscous_kernel(ops, stiffness="sym")
        scale = report.eigenvalues[-1]
        for k in report.kernel_fields:
            assert np.linalg.norm(ops.A_sym @ k) < 1e-10 * scale * np.linalg.norm(k)


class TestPerClassSolve:
    @pytest.mark.parametrize("stiffness", ["sym", "grad"])
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_eigenvalues_match_the_full_eigenproblem(self, kind, degree, stiffness):
        ops = stress_ops(kind, degree)
        a_mat = ops.A_sym if stiffness == "sym" else ops.A_grad
        full = scipy.linalg.eigh(a_mat, ops.M, eigvals_only=True)
        report = viscous_kernel(ops, stiffness=stiffness)
        assert report.eigenvalues.shape == full.shape
        assert np.all(np.diff(report.eigenvalues) >= 0)
        np.testing.assert_allclose(report.eigenvalues, full, rtol=0.0,
                                   atol=1e-12 * float(full[-1]))

    @pytest.mark.parametrize("kind", ["sphere", "spheroid"])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_kernel_fields_lie_in_their_class_and_are_orthonormal(self, kind, degree):
        ops = stress_ops(kind, degree)
        report = viscous_kernel(ops, stiffness="sym")
        assert len(report.kernel_classes) == report.kernel_dim == len(report.kernel_fields)
        for k, p in zip(report.kernel_fields, report.kernel_classes):
            assert np.all(k[ops.basis.classes != p] == 0.0)
            assert np.any(k[ops.basis.classes == p] != 0.0)
        kernel = np.stack(report.kernel_fields, axis=1)
        np.testing.assert_allclose(kernel.T @ ops.M @ kernel, np.eye(report.kernel_dim),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_kernel_classes(self, kind, degree):
        report = viscous_kernel(stress_ops(kind, degree), stiffness="sym")
        assert tuple(sorted(report.kernel_classes)) == EXPECTED_CLASSES[kind]
        assert viscous_kernel(stress_ops(kind, degree), stiffness="grad").kernel_classes == ()

    @staticmethod
    def recorded_eigh_sizes(monkeypatch) -> list:
        sizes = []
        eigh = scipy.linalg.eigh

        def recording_eigh(a, b=None, *args, **kwargs):
            sizes.append(len(a))
            return eigh(a, b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
        return sizes

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_no_eigensolve_exceeds_a_class_block(self, kind, monkeypatch):
        # a fresh basis: the shared one keeps the reports of earlier tests
        ops = stress_ops_on(build_basis(DOMAINS[kind], 4))
        largest = int(np.bincount(ops.basis.classes).max())
        sizes = self.recorded_eigh_sizes(monkeypatch)
        neutral_modes(ops.basis)
        coercivity_constant(ops, "kernel")
        assert sizes and max(sizes) <= largest < ops.dim

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_each_stiffness_is_solved_once_per_basis(self, kind, monkeypatch):
        basis = build_basis(DOMAINS[kind], 3)
        sizes = self.recorded_eigh_sizes(monkeypatch)
        first = [viscous_kernel(stress_ops_on(basis), stiffness) for stiffness in ("sym", "grad")]
        coercivity_constant(stress_ops_on(basis), "kernel")
        modes = neutral_modes(basis)
        # one eigh per class block and stiffness, however many operator sets ask
        assert len(sizes) == 2 * len(basis.members)
        assert (modes.sym, modes.grad) == tuple(first)
        assert modes.sym is first[0] and modes.grad is first[1]
        report = first[0]
        assert not report.eigenvalues.flags.writeable
        assert not any(k.flags.writeable for k in report.kernel_fields)


class TestCoercivity:
    def test_spheroid_regression_sequence(self):
        values = []
        for degree in (2, 3, 4, 5):
            ops = stress_ops("spheroid", degree) if degree <= 4 else assemble(
                build_basis(DOMAINS["spheroid"], 5), BoundaryCondition("stress_free"),
                nu=1.0, eps_p=0.0, include_advection=False)
            res = coercivity_constant(ops, "kernel")
            assert res.K_N == pytest.approx(SPHEROID_K[degree], rel=1e-8)
            assert res.degree == degree
            values.append(res.K_N)
        # Rayleigh quotients over nested spaces are nonincreasing
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    def test_sphere_with_explicit_rotations(self):
        ops = stress_ops("sphere", 4)
        rotations = np.stack([project(solid_rotation(axis), ops.basis)[0]
                              for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))], axis=1)
        report = viscous_kernel(ops, stiffness="sym")
        # the three rotations and the kernel span the same space
        assert report.kernel_dim == 3
        assert np.linalg.matrix_rank(rotations) == 3
        for k in report.kernel_fields:
            coeff, *_ = np.linalg.lstsq(rotations, k, rcond=None)
            assert np.linalg.norm(k - rotations @ coeff) < 1e-10 * np.linalg.norm(k)
        res = coercivity_constant(ops, "kernel")
        assert res.K_N == pytest.approx(3.128887849097982, rel=1e-8)

    def test_triaxial_no_exclusion_equals_smallest_eigenvalue(self):
        ops = stress_ops("triaxial", 4)
        res = coercivity_constant(ops, "kernel")   # the triaxial kernel is empty
        report = viscous_kernel(ops, stiffness="sym")
        assert res.K_N == pytest.approx(report.eigenvalues[0] / 2.0, rel=1e-10)
        assert res.K_N == pytest.approx(0.04791331169133704, rel=1e-8)

    def test_exclusion_must_cover_kernel(self):
        ops = stress_ops("spheroid", 2)
        # a vector orthogonal to the kernel cannot stand in for it
        report = viscous_kernel(ops, stiffness="sym")
        k = report.kernel_fields[0]
        other = np.zeros(ops.dim)
        other[int(np.argmin(np.abs(k)))] = 1.0
        other -= (other @ k) / (k @ k) * k
        with pytest.raises(ValueError):
            coercivity_constant(ops, [other])

    def test_full_exclusion_gives_infinity(self):
        ops = stress_ops("sphere", 1)   # the whole space is rotations
        res = coercivity_constant(ops, "kernel")
        assert res.K_N == float("inf")

    def test_bad_exclusion_spec(self):
        ops = stress_ops("spheroid", 2)
        for exclusion in ("everything", "none"):
            with pytest.raises(ValueError):
                coercivity_constant(ops, exclusion)

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_matches_the_complement_eigenproblem(self, kind, degree):
        ops = stress_ops(kind, degree)
        # approx treats inf (the sphere at N = 1) as equal to itself only
        assert coercivity_constant(ops, "kernel").K_N == pytest.approx(
            complement_k_n(ops), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_is_half_the_first_eigenvalue_above_the_kernel(self, kind):
        ops = stress_ops(kind, 3)
        report = viscous_kernel(ops, stiffness="sym")
        assert coercivity_constant(ops, "kernel").K_N == \
            report.eigenvalues[report.kernel_dim] / 2.0


class TestNeutralModes:
    @pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
    def test_trichotomy_and_coercivity(self, kind):
        basis = get_basis(kind, 3)
        modes = neutral_modes(basis)
        assert (modes.expected_dim == len(NEUTRAL_MODE_CLASSES[basis.domain.kind])
                == EXPECTED_KERNEL[kind])
        assert modes.expected_classes == NEUTRAL_MODE_CLASSES[basis.domain.kind] \
            == EXPECTED_CLASSES[kind]
        assert tuple(sorted(modes.sym.kernel_classes)) == EXPECTED_CLASSES[kind]
        assert (modes.sym.kernel_dim, modes.grad.kernel_dim) == (EXPECTED_KERNEL[kind], 0)
        assert modes.strain_ok and modes.gradient_ok and modes.ok
        assert modes.coercivity.K_N == coercivity_constant(stress_ops(kind, 3), "kernel").K_N

    def test_flags_a_kernel_of_the_wrong_dimension(self):
        # an x-spheroid: Domain.kind calls it triaxial, the kernel holds the x rotation
        modes = neutral_modes(build_basis(Domain(Fraction(4, 5), 1, 1), 2))
        assert (modes.expected_dim, modes.sym.kernel_dim) == (0, 1)
        assert modes.sym.kernel_classes == (6,)     # e_x x x
        assert not modes.strain_ok and modes.gradient_ok and not modes.ok

    def test_flags_a_kernel_of_the_wrong_class(self, monkeypatch):
        # an x-spheroid checked as a z-spheroid: its one kernel field is e_x x x, not e_z x x
        monkeypatch.setitem(NEUTRAL_MODE_CLASSES, "triaxial", (3,))
        modes = neutral_modes(build_basis(Domain(Fraction(4, 5), 1, 1), 2))
        assert (modes.expected_dim, modes.sym.kernel_dim) == (1, 1)
        assert not modes.strain_ok and not modes.ok
