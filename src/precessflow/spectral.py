"""Viscous kernels, the coercivity constant K_N and the 3/1/0 neutral-mode check.

The kernel of the strain-rate stiffness consists of the rigid rotations the
boundary admits: all three on a sphere, the axial one on a spheroid, none on
a triaxial ellipsoid.  The gradient stiffness has a trivial kernel on every
bounded domain.  K_N, the minimal Rayleigh quotient int |eps(v)|^2 / int |v|^2
over the mass-orthogonal complement of the kernel, is half the first
eigenvalue above the kernel of the same generalized eigenproblem
A_sym x = lambda M x.  It bounds the continuous constant from above and is
nonincreasing in the polynomial degree.  Every caller names the stiffness form
of a kernel ("sym" or "grad"); K_N always excludes the strain-rate kernel.

The eigenproblem is solved per reflection class.  Every volume form vanishes
between fields of different classes (see basis), so A and M are block-diagonal
on the class blocks of Basis.members, and one eigh per block gives the
spectrum.  Each report is kept on its basis, so each stiffness is solved
once per basis, and K_N reads the strain-rate report.  Bit a of a class is
set when its fields flip sign under x_a -> -x_a; the rotation e_a x x is odd
in the two axes other than a, so it lies in class 6 (a = x), 5 (a = y) or 3
(a = z).  Each kernel field thus carries the class of the one rotation it can
be, and the 3/1/0 check asks for classes (3, 5, 6) on a sphere, (3,) on a
z-spheroid and none on a triaxial ellipsoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import ROTATION_CLASSES, InvariantError, _by_class
from .operators import BoundaryCondition, OperatorSet, assemble

# the strain-rate kernel of each domain kind, class by class: the rotations it admits
NEUTRAL_MODE_CLASSES = {"sphere": tuple(sorted(ROTATION_CLASSES)),
                        "spheroid_z": (ROTATION_CLASSES[2],), "triaxial": ()}
# kernel cut, relative to the largest eigenvalue; exact assembly pushes true
# kernel eigenvalues to round-off so the gap is wide
TOL_KERNEL = 1e-10


@dataclass
class KernelReport:
    kernel_dim: int
    kernel_fields: tuple     # read-only vectors, like eigenvalues: the report is shared
    eigenvalues: np.ndarray
    kernel_classes: tuple   # reflection class of each kernel field


@dataclass
class CoercivityResult:
    K_N: float
    excluded_subspace: str
    degree: int


@dataclass
class NeutralModes:
    """The 3/1/0 check on one basis: both kernel reports, K_N, the expected kernel."""
    sym: KernelReport
    grad: KernelReport
    coercivity: CoercivityResult
    expected_classes: tuple
    strain_ok: bool
    gradient_ok: bool
    ok: bool

    @property
    def expected_dim(self) -> int:
        return len(self.expected_classes)


def class_label(classes) -> str:
    """Reflection classes, sorted and separated by spaces, or "none"."""
    return " ".join(str(p) for p in sorted(classes)) or "none"


def viscous_kernel(ops: OperatorSet, stiffness: str) -> KernelReport:
    """Generalized eigenproblem A x = lambda M x; kernel = eigenvalues below the cut.

    ``stiffness`` is "sym" (A = A_sym, strain rate) or "grad" (A = A_grad, gradient).
    One eigh per class block of the basis: an eigenvector of class P's block is zero
    off the rows of class P, and the merged eigenvalues are sorted stably.  A kernel
    vector that fails A k = 0 raises InvariantError (CLI exit 3).  A, like M, is the
    basis's shared core matrix, so the report is kept on the basis (Basis.cached),
    read-only: each stiffness is solved once per basis.
    """
    if stiffness not in ("sym", "grad"):
        raise ValueError("stiffness must be 'sym' or 'grad'")
    return ops.basis.cached(f"kernel {stiffness}", lambda basis: _kernel_report(ops, stiffness))


def _kernel_report(ops: OperatorSet, stiffness: str) -> KernelReport:
    a_mat = ops.A_sym if stiffness == "sym" else ops.A_grad
    eigvals = np.empty(ops.dim)

    def solve(a_block, index):
        eigvals[index], vecs = scipy.linalg.eigh(a_block, ops.M[np.ix_(index, index)])
        return vecs

    # block-diagonal: the eigenvectors of class P fill the rows and columns of class P
    eigvecs = _by_class(solve, a_mat, ops.basis.members)
    order = np.argsort(eigvals, kind="stable")
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    scale = max(float(eigvals[-1]), 0.0)
    cut = TOL_KERNEL * scale if scale > 0 else TOL_KERNEL
    kernel_mask = eigvals < cut
    kernel_fields = tuple(eigvecs[:, i].copy() for i in np.nonzero(kernel_mask)[0])
    for vec in kernel_fields:
        res = np.linalg.norm(a_mat @ vec)
        if res > cut * np.linalg.norm(vec) * 10:
            raise InvariantError("claimed kernel vector fails A k = 0")
    for arr in (eigvals, *kernel_fields):
        arr.flags.writeable = False
    return KernelReport(
        kernel_dim=int(kernel_mask.sum()),
        kernel_fields=kernel_fields,
        eigenvalues=eigvals,
        kernel_classes=tuple(int(p) for p in ops.basis.classes[order][kernel_mask]),
    )


def coercivity_constant(ops: OperatorSet, exclusion="kernel") -> CoercivityResult:
    """K_N = min of  x.A_sym x / (2 x.M x)  over the M-orthogonal complement of the kernel.

    The eigenvectors above the kernel span that complement, so the minimum is
    half the first eigenvalue there, read from the basis's strain-rate report
    (viscous_kernel), solved once per basis.  ``exclusion`` names the excluded
    subspace and must be "kernel": without the exclusion the quotient vanishes
    on a nontrivial kernel, and on an empty one the two coincide.
    A_sym carries 2 int eps:eps, hence the factor 1/2 to match
    int |eps(v)|^2 / int v^2.
    """
    if exclusion != "kernel":
        raise ValueError("exclusion must be 'kernel'")
    report = viscous_kernel(ops, stiffness="sym")
    first = report.kernel_dim
    # a kernel spanning the whole space leaves the infimum over nothing
    k_n = (float(report.eigenvalues[first]) / 2.0 if first < len(report.eigenvalues)
           else float("inf"))
    return CoercivityResult(K_N=k_n, excluded_subspace=f"viscous kernel (dim {first})",
                            degree=ops.basis.degree)


def neutral_modes(basis) -> NeutralModes:
    """The 3/1/0 neutral-mode check of the stress-free operator on `basis`.

    Assembles the stress-free operators (nu = 1, eps_p = 0, no advection;
    eps_p enters neither stiffness form nor M), solves both kernels and reads
    K_N from the strain-rate report.
    """
    ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0,
                   include_advection=False)
    sym = viscous_kernel(ops, stiffness="sym")
    grad = viscous_kernel(ops, stiffness="grad")
    expected = NEUTRAL_MODE_CLASSES[basis.domain.kind]
    strain_ok, gradient_ok = tuple(sorted(sym.kernel_classes)) == expected, grad.kernel_dim == 0
    return NeutralModes(sym, grad, coercivity_constant(ops), expected,
                        strain_ok, gradient_ok, strain_ok and gradient_ok)
