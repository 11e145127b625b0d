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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import BoundaryCondition, OperatorSet, assemble

# kernel dimension of the strain-rate stiffness for each domain kind
NEUTRAL_MODE_DIMS = {"sphere": 3, "spheroid_z": 1, "triaxial": 0}
# kernel cut, relative to the largest eigenvalue; exact assembly pushes true
# kernel eigenvalues to round-off so the gap is wide
TOL_KERNEL = 1e-10


@dataclass
class KernelReport:
    bc_form: str
    kernel_dim: int
    kernel_fields: list
    eigenvalues: np.ndarray


@dataclass
class CoercivityResult:
    K_N: float
    excluded_subspace: str
    degree: int


@dataclass
class NeutralModes:
    """The 3/1/0 check on one basis: both kernel reports, K_N, the expected dimension."""
    sym: KernelReport
    grad: KernelReport
    coercivity: CoercivityResult
    expected_dim: int
    strain_ok: bool
    gradient_ok: bool
    ok: bool


def viscous_kernel(ops: OperatorSet, stiffness: str) -> KernelReport:
    """Generalized eigenproblem A x = lambda M x; kernel = eigenvalues below the cut.

    ``stiffness`` is "sym" (A = A_sym, strain rate) or "grad" (A = A_grad, gradient).
    """
    if stiffness not in ("sym", "grad"):
        raise ValueError("stiffness must be 'sym' or 'grad'")
    a_mat, form = ((ops.A_sym, "stress_free") if stiffness == "sym"
                   else (ops.A_grad, "normal_gradient"))
    eigvals, eigvecs = scipy.linalg.eigh(a_mat, ops.M)
    scale = max(float(eigvals[-1]), 0.0)
    cut = TOL_KERNEL * scale if scale > 0 else TOL_KERNEL
    kernel_mask = eigvals < cut
    kernel_fields = [eigvecs[:, i].copy() for i in np.nonzero(kernel_mask)[0]]
    for vec in kernel_fields:
        res = np.linalg.norm(a_mat @ vec)
        if res > cut * np.linalg.norm(vec) * 10:
            raise RuntimeError("claimed kernel vector fails A k = 0")
    return KernelReport(
        bc_form=form,
        kernel_dim=int(kernel_mask.sum()),
        kernel_fields=kernel_fields,
        eigenvalues=np.sort(eigvals),
    )


def _coercivity(report: KernelReport, degree: int) -> CoercivityResult:
    """K_N from a strain-rate kernel report: half its first eigenvalue above the kernel."""
    first = report.kernel_dim
    # a kernel spanning the whole space leaves the infimum over nothing
    k_n = (float(report.eigenvalues[first]) / 2.0 if first < len(report.eigenvalues)
           else float("inf"))
    return CoercivityResult(K_N=k_n, excluded_subspace=f"viscous kernel (dim {first})",
                            degree=degree)


def coercivity_constant(ops: OperatorSet, exclusion="kernel") -> CoercivityResult:
    """K_N = min of  x.A_sym x / (2 x.M x)  over the M-orthogonal complement of the kernel.

    The eigenvectors above the kernel span that complement, so the minimum is
    the first eigenvalue there.  ``exclusion`` names the excluded subspace and
    must be "kernel": without the exclusion the quotient vanishes on a
    nontrivial kernel, and on an empty one the two coincide.
    A_sym carries 2 int eps:eps, hence the factor 1/2 to match
    int |eps(v)|^2 / int v^2.
    """
    if exclusion != "kernel":
        raise ValueError("exclusion must be 'kernel'")
    return _coercivity(viscous_kernel(ops, stiffness="sym"), ops.basis.degree)


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
    expected = NEUTRAL_MODE_DIMS[basis.domain.kind]
    strain_ok, gradient_ok = sym.kernel_dim == expected, grad.kernel_dim == 0
    return NeutralModes(sym, grad, _coercivity(sym, basis.degree), expected,
                        strain_ok, gradient_ok, strain_ok and gradient_ok)
