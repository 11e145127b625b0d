"""Viscous-kernel detection and discrete coercivity constants.

The kernel of the strain-rate stiffness consists of the rigid rotations the
boundary admits: all three on a sphere, the axial one on a spheroid, none on
a triaxial ellipsoid.  The gradient stiffness has a trivial kernel on every
bounded domain.  The coercivity constant is the minimal Rayleigh quotient
int |eps(v)|^2 / int |v|^2 over the mass-orthogonal complement of an excluded
subspace; the discrete value bounds the continuous one from above and is
nonincreasing in the polynomial degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import OperatorSet

# kernel dimension of the strain-rate stiffness for each domain kind
NEUTRAL_MODE_DIMS = {"sphere": 3, "spheroid_z": 1, "triaxial": 0}


@dataclass
class KernelReport:
    bc_form: str
    kernel_dim: int
    kernel_fields: list
    eigenvalues: np.ndarray
    tol_kernel: float


@dataclass
class CoercivityResult:
    K_N: float
    excluded_subspace: str
    degree: int


def _stiffness(ops: OperatorSet, stiffness: str | None):
    if stiffness is None:
        stiffness = "grad" if ops.bc.uses_gradient_stiffness else "sym"
    if stiffness == "sym":
        return ops.A_sym, "stress_free"
    if stiffness == "grad":
        return ops.A_grad, "normal_gradient"
    raise ValueError("stiffness must be 'sym', 'grad', or None")


def viscous_kernel(ops: OperatorSet, tol_kernel: float = 1e-10,
                   stiffness: str | None = None) -> KernelReport:
    """Generalized eigenproblem A x = lambda M x; kernel = eigenvalues below tol.

    tol_kernel is relative to the largest eigenvalue; exact assembly pushes
    true kernel eigenvalues to round-off so the gap is wide.
    """
    a_mat, form = _stiffness(ops, stiffness)
    try:
        eigvals, eigvecs = scipy.linalg.eigh(a_mat, ops.M)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"eigenvalue solver failed: {exc}") from exc
    scale = max(float(eigvals[-1]), 0.0)
    cut = tol_kernel * scale if scale > 0 else tol_kernel
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
        tol_kernel=tol_kernel,
    )


def coercivity_constant(ops: OperatorSet, exclusion="kernel",
                        tol_kernel: float = 1e-10) -> CoercivityResult:
    """K_N = min of  x.A_sym x / (2 x.M x)  over the M-orthogonal complement.

    ``exclusion`` is "kernel" (exclude the computed viscous kernel), "none",
    or an explicit list/array of coefficient vectors.  The excluded span must
    contain the kernel, otherwise the quotient would vanish and the request
    is rejected.  A_sym carries 2 int eps:eps, hence the factor 1/2 to match
    int |eps(v)|^2 / int v^2.
    """
    report = viscous_kernel(ops, tol_kernel=tol_kernel, stiffness="sym")
    if isinstance(exclusion, str):
        if exclusion == "kernel":
            vectors = report.kernel_fields
            label = f"viscous kernel (dim {report.kernel_dim})"
        elif exclusion == "none":
            vectors = []
            label = "none"
        else:
            raise ValueError("exclusion must be 'kernel', 'none', or explicit vectors")
    else:
        vectors = [np.asarray(v, dtype=float) for v in exclusion]
        label = f"explicit span (dim {len(vectors)})"

    dim = ops.dim
    if vectors:
        x_mat = np.stack(vectors, axis=1)
        # the exclusion must cover the kernel
        for k_vec in report.kernel_fields:
            coeff, *_ = np.linalg.lstsq(ops.M @ x_mat, ops.M @ k_vec, rcond=None)
            res = np.linalg.norm(k_vec - x_mat @ coeff) / np.linalg.norm(k_vec)
            if res > 1e-8:
                raise ValueError(
                    "excluded subspace does not span the viscous kernel; "
                    "the Rayleigh quotient would be zero")
        comp = scipy.linalg.null_space((ops.M @ x_mat).T)
    else:
        if report.kernel_dim > 0:
            raise ValueError(
                "viscous kernel is nontrivial; excluding nothing would give K_N = 0")
        comp = np.eye(dim)
    if comp.shape[1] == 0:
        # the exclusion spans the whole space; the infimum over nothing
        return CoercivityResult(K_N=float("inf"), excluded_subspace=label,
                                degree=ops.basis.degree)
    a_c = comp.T @ ops.A_sym @ comp
    m_c = comp.T @ ops.M @ comp
    eigvals = scipy.linalg.eigh(0.5 * (a_c + a_c.T), 0.5 * (m_c + m_c.T),
                                eigvals_only=True)
    return CoercivityResult(K_N=float(eigvals[0]) / 2.0, excluded_subspace=label,
                            degree=ops.basis.degree)
