"""Galerkin operator assembly from exact monomial integration.

Everything the semi-discrete system

    M du/dt + N(u,u) + V u + 2 eps_p C_x u = F_bc

needs is assembled here: mass and hemispheric Grams, the two stiffness forms
(strain-rate and full-gradient), the Coriolis matrix for an arbitrary
precession axis, the dense advection tensor T[i][j][k] = integral of
(b_i . grad b_j) . b_k, angular-momentum vectors, and the boundary-condition
forcing.  Boundary terms of the two inhomogeneous forms are reduced to volume
integrals (the data field is linear, so its strain/gradient is constant and
div eps(u_P) = 0), keeping assembly exact; no surface quadrature enters the
dynamics.

Reflection classes.  chi = x^2/a^2 + y^2/b^2 + z^2/c^2 - 1 is even in each
variable, so each constraint identity of the basis construction involves
coefficients of one parity under the three mirror reflections x_a -> -x_a
(component c of x^e flips sign when e_a + [a == c] is odd).  The constraint
system therefore splits by reflection class, one of 8, and the exact nullspace,
orthonormalized against a Gram whose cross-class entries are exact zeros,
keeps every field in one class.  Odd monomials integrate to exactly 0 over
the ellipsoid, so T[i, j, k] = 0 unless cls(i) ^ cls(j) ^ cls(k) = 0.

Packed advection.  Only the (i, j)-symmetric part of T enters
N_k = sum_ij c_i c_j T[i, j, k].  For each output class P, G[P] holds
T[i, j, k] + T[j, i, k] (T[i, i, k] on the diagonal) for the outputs k of
class P and the pairs i <= j with cls(i) ^ cls(j) = P, zero-padded to one
(classes, rows, pairs) array; advection is then two gathers of c, one batched
matrix-vector product and one gather back to basis order, about dim^3 / 16
multiply-adds for 8 balanced classes.  A basis with a field that mixes
classes (the svd fallback) gets one class, and G is the symmetric half of T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import monomials
from .basis import Basis, gram_form, solid_rotation
from .geometry import Domain, volume_integral
from .polynomials import Polynomial3, VectorField

BC_FORMS = ("stress_free", "poincare_stress", "normal_gradient", "poincare_normal_gradient")


@dataclass(frozen=True)
class BoundaryCondition:
    """Tangential boundary condition selector.

    Homogeneous forms carry no data; the Poincare variants carry the linear
    field whose boundary stress (or normal gradient) is imposed.
    """

    form: str
    data_field: VectorField | None = None

    def __post_init__(self):
        if self.form not in BC_FORMS:
            raise ValueError(f"unknown boundary condition form {self.form!r}")
        if self.is_inhomogeneous and self.data_field is None:
            raise ValueError(f"{self.form} requires a data field")
        if not self.is_inhomogeneous and self.data_field is not None:
            raise ValueError(f"{self.form} does not accept a data field")

    @property
    def is_inhomogeneous(self) -> bool:
        return self.form in ("poincare_stress", "poincare_normal_gradient")

    @property
    def uses_gradient_stiffness(self) -> bool:
        return self.form in ("normal_gradient", "poincare_normal_gradient")


class PackedAdvection(NamedTuple):
    """Parity-packed symmetric half of T (see the module docstring).

    g is (classes, rows, pairs); pi and pj are the (classes, pairs) field
    indices of each pair; unpad maps basis index k to its flat (class, row)
    slot.  Padding pairs point at field 0 and meet zero columns of g.
    """

    g: np.ndarray
    pi: np.ndarray
    pj: np.ndarray
    unpad: np.ndarray


@dataclass
class OperatorSet:
    """Assembled Galerkin operators over an orthonormal basis.

    Immutable by convention after assembly; safe to share across runs.
    T index convention: T[i][j][k] = integral of (b_i . grad b_j) . b_k, so the
    advection contribution to the k-th residual entry is sum_ij c_i c_j T[i,j,k].
    advection_term reads the parity-packed copy of T, not T itself.
    """

    basis: Basis
    bc: BoundaryCondition
    nu: float
    eps_p: float
    precession_axis: tuple[float, float, float]
    M: np.ndarray
    A_sym: np.ndarray
    A_grad: np.ndarray
    C_x: np.ndarray
    T: np.ndarray | None
    T_packed: PackedAdvection | None
    F_bc: np.ndarray
    mom: np.ndarray          # (3, dim): mom[alpha][i] = integral (x cross b_i)_alpha
    Hn: np.ndarray
    Hs: np.ndarray
    _solver_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def V(self) -> np.ndarray:
        """Viscous operator selected by the boundary-condition form."""
        if self.bc.uses_gradient_stiffness:
            return self.nu * self.A_grad
        return self.nu * self.A_sym


def _cached(basis: Basis, key, build, *args):
    """basis._assembly_cache[key], built as build(basis, *args) on first request."""
    cache = basis._assembly_cache
    if key not in cache:
        cache[key] = build(basis, *args)
    return cache[key]


def _core_matrices(basis: Basis) -> dict:
    """The axis- and bc-independent matrices, plus db and strain for forcing and T."""
    domain = basis.domain
    n = basis.degree
    bc_arr = basis.coeff_array                        # (dim, 3, D_N)
    j_dd = monomials.gram(domain, n - 1, n - 1)

    hn = gram_form(bc_arr, monomials.gram(domain, n, n, "north"), bc_arr)
    hs = gram_form(bc_arr, monomials.gram(domain, n, n, "south"), bc_arr)

    # dB[i, comp, axis, :] = d(b_i)_comp / d x_axis
    db = np.stack([monomials.apply_derivative(bc_arr, n, a) for a in range(3)], axis=2)
    strain = 0.5 * (db + db.transpose(0, 2, 1, 3))

    # 9-component views, component index 3 * comp + axis
    s9 = strain.reshape(basis.dim, 9, -1)
    g9 = db.reshape(basis.dim, 9, -1)
    a_sym = 2.0 * gram_form(s9, j_dd, s9)
    a_grad = gram_form(g9, j_dd, g9)
    a_sym = 0.5 * (a_sym + a_sym.T)
    a_grad = 0.5 * (a_grad + a_grad.T)

    ivec_up = monomials.integral_vector(domain, n + 1)
    shifted = [[monomials.apply_shift(bc_arr[:, c, :], n, a) for c in range(3)]
               for a in range(3)]
    mom = np.stack([
        (shifted[1][2] - shifted[2][1]) @ ivec_up,
        (shifted[2][0] - shifted[0][2]) @ ivec_up,
        (shifted[0][1] - shifted[1][0]) @ ivec_up,
    ])
    return dict(M=basis.gram, A_sym=a_sym, A_grad=a_grad, mom=mom, Hn=hn, Hs=hs,
                db=db, strain=strain)


def _coriolis_matrix(basis: Basis, axis: tuple[float, float, float]) -> np.ndarray:
    bc_arr = basis.coeff_array
    w = np.asarray(axis, dtype=float)
    wb = np.empty_like(bc_arr)
    wb[:, 0] = w[1] * bc_arr[:, 2] - w[2] * bc_arr[:, 1]
    wb[:, 1] = w[2] * bc_arr[:, 0] - w[0] * bc_arr[:, 2]
    wb[:, 2] = w[0] * bc_arr[:, 1] - w[1] * bc_arr[:, 0]
    j_nn = monomials.gram(basis.domain, basis.degree, basis.degree)
    return gram_form(bc_arr, j_nn, wb)


def reflection_classes(basis: Basis) -> np.ndarray:
    """Reflection class of each basis field, or class 0 for all if any field mixes classes.

    Bit a of a class is set when the field flips sign under x_a -> -x_a.
    """
    exps = monomials.exponents(basis.degree)                    # (D_N, 3)
    flips = (exps[None] + np.eye(3, dtype=exps.dtype)[:, None]) % 2   # [comp, monomial, axis]
    table = flips @ np.array([1, 2, 4])                         # (3, D_N)
    nonzero = basis.coeff_array != 0
    hi = np.where(nonzero, table, -1).max(axis=(1, 2))
    lo = np.where(nonzero, table, 8).min(axis=(1, 2))
    if np.array_equal(lo, hi):
        return hi
    return np.zeros(basis.dim, dtype=hi.dtype)


def _pack_advection(t: np.ndarray, cls: np.ndarray) -> PackedAdvection:
    """Gather the packed operator from T one class block at a time (no T + T^T temporary)."""
    labels = np.unique(cls)
    iu, ju = np.triu_indices(len(cls))
    pair_cls = cls[iu] ^ cls[ju]
    rows = [np.flatnonzero(cls == p) for p in labels]
    pairs = [np.flatnonzero(pair_cls == p) for p in labels]
    n_rows = max(len(r) for r in rows)
    n_pairs = max(len(q) for q in pairs)
    g = np.zeros((len(labels), n_rows, n_pairs))
    pi = np.zeros((len(labels), n_pairs), dtype=np.intp)
    pj = np.zeros_like(pi)
    unpad = np.empty(len(cls), dtype=np.intp)
    for p, (ks, q) in enumerate(zip(rows, pairs)):
        i, j, k = iu[q], ju[q], ks[:, None]
        pi[p, :len(q)] = i
        pj[p, :len(q)] = j
        block = g[p, :len(ks), :len(q)]
        block[...] = t[i, j, k]
        block += t[j, i, k]
        block[:, i == j] *= 0.5       # (T_iik + T_iik) / 2 is T_iik exactly
        unpad[ks] = p * n_rows + np.arange(len(ks))
    return PackedAdvection(g, pi, pj, unpad)


def _advection_operators(basis: Basis, db: np.ndarray):
    """T and its packed copy, cached together on the basis."""
    n = basis.degree
    bc_arr = basis.coeff_array
    g3 = monomials.triple_product_table(basis.domain, n, n - 1, n)
    u = np.einsum("mno,kco->mnkc", g3, bc_arr, optimize=True)
    v2 = np.einsum("jcan,mnkc->majk", db, u, optimize=True)
    t = np.einsum("iam,majk->ijk", bc_arr, v2, optimize=True)
    return t, _pack_advection(t, reflection_classes(basis))


def assemble(basis: Basis, bc: BoundaryCondition, nu: float, eps_p: float,
             precession_axis=(1.0, 0.0, 0.0), include_advection: bool = True) -> OperatorSet:
    """Assemble the full operator set for one boundary-condition/viscosity choice.

    The bc-independent matrices are cached on the basis: the axis-independent
    ones once, C_x per precession axis and T on first request.  Repeated
    assembly with different (nu, eps_p, bc) is cheap, and T is None whenever
    include_advection is False.
    """
    if not nu > 0:
        raise ValueError("viscosity must be positive")
    axis = tuple(float(a) for a in precession_axis)
    if abs(sum(a * a for a in axis) - 1.0) > 1e-12:
        raise ValueError("precession axis must be a unit vector")

    core = _cached(basis, "core", _core_matrices)
    c_x = _cached(basis, ("C_x", axis), _coriolis_matrix, axis)
    t_tensor, t_packed = (_cached(basis, "T", _advection_operators, core["db"])
                          if include_advection else (None, None))
    f_bc = _forcing_vector(basis, bc, nu, core)
    return OperatorSet(
        basis=basis, bc=bc, nu=float(nu), eps_p=float(eps_p), precession_axis=axis,
        M=core["M"], A_sym=core["A_sym"], A_grad=core["A_grad"], C_x=c_x,
        T=t_tensor, T_packed=t_packed, F_bc=f_bc, mom=core["mom"], Hn=core["Hn"],
        Hs=core["Hs"],
    )


def _forcing_vector(basis: Basis, bc: BoundaryCondition, nu: float, core: dict) -> np.ndarray:
    if not bc.is_inhomogeneous:
        return np.zeros(basis.dim)
    if bc.form == "poincare_stress":
        data, tensor, weight, what = bc.data_field.strain(), core["strain"], 2.0 * nu, "strain rate"
    else:
        data, tensor, weight, what = bc.data_field.gradient(), core["db"], nu, "gradient"
    if any(data[a][c].degree > 0 for a in range(3) for c in range(3)):
        raise ValueError(f"data field must have a constant {what}")
    # data[axis][comp] = d(u_comp)/d(x_axis), flattened in the (comp, axis) order of db
    const = np.array([float(data[a][c].coeffs.get((0, 0, 0), 0.0))
                      for c in range(3) for a in range(3)])
    ivec_d = monomials.integral_vector(basis.domain, basis.degree - 1)
    return weight * (tensor.reshape(basis.dim, 9, -1) @ ivec_d) @ const


def advection_term(ops: OperatorSet, coeffs: np.ndarray) -> np.ndarray:
    """Galerkin advection: out[k] = sum_ij c_i c_j T[i][j][k], from the packed T."""
    if ops.T is None:
        raise ValueError("operator set was assembled without the advection tensor")
    pack = ops.T_packed
    z = coeffs[pack.pi] * coeffs[pack.pj]
    return np.matmul(pack.g, z[..., None]).ravel()[pack.unpad]


def residual(coeffs: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """Steady-state residual of the semi-discrete momentum equation."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (ops.dim,):
        raise ValueError(f"expected {ops.dim} coefficients, got shape {c.shape}")
    r = ops.V @ c + 2.0 * ops.eps_p * (ops.C_x @ c) - ops.F_bc
    if ops.T is not None:
        r = r + advection_term(ops, c)
    return r


def angular_momentum(coeffs: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """M_alpha = integral of (x cross u)_alpha for u = sum c_i b_i."""
    return ops.mom @ np.asarray(coeffs, dtype=float)


def momentum_coupling_identity(v: VectorField, domain: Domain):
    """Both sides of  int e_y.(x cross v) = 2 int (e_z cross x).(e_x cross v).

    Evaluated by direct exact integration of the two integrands, with no
    reference to any basis, so it applies to any solenoidal tangent field on
    any of the three domain kinds.  Equality holds because the difference is
    int v . grad(xz), which vanishes for solenoidal fields tangent to the
    boundary.
    """
    x = Polynomial3.variable(0)
    z = Polynomial3.variable(2)
    vx, _, vz = v.components
    lhs = volume_integral(z * vx - x * vz, domain)
    ez_cross_x = solid_rotation((0, 0, 1))
    ex_cross_v = v.cross_const((1, 0, 0))
    rhs = 2.0 * volume_integral(ez_cross_x.dot(ex_cross_v), domain)
    return lhs, rhs


def dump_operator_set(ops: OperatorSet, path) -> None:
    """Text dump of every assembled operator (row-major, 17 significant digits)."""
    def write_matrix(fh, name, mat):
        mat = np.atleast_2d(mat)
        fh.write(f"# {name} {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")

    with open(path, "w", newline="\n") as fh:
        fh.write(f"# precessflow operators dim {ops.dim} nu {ops.nu:.17g} "
                 f"eps_p {ops.eps_p:.17g} bc {ops.bc.form}\n")
        for name in ("M", "A_sym", "A_grad", "C_x", "Hn", "Hs"):
            write_matrix(fh, name, getattr(ops, name))
        write_matrix(fh, "mom", ops.mom)
        write_matrix(fh, "F_bc", ops.F_bc.reshape(1, -1))
        if ops.T is not None:
            fh.write(f"# T {ops.dim} {ops.dim} {ops.dim}\n")
            for i in range(ops.dim):
                write_matrix(fh, f"T[{i}]", ops.T[i])
