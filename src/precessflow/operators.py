"""Galerkin operator assembly on the basis rule, exact for every class-pure form.

Everything the semi-discrete system

    M du/dt + N(u,u) + V u + 2 eps_p C_x u = F_bc

needs is assembled here: mass and hemispheric Grams, the two stiffness forms
(strain-rate and full-gradient), the Coriolis matrix for an arbitrary
precession axis, the advection tensor T[i][j][k] = integral of
(b_i . grad b_j) . b_k, angular-momentum vectors, and the boundary-condition
forcing.  Boundary terms of the two inhomogeneous forms are reduced to volume
integrals (the data field is linear, so its strain/gradient is constant and
div eps(u_P) = 0); no surface quadrature enters the dynamics.

Which path each form takes.  Every even form, M (the basis Gram), A_sym,
A_grad, C_x, T, mom (the basis against e_a x x) and F_bc (nodal gradients
summed on their classes), is a nodal form on the basis rule (see basis): it
reads the values that the Basis constructor evaluates and the gradients that
Basis.grad evaluates on first read, each once per basis.  The
hemispheric Grams are M / 2 on matching classes and +-K, from exact
half-ellipsoid monomial integrals, on classes that differ in the z bit only.

Class-pair assembly of T.  T[i, j, k] is 0 unless the classes of i, j and k
XOR to 0, so T is assembled as one block per class pair (P, Q) whose
R = P ^ Q is present, 64 for 8 classes, on the partition Basis.members (m):
blocks[P, Q][i, k, j] = T[m_P[i], m_Q[j], m_R[k]], of shape (n_P, n_R, n_Q),
kept on the basis and read as OperatorSet.T_blocks.  The packed copy below is
gathered from them, and OperatorSet.T (read by dump_operator_set, the output
digests and the tests, not by verify) scatters them into the dense tensor on
first read, once per basis.

Packed advection.  Only the (i, j)-symmetric part of T enters
N_k = sum_ij c_i c_j T[i, j, k].  For each output class R, G[R] holds
T[i, j, k] + T[j, i, k] (T[i, i, k] on the diagonal) for the outputs k of
class R and the pairs i <= j with cls(i) ^ cls(j) = R, zero-padded to one
(classes, rows, pairs) array: advection is two gathers of c, one batched
matrix-vector product and one gather back, about dim^3 / 16 multiply-adds.
The pairs of each R keep np.triu_indices order, the summation order of
advection_term, and column (i, j) is blocks[P, Q][a, :, b] + blocks[Q, P][b, :, a]
for the classes P, Q of i, j and their rows a, b: one gather per class P of i in R.

Sharing.  The operators that do not depend on (nu, eps_p, bc) are cached on
the basis (Basis.cached, see assemble) and are read-only, as is the dense T:
every operator set of a basis, and every run that reuses the basis, reads the
same arrays.  Only the forcing vector is formed per operator set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import monomials
from .basis import (_CLASS_BITS, ROTATION_CLASSES, Basis, _read_only, gram_form, nodal_form,
                    solid_rotation)
from .geometry import Domain, volume_integral
from .polynomials import Polynomial3, VectorField

BC_FORMS = ("stress_free", "poincare_stress", "normal_gradient", "poincare_normal_gradient")

# rotation a's row of the (3, C, nodes) rotation values, by class: nodal_form's rows of mom
_ROTATION_ROWS = {p: [a] for a, p in enumerate(ROTATION_CLASSES)}


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

    @staticmethod
    def form_carries_data(form: str) -> bool:
        """Whether bc form `form` imposes a data field, before a bc of it exists."""
        return form in ("poincare_stress", "poincare_normal_gradient")

    @property
    def is_inhomogeneous(self) -> bool:
        return self.form_carries_data(self.form)

    @property
    def uses_gradient_stiffness(self) -> bool:
        return self.form in ("normal_gradient", "poincare_normal_gradient")


class PackedAdvection(NamedTuple):
    """Parity-packed symmetric half of T (see the module docstring).

    g is (classes, rows, pairs), classes in Basis.members order; pi and pj are the
    (classes, pairs) field indices of each pair, in np.triu_indices order; unpad
    maps basis index k to its flat (class, row) slot.  Padding pairs point at field
    0 and meet zero columns of g.
    """

    g: np.ndarray
    pi: np.ndarray
    pj: np.ndarray
    unpad: np.ndarray


@dataclass
class OperatorSet:
    """Assembled Galerkin operators over an orthonormal basis.

    Immutable after assembly: the cached operators are read-only arrays, shared
    by every operator set of the basis.  T index convention:
    T[i][j][k] = integral of (b_i . grad b_j) . b_k, so the advection
    contribution to the k-th residual entry is sum_ij c_i c_j T[i,j,k].
    T_blocks (T's class-pair blocks, see the module docstring) and T_packed are
    None when assembled without advection; advection_term reads T_packed, not T.
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
    T_blocks: dict | None
    T_packed: PackedAdvection | None
    F_bc: np.ndarray
    mom: np.ndarray          # (3, dim): mom[alpha][i] = integral (x cross b_i)_alpha
    Hn: np.ndarray
    Hs: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def T(self) -> np.ndarray | None:
        """The dense advection tensor, None without advection.

        Scattered from the class-pair blocks on first read, once per basis;
        the result is read-only.  Nothing on the run path reads it.
        """
        if self.T_blocks is None:
            return None
        return self.basis.cached("T_dense", _dense_advection, self.T_blocks)

    @functools.cached_property
    def implicit_params(self) -> tuple:
        """What the implicit matrices read beyond the basis: (nu, eps_p, gradient stiffness, axis).

        With dt, the key of the LU factors cached on the basis (timestepper._solver).
        """
        return (self.nu, self.eps_p, self.bc.uses_gradient_stiffness, self.precession_axis)

    @functools.cached_property
    def V(self) -> np.ndarray:
        """Viscous operator selected by the boundary-condition form; formed on first read,
        read-only."""
        return _read_only(self.nu * (self.A_grad if self.bc.uses_gradient_stiffness
                                     else self.A_sym))


def _core_matrices(basis: Basis) -> dict:
    """The axis- and bc-independent matrices."""
    domain, n, bc_arr, cls = basis.domain, basis.degree, basis.coeff_array, basis.classes

    # Hn, Hs: M / 2 where the integrand is even in z, +-K where only the z bit
    # of the classes differs, so Hn + Hs = M exactly
    odd_in_z = (cls[:, None] ^ cls[None, :]) == 4
    k = np.where(odd_in_z, gram_form(bc_arr, monomials.gram(domain, n, n, "north"), bc_arr), 0.0)
    hn, hs = 0.5 * basis.gram + k, 0.5 * basis.gram - k

    # 9-component gradients, component index 3 * comp + axis
    grad = basis.grad
    g9 = grad.reshape(basis.dim, 9, -1)
    s9 = 0.5 * (grad + grad.transpose(0, 2, 1, 3)).reshape(basis.dim, 9, -1)
    a_sym, a_grad = (nodal_form(g, basis.weights, g, basis.members, basis.members)
                     for g in (s9, g9))
    a_sym, a_grad = a_sym + a_sym.T, 0.5 * (a_grad + a_grad.T)     # 2 eps:eps, grad:grad

    # (x cross b_i)_a = b_i . (e_a x x): the rotation fields' values against the basis
    rotations = np.cross(np.eye(3)[:, None], basis.points).transpose(0, 2, 1)
    mom = nodal_form(rotations, basis.weights, basis.values, _ROTATION_ROWS, basis.members)
    return dict(M=basis.gram, A_sym=a_sym, A_grad=a_grad, mom=mom, Hn=hn, Hs=hs)


def _coriolis_matrix(basis: Basis, axis: tuple[float, float, float]) -> np.ndarray:
    """C = sum_a w_a C^a, C^a[i, k] = integral of b_i . (e_a x b_k): class P with P ^ cls(e_a x x)."""
    values, weights, members = basis.values, basis.weights, basis.members
    return sum(w_a * nodal_form(values, weights, np.cross(e_a, values, axisb=1, axisc=1),
                                members, {p ^ shift: m for p, m in members.items()})
               for w_a, e_a, shift in zip(axis, np.eye(3), ROTATION_CLASSES) if w_a)


def _pack_advection(blocks: dict, basis: Basis) -> PackedAdvection:
    """Gather the packed operator from the class-pair blocks of T, one output class R at a
    time, and in R one class P of i at a time (j is then of class P ^ R)."""
    members, cls = basis.members, basis.classes
    n_rows = max(len(m) for m in members.values())
    pos = np.empty(basis.dim, dtype=np.intp)        # each field's row within its class
    for m in members.values():
        pos[m] = np.arange(len(m))
    iu, ju = np.triu_indices(basis.dim)
    out = cls[iu] ^ cls[ju]
    pairs = [(iu[out == r], ju[out == r]) for r in members]     # triu order in each R
    width = max(len(i) for i, _ in pairs)       # 0 when no two classes XOR to a present one
    g = np.zeros((len(members), n_rows, width))
    pi, pj = np.zeros((2, len(members), width), dtype=np.intp)
    for s, (r, (i, j)) in enumerate(zip(members, pairs)):
        pi[s, :len(i)], pj[s, :len(j)] = i, j
        ci, a, b = cls[i], pos[i], pos[j]
        for p in members:
            if (q := p ^ r) in members:
                col = (ci == p).nonzero()[0]
                # T[i, j, k] + T[j, i, k] over the outputs k of class R
                g[s, :len(members[r]), col] = (blocks[p, q][a[col], :, b[col]]
                                               + blocks[q, p][b[col], :, a[col]])
        g[s, :, (i == j).nonzero()[0]] *= 0.5     # (T_iik + T_iik) / 2 is T_iik exactly
    slot = np.searchsorted(list(members), cls)      # members is in ascending class order
    return PackedAdvection(g, pi, pj, slot * n_rows + pos)


def _advection_operators(basis: Basis):
    """The blocks of T, keyed by class pair, and the packed copy.

    blocks[P, Q][i, k, j] = T[m_P[i], m_Q[j], m_R[k]] for R = P ^ Q and the
    members m of each class, for every pair whose R is present (see the module
    docstring).  B[n, a, k, j] = sum_c b_k[c] d_a b_j[c] at the nodes is one batch of (k, 3) x (3, j)
    products; the block is then one product of the weighted values w_n b_i[a] with B.
    """
    members = basis.members
    values, grad, weights = basis.values, basis.grad, basis.weights
    u_k = {p: np.ascontiguousarray(values[m].transpose(2, 0, 1)[:, None])
           for p, m in members.items()}
    g_j = {p: np.ascontiguousarray(grad[m].transpose(3, 2, 1, 0)) for p, m in members.items()}
    uw = {p: (values[m] * weights).transpose(0, 2, 1).reshape(len(m), -1)
          for p, m in members.items()}
    blocks = {}
    for p in members:
        for q in members:
            if p ^ q in members:
                b = np.matmul(u_k[p ^ q], g_j[q])             # (n, a, k, j)
                n_k, n_j = b.shape[2:]
                blocks[p, q] = (uw[p] @ b.reshape(-1, n_k * n_j)).reshape(-1, n_k, n_j)
    return blocks, _pack_advection(blocks, basis)


def _dense_advection(basis: Basis, blocks: dict) -> np.ndarray:
    """T[i, j, k], scattered from the class-pair blocks of the basis, one block at a time."""
    members = basis.members
    t = np.zeros((basis.dim,) * 3)
    for (p, q), b in blocks.items():
        t[np.ix_(members[p], members[q], members[p ^ q])] = b.transpose(0, 2, 1)
    return t


def assemble(basis: Basis, bc: BoundaryCondition, nu: float, eps_p: float,
             precession_axis=(1.0, 0.0, 0.0), include_advection: bool = True) -> OperatorSet:
    """Assemble the full operator set for one boundary-condition/viscosity choice.

    The bc-independent matrices are cached on the basis, read-only: the
    axis-independent ones once, C_x for the last precession axis and the
    blocks and pack of T on first request.  Repeated assembly with different
    (nu, eps_p, bc) is cheap, and T_blocks and T_packed (hence T) are None
    whenever include_advection is False.
    """
    # each test is written so that NaN fails it
    if not 0 < nu < math.inf:
        raise ValueError("viscosity must be positive and finite")
    if not math.isfinite(eps_p):
        raise ValueError("precession rate eps_p must be finite")
    axis = tuple(float(a) for a in precession_axis)
    if len(axis) != 3 or not abs(sum(a * a for a in axis) - 1.0) <= 1e-12:
        raise ValueError("precession axis must be a finite unit vector of three components")

    core = basis.cached("core", _core_matrices)
    c_x = basis.cached(("C_x", axis), _coriolis_matrix, axis)
    t_blocks, t_packed = (basis.cached("T", _advection_operators) if include_advection
                          else (None, None))
    return OperatorSet(basis=basis, bc=bc, nu=float(nu), eps_p=float(eps_p),
                       precession_axis=axis, C_x=c_x, T_blocks=t_blocks, T_packed=t_packed,
                       F_bc=_forcing_vector(basis, bc, nu), **core)


def _forcing_vector(basis: Basis, bc: BoundaryCondition, nu: float) -> np.ndarray:
    if not bc.is_inhomogeneous:
        return np.zeros(basis.dim)
    # eps(b) : E = grad(b) : E for the symmetric strain rate E of the data
    if bc.form == "poincare_stress":
        data, weight, what = bc.data_field.strain(), 2.0 * nu, "strain rate"
    else:
        data, weight, what = bc.data_field.gradient(), nu, "gradient"
    if any(data[a][c].degree > 0 for a in range(3) for c in range(3)):
        raise ValueError(f"data field must have a constant {what}")
    # data[axis][comp] = d(u_comp)/d(x_axis), flattened in the (comp, axis) order of grad
    const = np.array([float(data[a][c].coeffs.get((0, 0, 0), 0.0))
                      for c in range(3) for a in range(3)])
    # integral of d(b_i)_comp / d x_axis, nonzero only on the class bit(comp) ^ bit(axis)
    integrals = basis.grad.reshape(basis.dim, 9, -1) @ basis.weights
    on_class = basis.classes[:, None] == (_CLASS_BITS[:, None] ^ _CLASS_BITS).ravel()
    return weight * np.where(on_class, integrals, 0.0) @ const


def advection_term(ops: OperatorSet, coeffs: np.ndarray) -> np.ndarray:
    """Galerkin advection: out[k] = sum_ij c_i c_j T[i][j][k], from the packed T."""
    pack = ops.T_packed
    if pack is None:
        raise ValueError("operator set was assembled without the advection tensor")
    z = coeffs[pack.pi] * coeffs[pack.pj]
    return np.matmul(pack.g, z[..., None]).ravel()[pack.unpad]


def residual(coeffs: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """Steady-state residual of the semi-discrete momentum equation."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (ops.dim,):
        raise ValueError(f"expected {ops.dim} coefficients, got shape {c.shape}")
    r = ops.V @ c + 2.0 * ops.eps_p * (ops.C_x @ c) - ops.F_bc
    if ops.T_packed is not None:
        r = r + advection_term(ops, c)
    return r


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
        if ops.T_packed is not None:
            fh.write(f"# T {ops.dim} {ops.dim} {ops.dim}\n")
            for i in range(ops.dim):
                write_matrix(fh, f"T[{i}]", ops.T[i])
