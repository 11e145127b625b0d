"""Discrete velocity space: divergence-free polynomial fields tangent to the boundary.

The space of degree <= N vector polynomials v with

    div v = 0           identically, and
    v . grad(chi)       divisible by chi  (exact tangency to {chi = 0})

is computed as the exact rational nullspace of the linear system of
polynomial-identity constraints {div v = 0, v . grad(chi) - chi q = 0} in the
coefficients of v and of an auxiliary multiplier q of degree <= N-1, by a
fraction-free elimination over Python integers (_integer_nullspace).  The
classical curl construction grad(chi) x grad(psi) is provided as an
independent cross-check of the span, not as the primary construction, since
its completeness is not established.

Reflection classes.  chi is even in each variable, so every constraint
identity involves coefficients of one parity under the mirror reflections
x_a -> -x_a: the system splits into 8 class blocks, and every nullspace field,
exact or svd, lies in one class (coefficient_classes labels them).  Every
per-class loop reads the partition that the Basis constructor finds once.
The reduced echelon form of the system is unique, so build_basis(...,
classes=G) builds the fields of G alone from G's class blocks: the rows of
the whole nullspace that lie in G, in their order.

Nodal forms.  A product of fields of classes P and Q flips sign under
x_a -> -x_a when bit a of P ^ Q is set, so a form is 0 between classes, and
within a class its integrand is even: nodal_form, (U w) V^T per block of equal
class labels on the octant rule of degree 3N - 1 (basis_rule), computes every
even volume form, free of the rounded monomial integrals that a coefficient
contraction (gram_form, kept for the odd-in-z part of Hn/Hs) amplifies by the
coefficients' size (1e3 at N = 8).  The Basis constructor is the one
evaluation of a set of fields at the nodes: it computes their values and
their mass Gram, and the gradients come on first read (Basis.grad).  Every
volume form reads them, and so does project, which takes fields of degree
<= N and splits them by class alike.

Orthonormalization is one kernel, the inverse Cholesky factor of a Gram, run
on each class block of the raw fields' mass Gram, so every orthonormal field
stays in its class; one polish pass runs it on the Gram of the result when
that misses I by more than 1e-13 in any class built.  GRAM_IDENTITY_TOL
gates the same Gram.
Each pass (raw fields, first pass, polish) is one Basis, so each Gram is
its constructor's.

Integer lattice.  The exact path carries each field as one row of integer
numerators over (v_x, v_y, v_z, q) coefficients with one denominator.  Every
float combination coefficient is m 2^-e, so a class block of the combination
is a product of Python ints, and the float coefficients are the correctly
rounded num / den.  Integer maps from the monomial derivative and shift
tables, independent of the constraint system, prove div v = 0 and
v . grad(chi) = chi q on every row (exact_row_failures): the one exact proof
of both identities, run once per basis and kept as Basis.row_failures, which
the build gates on and verify and the basis command report.  Basis.fields is
the float view of coeff_array, formed on first read; no code here turns the
rows into Fraction fields.

The rows are 8-9.5 % nonzero at N = 3-8, so every integer kernel reads the
nonzeros alone and sums its Python-int products by output entry
(_sum_by_key: a stable argsort, then np.add.reduceat on an object array, in
the manner of Gustavson's row-by-row sparse product, ACM TOMS 4, 1978).
build_basis scans the raw rows for nonzeros once, for _class_blocks and
_rows_to_float; _combine_rows pairs each nonzero of a class block of q, lower
triangular, with the nonzeros of its raw row, and returns the entries it
wrote, which _rows_to_float reads; exact_row_failures sends each nonzero
numerator to the few monomials its derivative and shift maps reach.  The
per-kernel times of a build are in BENCH_28.json and CHANGES.md.

The coefficient array, the class labels, the nodal values and gradients and
the mass Gram are read-only: one basis is shared by every operator set
assembled on it and, through timestepper.run, by consecutive runs, which
step a basis built on the classes they can reach.  Basis.restrict(classes)
is the basis of the fields of some classes, sliced from these arrays with
nothing evaluated again; a run started from a coefficients file, which is
read on the full basis, steps it.  What those derive from the basis
(operators, LU factors, the diagnostics context, the projections of
e_z x x and u_P) is kept in its assembly cache (Basis.cached), read-only as
well.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import monomials
from .geometry import Domain, _close, octant_rule
from .polynomials import Polynomial3, VectorField

__all__ = [
    "Basis", "build_basis", "curl_form_fields", "stream_cross_field",
    "poincare_field", "solid_rotation", "project", "project_fields", "save_basis", "load_basis",
    "gram_form", "coefficient_classes", "InvariantError", "basis_rule", "nodal_form",
    "rotation_projection", "reference_projection", "exact_row_failures", "class_subgroup",
    "field_classes", "ROTATION_CLASSES", "coriolis_shifts",
]

GRAM_IDENTITY_TOL = 1e-12
# largest L2 residual of u_P's projection that a run accepts, as initial state or as
# diagnostics reference; in every basis that admits u_P the residual is round-off
REFERENCE_RESIDUAL_TOL = 1e-10
N_CLASSES = 8     # mirror-reflection classes: one bit per axis
# rank cutoff of the svd fallback, relative to a class block's largest singular value
_SVD_RANK_RTOL = 1e-10
_CLASS_BITS = np.array([1, 2, 4])
# class of the rotation field e_a x x for a = x, y, z: odd in the two axes other than a
ROTATION_CLASSES = tuple(int(p) for p in (N_CLASSES - 1) ^ _CLASS_BITS)


class InvariantError(RuntimeError):
    """A gate of the basis construction failed: orthonormalization or an exact identity."""


class Basis:
    """Class-pure fields evaluated at the nodes of their rule: an orthonormal basis of
    the tangent solenoidal polynomial space once build_basis has made it one.

    The constructor is the one evaluation of the fields at the basis rule: the
    rule's points and weights, the degree-N Vandermonde matrix vander (nodes,
    D_N), values[i, c, n] = (b_i)_c and the mass Gram, the symmetrized nodal_form
    of the values; members maps each class present to the ascending indices of
    its fields.  grad and fields are formed on first read.  rows, for an exact
    basis, holds the integer rows (nums, dens) of the fields (see the module
    docstring); it is None for a float basis.  A restriction (restrict) is
    made with parent = (basis, index) and evaluates nothing: it slices basis.
    """

    def __init__(self, domain: Domain, degree: int, coeff_array: np.ndarray,
                 rows: tuple[np.ndarray, np.ndarray] | None = None,
                 raw_gram_cond: float = math.nan, parent: tuple | None = None):
        self.domain = domain
        self.degree = degree
        # (dim, 3, D_N) float coefficients over the degree-N monomial list
        self.coeff_array = coeff_array
        if parent is None:
            # reflection class of each field; ValueError names a field outside one class
            self.classes = coefficient_classes(coeff_array, degree)
            self.points, self.weights = basis_rule(domain, degree)
            self.vander = monomials.vandermonde(self.points, degree)
            self.values = coeff_array @ self.vander.T
        else:   # (basis, index): these are basis's fields at index, evaluated there
            basis, index = parent
            self.classes, self.values = basis.classes[index], basis.values[index]
            self.points, self.weights, self.vander = basis.points, basis.weights, basis.vander
        self.members = {p: np.flatnonzero(self.classes == p)
                        for p in np.unique(self.classes).tolist()}
        if parent is None:
            g = nodal_form(self.values, self.weights, self.values, self.members, self.members)
            self.gram = 0.5 * (g + g.T)
        else:
            self.gram = basis.gram[np.ix_(index, index)]
        for arr in (coeff_array, self.classes, self.vander, self.values, self.gram,
                    *self.members.values(), *(rows or ())):
            arr.flags.writeable = False
        self.raw_gram_cond = raw_gram_cond
        self.rows = rows
        self.dim = len(coeff_array)
        self._assembly_cache: dict = {}

    @functools.cached_property
    def fields(self) -> list[VectorField]:
        """The basis fields with the float coefficients of coeff_array, formed on first read."""
        return [monomials.array_to_field(c, self.degree) for c in self.coeff_array]

    @functools.cached_property
    def row_failures(self) -> dict | None:
        """exact_row_failures of the integer rows, proved on first read (None without rows).

        build_basis gates on it and verify and the basis command report it, so a
        built basis is proved once; a Basis made with rows of its own is proved
        from them.
        """
        return None if self.rows is None else exact_row_failures(self.domain, self.degree,
                                                                 self.rows[0])

    def restrict(self, classes) -> Basis:
        """The basis of the fields in `classes`, in their order here, kept in the assembly cache.

        It shares this basis's rule and Vandermonde matrix and slices its
        coefficients, classes, rows, values and Gram, so its forms are the class
        blocks of this basis's.  The cache keeps the last restriction, so the
        runs that step one subspace share it and everything assembled on it.
        """
        kept = tuple(sorted(set(classes) & set(self.members)))
        return self.cached(("restrict", kept), _restricted, kept)

    def gram_identity_deviation(self) -> float:
        return float(np.max(np.abs(self.gram - np.eye(self.dim))))

    def cached(self, key, build, *args):
        """The assembly-cache entry `key`, built as build(self, *args) on first request.

        A key is a kind, or a pair (kind, params): the latter is kept as the one
        entry of its kind, (params, value), and a request with other params
        replaces it, so a sweep over dt or nu holds one entry.  Every array of an
        entry is made read-only, since all callers share it.
        """
        cache = self._assembly_cache
        if not isinstance(key, tuple):
            if key not in cache:
                cache[key] = _read_only(build(self, *args))
            return cache[key]
        kind, params = key
        entry = cache.get(kind)
        if entry is None or entry[0] != params:
            entry = cache[kind] = (params, _read_only(build(self, *args)))
        return entry[1]

    @functools.cached_property
    def grad(self) -> np.ndarray:
        """grad[i, c, a, n] = d(b_i)_c / d x_a at the rule nodes, evaluated on first read.

        The degree-(N-1) monomials lead the graded list, so their Vandermonde
        matrix is the first D_(N-1) columns of vander.
        """
        n = self.degree
        coeff = self.coeff_array
        db = np.stack([monomials.apply_derivative(coeff, n, a) for a in range(3)], axis=2)
        grad = db @ self.vander[:, :monomials.space_dim(n - 1)].T
        grad.flags.writeable = False
        return grad

    def __repr__(self):
        return (f"Basis(domain={self.domain!r}, degree={self.degree}, dim={self.dim})")


def _restricted(basis: Basis, kept: tuple) -> Basis:
    index = np.flatnonzero(np.isin(basis.classes, kept))
    rows = None if basis.rows is None else tuple(r[index] for r in basis.rows)
    return Basis(basis.domain, basis.degree, basis.coeff_array[index], rows,
                 basis.raw_gram_cond, parent=(basis, index))


# ---------------------------------------------------------------------------
# special analytic fields

def poincare_field(beta, eps_p) -> VectorField:
    """Steady linear flow of the precessing spheroid x^2 + y^2 + (1+beta) z^2 = 1.

    u = (-y, x - (2 eps/beta)(1+beta) z, (2 eps/beta) y); solenoidal and exactly
    tangent to the spheroid for every beta > -1, beta != 0.
    """
    fb = Fraction(beta)
    fe = Fraction(eps_p)
    if fb == 0:
        raise ValueError("beta must be nonzero (the flow is singular at beta = 0)")
    if fb <= -1:
        raise ValueError("beta must exceed -1")
    k = 2 * fe / fb
    x, y, z = (Polynomial3.variable(a) for a in range(3))
    return VectorField((-y, x - z.scale(k * (1 + fb)), y.scale(k)))


def poincare_obstacle(domain: Domain) -> str | None:
    """Why poincare_field is not a flow in `domain` (needs a = b = 1, beta != 0), or None."""
    if not (_close(domain.a, 1.0) and _close(domain.b, 1.0)):
        return "the Poincare flow needs unit equatorial axes (a = b = 1)"
    if domain.kind == "sphere":  # beta within round-off of 0, as Domain.kind decides it
        return "the Poincare flow is singular on the sphere (beta = 0)"
    return None


def solid_rotation(axis) -> VectorField:
    """Rigid rotation axis x position; identically zero strain rate."""
    ax = [Fraction(a) for a in axis]
    nrm2 = float(sum(a * a for a in ax))
    if abs(nrm2 - 1.0) > 1e-12:
        raise ValueError("axis must be a unit vector")
    x, y, z = (Polynomial3.variable(a) for a in range(3))
    return VectorField((
        z.scale(ax[1]) - y.scale(ax[2]),
        x.scale(ax[2]) - z.scale(ax[0]),
        y.scale(ax[0]) - x.scale(ax[1]),
    ))


def stream_cross_field(domain: Domain, psi: Polynomial3) -> VectorField:
    """grad(chi) x grad(psi): solenoidal and tangent by construction."""
    chi = domain.chi
    gc = [chi.diff(a) for a in range(3)]
    gp = [psi.diff(a) for a in range(3)]
    return VectorField((
        gc[1] * gp[2] - gc[2] * gp[1],
        gc[2] * gp[0] - gc[0] * gp[2],
        gc[0] * gp[1] - gc[1] * gp[0],
    ))


def curl_form_fields(domain: Domain, degree: int) -> list[VectorField]:
    """grad(chi) x grad(psi) for every monomial psi with 1 <= deg psi <= degree."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return [stream_cross_field(domain, Polynomial3.monomial(tuple(e), Fraction(1)))
            for e in monomials.exponents(degree)[1:].tolist()]


# ---------------------------------------------------------------------------
# exact nullspace of the constraint system

def _eliminate(row: dict, pivot: dict, col: int) -> dict:
    """p row - f pivot, where p and f are pivot[col] and row[col] over their gcd, with
    the content of the result divided out: an integer row without column col."""
    p, f = pivot[col], row[col]
    g = math.gcd(p, f)
    p, f = p // g, f // g
    out = {c: p * v for c, v in row.items()}
    for c, v in pivot.items():
        s = out.get(c, 0) - f * v
        if s:
            out[c] = s
        else:
            del out[c]
    g = math.gcd(*out.values())
    return {c: v // g for c, v in out.items()} if g > 1 else out


def _integer_nullspace(rows: list[dict], ncols: int,
                       columns=None) -> tuple[np.ndarray, np.ndarray]:
    """Nullspace basis of a sparse integer matrix, rows {col: int}, as integer rows.

    columns (default: all ncols) are the unknowns: the rows read no other
    column, and the basis spans the vectors that are 0 outside them.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968): a
    row is reduced by a pivot row as p row - f pivot, and every row keeps its
    content divided out.  Each pivot row is then a multiple of its row of the
    reduced echelon form over Q, which is unique, so the basis is that form's:
    one vector per free column f, 1 at f and -r / p at the lead of each pivot
    row that holds r at f and p at its lead.  Returns
    (nums, dens), numpy object arrays of Python ints: vector i is nums[i] /
    dens[i], with dens[i] the lcm of its entries' reduced denominators.
    """
    pivots: dict[int, dict] = {}  # pivot column -> row
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                g = math.gcd(*row.values())
                pivots[lead] = {c: v // g for c, v in row.items()}
                break
            row = _eliminate(row, piv, lead)
    # back substitution to the reduced form: a pivot row takes columns beyond its lead
    # alone, so eliminating lead never adds a column below it, and the rows holding
    # each pivot column are known before the pass
    users: dict[int, list] = {}
    for lead, piv in pivots.items():
        for c in piv:
            if c != lead and c in pivots:
                users.setdefault(c, []).append(lead)
    for col in sorted(users, reverse=True):
        for lead in users[col]:
            pivots[lead] = _eliminate(pivots[lead], pivots[col], col)

    free = [c for c in (range(ncols) if columns is None else columns) if c not in pivots]
    entries: dict[int, list] = {}   # free column -> (lead, r, p) of the rows holding it
    for lead, piv in pivots.items():
        for c, r in piv.items():
            if c != lead:
                entries.setdefault(c, []).append((lead, r, piv[lead]))
    nums = np.zeros((len(free), ncols), dtype=object)
    dens = np.ones(len(free), dtype=object)
    for i, f in enumerate(free):
        held = entries.get(f, ())
        den = math.lcm(*(p // math.gcd(r, p) for _, r, p in held))
        nums[i, f] = dens[i] = den
        for lead, r, p in held:
            nums[i, lead] = -r * den // p
    return nums, dens


def _constraint_rows(domain: Domain, degree: int):
    """Integer rows of {div v = 0; L (v.grad(chi) - chi q) = 0} over (v, q) coefficients.

    Returns (rows, dim_v, dim_q, L): the dim_q divergence rows come first, and
    each tangency row is scaled by L, the lcm of the denominators of 1/a^2,
    1/b^2 and 1/c^2, to integer entries.
    """
    n = degree
    exps_v = monomials.exponents(n).tolist()
    exps_q = monomials.exponents(n - 1).tolist()
    imap_v = monomials.index_map(n)
    imap_q = monomials.index_map(n - 1)
    dim_v, dim_q = len(exps_v), len(exps_q)
    q_offset = 3 * dim_v
    squares = (domain.a2, domain.b2, domain.c2)
    scale = math.lcm(*(s.numerator for s in squares))
    inv2 = [s.denominator * (scale // s.numerator) for s in squares]    # scale / a^2, ...

    rows = []
    # div v = 0, one identity per monomial of degree <= N-1
    for e in exps_q:
        row = {}
        for axis in range(3):
            src = list(e)
            src[axis] += 1
            idx = imap_v[tuple(src)]
            row[axis * dim_v + idx] = src[axis]
        rows.append(row)
    # v.grad(chi) = chi q, one identity per monomial of degree <= N+1
    for g in monomials.exponents(n + 1).tolist():
        row = {}
        for axis in range(3):
            src = list(g)
            src[axis] -= 1
            if src[axis] >= 0 and sum(src) <= n:
                row[axis * dim_v + imap_v[tuple(src)]] = -2 * inv2[axis]
        g_t = tuple(g)
        if sum(g_t) <= n - 1:
            row[q_offset + imap_q[g_t]] = row.get(q_offset + imap_q[g_t], 0) - scale
        for axis in range(3):
            src = list(g)
            src[axis] -= 2
            if src[axis] >= 0 and sum(src) <= n - 1:
                col = q_offset + imap_q[tuple(src)]
                row[col] = row.get(col, 0) + inv2[axis]
        rows.append(row)
    return rows, dim_v, dim_q, scale


def _column_classes(degree: int) -> np.ndarray:
    """The reflection class of each (v_x, v_y, v_z, q) coefficient of the constraint system.

    Each identity reads the columns of one class, its monomial's, so the system
    is block-diagonal by class.
    """
    return np.concatenate([_class_table(degree).ravel(),
                           (monomials.exponents(degree - 1) % 2) @ _CLASS_BITS])


def _raw_rows_exact(domain: Domain, degree: int,
                    classes=range(N_CLASSES)) -> tuple[np.ndarray, np.ndarray]:
    """The exact nullspace of the class blocks `classes` as integer rows (nums, dens) over
    (v_x, v_y, v_z, q) coefficients: row i is nums[i] / dens[i] (see _integer_nullspace).

    The reduced echelon form is unique and no identity reads two classes, so the
    rows are those of the whole nullspace that lie in `classes`, in their order.
    """
    rows, dim_v, dim_q, _ = _constraint_rows(domain, degree)
    wanted = np.zeros(N_CLASSES, dtype=bool)
    wanted[list(classes)] = True
    kept = wanted[_column_classes(degree)].tolist()
    rows = [row for row in rows if kept[next(iter(row))]]
    return _integer_nullspace(rows, 3 * dim_v + dim_q, [c for c, k in enumerate(kept) if k])


def _rows_to_float(nums: np.ndarray, dens: np.ndarray, at: tuple, degree: int) -> np.ndarray:
    """(rows, 3, D_N) float velocity coefficients of integer rows.

    at = (rows, cols) holds the positions of every nonzero of nums (and may hold
    zeros too), found by the kernel that made or scanned the rows; the rest is 0.
    Each entry is the Python int division num / den, correctly rounded: the
    value float(Fraction(num, den)) takes.  An entry beyond the double range
    raises ValueError.
    """
    dim_v = monomials.space_dim(degree)
    out = np.zeros((len(nums), 3 * dim_v))
    rows, cols = (a[at[1] < 3 * dim_v] for a in at)      # the velocity entries
    try:
        out[rows, cols] = nums[rows, cols] / dens[rows]
    except OverflowError:
        raise ValueError(f"a coefficient of the degree-{degree} basis rows is beyond the "
                         "double range") from None
    return out.reshape(-1, 3, dim_v)


def _raw_coeff_svd(domain: Domain, degree: int, classes=range(N_CLASSES)) -> np.ndarray:
    """Float fallback: (fields, 3, D_N) coefficients of the SVD nullspace of each class
    block of the system in `classes`, ascending (see _column_classes), with a rank
    cutoff relative to the block's largest singular value."""
    rows, dim_v, dim_q, scale = _constraint_rows(domain, degree)
    ncols = 3 * dim_v + dim_q
    mat = np.zeros((len(rows), ncols))
    for i, row in enumerate(rows):
        # the tangency rows divided back by their scale, each entry correctly rounded
        den = 1 if i < dim_q else scale
        mat[i, list(row)] = [v / den for v in row.values()]
    col_cls = _column_classes(degree)
    row_cls = col_cls[np.argmax(mat != 0.0, axis=1)]
    blocks = []
    for p in sorted(classes):
        cols = np.flatnonzero(col_cls == p)
        _, s, vt = np.linalg.svd(mat[np.ix_(row_cls == p, cols)], full_matrices=True)
        rank = int(np.sum(s > _SVD_RANK_RTOL * s[0])) if s.size else 0
        block = np.zeros((len(cols) - rank, ncols))
        block[:, cols] = vt[rank:]
        blocks.append(block)
    return np.concatenate(blocks)[:, :3 * dim_v].reshape(-1, 3, dim_v)


# ---------------------------------------------------------------------------
# reflection classes and orthonormalization

@functools.lru_cache(maxsize=None)
def _class_table(degree: int) -> np.ndarray:
    """(3, D_N) reflection class of component c at each monomial x^e: the parity of e + e_c."""
    exps = monomials.exponents(degree)
    table = ((exps[None] + np.eye(3, dtype=exps.dtype)[:, None]) % 2) @ _CLASS_BITS
    table.flags.writeable = False
    return table


def coefficient_classes(coeff: np.ndarray, degree: int) -> np.ndarray:
    """Reflection class of each field of a (fields, 3, D_N) coefficient array.

    Bit a of a class is set when the field flips sign under x_a -> -x_a.  A field
    that is zero or mixes classes has none: ValueError names the first.
    """
    table = _class_table(degree)
    nonzero = coeff != 0
    hi = np.where(nonzero, table, -1).max(axis=(1, 2))
    lo = np.where(nonzero, table, N_CLASSES).min(axis=(1, 2))
    mixed = np.flatnonzero(lo != hi)
    if mixed.size:
        raise ValueError(f"field {mixed[0]} does not lie in one reflection class")
    return hi


def class_subgroup(classes) -> tuple[int, ...]:
    """The subgroup of the reflection classes (Z_2^3 under XOR) that `classes` generate,
    ascending; {0} for none."""
    group = {0}
    for p in classes:
        group |= {q ^ p for q in group}
    return tuple(sorted(group))


def coriolis_shifts(axis) -> tuple[int, ...]:
    """The class shifts of the Coriolis term about `axis`: the term about e_a maps class P
    to P ^ ROTATION_CLASSES[a], for each nonzero component a of the axis."""
    return tuple(p for w_a, p in zip(axis, ROTATION_CLASSES) if w_a)


def field_classes(v: VectorField, degree: int) -> set[int]:
    """The reflection classes of the parts of a field of degree <= N (see project_fields)."""
    return set(_class_table(degree)[monomials.field_to_array(v, degree) != 0].tolist())


def _by_class(fn, mat: np.ndarray, members: dict) -> np.ndarray:
    """fn applied to each class block of mat, scattered into one block-diagonal matrix.

    members is a class partition (Basis.members); fn(block, index) also gets the
    indices of the block's fields in mat.
    """
    out = np.zeros_like(mat)
    for index in members.values():
        block = np.ix_(index, index)
        out[block] = fn(mat[block], index)
    return out


def _orthonormal_coefficients(gram: np.ndarray, index=None) -> np.ndarray:
    """Q = L^-1 for the Cholesky factor L L^T = G of a Gram G, so that Q G Q^T = I.

    Q is lower triangular: field k combines raw fields 0..k, as in Gram-Schmidt.
    L[k, k]^2 / G[k, k], the squared sine of the angle between field k and the
    span of fields 0..k-1, is computed to about k eps, so a Gram that is not
    positive definite or has a pivot below n eps holds numerically dependent
    fields: InvariantError names the first as index[k], its index in the basis
    (k itself when index is None).
    """
    g = 0.5 * (gram + gram.T)
    n = g.shape[0]
    chol, info = scipy.linalg.lapack.dpotrf(g, lower=1, clean=1)
    # info > 0: dpotrf stopped at the non-positive pivot of field info - 1
    dependent = ([info - 1] if info else
                 np.flatnonzero(~(np.diag(chol) ** 2 >= n * np.finfo(float).eps * np.diag(g))))
    if len(dependent):
        field = dependent[0] if index is None else index[dependent[0]]
        raise InvariantError(f"negligible or non-positive pivot at field {field}: "
                             "nullspace fields are numerically dependent")
    return scipy.linalg.lapack.dtrtri(chol, lower=1)[0]


def build_basis(domain: Domain, degree: int, method: str = "exact", classes=None) -> Basis:
    """Construct the orthonormal tangent solenoidal basis of total degree <= N.

    method='exact' solves the constraint nullspace exactly, by fraction-free
    elimination over integers (the default; rank decisions are exact, and the
    elimination takes about 4 ms at N = 6, 9 ms at N = 8 and 17 ms at N = 10 on
    a 2-vCPU x86-64 host);
    method='svd' takes it from one float SVD per reflection class, a fallback and
    an independent cross-check.  Both orthonormalize alike; the combination q is
    applied to the exact integer rows, with both constraints proved on every
    combined row (InvariantError names a failing field), or to the svd floats.

    classes (default: all 8) builds the fields of those reflection classes
    alone: the constraint rows and nullspace columns of their class blocks, and
    the orthonormalization, the Gram gate and the row proof on those fields.
    The polish pass runs when a built class misses I by more than 1e-13, so a
    build of every class is the full build.  With the same polish decision the
    result equals build_basis(domain, degree, method).restrict(classes) bit for
    bit for the exact method (raw_gram_cond aside: it is the condition of the
    classes built); where the decisions differ (on the verify domains, at
    N = 6 alone) the fields differ by round-off, and so do svd fields, whose
    combination q @ raw is one float product over the fields built.  Classes
    that hold no field give a basis of dim 0.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    kept = range(N_CLASSES) if classes is None else sorted(set(classes))
    if not kept or not set(kept) <= set(range(N_CLASSES)):
        raise ValueError(f"classes must be reflection classes 0-{N_CLASSES - 1}, got {classes}")
    if method == "exact":
        nums, dens = _raw_rows_exact(domain, degree, kept)
        nonzero = np.nonzero(nums != 0)     # the one scan of the raw rows
        raw_arr = _rows_to_float(nums, dens, nonzero, degree)
    elif method == "svd":
        raw_arr = _raw_coeff_svd(domain, degree, kept)
    else:
        raise ValueError(f"unknown method {method!r}")
    raw = Basis(domain, degree, raw_arr)
    if not raw.dim:
        return raw
    members = raw.members
    # the Gram is 0 between classes: its eigenvalues are its class blocks' (cond = inf
    # for dependent fields, as np.linalg.cond gives)
    eigs = np.abs(np.concatenate([np.linalg.eigvalsh(raw.gram[np.ix_(m, m)])
                                  for m in members.values()]))
    raw_cond = float(eigs.max() / eigs.min()) if eigs.min() > 0 else math.inf
    if method == "exact":
        blocks = _class_blocks(nums, dens, nonzero, members)

    def orthonormalize(q):
        # exact: the integer rows (nums, dens) of q @ raw, rounded; svd: q @ raw in float
        if method == "exact":
            q_nums, q_dens, at = _combine_rows(blocks, q, nums.shape[1])
            return Basis(domain, degree, _rows_to_float(q_nums, q_dens, at, degree),
                         (q_nums, q_dens), raw_cond)
        return Basis(domain, degree, np.tensordot(q, raw_arr, 1), raw_gram_cond=raw_cond)

    # q is block diagonal by class, so each orthonormal field keeps its raw field's class
    q = _by_class(_orthonormal_coefficients, raw.gram, members)
    basis = orthonormalize(q)
    if basis.gram_identity_deviation() > 1e-13:     # the polish pass
        q = _by_class(_orthonormal_coefficients, basis.gram, members) @ q
        basis = orthonormalize(q)
    dev = basis.gram_identity_deviation()
    if dev > GRAM_IDENTITY_TOL:
        raise InvariantError(f"orthonormalization failed: gram deviates from identity by {dev:.3e}")

    if method == "exact":
        _check_exact_rows(basis.row_failures)
    return basis


def gram_form(a: np.ndarray, j: np.ndarray, b: np.ndarray) -> np.ndarray:
    """G[i, k] = sum_c a[i, c] . J . b[k, c]: a bilinear form over coefficient arrays.

    a is (rows, C, D_a), j is (D_a, D_b) monomial integrals and b is (cols, C, D_b);
    the path of the odd-in-z part of the hemispheric Grams, which is not an octant form.
    """
    return np.einsum("icm,mn,jcn->ij", a, j, b, optimize=True)


def basis_rule(domain: Domain, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The octant rule of a degree-N basis: exact to degree 3N - 1, the degree of the
    advection integrand b_i . grad b_j . b_k and the highest of every class-pure form."""
    return octant_rule(domain, 3 * degree - 1)


def nodal_form(u: np.ndarray, weights: np.ndarray, v: np.ndarray, rows_u: dict,
               rows_v: dict) -> np.ndarray:
    """G[i, k] = sum_(c, n) u[i, c, n] w[n] v[k, c, n] for i in rows_u[p], k in rows_v[p], else 0.

    u and v are (rows, C, nodes) values on an octant rule (C = 3 for fields, 9 for
    gradients), and rows_u, rows_v map class labels to rows (Basis.members, say);
    each kept block, whose integrand is even, is one product (U w) V^T.
    """
    out = np.zeros((len(u), len(v)))
    width = math.prod(u.shape[1:])      # so that no rows (a basis of dim 0) reshape too
    uw = (u * weights).reshape(len(u), width)
    v = v.reshape(len(v), width)
    for p, i in rows_u.items():
        k = rows_v.get(p)
        if k is not None:
            out[np.ix_(i, k)] = uw[i] @ v[k].T
    return out


def _sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct keys ascending, the exact sum of the Python-int values at each).

    keys are nonnegative ints; a stable argsort groups the equal ones and one
    np.add.reduceat over the object array adds each group, so the integer
    arithmetic is exact and reads the given entries alone.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[first], np.add.reduceat(values[order], first)


def _ranges(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, owner): the ranges [start[t], stop[t]) end to end, and the t of each."""
    counts = stop - start
    owner = np.repeat(np.arange(len(counts)), counts)
    # range t begins at output position cumsum(counts)[t] - counts[t]
    return np.arange(len(owner)) + (start - np.cumsum(counts) + counts)[owner], owner


def _dyadic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, d) with x = m 2^-d exactly and m odd: the binary fraction of each nonzero float."""
    mantissa, exponent = np.frexp(x)
    m = (mantissa * 2.0 ** 53).astype(np.int64)
    zeros = np.frexp((m & -m).astype(float))[1] - 1      # trailing zero bits of m
    return m >> zeros, 53 - exponent - zeros


def _class_blocks(nums: np.ndarray, dens: np.ndarray, nonzero: tuple, members: dict) -> list:
    """The class blocks of integer rows, found once per build for _combine_rows.

    Block p is (idx, lcm, start, cols, vals): the indices of the rows of class
    p, L, the lcm of their denominators, and their nonzero entries over L,
    row by row (row k of the block holds cols and vals [start[k]:start[k + 1]]).
    nonzero = np.nonzero(nums != 0), the build's one scan of nums.
    """
    rows, cols = nonzero
    row_start = np.searchsorted(rows, np.arange(len(nums) + 1))
    blocks = []
    for idx in members.values():
        pos, owner = _ranges(row_start[idx], row_start[idx + 1])
        lcm = math.lcm(*dens[idx])
        vals = nums[rows[pos], cols[pos]] * (lcm // dens[idx])[owner]
        blocks.append((idx, lcm, np.searchsorted(owner, np.arange(len(idx) + 1)), cols[pos], vals))
    return blocks


def _combine_rows(blocks: list, q: np.ndarray, ncols: int) -> tuple:
    """(nums, dens, at): the exact rows of q @ (nums / dens), for q block diagonal by class
    and the class blocks of (nums, dens) from _class_blocks, and at = (rows, cols), the
    entries the sums were written to (every nonzero, maybe some cancelled to 0).

    Each float q[i, k] is m / 2^d exactly.  Row i of a class block is brought
    over the denominator 2^E_i L, with 2^E_i the largest 2^d in its row of q
    (the denominators float.as_integer_ratio gives).  Each nonzero of the
    block of q, lower triangular, is paired with the nonzeros of its raw row,
    and the products are summed by output entry (_sum_by_key).
    """
    out = np.zeros((q.shape[0], ncols), dtype=object)
    out_dens = np.ones(q.shape[0], dtype=object)
    flat, written = out.reshape(-1), []
    for idx, lcm, start, cols, vals in blocks:
        block = q[np.ix_(idx, idx)]
        i, k = np.nonzero(block)
        m, d = _dyadic(block[i, k])
        e = np.zeros(len(idx), dtype=np.int64)
        np.maximum.at(e, i, d)
        scaled = m.astype(object) << (e[i] - d).astype(object)
        pos, owner = _ranges(start[k], start[k + 1])
        keys, sums = _sum_by_key(idx[i[owner]] * ncols + cols[pos], scaled[owner] * vals[pos])
        flat[keys] = sums
        written.append(keys)
        out_dens[idx] = np.array([lcm << s for s in e.tolist()], dtype=object)
    return out, out_dens, np.divmod(np.concatenate(written), ncols)


def _shift_index(degree: int, exponent) -> np.ndarray:
    """Graded-list index of x^exponent times each monomial of total degree <= degree."""
    idx = np.arange(monomials.space_dim(degree))
    for axis in range(3):
        for _ in range(exponent[axis]):
            idx = monomials.shift_arrays(degree, axis)[idx]
            degree += 1
    return idx


def exact_row_failures(domain: Domain, degree: int, nums: np.ndarray) -> dict:
    """Prove div v = 0 and v.grad(chi) = chi q on every integer row (v, q) of nums.

    Returns {"divergence free": i, "tangent to the boundary": j}, i and j the
    first rows that fail each identity, or None where every row holds it.
    Both identities are linear and homogeneous, so they hold for nums / den
    exactly when they hold for the numerators.  The maps are integer: the
    monomial derivative and shift tables, and chi's coefficients times K, the
    lcm of their denominators.  They are built here rather than taken from
    _constraint_rows, so the proof does not rest on the system that produced
    the nullspace.  Each nonzero numerator is sent to the few monomials of
    div v and of K (v.grad(chi) - chi q) that its column feeds, and the terms
    are summed by (row, monomial) (_sum_by_key).
    """
    n = degree
    dim_v, n_div = monomials.space_dim(n), monomials.space_dim(n - 1)
    chi = domain.chi.coeffs
    k = math.lcm(*(c.denominator for c in chi.values()))
    # (columns, outputs, multipliers) of each map: output o < n_div is monomial o of
    # div v, n_div + o monomial o of K (v.grad(chi) - chi q), of degree <= N+1
    terms = []
    for a in range(3):
        src, dst, mult = monomials.derivative_arrays(n, a)
        terms.append((a * dim_v + src, dst, mult.astype(np.int64).astype(object)))
    for e, coeff in chi.items():
        kc = int(coeff * k)
        for a in range(3):      # the term K c e_a x^(e - e_a) of K d(chi)/dx_a, on v_a
            if e[a]:
                lower = tuple(e[b] - (b == a) for b in range(3))
                terms.append((a * dim_v + np.arange(dim_v), n_div + _shift_index(n, lower),
                              np.full(dim_v, kc * e[a], dtype=object)))
        terms.append((3 * dim_v + np.arange(n_div), n_div + _shift_index(n - 1, e),
                      np.full(n_div, -kc, dtype=object)))
    cols, outs, mults = (np.concatenate(t) for t in zip(*terms))
    order = np.argsort(cols, kind="stable")
    outs, mults = outs[order], mults[order]
    col_start = np.searchsorted(cols[order], np.arange(nums.shape[1] + 1))

    r, c = np.nonzero(nums != 0)
    pos, owner = _ranges(col_start[c], col_start[c + 1])
    width = n_div + monomials.space_dim(n + 1)
    keys, sums = _sum_by_key(r[owner] * width + outs[pos], nums[r, c][owner] * mults[pos])
    # keys ascend with the row, so the first failing key of each identity names its first row
    row, out = np.divmod(keys[sums != 0], width)
    return {what: int(bad[0]) if bad.size else None
            for what, bad in (("divergence free", row[out < n_div]),
                              ("tangent to the boundary", row[out >= n_div]))}


def _check_exact_rows(failures: dict) -> None:
    """The gate on a result of exact_row_failures: InvariantError names the first failing row."""
    for what, bad in failures.items():
        if bad is not None:
            raise InvariantError(f"basis field {bad} is not exactly {what}")


# ---------------------------------------------------------------------------
# projection and the portable text format

def project(v: VectorField, basis: Basis):
    """L2-orthogonal projection of a field of degree <= N onto the basis span.

    Returns (coefficients, residual) with residual = || v - sum c_i b_i ||_L2 of
    the explicitly formed residual field, so exact members come back at round-off.
    Each integrand is taken by reflection-class parts of v (monomial parity) on the
    basis rule, exact for them to degree 2N, from the values and the Vandermonde
    matrix that the Basis constructor evaluates.  A field above degree N raises
    ValueError (field_to_array).
    """
    coeffs, residuals = project_fields([v], basis)
    return coeffs[0], float(residuals[0])


def project_fields(fields: list[VectorField], basis: Basis):
    """project for k fields at once: (coefficients (k, dim), residuals (k,)).

    Per reflection class, one masked Vandermonde product evaluates that class's
    part of every field, and the basis fields of the class take their
    right-hand sides from it; one solve with k right-hand sides gives the
    coefficients, and the residual fields are evaluated alike.
    """
    arr = np.stack([monomials.field_to_array(v, basis.degree) for v in fields])
    vander, weights = basis.vander.T, basis.weights
    masks = _class_table(basis.degree) == np.arange(N_CLASSES)[:, None, None]
    values_w = basis.values * weights
    rhs = np.empty((len(arr), basis.dim))
    for p, idx in basis.members.items():
        rhs[:, idx] = np.einsum("icn,kcn->ki", values_w[idx], np.where(masks[p], arr, 0.0) @ vander)
    coeffs = np.linalg.solve(basis.gram, rhs.T).T
    arr -= np.einsum("ki,icm->kcm", coeffs, basis.coeff_array)
    squares = np.stack([np.square(np.where(mask, arr, 0.0) @ vander) @ weights for mask in masks],
                       axis=1)
    return coeffs, np.sqrt(np.sum(squares, axis=(1, 2)))


def rotation_projection(basis: Basis):
    """project(e_z x x, basis), kept on the basis: consecutive runs share it, read-only."""
    return basis.cached("e_z x x", lambda b: project(solid_rotation((0, 0, 1)), b))


def reference_projection(u_p: VectorField, basis: Basis):
    """project(u_p, basis), kept on the basis as its one reference-field projection, read-only.

    Consecutive runs with the same u_P (the +/- omega twins, say) project it once.
    """
    return basis.cached(("u_P", u_p.components), lambda b: project(u_p, b))


def _read_only(value):
    """value with every array in it (an array, or a dict or tuple of them) read-only.

    Other objects are left as they are: a shared object freezes its own arrays.
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (dict, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            _read_only(item)
    return value


EXPORT_MAGIC = "# precessflow basis"


def save_basis(basis: Basis, path) -> None:
    """Portable text export: one line per field, exponent/coefficient pairs.

    The pairs are the nonzero entries of coeff_array in exponent order.  An
    exact basis's float coefficients are the correctly rounded values of its
    rows.
    """
    exps = monomials.exponents(basis.degree)
    order = np.lexsort(exps.T[::-1])     # by (i, j, k)
    tokens = [f"{i},{j},{k}" for i, j, k in exps[order].tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{EXPORT_MAGIC} v1\n")
        if basis.domain.axes_exact is not None:
            fa, fb, fc = basis.domain.axes_exact
            fh.write(f"# axes {fa} {fb} {fc}\n")
        else:
            fh.write(f"# beta {basis.domain.beta}\n")
        fh.write(f"# degree {basis.degree} dim {basis.dim}\n")
        for field in basis.coeff_array[:, :, order].tolist():
            groups = [" ".join(f"{t}:{c:.17g}" for t, c in zip(tokens, comp) if c) or "-"
                      for comp in field]
            fh.write(" ; ".join(groups) + "\n")


def load_basis(path) -> Basis:
    """Read a basis export; fields come back with float coefficients.

    A malformed or repeated header, a malformed field line, a non-finite coefficient, a
    monomial above the degree or twice in one component, or a field outside one
    reflection class raises ValueError naming the line.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith(EXPORT_MAGIC):
        raise ValueError("not a basis export file")
    domain, degree, dim, arrays = None, None, None, []
    for number, ln in enumerate(lines[1:], start=2):
        parts = ln[1:].split() if ln.startswith("#") else None
        try:
            if parts and parts[0] in ("axes", "beta"):
                if domain is not None:
                    raise ValueError("second domain header")
                if len(parts) != (4 if parts[0] == "axes" else 2):
                    raise ValueError(f"malformed {parts[0]} header")
                values = [Fraction(p) for p in parts[1:]]
                domain = Domain(*values) if parts[0] == "axes" else Domain.from_beta(values[0])
            elif parts and parts[0] == "degree":
                if degree is not None:
                    raise ValueError("second degree header")
                if len(parts) != 4 or parts[2] != "dim" or min(int(parts[1]), int(parts[3])) < 1:
                    raise ValueError("malformed degree header")
                degree, dim = int(parts[1]), int(parts[3])
            elif parts is None and ln.strip():
                arrays.append(_parse_field(ln, degree))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {number}: {exc}: {ln!r}") from None
    if domain is None or degree is None:
        raise ValueError("basis export is missing its header")
    if dim != len(arrays):
        raise ValueError(f"basis export announces dim {dim} but carries {len(arrays)} fields")
    return Basis(domain, degree, np.stack(arrays))


def _parse_field(line: str, degree: int | None) -> np.ndarray:
    """(3, D_N) coefficients of a field line, three ';'-separated groups of 'i,j,k:value'
    tokens or '-'; the field must lie in one reflection class."""
    if degree is None:
        raise ValueError("field line before the degree header")
    groups = line.split(";")
    if len(groups) != 3:
        raise ValueError(f"{len(groups)} components, expected 3")
    arr = np.zeros((3, monomials.space_dim(degree)))
    for c, group in enumerate(groups):
        seen = set()
        for tok in group.split() if group.strip() != "-" else ():
            exp, val = tok.split(":")
            m = monomials.index_map(degree).get(tuple(int(e) for e in exp.split(",")))
            if m is None or not math.isfinite(float(val)):
                raise ValueError(f"monomial {exp} of degree > {degree}" if m is None
                                 else f"non-finite coefficient {val}")
            if m in seen:
                raise ValueError(f"monomial {exp} twice in component {c}")
            seen.add(m)
            arr[c, m] = float(val)
    if len(np.unique(_class_table(degree)[arr != 0.0])) != 1:
        raise ValueError("the field is zero or mixes reflection classes")
    return arr
