"""build_basis(domain, N, classes=G) builds the fields of G alone.

The constraint system is block-diagonal by reflection class and its reduced
echelon form is unique, so the integer rows of G's class blocks are the rows
of the whole nullspace that lie in G, and every later step (the class-block
Cholesky, the row combination, the row proof and the Gram gate) reads one
class at a time.  The one step that reads every class built is the polish
decision: a pass over all of them when one misses I by more than 1e-13.
Where the full build and the build of G take the same decision, G's build
is the full build's restriction to G bit for bit.
"""

import numpy as np
import pytest

from precessflow import basis as basis_module
from precessflow.basis import GRAM_IDENTITY_TOL, build_basis, _raw_coeff_svd

from conftest import DOMAINS, assert_same_fields, get_basis

GROUPS = [(0,), (0, 3), (0, 6), (0, 3, 5, 6)]
PROVED = {"divergence free": None, "tangent to the boundary": None}


def full_basis(kind, degree, method="exact"):
    if method == "exact" and degree <= 6:
        return get_basis(kind, degree)
    return build_basis(DOMAINS[kind], degree, method)


@pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 8])
def test_exact_build_of_g_is_the_restriction(kind, degree):
    full = full_basis(kind, degree)
    for group in GROUPS:
        sub = build_basis(DOMAINS[kind], degree, classes=group)
        if not sub.dim:
            # no field of G at this degree: {0} at N = 1, 2
            assert not np.isin(full.classes, group).any() and sub.members == {}
            continue
        assert_same_fields(sub, full.restrict(group))
        assert sub.row_failures == PROVED


@pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
@pytest.mark.parametrize("degree", [6, 7])
def test_exact_build_of_g_where_the_polish_decision_may_differ(kind, degree, monkeypatch):
    # the combination runs once per pass, so two calls mean the build polished
    passes = []
    combine = basis_module._combine_rows

    def counting(*args):
        passes.append(None)
        return combine(*args)

    monkeypatch.setattr(basis_module, "_combine_rows", counting)
    full = build_basis(DOMAINS[kind], degree)
    polished_full = len(passes) == 2
    for group in GROUPS:
        passes.clear()
        sub = build_basis(DOMAINS[kind], degree, classes=group)
        ref = full.restrict(group)
        assert sub.gram_identity_deviation() <= GRAM_IDENTITY_TOL
        assert sub.row_failures == PROVED
        assert np.array_equal(sub.classes, ref.classes)
        if (len(passes) == 2) == polished_full:
            assert_same_fields(sub, ref)
        else:
            # the full build polished for classes outside G, the build of G did not
            assert degree == 6 and polished_full


@pytest.mark.parametrize("kind", ["sphere", "spheroid", "triaxial"])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_svd_build_of_g_is_the_restriction_to_round_off(kind, degree):
    # the svd nullspace of G is the full one's rows of G bit for bit; the float
    # combination q @ raw is one dense product whose sums depend on its width, so
    # the orthonormal fields agree to the last bits (8.9e-16 at N = 3, spheroid)
    domain = DOMAINS[kind]
    full = full_basis(kind, degree, "svd")
    raw_full = _raw_coeff_svd(domain, degree)
    raw_classes = basis_module.coefficient_classes(raw_full, degree)
    eps = np.finfo(float).eps
    for group in GROUPS:
        assert np.array_equal(_raw_coeff_svd(domain, degree, group),
                              raw_full[np.isin(raw_classes, group)])
        sub = build_basis(domain, degree, "svd", classes=group)
        ref = full.restrict(group)
        assert sub.dim == ref.dim and sub.rows is None
        if not sub.dim:
            continue
        assert np.array_equal(sub.classes, ref.classes)
        for name in ("coeff_array", "values", "gram", "grad"):
            a, b = getattr(sub, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 8 * eps * max(1.0, np.max(np.abs(b))), name
        assert sub.gram_identity_deviation() <= GRAM_IDENTITY_TOL


@pytest.mark.parametrize("method", ["exact", "svd"])
def test_every_class_is_the_full_build(method):
    full = full_basis("triaxial", 3, method)
    every = build_basis(DOMAINS["triaxial"], 3, method, classes=range(8))
    assert_same_fields(every, full)
    assert every.raw_gram_cond == full.raw_gram_cond


@pytest.mark.parametrize("classes", [(), (8,), (-1, 0)])
def test_classes_outside_the_eight_are_refused(classes):
    with pytest.raises(ValueError, match="reflection classes 0-7"):
        build_basis(DOMAINS["spheroid"], 2, classes=classes)
