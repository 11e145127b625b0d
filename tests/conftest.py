from fractions import Fraction

import hypothesis
import numpy as np
import pytest

from precessflow.basis import build_basis
from precessflow.operators import BoundaryCondition, assemble
from precessflow.verification import DOMAINS as BATTERY_DOMAINS

hypothesis.settings.register_profile("default", deadline=None, max_examples=50)
hypothesis.settings.load_profile("default")

DOMAINS = dict(BATTERY_DOMAINS)

BETA = Fraction(9, 16)
EPS_P = Fraction(1, 4)

_basis_cache: dict = {}


def get_basis(kind: str, degree: int):
    key = (kind, degree)
    if key not in _basis_cache:
        _basis_cache[key] = build_basis(DOMAINS[kind], degree)
    return _basis_cache[key]


def assert_same_fields(basis, reference):
    """basis holds reference's fields bit for bit: coefficients, classes, nodal values and
    gradients, Gram and, for an exact basis, the integer rows."""
    assert basis.dim == reference.dim
    for name in ("coeff_array", "classes", "values", "gram", "grad"):
        assert np.array_equal(getattr(basis, name), getattr(reference, name)), name
    assert (basis.rows is None) == (reference.rows is None)
    for a, b, name in zip(basis.rows or (), reference.rows or (), ("nums", "dens")):
        assert a.tolist() == b.tolist(), name


def get_ops(kind: str, degree: int, form="stress_free", nu=1.0, eps_p=0.0, data=None):
    basis = get_basis(kind, degree)
    return assemble(basis, BoundaryCondition(form, data), nu=nu, eps_p=eps_p)


# one edited line of the spheroid N = 2 export, whose lines are the magic line,
# "# axes 1 1 4/5", "# degree 2 dim 11" and then the 11 fields:
# case -> (line number, new text, the ValueError's message); the message of a
# fault of the whole file names no line (see import_error)
MALFORMED_EXPORTS = {
    "degree_without_dim": (3, "# degree 1", "malformed degree header"),
    "two_axes": (2, "# axes 1 1", "malformed axes header"),
    "zero_axis": (2, "# axes 1 1 0", "semi-axes must be positive"),
    "nan": (4, "0,1,0:nan ; - ; -", "non-finite coefficient nan"),
    "inf": (5, "0,1,0:1.0 ; - ; 1,0,1:-inf", "non-finite coefficient -inf"),
    "above_degree": (4, "3,0,0:1.0 ; - ; -", "monomial 3,0,0 of degree > 2"),
    "mixed_classes": (6, "0,0,0:1.0 1,0,0:1.0 ; - ; -",
                      "the field is zero or mixes reflection classes"),
    "zero_field": (4, "- ; - ; -", "the field is zero or mixes reflection classes"),
    "two_components": (5, "0,1,0:1.0 ; -", "2 components, expected 3"),
    "field_before_degree": (3, "0,1,0:1.0 ; - ; -", "field line before the degree header"),
    "no_axes_header": (2, "# shape 1 1 4/5", "basis export is missing its header"),
    "dim_mismatch": (3, "# degree 2 dim 12",
                     "basis export announces dim 12 but carries 11 fields"),
    "repeated_monomial": (4, "0,1,0:-1.0 0,1,0:5.0 ; 1,0,0:1.0 ; -",
                          "monomial 0,1,0 twice in component 0"),
    "second_domain_header": (4, "# beta 9/16", "second domain header"),
    "second_degree_header": (5, "# degree 2 dim 11", "second degree header"),
}
_FILE_FAULTS = ("no_axes_header", "dim_mismatch")


def import_error(case, line, message):
    """The start of load_basis's message for a MALFORMED_EXPORTS case."""
    return message if case in _FILE_FAULTS else f"line {line}: {message}: "


def malformed_export(tmp_path, case):
    """(path, line number, message) of the spheroid N = 2 export with one line edited."""
    from precessflow.basis import save_basis

    line, text, message = MALFORMED_EXPORTS[case]
    path = tmp_path / "basis.txt"
    save_basis(get_basis("spheroid", 2), path)
    lines = path.read_text().splitlines()
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    return path, line, message


@pytest.fixture(scope="session")
def domains():
    return DOMAINS


@pytest.fixture(scope="session")
def spheroid():
    return DOMAINS["spheroid"]


@pytest.fixture(scope="session")
def sphere():
    return DOMAINS["sphere"]


@pytest.fixture(scope="session")
def triaxial():
    return DOMAINS["triaxial"]


@pytest.fixture(scope="session")
def basis_factory():
    return get_basis
