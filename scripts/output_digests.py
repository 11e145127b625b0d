#!/usr/bin/env python3
"""Print a sha256 digest of every output that must stay bit-identical across a change.

For the exact and svd bases of the three verification.DOMAINS at each degree
of --degrees (default 1-8, a comma-separated list as for `precessflow
verify`), one `label sha256` line per item:

- the basis: coeff_array, classes, gram, the exact rows and raw_gram_cond;
- M, A_sym, A_grad, mom, Hn, Hs, and C_x at the axes (1, 0, 0) and (0, 0.6, 0.8);
- F_bc of the poincare_stress form on the spheroid;
- the four arrays of the packed advection operator and the dense T;
- both viscous spectra with the classes of their kernels;
- the projection of e_z x x onto the basis and its residual;

and one line for the CSV of each configs/*.cfg run, written in a temporary
directory.  The lines are sorted, so two source trees agree bit for bit when
they print the same text:

    PYTHONPATH=src python scripts/output_digests.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/output_digests.py > old.txt
    diff old.txt new.txt
"""

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from precessflow import cli, run
from precessflow.basis import build_basis, poincare_field, rotation_projection
from precessflow.operators import BoundaryCondition, assemble
from precessflow.spectral import viscous_kernel
from precessflow.verification import DOMAINS

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
METHODS = ("exact", "svd")
AXES = ((1.0, 0.0, 0.0), (0.0, 0.6, 0.8))


def digest(value) -> str:
    """sha256 of an array (its dtype, shape and data; integer objects by their text) or of
    bytes or text."""
    if isinstance(value, np.ndarray):
        data = (repr(value.tolist()).encode() if value.dtype == object
                else np.ascontiguousarray(value).tobytes())
        value = f"{value.dtype} {value.shape} ".encode() + data
    elif not isinstance(value, bytes):
        value = str(value).encode()
    return hashlib.sha256(value).hexdigest()


def basis_items(kind, basis):
    """(name, value) of every digested output of one basis."""
    yield "coeff_array", basis.coeff_array
    yield "classes", basis.classes
    yield "gram", basis.gram
    if basis.rows is not None:
        yield "rows.nums", basis.rows[0]
        yield "rows.dens", basis.rows[1]
    yield "raw_gram_cond", float(basis.raw_gram_cond).hex()
    for axis in AXES:
        ops = assemble(basis, BoundaryCondition("stress_free"), nu=1.0, eps_p=0.25,
                       precession_axis=axis)
        yield f"C_x{axis}".replace(" ", ""), ops.C_x
    for name in ("M", "A_sym", "A_grad", "mom", "Hn", "Hs"):
        yield name, getattr(ops, name)
    if kind == "spheroid":
        u_p = poincare_field(basis.domain.beta, Fraction(1, 4))
        yield "F_bc", assemble(basis, BoundaryCondition("poincare_stress", u_p),
                               nu=1.0 / 0.00375, eps_p=0.25).F_bc
    for name, array in ops.T_packed._asdict().items():
        yield f"pack.{name}", array
    yield "T", ops.T
    for stiffness in ("sym", "grad"):
        report = viscous_kernel(ops, stiffness)
        yield f"eigenvalues.{stiffness}", report.eigenvalues
        yield f"kernel_classes.{stiffness}", report.kernel_classes
    c_rot, residual = rotation_projection(basis)
    yield "rotation_projection", c_rot
    yield "rotation_residual", float(residual).hex()


def config_csv(path) -> bytes:
    """The CSV of the run of config `path`, written in a temporary directory."""
    scenario = cli.scenario_from_config(cli.parse_config(path))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / Path(scenario.output_path).name
        run(dataclasses.replace(scenario, output_path=str(out)))
        return out.read_bytes()


def digest_lines(degrees, configs) -> list[str]:
    lines = []
    for method in METHODS:
        for kind, domain in DOMAINS:
            for degree in degrees:
                basis = build_basis(domain, degree, method)
                lines += [f"{method}/{kind}/N={degree}/{name} {digest(value)}"
                          for name, value in basis_items(kind, basis)]
    lines += [f"config/{Path(path).name} {digest(config_csv(path))}" for path in configs]
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degrees", default="1,2,3,4,5,6,7,8", type=cli._degree_list,
                        help="comma-separated basis degrees (default 1-8)")
    args = parser.parse_args(argv)
    print("\n".join(digest_lines(args.degrees, CONFIGS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
