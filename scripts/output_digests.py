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

one line for the CSV of each configs/*.cfg run, and one for each of seven
spheroid poincare_stress runs: four short N = 3 runs that take the paths no
bundled config takes (the per-step constraint projection in each of its
three modes, and a restart kick between two records), the +/- omega twin
pair of the twin_proj_n5 benchmark (N = 5, rot_momentum projection, the
second run warm on the first's basis) and the short kicked run at N = 6,
where the basis built on the stepped classes alone skips the polish pass
that the full basis takes.  Each of these runs also prints a `run:<name>
classes ...` line with the reflection classes of the basis it stepped
(timestepper.run steps the classes it can reach) and a `stepped/<name>`
line, the sha256 of that basis's coeff_array and integer rows, so a change
of the stepped subspace or of its fields shows in the diff too.  The CSVs
are written in a temporary directory.  One `verify:<degrees>` line digests
the stdout of `precessflow verify --degrees <degrees>`.  The lines are
sorted, so two source trees agree bit for bit when they print the same
text.  The stepped basis is ops.basis of a run's first diagnostics.record
call, not a private helper of timestepper, so one copy of the script
digests either tree:

    PYTHONPATH=src python scripts/output_digests.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/output_digests.py > old.txt
    diff old.txt new.txt
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from precessflow import cli, diagnostics, run
from precessflow.basis import build_basis, poincare_field, rotation_projection
from precessflow.diagnostics import CONSTRAINT_MODES
from precessflow.operators import BoundaryCondition, assemble
from precessflow.spectral import viscous_kernel
from precessflow.timestepper import ScenarioConfig
from precessflow.verification import DOMAINS

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
METHODS = ("exact", "svd")
AXES = ((1.0, 0.0, 0.0), (0.0, 0.6, 0.8))
# the kicked steady Poincare flow, 100 steps; each of RUNS changes it as it says
RUN = dict(degree=3, bc_form="poincare_stress", nu_inverse=0.00375, eps_p=0.25,
           init_type="poincare_plus_rotation", init_omega=0.025, dt=0.01, t_end=1.0,
           record_every=0.1, beta=Fraction(9, 16))
TWIN = dict(degree=5, t_end=8.0, record_every=1.0, constraint_mode="rot_momentum")
RUNS = {**{f"constraint={mode}": dict(constraint_mode=mode) for mode in CONSTRAINT_MODES},
        "restart=0.55": dict(restart_time=0.55, restart_omega=0.025),
        "twin_n5=+omega": TWIN, "twin_n5=-omega": TWIN | dict(init_omega=-0.025),
        "degree=6": dict(degree=6)}


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


def stepped_run(scenario):
    """The series of run(scenario) and the basis it stepped: ops.basis of its first record."""
    bases, record = [], diagnostics.record

    def recording(state, ops, ctx):
        bases.append(ops.basis)
        return record(state, ops, ctx)

    diagnostics.record = recording
    try:
        return run(scenario), bases[0]
    finally:
        diagnostics.record = record


def run_lines(kind, name, scenario) -> list[str]:
    """The digest line of the CSV of the run of scenario, written in a temporary directory,
    and the lines of the classes and the fields of the basis it stepped."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / Path(scenario.output_path or "run.csv").name
        series, basis = stepped_run(dataclasses.replace(scenario, output_path=str(out)))
        fields = "".join(digest(a) for a in (basis.coeff_array, *(basis.rows or ())))
        return [f"{kind}/{name} {digest(out.read_bytes())}",
                f"run:{name} classes {','.join(map(str, series.classes))}",
                f"stepped/{name} {digest(fields)}"]


def verify_line(degrees) -> str:
    """The digest line of the stdout of `precessflow verify` at degrees."""
    label = ",".join(map(str, degrees))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(["verify", "--degrees", label])
    return f"verify:{label} {digest(out.getvalue())}"


def digest_lines(degrees, configs) -> list[str]:
    lines = [verify_line(degrees)]
    for method in METHODS:
        for kind, domain in DOMAINS:
            for degree in degrees:
                basis = build_basis(domain, degree, method)
                lines += [f"{method}/{kind}/N={degree}/{name} {digest(value)}"
                          for name, value in basis_items(kind, basis)]
    for path in configs:
        lines += run_lines("config", Path(path).name,
                           cli.scenario_from_config(cli.parse_config(path)))
    for name, changes in RUNS.items():
        lines += run_lines("run", name, ScenarioConfig(**(RUN | changes)))
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
