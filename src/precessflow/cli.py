"""Batch command-line front end.

Subcommands: ``basis`` (build + symbolic checks), ``eig`` (viscous kernels and
coercivity constant), ``steady`` (steady-state residual sweep), ``run`` (time
integration to CSV), ``verify`` (full invariant battery).  Configuration is a
line-oriented ``key = value`` file; unknown keys are rejected with their line
number.  Exit codes: 0 success, 1 config/usage error, 2 blow-up, 3 invariant
failure (a failed check, a basis that fails its construction gates, or a kernel
vector that fails its A k = 0 self-check).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from fractions import Fraction

from .basis import (EXPORT_MAGIC, InvariantError, build_basis, poincare_field, poincare_obstacle,
                    save_basis)
from .geometry import Domain
from .operators import BoundaryCondition, assemble
from .spectral import class_label, neutral_modes
from .timestepper import BlowUpError, ScenarioConfig, scenario_domain
from .timestepper import run as run_scenario
from . import verification


class ConfigError(ValueError):
    """Malformed configuration or command usage."""


def parse_config(path) -> dict:
    """Read a key = value config file; rejects unknown/duplicate keys."""
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _real(text):
    return float(Fraction(text))


# config key -> (ScenarioConfig field, parser of its value)
CONFIG_KEYS = {
    "domain.beta": ("beta", Fraction),
    "domain.a": ("a", Fraction),
    "domain.b": ("b", Fraction),
    "domain.c": ("c", Fraction),
    "basis.degree": ("degree", int),
    "bc.form": ("bc_form", str),
    "physics.nu_inverse": ("nu_inverse", _real),
    "physics.eps_p": ("eps_p", _real),
    "init.type": ("init_type", str),
    "init.amplitude": ("init_amplitude", _real),
    "init.omega": ("init_omega", _real),
    "init.eps_p": ("init_eps_p", _real),
    "init.path": ("init_path", str),
    "time.dt": ("dt", _real),
    "time.t_end": ("t_end", _real),
    "time.record_every": ("record_every", _real),
    "restart.time": ("restart_time", _real),
    "restart.omega": ("restart_omega", _real),
    "constraint.mode": ("constraint_mode", str),
    "output.path": ("output_path", str),
}
KNOWN_KEYS = frozenset(CONFIG_KEYS)
# a run needs the keys of the ScenarioConfig fields that have no default
_FIELD_KEYS = {field: key for key, (field, _) in CONFIG_KEYS.items()}
RUN_KEYS = tuple(_FIELD_KEYS[f.name] for f in dataclasses.fields(ScenarioConfig)
                 if f.default is dataclasses.MISSING)


def _parse(cfg, key):
    """The value of `key` in cfg, read by the parser of its CONFIG_KEYS entry."""
    try:
        return CONFIG_KEYS[key][1](cfg[key])
    except ZeroDivisionError:
        raise ConfigError(f"config key {key}: zero denominator in {cfg[key]!r}") from None
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def _require(cfg, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError("missing required config keys: " + ", ".join(missing))


def _fields(cfg, prefix=""):
    """The parsed ScenarioConfig fields of the keys in cfg that start with prefix."""
    return {field: _parse(cfg, key) for key, (field, _) in CONFIG_KEYS.items()
            if key in cfg and key.startswith(prefix)}


def domain_from_config(cfg) -> Domain:
    return scenario_domain(**_fields(cfg, "domain."))


def scenario_from_config(cfg) -> ScenarioConfig:
    _require(cfg, *RUN_KEYS)
    scenario = ScenarioConfig(**_fields(cfg))
    try:
        scenario.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scenario


# ---------------------------------------------------------------------------
# subcommands

def cmd_basis(args) -> int:
    cfg = parse_config(args.config)
    _require(cfg, "basis.degree")
    degree = _parse(cfg, "basis.degree")
    domain = domain_from_config(cfg)
    path = cfg.get("output.path")
    # the export is written after the build, so its directory is checked before it
    if path:
        ScenarioConfig.check_output_path(path)
    # a run config's output.path names its CSV: export over nothing but an export
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            if not fh.readline().startswith(EXPORT_MAGIC.encode()):
                raise ConfigError(f"output.path {path} holds a file that is not a basis "
                                  "export; basis will not overwrite it")
    t0 = time.monotonic()
    basis = build_basis(domain, degree)
    elapsed = time.monotonic() - t0
    print(f"domain kind: {domain.kind}  axes: ({domain.a:.12g}, {domain.b:.12g}, {domain.c:.12g})")
    print(f"degree: {degree}")
    print(f"dim: {basis.dim}")
    print(f"raw gram condition: {basis.raw_gram_cond:.6e}")
    print(f"gram identity deviation: {basis.gram_identity_deviation():.3e}")
    print(f"build time: {elapsed:.2f} s")
    results = []
    verification._basis_checks(results, domain.kind, domain, basis)
    for res in results:
        print(res.line())
    if path:
        save_basis(basis, path)
        print(f"exported basis to {path}")
    return 0 if all(r.ok for r in results) else 3


def cmd_eig(args) -> int:
    cfg = parse_config(args.config)
    _require(cfg, "basis.degree")
    domain = domain_from_config(cfg)
    basis = build_basis(domain, _parse(cfg, "basis.degree"))
    _fields(cfg, "physics.eps_p")  # validated only: eps_p enters neither stiffness nor M
    modes = neutral_modes(basis)
    print(f"domain kind: {domain.kind}")
    print(f"dim: {basis.dim}")
    print(f"kernel dim (strain-rate stiffness): {modes.sym.kernel_dim}")
    print(f"neutral-mode classes (strain-rate stiffness): {class_label(modes.sym.kernel_classes)}")
    print(f"kernel dim (gradient stiffness):    {modes.grad.kernel_dim}")
    print(f"K_N (degree {basis.degree}, excluding {modes.coercivity.excluded_subspace}): "
          f"{modes.coercivity.K_N:.12g}")
    print(f"smallest eigenvalues (strain form): "
          + " ".join(f"{v:.6g}" for v in modes.sym.eigenvalues[:5]))
    print(f"trichotomy check: {'PASS' if modes.ok else 'FAIL'} "
          f"(expected {modes.expected_dim}/0 for kind {domain.kind})")
    return 0 if modes.ok else 3


def cmd_steady(args) -> int:
    cfg = parse_config(args.config)
    _require(cfg, "basis.degree", "bc.form", "physics.nu_inverse", "physics.eps_p")
    domain = domain_from_config(cfg)
    if poincare_obstacle(domain) is not None:
        raise ConfigError("steady check needs the spheroid with unit equatorial axes")
    eps_p, nu_inverse = _parse(cfg, "physics.eps_p"), _parse(cfg, "physics.nu_inverse")
    ScenarioConfig.check_nu_inverse(nu_inverse)
    form = cfg["bc.form"]
    u_p = poincare_field(domain.beta, Fraction(eps_p))
    bc = BoundaryCondition(form, u_p if BoundaryCondition.form_carries_data(form) else None)
    basis = build_basis(domain, _parse(cfg, "basis.degree"))
    ops = assemble(basis, bc, nu=1.0 / nu_inverse, eps_p=eps_p)
    # the rotation-shift family is a steady family only for the Poincare
    # stress form; for other forms the sweep rows are informative
    sweep_is_checked = form == "poincare_stress"
    failures = 0
    for omega, res in verification.steady_residuals(ops, u_p).items():
        checked = omega == 0.0 or sweep_is_checked
        ok = res < verification.STEADY_TOL
        if checked and not ok:
            failures += 1
        tag = ("PASS" if ok else "FAIL") if checked else "info"
        label = "u_P" if omega == 0.0 else f"u_P + {omega:+g} (e_z x x)"
        print(f"{tag}  |residual({label})|_inf = {res:.3e}")
    return 0 if failures == 0 else 3


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    scenario = scenario_from_config(cfg)
    try:
        series = run_scenario(scenario)
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        if scenario.output_path:
            print(f"partial output written to {scenario.output_path}", file=sys.stderr)
        return 2
    first, last = series.records[0], series.records[-1]
    print(f"completed {len(series.records)} records to t = {last.t:.6g}")
    print(f"E_K: initial {first.E_K:.9e}  final {last.E_K:.9e}")
    print(f"lambda: initial {first.lam:.9g}  final {last.lam:.9g}")
    if scenario.output_path:
        print(f"output written to {scenario.output_path}")
    return 0


def _degree_list(text: str) -> tuple[int, ...]:
    """--degrees: distinct positive integers separated by commas."""
    try:
        degrees = tuple(int(d) for d in text.split(","))
    except ValueError:
        degrees = ()
    if not degrees or min(degrees) < 1 or len(set(degrees)) != len(degrees):
        raise argparse.ArgumentTypeError(
            f"expected distinct positive integers separated by commas, got {text!r}")
    return degrees


def cmd_verify(args) -> int:
    results = verification.run_battery(degrees=args.degrees, basis_file=args.basis_file)
    for res in results:
        print(res.line())
    passed = sum(1 for r in results if r.ok)
    failed = len(results) - passed
    print(f"VERIFY: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="precessflow",
                     description="Polynomial Galerkin solver for precessing ellipsoidal flows")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("basis", cmd_basis),
        ("eig", cmd_eig),
        ("steady", cmd_steady),
        ("run", cmd_run),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.set_defaults(handler=fn)

    p = sub.add_parser("verify")
    p.add_argument("--degrees", default="1,2,4", type=_degree_list,
                   help="comma-separated basis degrees for the battery (default 1,2,4)")
    p.add_argument("--basis-file", default=None,
                   help="also check an exported basis artifact")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InvariantError) else 1


if __name__ == "__main__":
    sys.exit(main())
