"""The three benchmark workloads, driven through the public precessflow API.

Each workload is closed-loop: one client runs one operation at a time in this
process.  An operation opens "run", "setup" and "spectral" spans of its own
(see spans.py) so set-up and integration can be told apart; every other span
comes from the layer wrappers of a traced run.  Each workload checks every
operation against the paper invariant the operation reproduces, at the
tolerances of tests/test_acceptance.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from fractions import Fraction

import numpy as np

BETA = Fraction(9, 16)
EPS_P = 0.25
DEFAULT_OMEGA = 0.025

# tolerances of tests/test_acceptance.py
DRIFT_TOL = 1e-9            # criterion 3: relative drift of a steady state
PERSIST_MIN_RATIO = 0.9     # criterion 10: kicked runs stay separated
COLLAPSE_RATIO = 1e-6       # criterion 11: delta_EK(end) / delta_EK(0)
ADVECTION_NEUTRAL_TOL = 1e-11   # criterion 9
CORIOLIS_NEUTRAL_TOL = 1e-13    # criterion 9
NEUTRALITY_STATES = 100         # criterion 9


def kick_omega(seed: int) -> float:
    """Restart-kick amplitude drawn from the seed; seed 0 gives +0.025."""
    if seed == 0:
        return DEFAULT_OMEGA
    rng = np.random.default_rng(seed)
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.0125, 0.05))


def _csv_columns(text: str, header: str) -> dict[str, np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("CSV header differs from precessflow.CSV_HEADER")
    names = header.split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {n: rows[:, i] for i, n in enumerate(names)}


def _record_count(n_steps: int, every: int) -> int:
    """Records timestepper.run emits: the start, every `every` steps, and the end."""
    return 1 + n_steps // every + (1 if n_steps % every else 0)


class Fig2:
    """configs/fig2_poincare.cfg run through the CLI ``run`` subcommand, shortened."""

    name = "fig2_n3"
    kinds = ("fig2",)
    T_END = 80.0
    RESTART_TIME = 70.0

    def __init__(self, pf, seed: int, workdir, repo_root):
        from precessflow import cli

        self.pf = pf
        self.cli = cli
        self.omega = kick_omega(seed)
        cfg = cli.parse_config(repo_root / "configs" / "fig2_poincare.cfg")
        self.csv_path = workdir / "fig2_n3.csv"
        cfg.update({"time.t_end": repr(self.T_END), "restart.time": repr(self.RESTART_TIME),
                    "restart.omega": repr(self.omega), "output.path": str(self.csv_path)})
        self.cfg_path = workdir / "fig2_n3.cfg"
        self.cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        self.scenario = cli.scenario_from_config(cfg)
        sc = self.scenario
        self.steps = int(round(sc.t_end / sc.dt))
        self.every = max(1, int(round(sc.record_every / sc.dt)))
        self.dim = pf.build_basis(sc.domain(), sc.degree).dim

    def operation(self, kind, tracer) -> dict:
        out = io.StringIO()
        with tracer.span("run"), contextlib.redirect_stdout(out):
            code = self.cli.main(["run", "--config", str(self.cfg_path)])
        if code != 0:
            raise RuntimeError(f"precessflow run exited with code {code}: {out.getvalue()!r}")
        return {"csv": self.csv_path.read_bytes(), "dim": self.dim}

    def gates(self, kind, outputs) -> list[str]:
        cols = _csv_columns(outputs["csv"].decode(), self.pf.CSV_HEADER)
        failures = []
        expected = _record_count(self.steps, self.every)
        if len(cols["t"]) != expected:
            failures.append(f"{len(cols['t'])} records, expected {expected}")
        if not all(np.all(np.isfinite(v)) for k, v in cols.items() if k != "dEK_dt"):
            failures.append("non-finite diagnostics")
        kicked = cols["t"] >= self.scenario.restart_time - 0.5 * self.scenario.dt
        drift = float(np.max(np.sqrt(cols["delta_EK"][~kicked] / cols["E_K"][~kicked])))
        if not drift < DRIFT_TOL:
            failures.append(f"u_P drifted by {drift:.3e} before the kick (>= {DRIFT_TOL})")
        after = cols["delta_EK"][kicked]
        ratio = float(np.min(np.sqrt(after / after[0])))
        if not ratio >= PERSIST_MIN_RATIO:
            failures.append(f"kick decayed to ratio {ratio:.6f} (< {PERSIST_MIN_RATIO})")
        return failures

    def signature(self, kind, outputs) -> bytes:
        return outputs["csv"]


class TwinProjection:
    """scripts/poincare_family.py's twin pair at N=5 with rot_momentum projection."""

    name = "twin_proj_n5"
    kinds = ("twin",)
    DEGREE = 5
    NU_INVERSE = 0.00375
    DT = 0.01
    T_END = 8.0
    RECORD_EVERY = 1.0

    def __init__(self, pf, seed: int, workdir, repo_root):
        self.pf = pf
        self.omega = abs(kick_omega(seed))
        self.csv_paths = {sign: workdir / f"twin_proj_n5_{'plus' if sign > 0 else 'minus'}.csv"
                          for sign in (+1, -1)}
        self.steps = 2 * int(round(self.T_END / self.DT))   # both runs
        self.dim = pf.build_basis(pf.Domain.from_beta(BETA), self.DEGREE).dim

    def _config(self, sign):
        return self.pf.ScenarioConfig(
            beta=BETA, degree=self.DEGREE, bc_form="poincare_stress",
            nu_inverse=self.NU_INVERSE, eps_p=EPS_P,
            init_type="poincare_plus_rotation", init_omega=sign * self.omega,
            dt=self.DT, t_end=self.T_END, record_every=self.RECORD_EVERY,
            constraint_mode="rot_momentum", output_path=str(self.csv_paths[sign]))

    def operation(self, kind, tracer) -> dict:
        series = {}
        for sign in (+1, -1):
            with tracer.span("run"):
                series[sign] = self.pf.run(self._config(sign))
        return {"series": series, "dim": self.dim,
                "csv": b"".join(self.csv_paths[s].read_bytes() for s in (+1, -1))}

    def gates(self, kind, outputs) -> list[str]:
        failures = []
        for sign, series in outputs["series"].items():
            initial = series.records[0].delta_EK
            final = series.records[-1].delta_EK
            if not final < COLLAPSE_RATIO * initial:
                failures.append(f"run {sign:+d}: delta_EK {initial:.3e} -> {final:.3e}, "
                                f"not below {COLLAPSE_RATIO} of its start")
        return failures

    def signature(self, kind, outputs) -> bytes:
        return outputs["csv"]


class Eigen:
    """The eig/verify use at N=6: basis, assembly, both kernels and K_N per domain."""

    name = "eig_n6"
    kinds = ("sphere", "spheroid", "triaxial")
    DEGREE = 6
    EXPECTED_KERNEL = {"sphere": 3, "spheroid": 1, "triaxial": 0}
    # No time steps: steps_per_s reports domains solved per second.  The
    # spectral phase alone is too short and, with multithreaded BLAS, too
    # bimodal (about 25 ms or 150 ms at dim 133) to give a steady rate.
    steps = None

    def __init__(self, pf, seed: int, workdir, repo_root):
        self.pf = pf
        self.seed = seed
        self.checks = 0

    def _domain(self, kind):
        """A fresh Domain per operation, so its cached chi starts empty too."""
        if kind == "spheroid":
            return self.pf.Domain.from_beta(BETA)
        if kind == "sphere":
            return self.pf.Domain(1, 1, 1)
        return self.pf.Domain(1, Fraction(9, 10), Fraction(4, 5))

    def operation(self, kind, tracer) -> dict:
        pf = self.pf
        with tracer.span("setup"):
            basis = pf.build_basis(self._domain(kind), self.DEGREE)
            ops = pf.assemble(basis, pf.BoundaryCondition("stress_free"), nu=1.0, eps_p=0.0)
        with tracer.span("spectral"):
            k_sym = pf.viscous_kernel(ops, stiffness="sym")
            k_grad = pf.viscous_kernel(ops, stiffness="grad")
            coerc = pf.coercivity_constant(ops, "kernel")
        return {"ops": ops, "k_sym": k_sym, "k_grad": k_grad, "coerc": coerc,
                "dim": basis.dim}

    def gates(self, kind, outputs) -> list[str]:
        from precessflow.basis import GRAM_IDENTITY_TOL

        ops = outputs["ops"]
        failures = []
        dims = (outputs["k_sym"].kernel_dim, outputs["k_grad"].kernel_dim)
        if dims != (self.EXPECTED_KERNEL[kind], 0):
            failures.append(f"kernel dims {dims}, expected ({self.EXPECTED_KERNEL[kind]}, 0)")
        dev = ops.basis.gram_identity_deviation()
        if not dev <= GRAM_IDENTITY_TOL:
            failures.append(f"Gram deviation {dev:.3e} > {GRAM_IDENTITY_TOL}")
        # criterion 9 on unit states drawn from the seed, fresh for each check
        rng = np.random.default_rng([self.seed, self.checks])
        self.checks += 1
        worst_adv = worst_cor = 0.0
        for _ in range(NEUTRALITY_STATES):
            c = rng.standard_normal(ops.dim)
            c /= np.linalg.norm(c)
            worst_adv = max(worst_adv, abs(float(c @ self.pf.advection_term(ops, c))))
            worst_cor = max(worst_cor, abs(float(c @ (ops.C_x @ c))))
        if not worst_adv < ADVECTION_NEUTRAL_TOL:
            failures.append(f"|c.T(c,c)| {worst_adv:.2e} >= {ADVECTION_NEUTRAL_TOL}")
        if not worst_cor < CORIOLIS_NEUTRAL_TOL:
            failures.append(f"|c.C_x c| {worst_cor:.2e} >= {CORIOLIS_NEUTRAL_TOL}")
        k_n = outputs["coerc"].K_N
        if not (k_n > 0 and math.isfinite(k_n)):
            failures.append(f"K_N = {k_n!r} is not positive")
        return failures

    def signature(self, kind, outputs) -> bytes:
        ops = outputs["ops"]
        digest = hashlib.sha256()
        for arr in (ops.M, ops.A_sym, ops.A_grad, ops.C_x, ops.T,
                    outputs["k_sym"].eigenvalues, outputs["k_grad"].eigenvalues):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(float(outputs["coerc"].K_N).hex().encode())
        return digest.digest()

    def info(self, kind, outputs) -> dict:
        """Figures reported beside the gates, not gated themselves."""
        t = outputs["ops"].T
        return {"T_antisymmetry_max": float(np.max(np.abs(t + t.transpose(0, 2, 1))))}


WORKLOADS = {cls.name: cls for cls in (Fig2, TwinProjection, Eigen)}
