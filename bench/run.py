#!/usr/bin/env python3
"""precessflow benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload fig2_n3 --seed 0 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` next to
this directory; without it the benchmark exits with code 2 and prints no
result.  Operations run closed-loop, one at a time, each starting from cold
integral caches, until the measuring time is over (eig_n6 finishes its cycle
of three domains).  Every operation is checked against the paper invariant it
reproduces; an operation that raises or fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians of
the per-operation values, per operation kind and averaged over the kinds,
with each operation's times scaled to a reference host speed measured around
it (see hostprobe.py).  Raw medians are printed beside them.

``--trace 1`` alternates untraced and traced operations of the same kind and
reports the per-layer metrics (medians over traced operations); each traced
output must be byte-identical to the untraced one before it.  The last line
of standard output is the JSON result.  The environment, per-operation
figures and all spans are written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostprobe import REFERENCE_S, HostProbe
from spans import OpView, Tracer, install_layer_probes, install_phase_probe
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def load_package():
    if not (SRC / "precessflow" / "__init__.py").is_file():
        raise SetupError(f"no precessflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import precessflow

    if Path(precessflow.__file__).resolve().parent != SRC / "precessflow":
        raise SetupError(f"precessflow was imported from {precessflow.__file__}, not {SRC}")
    return precessflow


def load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = json.loads((BENCH_DIR / "metrics.json").read_text())["per_layer"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read the benchmark definition: {exc}") from exc
    if {m["name"] for m in spec["per_layer"]} != set(layers):
        raise SetupError("bench/metrics.json and BENCHMARK.json name different per-layer metrics")
    return spec


# ---------------------------------------------------------------------------
# environment

def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return getter()
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            rev = proc.stdout.strip() if proc.returncode == 0 else "unavailable"
        except (OSError, subprocess.SubprocessError):
            rev = "unavailable (git failed)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "precessflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
    }


# ---------------------------------------------------------------------------
# operations

def clear_caches() -> None:
    """Empty every lru_cache of the package, as a fresh process would find them."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("precessflow"):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_operation(pf, workload, kind, tracer, op_id, reference=None) -> dict:
    """One operation, traced through every layer when a reference is given.

    The reference is the record of an untraced operation of the same kind,
    whose outputs the traced one must reproduce byte for byte.
    """
    clear_caches()
    gc.collect()
    (install_phase_probe if reference is None else install_layer_probes)(tracer)
    first = len(tracer)
    tracer.op_id = op_id
    outputs, failures = None, []
    try:
        with tracer.span("op"):
            outputs = workload.operation(kind, tracer)
    except Exception as exc:  # a failed operation is counted; the benchmark goes on
        traceback.print_exc(file=sys.stderr)
        failures.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        tracer.op_id = None
        tracer.restore()
    cache = pf.monomials._integral_flat.cache_info()
    record = {"op": op_id, "kind": kind, "view": OpView(tracer, first), "reference": reference,
              "cache_hits": cache.hits, "cache_misses": cache.misses}
    if outputs is not None:
        failures += workload.gates(kind, outputs)
        record["dim"] = outputs["dim"]
        record["signature"] = workload.signature(kind, outputs)
        if reference is not None and record["signature"] != reference.get("signature"):
            failures.append("tracing changed the outputs")
        if hasattr(workload, "info"):
            record["info"] = workload.info(kind, outputs)
    record["failures"] = failures
    for msg in failures:
        print(f"FAIL op {op_id} ({kind}): {msg}", file=sys.stderr)
    return record


def measure(pf, workload, tracer, seconds, traced) -> list[dict]:
    """Run operations until `seconds` have passed and a cycle of kinds is complete.

    A traced measurement runs each kind twice in a row: untraced, then traced.
    The host probe is timed before the first operation and after each one.
    """
    probe = HostProbe()
    records = []
    last = probe.measure()

    def run(kind, reference=None):
        nonlocal last
        record = run_operation(pf, workload, kind, tracer, len(records), reference)
        now = probe.measure()
        record["probe"] = 0.5 * (last + now)
        last = now
        records.append(record)
        return record

    start = time.perf_counter()
    n_kinds = len(workload.kinds)
    for n in itertools.count(1):
        kind = workload.kinds[(n - 1) % n_kinds]
        record = run(kind)
        if traced:
            run(kind, record)
        if time.perf_counter() - start >= seconds and n % n_kinds == 0:
            return records


# ---------------------------------------------------------------------------
# metrics

def by_kind(records, value) -> float:
    """Median of `value` over the records of each kind, averaged over the kinds."""
    groups: dict[str, list] = {}
    for r in records:
        groups.setdefault(r["kind"], []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in groups.values())


def end_to_end(workload, done, calibrated=True) -> dict:
    def scaled(field):
        if calibrated:
            return lambda r: getattr(r["view"], field) * REFERENCE_S / r["probe"]
        return lambda r: getattr(r["view"], field)

    wall = by_kind(done, scaled("wall"))
    if workload.steps is None:
        rate = 1.0 / wall
    else:
        rate = workload.steps / by_kind(done, scaled("integration"))
    return {
        "wall_s": wall,
        "setup_s": by_kind(done, scaled("setup")),
        "steps_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_values(record) -> dict:
    """Per-layer figures of one traced operation."""
    v = record["view"]
    t = v.total
    adv_calls = v.count("operators.advection_term")
    step_s = t("timestepper.step")
    hits, misses = record["cache_hits"], record["cache_misses"]
    loop_self = 0.0
    if v.count("run"):
        loop_self = (v.integration - step_s - t("diagnostics.record")
                     - t("diagnostics.constraint_projection"))
    return {
        "operators.advection_s": t("operators.advection_term"),
        "operators.advection_calls": adv_calls,
        "operators.advection_bytes": adv_calls * record["dim"] ** 3 * 8,
        "timestepper.step_s": step_s,
        "timestepper.step_self_s": step_s - v.child_total("operators.advection_term",
                                                          "timestepper.step"),
        "timestepper.lu_solve_s": t("scipy.linalg.lu_solve"),
        "timestepper.lu_factor_calls": v.count("scipy.linalg.lu_factor"),
        "timestepper.loop_self_s": loop_self,
        "diagnostics.projection_s": t("diagnostics.constraint_projection"),
        "diagnostics.projections": v.count("diagnostics.constraint_projection"),
        "diagnostics.record_s": t("diagnostics.record"),
        "diagnostics.records": v.count("diagnostics.record"),
        "diagnostics.csv_s": t("diagnostics.to_csv"),
        "diagnostics.context_s": t("diagnostics.context"),
        "basis.project_s": t("basis.project"),
        "geometry.surface_rule_s": t("geometry.surface_rule"),
        "basis.build_s": t("basis.build_basis"),
        "basis.dim": record["dim"],
        "basis.gram_contraction_s": t("basis.gram_contraction"),
        "monomials.gram_s": t("monomials.gram"),
        "polynomials.exact_check_s": t("polynomials.divergence") + t("polynomials.tangency_remainder"),
        "operators.assemble_s": t("operators.assemble"),
        "monomials.triple_product_s": t("monomials.triple_product_table"),
        "monomials.integral_cache_hit_ratio": hits / (hits + misses),
        "spectral.kernel_s": t("spectral.viscous_kernel"),
        "spectral.coercivity_self_s": t("spectral.coercivity_constant")
        - v.child_total("spectral.viscous_kernel", "spectral.coercivity_constant"),
        "trace.overhead_s": v.wall - record["reference"]["view"].wall,
        "trace.span_coverage": v.top_level_share,
    }


def per_layer(traced) -> dict:
    values = [layer_values(r) for r in traced]
    return {name: statistics.median(v[name] for v in values) for name in values[0]}


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pf = load_package()
        spec = load_spec()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    workload = WORKLOADS[args.workload](pf, args.seed, workdir, ROOT)
    tracer = Tracer()
    records = measure(pf, workload, tracer, args.seconds, traced=bool(args.trace))

    failed = sum(1 for r in records if r["failures"])
    done = [r for r in records if "signature" in r]
    metrics = {}
    if args.trace:
        traced = [r for r in done if r["reference"] is not None]
        if traced:
            metrics = named(spec["per_layer"], per_layer(traced))
    elif done:
        metrics = named(spec["end_to_end"], end_to_end(workload, done))
    report(args, env, workload, records, metrics, failed)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer.dump(stem.with_suffix(".spans.json.gz"))
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "attempted": len(records), "failed": failed,
        "operations": [{"op": r["op"], "kind": r["kind"], "traced": r["reference"] is not None,
                        "wall_s": r["view"].wall, "setup_s": r["view"].setup,
                        "integration_s": r["view"].integration, "probe_s": r["probe"],
                        "span_coverage": r["view"].top_level_share,
                        "failures": r["failures"], **r.get("info", {})} for r in records],
    }, indent=1))
    ok = failed == 0 and bool(metrics)
    print(json.dumps({"correct": ok, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def named(wanted, values) -> dict:
    """The metrics BENCHMARK.json names, in its order, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def report(args, env, workload, records, metrics, failed) -> None:
    """Human-readable lines; the JSON result follows them."""
    print(f"environment: {json.dumps(env)}")
    n = len(records)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n} operations attempted, {failed} failed (failed_share {failed}/{n} = {failed / n:.3g})")
    done = [r for r in records if "signature" in r]
    raw = {} if args.trace or not done else end_to_end(workload, done, calibrated=False)
    if raw:
        probes = [r["probe"] for r in done]
        print(f"host probe: median {statistics.median(probes):.4g} s, "
              f"range {min(probes):.4g} to {max(probes):.4g} s (reference {REFERENCE_S} s)")
    l2 = env["caches"].get("L2", "unknown")
    for name, m in metrics.items():
        note = ""
        if name in raw and name != "peak_rss_mb":
            note = f"  (median of {len(done)} operations at reference speed; raw {raw[name]:.6g})"
        elif name == "operators.advection_bytes":
            note = f"  (computed, per operation; L2 = {l2})"
        print(f"{name:36s} {m['value']:.6g} {m['unit']}{note}")
    if args.trace:
        shares = [f"{r['view'].top_level_share:.3f}" for r in records if r["reference"] is not None]
        print(f"wall time covered by outermost layer spans, per traced operation: {' '.join(shares)}")


if __name__ == "__main__":
    sys.exit(main())
