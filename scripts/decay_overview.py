#!/usr/bin/env python3
"""Run the homogeneous stress-free precession decay and summarize the energy drain.

A shortened version of configs/fig1.cfg (same physics, smaller basis / coarser
output) that prints the E_K and dE_K/dt traces and, when matplotlib is
importable, writes decay_overview.png.  Exits 1 when dE_K/dt is not negative
at every record.
"""

import sys
from fractions import Fraction

from precessflow import ScenarioConfig, run


def main():
    cfg = ScenarioConfig(
        beta=Fraction(9, 16), degree=2, bc_form="stress_free",
        nu_inverse=0.024, eps_p=0.25,
        init_type="solid_rotation", init_amplitude=0.1,
        dt=0.05, t_end=2000.0, record_every=50.0,
    )
    series = run(cfg)
    t = series.column("t")
    e_k = series.column("E_K")
    de = series.column("dEK_dt")
    print(f"{'t':>8s} {'E_K':>14s} {'dEK_dt':>14s}")
    for i in range(0, len(t), 4):
        print(f"{t[i]:8.1f} {e_k[i]:14.6e} {de[i]:14.6e}")
    print(f"\nE_K(end)/E_K(0) = {e_k[-1] / e_k[0]:.3e}")
    negative = bool((de < 0).all())
    print(f"max dEK_dt over the run = {de.max():.3e}"
          + (" (negative everywhere)" if negative else ""))
    status = 0 if negative else 1

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return status
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.2))
    ax1.semilogy(t, e_k)
    ax1.set_xlabel("t")
    ax1.set_ylabel("E_K")
    ax2.plot(t[1:], de[1:])
    ax2.set_xlabel("t")
    ax2.set_ylabel("dE_K/dt")
    fig.tight_layout()
    fig.savefig("decay_overview.png", dpi=120)
    print("wrote decay_overview.png")
    return status


if __name__ == "__main__":
    sys.exit(main())
