#!/usr/bin/env python3
"""Twin runs from u_P +/- 0.025 (e_z x x) under the Poincare stress condition.

Both perturbed states are exact steady states, so the runs never approach each
other: the whole one-parameter family of rotation-shifted flows persists.
With the optional rot_momentum constraint projection both runs collapse back
onto u_P instead.  Exits 1 when either claim fails: the unconstrained gap
falls below 0.9 of its start, or the rot_momentum run's delta_EK does not
fall below 1e-6 of its start.
"""

import sys

import numpy as np

from fractions import Fraction

from precessflow import ScenarioConfig, run

GAP_MIN_RATIO = 0.9       # without the constraint the twins stay apart
COLLAPSE_RATIO = 1e-6     # with it, delta_EK(end) / delta_EK(0)


def twin(constraint):
    series = {}
    for sign in (+1, -1):
        cfg = ScenarioConfig(
            beta=Fraction(9, 16), degree=2, bc_form="poincare_stress",
            nu_inverse=0.00375, eps_p=0.25,
            init_type="poincare_plus_rotation", init_omega=sign * 0.025,
            dt=0.01, t_end=20.0, record_every=1.0,
            constraint_mode=constraint,
        )
        series[sign] = run(cfg)
    return series


def main():
    failed = 0
    for constraint in (None, "rot_momentum"):
        label = constraint or "no constraint"
        pair = twin(constraint)
        lam_p = pair[+1].column("lambda")
        lam_m = pair[-1].column("lambda")
        gap = np.abs(lam_p - lam_m)
        print(f"[{label}] rotation-amplitude gap |lambda(+) - lambda(-)|: "
              f"initial {gap[0]:.6f}, final {gap[-1]:.3e}")
        d_p = pair[+1].column("delta_EK")
        print(f"[{label}] delta_EK(+0.025 run): initial {d_p[0]:.3e}, final {d_p[-1]:.3e}")
        if constraint is None:
            failed += not gap.min() >= GAP_MIN_RATIO * gap[0]
        else:
            failed += not d_p[-1] < COLLAPSE_RATIO * d_p[0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
