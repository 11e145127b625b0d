#!/usr/bin/env python3
"""Tabulate viscous-kernel dimensions, their reflection classes and coercivity constants.

Shows the sphere/spheroid/triaxial trichotomy of the strain-rate stiffness
kernel, the class of each neutral mode (e_x, e_y, e_z x x lie in classes 6, 5
and 3) and the decreasing-in-degree discrete coercivity constant.  Exits 1
when the 3/1/0 check fails on any domain and degree.
"""

import sys

from precessflow import build_basis, neutral_modes
from precessflow.spectral import class_label
from precessflow.verification import DOMAINS

DEGREES = range(1, 9)


def main():
    failed = 0
    print(f"{'domain':24s} {'N':>2s} {'dim':>4s} {'ker(strain)':>11s} {'classes':>7s} "
          f"{'ker(grad)':>9s} {'K_N':>14s}")
    for kind, domain in DOMAINS:
        label = f"{kind} ({domain.a:g}, {domain.b:g}, {domain.c:g})"
        for n in DEGREES:
            basis = build_basis(domain, n)
            modes = neutral_modes(basis)
            print(f"{label:24s} {n:2d} {basis.dim:4d} {modes.sym.kernel_dim:11d} "
                  f"{class_label(modes.sym.kernel_classes):>7s} "
                  f"{modes.grad.kernel_dim:9d} {modes.coercivity.K_N:14.8g}")
            failed += not modes.ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
