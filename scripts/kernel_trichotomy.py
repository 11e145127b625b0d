#!/usr/bin/env python3
"""Tabulate viscous-kernel dimensions and coercivity constants.

Shows the sphere/spheroid/triaxial trichotomy of the strain-rate stiffness
kernel and the decreasing-in-degree discrete coercivity constant.
"""

from fractions import Fraction

from precessflow import Domain, build_basis, neutral_modes

DOMAINS = [
    ("sphere", Domain(1, 1, 1)),
    ("spheroid b=0.5625", Domain.from_beta(Fraction(9, 16))),
    ("triaxial (1,0.9,0.8)", Domain(1, Fraction(9, 10), Fraction(4, 5))),
]
DEGREES = (1, 2, 3, 4)


def main():
    print(f"{'domain':24s} {'N':>2s} {'dim':>4s} {'ker(strain)':>11s} "
          f"{'ker(grad)':>9s} {'K_N':>14s}")
    for label, domain in DOMAINS:
        for n in DEGREES:
            basis = build_basis(domain, n)
            modes = neutral_modes(basis)
            print(f"{label:24s} {n:2d} {basis.dim:4d} {modes.sym.kernel_dim:11d} "
                  f"{modes.grad.kernel_dim:9d} {modes.coercivity.K_N:14.8g}")


if __name__ == "__main__":
    main()
