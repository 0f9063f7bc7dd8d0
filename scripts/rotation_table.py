"""Tabulate the rotation operator's data on S'(T, 2k).

For each slope and strand count this prints the collar crossing count, the
number of collar states the quotient keeps (those without a winding-0 arc,
``len(collar_states(slope, 2k))``), the framing normalization exponent, the
exponents u_j in rotate(e_j) = A^(u_j) e_(slope-j), and whether f^(2k) = 1
in the quotient ring, f = rotate(w^0) being the rotation's multiplier.

Usage: python scripts/rotation_table.py [MAX_SLOPE] [MAX_K]

Exits 2 on a non-integer argument or a closed stdout, 0 otherwise.
"""

import sys

from torusskein.algebra import UniPoly
from torusskein.cli import run
from torusskein.sprime import (
    collar_states,
    power_tangle,
    rotate,
    rotation_exponents,
    rotation_norm_exponent,
    rotation_power,
)


def main() -> int:
    try:
        max_slope = int(sys.argv[1]) if len(sys.argv) > 1 else 5
        max_k = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'slope':>5} {'k':>3} {'crossings':>9} {'states':>6} {'A-power':>8} "
          f"{'order ok':>8}  exponents u_j")
    for slope in range(2, max_slope + 1):
        for k in range(1, max_k + 1):
            collar = rotate(power_tangle(k, 0), slope)
            ok = rotation_power(slope, k) == UniPoly.constant("w", 1)
            expo = rotation_exponents(slope, k)
            norm = rotation_norm_exponent(slope, 2 * k)
            states = len(collar_states(slope, 2 * k))
            print(f"{slope:>5} {k:>3} {collar.crossings:>9} {states:>6} {norm:>8} "
                  f"{str(ok):>8}  {list(expo)}")
    return 0


if __name__ == "__main__":
    sys.exit(run(main))
