"""Tabulate the rotation operator's data on S'(T, 2k).

For each slope and strand count this prints the collar crossing count, the
number of collar states the quotient keeps (those without a winding-0 arc,
``len(collar_states(slope, 2k))``), the framing normalization exponent, the
exponents u_j in rotate(e_j) = A^(u_j) e_(slope-j), and whether f^2 = 1
in the quotient ring, f = rotate(w^0) being the rotation's multiplier; f^2
= 1 (Cassini's identity for the Chebyshev S_(slope-2)) makes the rotation's
order divide 2k.

Usage: python scripts/rotation_table.py [MAX_SLOPE] [MAX_K]

Exits 2 on a non-integer argument, a collar refused by the state budget
(one error line, after the rows already printed) or a closed stdout, 0
otherwise.
"""

import sys

from torusskein import run
from torusskein.algebra import UniPoly
from torusskein.skein import BudgetError
from torusskein.sprime import (
    collar_states,
    power_tangle,
    rotate,
    rotation_exponents,
    rotation_norm_exponent,
    rotation_square,
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
    try:
        for slope in range(2, max_slope + 1):
            for k in range(1, max_k + 1):
                collar = rotate(power_tangle(k, 0), slope)
                ok = rotation_square(slope, k) == UniPoly.constant("w", 1)
                expo = rotation_exponents(slope, k)
                norm = rotation_norm_exponent(slope, 2 * k)
                states = collar_states(slope, 2 * k)
                print(f"{slope:>5} {k:>3} {collar.crossings:>9} {len(states):>6} "
                      f"{norm:>8} {str(ok):>8}  {list(expo)}")
    except BudgetError as exc:  # rotation_square raises its collar's refusal first
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(run(main))
