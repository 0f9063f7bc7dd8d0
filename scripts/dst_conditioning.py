"""Conditioning of the sine-product matrix across torus-knot parameters.

Prints, for every coprime pair up to the limit, the matrix size, the
row-scaled |det| used by the invertibility check, and the 2-norm condition
number, to show how far the check sits from its 1e-8 threshold.  Exits 1
when any pair fails the check, 2 on a non-integer LIMIT or a closed stdout,
0 otherwise (also when no coprime pair is in range).

Usage: python scripts/dst_conditioning.py [LIMIT]
"""

import math
import sys

from torusskein import run
from torusskein.assembly import verify_dst
from torusskein.charvariety import TorusKnotConfig


def main() -> int:
    try:
        limit = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'(p, q)':>9} {'size':>5} {'scaled |det|':>14} {'cond':>12}")
    worst, failed = None, False
    for p in range(2, limit + 1):
        for q in range(p + 1, limit + 1):
            if math.gcd(p, q) != 1:
                continue
            ok, det, cond = verify_dst(TorusKnotConfig(p, q))
            size = (p - 1) * (q - 1) // 2
            failed = failed or not ok
            flag = "" if ok else "  <-- FAILS"
            print(f"  ({p:>2},{q:>2}) {size:>5} {det:>14.6e} {cond:>12.3e}{flag}")
            if worst is None or det < worst[0]:
                worst = (det, p, q)
    if worst is None:
        print(f"no coprime pair p < q <= {limit}")
        return 0
    det, p, q = worst
    print(f"smallest scaled |det|: {det:.6e} at ({p},{q})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(main))
