"""Sweep the instance verification over all coprime (p, q) up to a limit.

Usage: python scripts/verify_sweep.py [LIMIT] [MAX_K]

A configuration is failed if any check fails, and refused if no check fails
but some exceed the exact state sum's bound on live states (the guard
refuses a case rather than approximating it).  Both are counted apart; the
exit code is 1 if any configuration failed, 3 if some were refused and none
failed, 2 on a non-integer argument or a closed stdout, and 0 otherwise.
"""

import math
import sys
import time

from torusskein import run
from torusskein.assembly import verify_theorem
from torusskein.charvariety import TorusKnotConfig


def main() -> int:
    try:
        limit = int(sys.argv[1]) if len(sys.argv) > 1 else 5
        max_k = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = refusals = 0
    print(f"{'(p, q)':>8}  {'checks':>6}  {'status':>8}  {'seconds':>8}")
    for p in range(2, limit + 1):
        for q in range(p + 1, limit + 1):
            if math.gcd(p, q) != 1:
                continue
            t0 = time.perf_counter()
            report = verify_theorem(TorusKnotConfig(p, q), max_k=max_k)
            dt = time.perf_counter() - t0
            code = report.exit_code
            status = {0: "ok", 1: "FAILED", 3: "REFUSED"}[code]
            failures += code == 1
            refusals += code == 3
            print(f"  ({p},{q})  {len(report.checks):>6}  {status:>8}  {dt:8.2f}")
            for check in report.checks:
                if not check["pass"]:
                    print(f"      {check['name']}: {check['witness']}")
    print(f"{failures} failing configuration(s), {refusals} refused configuration(s)")
    return 1 if failures else 3 if refusals else 0


if __name__ == "__main__":
    sys.exit(run(main))
