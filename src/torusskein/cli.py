"""Command-line front end.

Subcommands expose each computation plus the verification pipeline; output
is byte-identical across runs for fixed arguments and seed.  Exit codes:
0 success, 1 failed verification, 2 usage error, refused input or a closed
stdout, 3 some verification checks refused by the state budget and none
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from .algebra import chebyshev
from .assembly import (
    DEFAULT_SEED,
    basis_traces,
    deg0_basis,
    deg0_degree,
    degk_orbits,
    orbit_partner,
    refused,
    verify_theorem,
)
from .charvariety import TorusKnotConfig, admissible_pairs, components
from .skein import STATE_BUDGET, AnnularTangle, BudgetError, PlanarityError, resolve
from .traces import check_word, trace_word

CHEBYSHEV_BUDGET = 2 ** 10  # largest n; `chebyshev 1024` takes 0.6 s
# bound on (D+1)(D//p+1)^2 at `skein-basis --degree 0 --bound D`: about D
# traces, each a power of degree at most D/p in x taken afresh; the listing
# shares the powers, so the bound is loose: `skein-basis 3 2 --degree 0
# --bound 668` takes 0.5 s
BASIS_BUDGET = 2 ** 25
# bound on the sum of (j1+1)(j2+1) over the orbits of `skein-basis --degree K`,
# K >= 1, about twice the listing's terms; `skein-basis 41 47 --degree 1`
# (sum 257,140) takes 1.1 s
ORBIT_BUDGET = 2 ** 18


def orbit_work(cfg: TorusKnotConfig, k: int) -> int:
    """The sum of (j1+1)(j2+1) over the degree-k orbits, none of them kept;
    raises BudgetError at the first orbit word past the word budget, in lex
    order."""
    work = 0
    for o in degk_orbits(cfg, k):
        check_word(o.j1, o.j2)
        work += (o.j1 + 1) * (o.j2 + 1)
    return work


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _config(args) -> TorusKnotConfig:
    return TorusKnotConfig(args.p, args.q)


def _print_json(blob) -> None:
    print(json.dumps(blob, indent=2, sort_keys=True))


def cmd_chebyshev(args) -> int:
    if args.n > CHEBYSHEV_BUDGET:
        raise BudgetError(f"T_{args.n}: n exceeds the Chebyshev budget of {CHEBYSHEV_BUDGET}")
    print(chebyshev(args.n))
    return 0


def cmd_char_variety(args) -> int:
    cfg = _config(args)
    comps = components(cfg)
    if args.json:
        _print_json([c.to_json() for c in comps])
        return 0
    pairs = admissible_pairs(cfg)
    print(f"character variety of the ({cfg.p},{cfg.q}) torus-knot group:")
    print("  1 abelian line, parametrized by s -> (T_p(s), T_q(s), T_(p+q)(s))")
    print(f"  {len(pairs)} irreducible line(s):")
    for comp in comps:
        if comp.pair is None:
            continue
        print(f"    pair (k={comp.pair.k}, l={comp.pair.l}): "
              f"x = {comp.x_const!r}, y = {comp.y_const!r}")
    return 0


def cmd_trace_poly(args) -> int:
    print(trace_word(args.i, args.j))
    return 0


def cmd_bracket(args) -> int:
    with open(args.file) as fh:
        tangle = AnnularTangle.from_json(json.load(fh))
    el = resolve(tangle, budget=args.budget)
    if args.json:
        _print_json(el.to_json())
    else:
        print(el)
    return 0


def cmd_skein_basis(args) -> int:
    cfg = _config(args)
    if args.degree == 0:
        bound = args.bound if args.bound is not None else 4 * cfg.p * cfg.q
        work = (bound + 1) * (bound // cfg.p + 1) ** 2
        if work > BASIS_BUDGET:
            raise BudgetError(
                f"degree-0 basis of ({cfg.p},{cfg.q}) to degree {bound}: (D+1)(D//p+1)^2 = "
                f"{work} exceeds the basis budget of {BASIS_BUDGET}")
        indices = deg0_basis(cfg, bound)
        title = (f"degree-0 basis of the ({cfg.p},{cfg.q}) skein module, "
                 f"leading degree <= {bound}:")
        rows = [({"m1": b.m1, "n": b.n, "m2": b.m2, "degree": deg0_degree(b, cfg)},
                 f"x^{b.m1} P^{b.n} y^{b.m2}  (degree {deg0_degree(b, cfg)})  -> ")
                for b in indices]
    else:
        work = orbit_work(cfg, args.degree)
        if work > ORBIT_BUDGET:
            raise BudgetError(
                f"degree-{args.degree} orbits of ({cfg.p},{cfg.q}): the sum of (j1+1)(j2+1) = "
                f"{work} exceeds the orbit budget of {ORBIT_BUDGET}")
        indices = list(degk_orbits(cfg, args.degree))
        title = (f"degree-{args.degree} basis orbits for ({cfg.p},{cfg.q}): "
                 f"{len(indices)} orbit(s)")
        rows = [({"k": o.k, "j1": o.j1, "j2": o.j2, "partner": list(orbit_partner(o, cfg))},
                 f"{{({o.j1},{o.j2}), {orbit_partner(o, cfg)}}} -> ") for o in indices]
    listing = zip(rows, basis_traces(indices, cfg))
    if args.json:
        _print_json([dict(fields, trace=str(f)) for (fields, _), f in listing])
        return 0
    print(title)
    for (_, label), f in listing:
        print(f"  {label}{f}")
    return 0


def cmd_verify(args) -> int:
    cfg = _config(args)
    report = verify_theorem(cfg, max_k=args.max_k, seed=args.seed)
    if args.no_timings:
        for c in report.checks:
            c["ms"] = 0.0
    code = report.exit_code
    if args.json:
        print(report.json_str())
        return code
    print(f"verification for (p, q) = ({cfg.p}, {cfg.q}), "
          f"max_k = {args.max_k}, seed = {args.seed}")
    for c in report.checks:
        mark = "PASS" if c["pass"] else "REFUSED" if refused(c) else "FAIL"
        print(f"  [{mark}] {c['name']} ({c['ms']:.1f} ms)")
        if not c["pass"]:
            print(f"         witness: {c['witness']}")
    print({0: "all checks passed", 1: "verification FAILED",
           3: "verification REFUSED: some checks exceed the state budget, none failed"}[code])
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusskein",
        description="Exact skein-module computations for torus-knot complements.")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("chebyshev", help="print T_n in the variable s")
    s.add_argument("n", type=int)
    s.set_defaults(fn=cmd_chebyshev)

    s = sub.add_parser("char-variety", help="components of the character variety")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_char_variety)

    s = sub.add_parser("trace-poly", help="tr(u^i v^j) in the coordinates x, y, z")
    s.add_argument("i", type=int)
    s.add_argument("j", type=int)
    s.set_defaults(fn=cmd_trace_poly)

    s = sub.add_parser("bracket", help="resolve an annular tangle from a JSON file")
    s.add_argument("file")
    s.add_argument("--json", action="store_true")
    s.add_argument("--budget", type=positive_int, default=None,
                   help="bound on live distinct states in the exact state sum "
                        f"(default {STATE_BUDGET})")
    s.set_defaults(fn=cmd_bracket)

    s = sub.add_parser("skein-basis", help="graded basis indices and trace functions")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--degree", type=int, required=True, metavar="K")
    s.add_argument("--bound", type=int, default=None,
                   help="leading-degree bound for degree 0 (default 4pq)")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_skein_basis)

    s = sub.add_parser("verify", help="run the full instance verification")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--max-k", type=int, default=2, dest="max_k")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--json", action="store_true")
    s.add_argument("--no-timings", action="store_true", dest="no_timings",
                   help="zero the ms fields for byte-reproducible output")
    s.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, BudgetError, PlanarityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(entry: Callable[[], int] = main) -> int:
    """The exit code of entry(), the main of `torusskein` or of a script,
    with stdout flushed.  When stdout is closed this is 2, with one error
    line, whether the output was buffered or not; stdout is then pointed at
    the null device, so the interpreter's own last flush cannot fail too."""
    try:
        code = entry()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(run())
