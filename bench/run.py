"""Cold-cache benchmark of ``torusskein verify`` on two workloads.

Usage:
    python3 bench/run.py --workload {deep,wide,all} [--seed N]
                         [--seconds S] [--trace 0|1] [--record]

Every pass of a workload starts fresh Python processes (child.py), one at a
time, so the module-level lru_caches start cold as they do for a CLI user.
Passes repeat while the next one is expected to end within ``--seconds``.
Every end-to-end metric is a median over the run's passes or processes
(README.md says why).  ``--seed`` is handed to ``verify`` unchanged.  Each
instance's report, with ``ms`` zeroed, is checked against the sha256
digests in digests.json: the full digest at the default seed, a digest
without the seed-dependent fields at every seed.
Failed or refused checks, and every check of an instance whose digest
differs, count as failed.

``--trace 1`` alternates untraced passes with traced ones, in which
tracing.py wraps the public functions of each layer, and reports the
per-layer metrics instead.  ``--record`` rewrites digests.json from one
pass at the default seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "torusskein"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 20259   # torusskein's own default verify seed
DEADLINE_S = 170.0     # a run never starts a pass it cannot finish by then
SETUP_PROBES = 6       # import-only children per run, for setup_s


def coprime_pairs(limit: int) -> list:
    """(p, q) with p < q <= limit, in the order of scripts/verify_sweep.py."""
    return [(p, q) for p in range(2, limit + 1) for q in range(p + 1, limit + 1)
            if math.gcd(p, q) == 1]


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool      # run each instance through the CLI entry point
    groups: tuple  # each group: (p, q, max_k) instances run in one fresh process


WORKLOADS = {
    "deep": Workload("deep", True, (((3, 5, 3),), ((2, 3, 5),))),
    "wide": Workload("wide", False,
                     (tuple((p, q, 1) for p, q in coprime_pairs(12)),)),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

MODULES = ("algebra", "skein", "sprime", "traces", "charvariety", "assembly", "cli")
SLOC_FILES = {m: (f"{m}.py",) for m in MODULES}
SLOC_FILES["init"] = ("__init__.py", "__main__.py")
CHECK_FAMILIES = (
    "admissible-pair-count", "deg0-distinct-degrees", "degk-orbit-count",
    "dst-invertible", "trace-triple-agreement", "rotation-order",
    "basis-triangular", "rotation-exponents", "normalized-rotation",
)
PER_LAYER = {
    "algebra.laurent_mul.calls": "count",
    "algebra.laurent_add.calls": "count",
    "algebra.tracepoly_evaluate.calls": "count",
    "algebra.tracepoly_evaluate.busy_s": "s",
    "skein.resolve_states.calls": "count",
    "skein.resolve_states.busy_s": "s",
    "skein.resolve_states.wall_share": "fraction",
    "skein.resolve_states.crossings": "count",
    "skein.resolve_states.slices": "count",
    "skein.resolve_states.result_states": "count",
    "sprime.quotient_coordinates.calls": "count",
    "sprime.quotient_coordinates.busy_s": "s",
    **{f"sprime.{fn}.{what}": unit
       for fn in ("rotation_matrix", "basis_coordinates", "reduction_relation")
       for what, unit in (("busy_s", "s"), ("hits", "count"), ("misses", "count"))},
    "sprime.rotation_exponents.hits": "count",
    "sprime.rotation_exponents.misses": "count",
    "traces.series_table.calls": "count",
    "traces.series_table.busy_s": "s",
    "traces.numeric_rep.calls": "count",
    "traces.numeric_rep.busy_s": "s",
    "traces.trace_word.hits": "count",
    "traces.trace_word.misses": "count",
    "charvariety.admissible_pairs.calls": "count",
    "charvariety.admissible_pairs.busy_s": "s",
    "assembly.verify_theorem.calls": "count",
    "assembly.verify_theorem.busy_s": "s",
    "assembly.verify_dst.busy_s": "s",
    **{f"assembly.check.{fam}.ms": "ms" for fam in CHECK_FAMILIES},
    "cli.main.busy_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    **{f"{m}.sloc": "lines" for m in SLOC_FILES},
    "src.sloc": "lines",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TORUSSKEIN_THREADS", None)  # threads measured 2.2x slower
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(workload: Workload, group, seed: int, trace: bool, deadline: float) -> dict:
    spec = json.dumps({"src": str(SRC), "cli": workload.cli,
                       "instances": [list(inst) for inst in group],
                       "seed": seed, "trace": trace})
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), spec], cwd=ROOT,
            env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload.name}: child for {group} timed out") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{workload.name}: child for {group} exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["imported"] - launched
    return out


def run_pass(workload: Workload, seed: int, trace: bool, deadline: float) -> list:
    """One pass: each group in its own fresh process, one after another."""
    return [run_child(workload, group, seed, trace, deadline)
            for group in workload.groups]


class Checker:
    """Counts attempted and failed checks and compares report digests."""

    def __init__(self, seed: int, digests: dict, log):
        self.seed, self.digests, self.log = seed, digests, log
        self.attempted = self.failed = 0
        self.printed: set = set()

    def add(self, children: list) -> None:
        for inst in (i for child in children for i in child["instances"]):
            self.attempted += inst["checks"]
            problems = []
            if inst["exit"] != (1 if inst["failed"] else 0):
                problems.append(f"exit code {inst['exit']}")
            want = self.digests.get(inst["id"])
            if want is None:
                problems.append("no recorded digest")
            else:
                if inst["seedfree"] != want["seedfree"]:
                    problems.append("seed-free digest differs")
                if self.seed == DEFAULT_SEED and inst["digest"] != want["report"]:
                    problems.append("report digest differs")
            if self.seed != DEFAULT_SEED and inst["id"] not in self.printed:
                self.printed.add(inst["id"])
                self.log(f"  digest ({inst['id']}) at seed {self.seed}: {inst['digest']}")
            if problems:
                self.log(f"  MISMATCH ({inst['id']}): {', '.join(problems)}")
                self.failed += inst["checks"]
            else:
                self.failed += inst["failed"]


def repeat(seconds: float, one):
    """Call ``one`` while the next call is expected to end within ``seconds``."""
    begin = time.monotonic()
    results = []
    while True:
        results.append(one(begin + DEADLINE_S))
        elapsed = time.monotonic() - begin
        per_call = elapsed / len(results)
        if elapsed + per_call > min(seconds, DEADLINE_S):
            return results


def pass_wall(children: list) -> float:
    return sum(c["wall_s"] for c in children)


def end_to_end(passes: list, probes: list) -> dict:
    return {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "cpu_s": statistics.median(sum(c["cpu_s"] for c in p) for p in passes),
        "peak_rss_mb": statistics.median(max(c["peak_rss_mb"] for c in p) for p in passes),
        "setup_s": statistics.median(c["setup_s"] for c in [*probes, *sum(passes, [])]),
    }


def sloc() -> dict:
    """Source lines that are neither blank nor comments, per module."""
    def count(path: Path) -> int:
        if not path.exists():
            return 0
        return sum(1 for line in path.read_text().splitlines()
                   if line.strip() and not line.strip().startswith("#"))
    out = {f"{m}.sloc": sum(count(PACKAGE / f) for f in files)
           for m, files in SLOC_FILES.items()}
    out["src.sloc"] = sum(count(f) for f in PACKAGE.rglob("*.py"))
    return out


def layer_figures(plain: list, traced: list) -> dict:
    """Per-layer metrics of one traced pass next to its untraced twin."""
    fig = dict.fromkeys(PER_LAYER, 0)
    for child in traced:
        for name, value in child["trace"].items():
            if name in fig:
                fig[name] += value
        for inst in child["instances"]:
            for fam, ms in inst["family_ms"].items():
                fig[f"assembly.check.{fam}.ms"] += ms
    fig["trace.wall_s"] = pass_wall(traced)
    fig["trace.untraced_wall_s"] = pass_wall(plain)
    fig["trace.overhead_s"] = fig["trace.wall_s"] - fig["trace.untraced_wall_s"]
    fig["skein.resolve_states.wall_share"] = (
        fig["skein.resolve_states.busy_s"] / fig["trace.wall_s"])
    return fig


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 digests: dict, log) -> dict:
    checker = Checker(seed, digests, log)
    if not trace:
        begin = time.monotonic()
        probes = [run_child(workload, (), seed, False, begin + DEADLINE_S)
                  for _ in range(SETUP_PROBES)]

        def one(deadline):
            children = run_pass(workload, seed, False, deadline)
            checker.add(children)
            return children
        passes = repeat(seconds - (time.monotonic() - begin), one)
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end(passes, probes).items()}
    else:
        def one(deadline):
            plain = run_pass(workload, seed, False, deadline)
            traced = run_pass(workload, seed, True, deadline)
            checker.add(plain)
            checker.add(traced)
            return layer_figures(plain, traced)
        passes = repeat(seconds, one)
        medians = {name: statistics.median(f[name] for f in passes) for name in PER_LAYER}
        medians.update(sloc())
        metrics = {name: (value, PER_LAYER[name]) for name, value in medians.items()}
    frac = checker.failed / checker.attempted
    log(f"{workload.name}: " + "  ".join(
        f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()
        if name in END_TO_END or name.startswith("trace.")
        or name == "skein.resolve_states.wall_share")
        + f"  failed_frac {frac:.6g} ({checker.failed}/{checker.attempted} checks,"
        f" {len(passes)} passes)")
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def record(workloads: list, log) -> dict:
    """Digests of one untraced pass of each workload at the default seed."""
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in workloads:
        for child in run_pass(workload, DEFAULT_SEED, False,
                              time.monotonic() + DEADLINE_S):
            for inst in child["instances"]:
                digests[inst["id"]] = {"report": inst["digest"],
                                       "seedfree": inst["seedfree"]}
                log(f"  recorded ({inst['id']}): {inst['checks']} checks, "
                    f"{inst['failed']} failed")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return digests


def environment() -> str:
    """The interpreter and numpy the children run; they share this interpreter."""
    return (f"env: python {platform.python_version()}, numpy {version('numpy')}, "
            f"nproc {len(os.sched_getaffinity(0))}, TORUSSKEIN_THREADS cleared, "
            "one child process at a time")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json at the default seed first")
    args = parser.parse_args(argv)

    def log(line: str) -> None:
        print(line, flush=True)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no torusskein sources at {PACKAGE}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded at seed {DEFAULT_SEED} only",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [WORKLOADS[n] for n in names]
    try:
        log(environment())
        digests = record(workloads, log) if args.record else \
            json.loads(DIGESTS.read_text())
        results = {w.name: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                        digests, log) for w in workloads}
    except (HarnessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
