"""One benchmark child: import torusskein cold, verify instances, report.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory torusskein must be imported from),
``cli`` (run each instance as ``torusskein verify ... --json`` through the
CLI entry point, otherwise call ``verify_theorem``), ``instances`` as
[p, q, max_k] triples, ``seed`` and ``trace``.  The child prints one JSON
line: import time on the monotonic clock, wall and CPU time, peak RSS, and
per instance the check counts and the sha256 of the report with ``ms``
zeroed.  With ``trace`` it also installs the wrappers of tracing.py and adds
their summary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

DIGEST_DROPS = ("worst_error",)  # witness fields that depend on the seed


def digest(report: dict) -> str:
    """sha256 of the report in the layout of ``verify --json``."""
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def seedfree_digest(report: dict) -> str:
    """Digest of the report without the fields the verify seed moves."""
    config = {k: v for k, v in report["config"].items() if k != "seed"}
    checks = [dict(c, witness={k: v for k, v in c["witness"].items()
                               if k not in DIGEST_DROPS})
              for c in report["checks"]]
    return digest({"config": config, "checks": checks})


def family(name: str) -> str:
    """Check family: the check name without its ``-slope<n>`` suffix."""
    head, _, tail = name.rpartition("-slope")
    return head if head and tail.isdigit() else name


def summarise(inst, code: int, text: str) -> dict:
    report = json.loads(text)
    family_ms: dict = {}
    for c in report["checks"]:
        fam = family(c["name"])
        family_ms[fam] = family_ms.get(fam, 0.0) + c["ms"]
        c["ms"] = 0.0
    return {
        "id": ",".join(map(str, inst)),
        "exit": code,
        "checks": len(report["checks"]),
        "failed": sum(1 for c in report["checks"] if not c["pass"]),
        "digest": digest(report),
        "seedfree": seedfree_digest(report),
        "family_ms": family_ms,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    import numpy  # noqa: F401  setup_s covers numpy's import in any case
    import torusskein
    from torusskein import assembly, charvariety, cli
    imported = time.monotonic()

    src = Path(spec["src"]).resolve()
    if src not in Path(torusskein.__file__).resolve().parents:
        print(f"torusskein imported from {torusskein.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        from tracing import Tracer  # beside this script, so on sys.path
        tracer = Tracer()
        tracer.install()

    seed = spec["seed"]
    outputs = []
    t0 = time.perf_counter()
    for p, q, k in spec["instances"]:
        if spec["cli"]:
            argv = ["verify", str(p), str(q), "--max-k", str(k),
                    "--seed", str(seed), "--json"]
            if not spec["trace"]:
                argv.append("--no-timings")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((code, buf.getvalue()))
        else:
            report = assembly.verify_theorem(
                charvariety.TorusKnotConfig(p, q), max_k=k, seed=seed)
            outputs.append((0 if report.all_passed else 1, report.json_str()))
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "imported": imported,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "instances": [summarise(inst, code, text) for inst, (code, text)
                      in zip(spec["instances"], outputs)],
        "trace": tracer.summary() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
