"""Re-record byte pins of tests/pins.json, when the change only adds output.

Usage: python scripts/repin.py NAME...

Each named entry's argv runs in a fresh process from this checkout.  An
entry whose exit code and stdout digest still hold is left alone.  Any other
entry's stdout is compared with that of the same argv at HEAD, run from a
temporary git worktree, and its digest is rewritten only when the exit code
is the pinned one and the change is additive:

* a `verify --json` report must hold every check of HEAD's report,
  unchanged and in order, and differ from it in nothing else;
* any other output may only gain lines: HEAD's lines, in order, are a
  subsequence of the new ones.

If some entry fails that rule, its diff against HEAD is printed, the table is
not written, and the exit code is 1.  An unknown name exits 2.
"""

import contextlib
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "pins.json"


def command(argv, root=ROOT):
    """The process argv and environment that run a pin's argv from the
    checkout at root: `torusskein` as `python -m torusskein`, a script by its
    path under root, with root's src first on PYTHONPATH."""
    head = ["-m", "torusskein"] if argv[0] == "torusskein" else [str(root / argv[0])]
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return [sys.executable, *head, *argv[1:]], {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run(argv, root=ROOT, timeout=None):
    """Exit code and stdout bytes of argv in a fresh process, from root."""
    args, env = command(argv, root)
    done = subprocess.run(args, cwd=root, env=env, capture_output=True, timeout=timeout)
    return done.returncode, done.stdout


def layout(table):
    """The table as written to its file: one entry per line, in order."""
    rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in table.items())
    return "{\n" + rows + "\n}\n"


def is_subsequence(old, new):
    rest = iter(new)
    return all(item in rest for item in old)


def additive(argv, old, new):
    """Whether the stdout bytes new only add to old, by the rule of the
    module docstring."""
    if argv[:2] != ["torusskein", "verify"] or "--json" not in argv:
        return is_subsequence(old.splitlines(True), new.splitlines(True))
    try:
        before, after = json.loads(old), json.loads(new)
        return is_subsequence(before.pop("checks"), after.pop("checks")) and before == after
    except (ValueError, AttributeError, KeyError):
        return False


@contextlib.contextmanager
def head_checkout():
    """A temporary git worktree of HEAD, removed on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "head"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", str(path), "HEAD"], check=True)
        try:
            yield path
        finally:
            subprocess.run([*git, "remove", "--force", str(path)], check=True)


def main() -> int:
    table = json.loads(TABLE.read_text())
    names = sys.argv[1:]
    unknown = [name for name in names if name not in table]
    if not names or unknown:
        print(f"error: no pin named {unknown[0]!r}" if unknown
              else "usage: python scripts/repin.py NAME...", file=sys.stderr)
        return 2
    runs = {name: run(table[name]["argv"]) for name in names}
    stale = {}
    for name, (code, out) in runs.items():
        digest = hashlib.sha256(out).hexdigest()
        if (code, digest) == (table[name]["exit"], table[name]["sha256"]):
            print(f"{name}: holds")
        else:
            stale[name] = digest
    refused = False
    if stale:
        with head_checkout() as head:
            for name, digest in stale.items():
                argv, (code, out) = table[name]["argv"], runs[name]
                _, old = run(argv, head)
                if code == table[name]["exit"] and additive(argv, old, out):
                    print(f"{name}: {table[name]['sha256']} -> {digest}")
                    table[name]["sha256"] = digest
                    continue
                refused = True
                print(f"{name}: not additive (exit {code}, pinned {table[name]['exit']}); "
                      "diff against HEAD:")
                sys.stdout.writelines(difflib.unified_diff(
                    old.decode(errors="replace").splitlines(True),
                    out.decode(errors="replace").splitlines(True), "HEAD", "checkout"))
    if refused:
        print("table not written")
        return 1
    if stale:
        TABLE.write_text(layout(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
