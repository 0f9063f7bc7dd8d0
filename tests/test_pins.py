"""Byte pins: every entry of tests/pins.json, its exit code and the sha256 of
all its stdout bytes, plus guards on the table and on the README's examples.

Re-record a digest with ``python scripts/repin.py NAME...``, which rewrites
it only when the new output adds to HEAD's."""

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from conftest import ROOT, load_script
from torusskein import cli

PINS = ROOT / "tests" / "pins.json"
TABLE = json.loads(PINS.read_text())
README = (ROOT / "README.md").read_text()
repin = load_script("repin")


def run_in_process(argv, capsys, monkeypatch):
    """Exit code and stdout bytes of a pin's argv, run through ``cli.main``
    or the script's ``main`` in this process, from the repository root."""
    monkeypatch.chdir(ROOT)
    if argv[0] == "torusskein":
        code = cli.main(argv[1:])
    else:
        monkeypatch.setattr(sys, "argv", argv)
        code = load_script(Path(argv[0]).stem).main()
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", list(TABLE))
def test_pin(name, capsys, monkeypatch):
    # a fresh entry is timed from a cold process: refusals come before any work
    entry = TABLE[name]
    if entry.get("fresh"):
        code, out = repin.run(entry["argv"], timeout=5)
    else:
        code, out = run_in_process(entry["argv"], capsys, monkeypatch)
    assert code == entry["exit"]
    assert hashlib.sha256(out).hexdigest() == entry["sha256"]


def readme_blocks(heading):
    """The fenced blocks of the README section under heading, in order."""
    section = README.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```\w*\n(.*?)^```", section, re.M | re.S)


def test_pin_table_is_well_formed():
    names = [name for name, _ in json.loads(PINS.read_text(), object_pairs_hook=list)]
    assert len(set(names)) == len(names)
    assert len({tuple(entry["argv"]) for entry in TABLE.values()}) == len(TABLE)
    for entry in TABLE.values():
        assert set(entry) <= {"argv", "exit", "sha256", "fresh"}
        assert re.fullmatch("[0-9a-f]{64}", entry["sha256"])
    # repin.py rewrites the file in this layout, so a repin diffs in its digests alone
    assert PINS.read_text() == repin.layout(TABLE)


def test_every_subcommand_is_pinned():
    # the README's command list is the parser's, and each command has an entry
    listed = {line.split()[1] for line in readme_blocks("## Command line")[0].splitlines()}
    sub, = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == set(sub.choices)
    pinned = {entry["argv"][1] for entry in TABLE.values() if entry["argv"][0] == "torusskein"}
    assert listed <= pinned


def test_readme_diagram_is_the_pinned_file(capsys):
    # the bracket pins run tests/data/readme_diagram.json, the README's example
    diagram, printed = readme_blocks("## Diagram files")[:2]
    path = ROOT / "tests" / "data" / "readme_diagram.json"
    assert json.loads(diagram) == json.loads(path.read_text())
    assert cli.main(["bracket", str(path)]) == 0
    assert capsys.readouterr().out == printed


VERIFY = ["torusskein", "verify", "2", "3", "--json"]


def report(*checks, p=2):
    return json.dumps({"config": {"p": p}, "checks": [{"name": c} for c in checks]}).encode()


@pytest.mark.parametrize("argv, old, new, ok", [
    (VERIFY, report("a", "b"), report("a", "b"), True),
    (VERIFY, report("a", "b"), report("x", "a", "b", "y"), True),
    (VERIFY, report("a", "b"), report("b", "a"), False),
    (VERIFY, report("a", "b"), report("a"), False),
    (VERIFY, report("a", "b"), report("a", "b", p=3), False),
    (VERIFY, b"", report("a"), False),
    (["torusskein", "chebyshev", "3"], b"a\nb\n", b"a\nx\nb\ny\n", True),
    (["torusskein", "chebyshev", "3"], b"a\nb\n", b"a\nc\n", False),
    (["torusskein", "chebyshev", "3"], b"a\nb\n", b"b\na\n", False),
], ids=["same", "checks-added", "checks-reordered", "check-dropped", "config-changed",
        "no-report-at-head", "lines-added", "line-changed", "lines-reordered"])
def test_repin_accepts_additions_only(argv, old, new, ok):
    assert repin.additive(argv, old, new) is ok
