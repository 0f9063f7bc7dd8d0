"""Exact Kauffman bracket skein calculus for torus-knot complements."""

from __future__ import annotations

import os
import sys
from collections.abc import Callable


def run(entry: Callable[[], int] | None = None) -> int:
    """The exit code of entry(), the main of a script or by default
    ``cli.main``, with stdout flushed.  When stdout is closed this is 2,
    with one error line, whether the output was buffered or not; stdout is
    then pointed at the null device, so the interpreter's own last flush
    cannot fail too.  It lives here, not in ``cli``, so that a script
    which needs no numpy loads none."""
    if entry is None:
        from .cli import main as entry
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
