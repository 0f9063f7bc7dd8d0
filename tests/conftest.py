import math
from itertools import islice

import hypothesis
import numpy as np
import pytest

from torusskein import skein, sprime
from torusskein.algebra import TracePoly, chebyshev_terms
from torusskein.skein import AnnularTangle, turn_slices

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60)
hypothesis.settings.load_profile("default")


def clear_sprime_caches():
    """Empty every lru_cache defined in ``sprime``, found by scanning the
    module, so that no list of its caches has to be kept by hand."""
    for fn in vars(sprime).values():
        if hasattr(fn, "cache_clear") and fn.__module__ == sprime.__name__:
            fn.cache_clear()


@pytest.fixture
def state_budget(monkeypatch):
    """Lower ``skein.STATE_BUDGET`` for one test.

    The quotient's caches are emptied first, since a cached table answers
    without running the state sum that the lowered bound should refuse.
    """
    def lower(limit):
        clear_sprime_caches()
        monkeypatch.setattr(skein, "STATE_BUDGET", limit)
    return lower


def flipped_series_table(max_i, max_j):
    """The trace series table with its numerator paired the wrong way round.

    Expands 2 - t x - s y + s t z over the same denominators as
    ``traces.series_table``: x = tr(u) goes with t instead of s, so the
    entries are not the traces.  A negative control for the trace checks.
    """
    x, y, z = TracePoly.x(), TracePoly.y(), TracePoly.z()
    # [S_-1, S_0, ..., S_n], with S_-1 = 0
    sx = [TracePoly(), *islice(chebyshev_terms(x, 1), max_i + 1)]
    sy = [TracePoly(), *islice(chebyshev_terms(y, 1), max_j + 1)]
    return tuple(
        tuple(2 * sx[i + 1] * sy[j + 1] - x * sx[i + 1] * sy[j]
              - y * sx[i] * sy[j + 1] + z * sx[i] * sy[j]
              for j in range(max_j + 1))
        for i in range(max_i + 1))


def word_trace(u, v, i, j):
    """tr(U^i V^j) of one sample, a matrix_power per factor: the reference
    that ``traces.numeric_traces`` equals bit for bit."""
    return complex(np.trace(np.linalg.matrix_power(u, i) @ np.linalg.matrix_power(v, j)))


def basis_tangle(k, j, slope):
    """Basis tangle e(k, j): a j-times-winding exterior strand on the outer
    pair of marked points, around a (k-1)-strand once-winding cable on the
    middle ones; the null tangle after j turns, the slope-j collar without its
    curl.  Requires 1 <= j <= slope-1 (and j >= 1 for any slope).  An oracle
    for ``sprime.basis_coordinates``, which reads the basis from the
    relations."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not 1 <= j <= max(slope - 1, 1):
        raise ValueError(f"index j={j} out of range for slope {slope}")
    return AnnularTangle(2 * k, turn_slices(j, 2 * k) + sprime.null_tangle(k, 0).slices)


def leading_z_coeff(i, j, pair, cfg):
    """Closed-form z-coefficient of tr(u^i v^j) on one irreducible component.

    Equals sin(i k pi/q) sin(j l pi/p) / (sin(k pi/q) sin(l pi/p)); requires
    i, j >= 1.  An oracle for the restrictions of ``traces.trace_word``.
    """
    if i < 1 or j < 1:
        raise ValueError("the closed form needs i, j >= 1")
    a = math.pi * pair.k / cfg.q
    b = math.pi * pair.l / cfg.p
    return (math.sin(i * a) * math.sin(j * b)) / (math.sin(a) * math.sin(b))


def abelian_meeting_points(pair, cfg):
    """z-values where the abelian line meets the component of the pair.

    These are 2*cos(k*pi/q + l*pi/p) and 2*cos(k*pi/q - l*pi/p): the two
    diagonal (hence reducible) points on the line x = x_c, y = y_c.
    """
    a = math.pi * pair.k / cfg.q
    b = math.pi * pair.l / cfg.p
    return (2.0 * math.cos(a + b), 2.0 * math.cos(a - b))
