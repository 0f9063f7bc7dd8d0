import hypothesis
import pytest

from torusskein import skein, sprime
from torusskein.algebra import TracePoly

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

    def second_kind(gen, n):
        # [S_-1, S_0, ..., S_n]: S_-1 = 0, S_0 = 1, S_(m+1) = gen*S_m - S_(m-1)
        out = [TracePoly(), TracePoly.constant(1)]
        while len(out) < n + 2:
            out.append(gen * out[-1] - out[-2])
        return out

    sx, sy = second_kind(x, max_i), second_kind(y, max_j)
    return tuple(
        tuple(2 * sx[i + 1] * sy[j + 1] - x * sx[i + 1] * sy[j]
              - y * sx[i] * sy[j + 1] + z * sx[i] * sy[j]
              for j in range(max_j + 1))
        for i in range(max_i + 1))
