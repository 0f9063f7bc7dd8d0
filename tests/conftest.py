import hypothesis
import pytest

from torusskein import skein, sprime

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60)
hypothesis.settings.load_profile("default")


@pytest.fixture
def state_budget(monkeypatch):
    """Lower ``skein.STATE_BUDGET`` for one test.

    The quotient's caches are emptied first, since a cached table answers
    without running the state sum that the lowered bound should refuse.
    """
    def lower(limit):
        for fn in (sprime.collar_states, sprime.rotation_matrix, sprime.basis_coordinates,
                   sprime.reduction_relation, sprime.rotation_exponents):
            fn.cache_clear()
        monkeypatch.setattr(skein, "STATE_BUDGET", limit)
    return lower
