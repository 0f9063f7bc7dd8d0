import importlib.util
import math
from itertools import islice
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from torusskein import skein, sprime
from torusskein.algebra import DELTA, Laurent, TracePoly, UniPoly, chebyshev_terms
from torusskein.skein import AnnularTangle, BudgetError, SkeinElement, turn_slices

ROOT = Path(__file__).resolve().parents[1]

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60)
hypothesis.settings.load_profile("default")


def load_script(name):
    """The module of ``scripts/<name>.py``, loaded afresh from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def clear_sprime_caches():
    """Empty every lru_cache defined in ``sprime``, found by scanning the
    module, so that no list of its caches has to be kept by hand."""
    for fn in vars(sprime).values():
        if hasattr(fn, "cache_clear") and fn.__module__ == sprime.__name__:
            fn.cache_clear()


def normalized_basis(slope, k):
    """A^(n_j) e_j, j = 1..slope-1, with n_j = -u_j when 2j > slope, else 0:
    the basis that the rotation swaps exactly, built from the cached
    basis and exponents."""
    expo = sprime.rotation_exponents(slope, k)
    return [sprime.times_A(e, -expo[j - 1] if 2 * j > slope else 0)
            for j, e in enumerate(sprime.basis_coordinates(slope, k), start=1)]


@pytest.fixture
def state_budget(monkeypatch):
    """Lower ``skein.STATE_BUDGET`` for one test.

    The quotient's caches are emptied first, since a cached table answers
    without running the state sum that the lowered bound should refuse, and
    again after the test, since a cached refusal holds only at the bound
    that refused it.
    """
    def lower(limit):
        clear_sprime_caches()
        monkeypatch.setattr(skein, "STATE_BUDGET", limit)
    yield lower
    clear_sprime_caches()


def reference_resolve_states(tangle, budget=None, start=None, *, drop_trivial_arcs=False):
    """The state sum over Laurent coefficients, one dict per live state's
    value: the oracle of ``skein.resolve_states``, which packs them into
    ints.  Same state machine, same budget rule, same pruning."""
    limit = skein.STATE_BUDGET if budget is None else budget
    states = ({skein._initial_state(tangle.endpoints): Laurent.one()} if start is None
              else dict(start))
    for ev in tangle.slices:
        merged = {}
        for state, coeff, new_state, exp, closed in skein._branches(states, ev):
            if (drop_trivial_arcs and new_state[1] is not state[1]
                    and any(w == 0 for _, _, w in new_state[1])):
                continue
            add = coeff.shift(exp) if exp else coeff
            if closed:
                add = add * DELTA
            prev = merged.get(new_state)
            s = add if prev is None else prev + add
            if s:
                merged[new_state] = s
            else:
                merged.pop(new_state, None)
        if len(merged) > limit:
            raise BudgetError(f"{len(merged)} live states", states=len(merged),
                              budget=limit, strands=tangle.endpoints)
        states = merged
    return states


def scale(el, c):
    """el times the Laurent polynomial c, one product per coefficient: the
    reference for the normalization that ``rotated_element`` applies."""
    return SkeinElement(el.endpoints, {mc: v * c for mc, v in el.terms.items()})


def reference_series_table(max_i, max_j, flipped=False):
    """The trace series table built from TracePoly products, the oracle of
    ``traces.series_table``: the (i, j) coefficient of
    (2 - s x - t y + s t z) / ((1 - s x + s^2)(1 - t y + t^2)).

    ``flipped`` expands 2 - t x - s y + s t z over the same denominators
    instead: x = tr(u) goes with t instead of s, so the entries are not the
    traces.  A negative control for the trace checks.
    """
    x, y, z = TracePoly.x(), TracePoly.y(), TracePoly.z()
    # [S_-1, S_0, ..., S_n], with S_-1 = 0
    sx = [TracePoly(), *islice(chebyshev_terms(x, 1), max_i + 1)]
    sy = [TracePoly(), *islice(chebyshev_terms(y, 1), max_j + 1)]
    a, b = (y, x) if flipped else (x, y)
    return tuple(
        tuple(2 * sx[i + 1] * sy[j + 1] - a * sx[i] * sy[j + 1]
              - b * sx[i + 1] * sy[j] + z * sx[i] * sy[j]
              for j in range(max_j + 1))
        for i in range(max_i + 1))


def flipped_series_table(max_i, max_j):
    """The trace series table with its numerator paired the wrong way round."""
    return reference_series_table(max_i, max_j, flipped=True)


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


def z_coefficient(f, k):
    """The coefficient of z^k in the TracePoly f, a polynomial in x and y."""
    return TracePoly({(i, j, 0): c for (i, j, e), c in f.terms.items() if e == k})


def z_part_closed_form(i, j):
    """z S_(i-1)(x) S_(j-1)(y), the part of tr(u^i v^j) that holds z (i, j >= 1).

    By Cayley-Hamilton, M^n = S_(n-1)(tr M) M - S_(n-2)(tr M) for M in SL2,
    so tr(U^i V^j) = S_(i-1)(x) S_(j-1)(y) tr(UV) plus terms in x and y
    alone.  The S_n are the second-kind ``chebyshev_terms`` over x and y.
    """
    if i < 1 or j < 1:
        raise ValueError("the closed form needs i, j >= 1")
    sx = next(islice(chebyshev_terms(TracePoly.x(), 1), i - 1, None))
    sy = next(islice(chebyshev_terms(TracePoly.y(), 1), j - 1, None))
    return TracePoly.z() * sx * sy


def substitute(f, sx, sy, sz):
    """The TracePoly f composed with UniPolys sx, sy, sz in one variable: an
    oracle for f along a parametrized curve, such as the abelian line
    s -> (T_p(s), T_q(s), T_(p+q)(s))."""
    out = UniPoly(sx.var)
    for (i, j, k), c in f.terms.items():
        out = out + sx ** i * sy ** j * sz ** k * c
    return out


def leading_z_coeff(i, j, pair, cfg):
    """Closed-form z-coefficient of tr(u^i v^j) on one irreducible component.

    Equals sin(i k pi/q) sin(j l pi/p) / (sin(k pi/q) sin(l pi/p)), which is
    S_(i-1)(x_c) S_(j-1)(y_c); requires i, j >= 1.  An oracle for the
    z-coefficient of ``traces.trace_word`` at a component's constant traces.
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
