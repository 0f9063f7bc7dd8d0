import importlib.util
import math
from itertools import islice
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from torusskein import skein, sprime
from torusskein.algebra import DELTA, Laurent, TracePoly, UniPoly, chebyshev_terms
from torusskein.skein import (CAP, CUP, X, AnnularTangle, BudgetError, PlanarityError,
                              SkeinElement, turn_slices)

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


# ---------------------------------------------------------------------------
# the oracle's own state machine, on one (far, w) pair per strand end where
# ``skein`` keeps two flat tuples: it shares no code with the engine's
# machine, so comparing the two sums checks one layout against the other.
#
# A state is (ends, arcs, loops).  ends[i] = (far, w) describes the open
# strand end at angular position i: far >= 0 is the position of the other
# end of its curve, far < 0 the marked boundary point ~far; w is the signed
# number of seam crossings accumulated walking along the curve from the far
# end to this end.
# ---------------------------------------------------------------------------


def _initial_state(width):
    return (tuple((~e, 0) for e in range(width)), (), 0)


def _turnback(state, i):
    ends, arcs, loops = state
    j = (i + 1) % len(ends)
    seam = 1 if j == 0 else 0  # the join's traversal from i to j crosses the seam
    (fu, wu), (fv, wv) = ends[i], ends[j]
    closed = False
    ends = list(ends)
    if fu == j:
        total = wu + seam
        if total == 0:
            closed = True
        elif total in (1, -1):
            loops += 1
        else:
            raise PlanarityError(f"closed component with net winding {total}")
    else:
        walk = wu + seam - wv  # fu -> i -> j -> fv
        if fu < 0 and fv < 0:
            a, b, w = ~fu, ~fv, walk
            if a > b:
                a, b, w = b, a, -w
            if w not in (0, -1):
                raise PlanarityError(f"arc ({a},{b}) with net winding {w}")
            arcs = tuple(sorted(arcs + ((a, b, w),)))
        if fv >= 0:
            ends[fv] = (fu, walk)
        if fu >= 0:
            ends[fu] = (fv, -walk)
    ends[i], ends[j] = (j, -seam), (i, seam)
    return (tuple(ends), arcs, loops), closed


def _apply_cap(state, i):
    (ends, arcs, loops), closed = _turnback(state, i)
    if i == len(ends) - 1:  # the pair across the seam: positions 0 and i
        return (tuple([(f - 1 if f > 0 else f, w) for f, w in ends[1:i]]), arcs, loops), closed
    return (tuple([(f - 2 if f > i else f, w) for f, w in ends[:i] + ends[i + 2:]]),
            arcs, loops), closed


def _apply_cup(state, i):
    ends, arcs, loops = state
    shifted = [(f + 2 if f >= i else f, w) for f, w in ends]
    return (tuple(shifted[:i] + [(i + 1, 0), (i, 0)] + shifted[i:]), arcs, loops)


def _apply_rot(state, sign):
    ends, arcs, loops = state
    width = len(ends)
    ends = list(ends)
    mover = width - 1 if sign == 1 else 0
    far, w = ends[mover]
    ends[mover] = (far, w + sign)
    if far >= 0:
        ends[far] = (ends[far][0], ends[far][1] - sign)
    ends = [((f + sign) % width if f >= 0 else f, w) for f, w in ends]
    ends = ends[-1:] + ends[:-1] if sign == 1 else ends[1:] + ends[:1]
    return (tuple(ends), arcs, loops)


def _branches(states, ev):
    """(state, value, new state, A-exponent, whether a contractible loop closed)
    for each branch of one slice over every live state."""
    op, arg = ev[0], ev[1]
    if op == X:
        sign = ev[2]
        for state, value in states.items():
            yield state, value, state, sign, False
            turned, closed = _turnback(state, arg)
            yield state, value, turned, -sign, closed
    elif op == CAP:
        for state, value in states.items():
            capped, closed = _apply_cap(state, arg)
            yield state, value, capped, 0, closed
    else:
        apply = _apply_cup if op == CUP else _apply_rot
        for state, value in states.items():
            yield state, value, apply(state, arg), 0, False


def reference_resolve_states(tangle, budget=None, start=None, *, drop_trivial_arcs=False):
    """The state sum over Laurent coefficients, one dict per live state's
    value, on the pair-layout machine above: the oracle of
    ``skein.resolve_states``, which packs the values into ints and keeps a
    state's ends as ((fars, ws), arcs, loops).  Same budget rule, same
    pruning.  ``start`` and the result are in the engine's layout; the
    sum itself runs on (far, w) pairs."""
    limit = skein.STATE_BUDGET if budget is None else budget
    states = ({_initial_state(tangle.endpoints): Laurent.one()} if start is None
              else {(tuple(zip(fars, ws)), arcs, loops): c
                    for ((fars, ws), arcs, loops), c in start.items()})
    for ev in tangle.slices:
        merged = {}
        for state, coeff, new_state, exp, closed in _branches(states, ev):
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
    # the one fixed map from (far, w) pairs to the engine's (fars, ws) tuples;
    # ``start`` was read through its inverse, zip
    return {((tuple(f for f, _ in ends), tuple(w for _, w in ends)), arcs, loops): c
            for (ends, arcs, loops), c in states.items()}


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
