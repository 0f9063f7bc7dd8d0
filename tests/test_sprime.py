"""Quotient coordinates, reduction relations, the rotation operator, bases."""

import hashlib
import json
import tracemalloc
from itertools import islice

import pytest
from conftest import basis_tangle, clear_sprime_caches, normalized_basis, scale

from torusskein import skein, sprime
from torusskein.algebra import DELTA, Laurent, UniPoly, chebyshev_terms
from torusskein.assembly import verify_theorem
from torusskein.charvariety import TorusKnotConfig
from torusskein.skein import (
    AnnularTangle,
    BudgetError,
    Multicurve,
    SkeinElement,
    cap,
    crossing,
    loop_slices,
    resolve,
    resolve_states,
)
from torusskein.sprime import (
    basis_coordinates,
    closed_basis_element,
    expand_framing_curve,
    framing_curve_tangle,
    null_tangle,
    power_tangle,
    quotient_coordinates,
    reduction_relation,
    rotate,
    rotated_element,
    rotation_exponents,
    rotation_matrix,
    rotation_norm_exponent,
    rotation_slices,
    rotation_square,
    times_A,
    winding_part,
)

A = Laurent.A
ONE = Laurent.one()
ZERO = Laurent.zero()
W_ONE = UniPoly.constant("w", ONE)


def w_power(m):
    return UniPoly("w", [ZERO] * m + [ONE])

GRID = [(slope, k) for slope in (2, 3, 5) for k in (1, 2, 3)]


# -- framing curve ------------------------------------------------------------


def test_framing_curve_slope_one_is_core():
    assert expand_framing_curve(1).coeffs == (ZERO, ONE)


def test_framing_curve_slope_two_by_hand():
    # spiral with one crossing: parallel smoothing gives two core loops with
    # weight A^-1, turnback gives a contractible loop with weight A
    got = expand_framing_curve(2)
    assert got.coeffs == (A(1) * DELTA, ZERO, A(-1))


def test_framing_curve_degree_and_unit_leading():
    for slope in range(1, 7):
        poly = expand_framing_curve(slope)
        assert poly.degree == slope
        assert poly.leading().unit_parts() is not None


def test_closed_basis_elements():
    for j in range(3):
        el = closed_basis_element(j, 4)  # j < slope: plain core-loop powers
        assert el == SkeinElement(0, {Multicurve((), j): ONE})
    el = closed_basis_element(5, 2)  # j = 2*2 + 1: framing curve squared times y
    degrees = {mc.loops for mc in el.terms}
    assert max(degrees) == 5


# -- pinned words ---------------------------------------------------------------


def _crossing_words():
    """The words whose slices every report depends on."""
    for k in range(1, 6):
        for slope in range(1, 10):
            yield "rotation", k, slope, repr(rotation_slices(slope, 2 * k))
            for j in range(1, max(slope - 1, 1) + 1):
                yield "basis", k, j, slope, repr(basis_tangle(k, j, slope).slices)
        yield "power", k, repr(power_tangle(k, 0).slices)
        yield "null", k, repr(null_tangle(k, 0).slices)


def _framing_classes():
    for slope in range(1, 13):
        yield "framing", slope, str(expand_framing_curve(slope))
        for j in range(3 * slope):
            yield "closed", j, slope, str(closed_basis_element(j, slope))


def _loop_words():
    """Words holding core loops, by their resolved elements: the direction a
    loop's turn passes the seam is free, its class is not."""
    for n in range(5):
        yield "loops", n, resolve(AnnularTangle(0, loop_slices(n))).to_json()
    for k in range(1, 5):
        for m in range(1, 4):
            yield "power", k, m, resolve(power_tangle(k, m)).to_json()
            yield "null", k, m, resolve(null_tangle(k, m)).to_json()
    for slope in range(1, 10):
        yield "framing", slope, resolve(framing_curve_tangle(slope)).to_json()


@pytest.mark.parametrize("family, digest", [
    (_crossing_words, "8698a5ecf4f5f98dc24c4823b1a8f6d4f609e7ec16babd8877b63ea0dbbe1b23"),
    (_framing_classes, "29b88473ba344a37595485aaa9117e67274b4cc380c84b5601fbe7259e1a26d5"),
    (_loop_words, "78573913e4ec5ea62f226a4e035d9023e9c4f5390699998097a73e8ac6b726e5"),
], ids=["crossing-words", "framing-classes", "loop-words"])
def test_words_match_recorded_digest(family, digest):
    # the distinguished words, slice for slice, and the classes built from
    # them, byte for byte; the digests were taken from the builders that
    # drew turns by hand in three places
    blob = json.dumps(list(family()), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# -- quotient coordinates -----------------------------------------------------


def test_power_tangle_coordinates():
    for slope, k in GRID:
        for m in range(slope - 1):
            coords = quotient_coordinates(
                resolve(power_tangle(k, m), drop_trivial_arcs=True), slope, k)
            assert coords == w_power(m)


def test_trivial_arc_elements_vanish():
    for k in (1, 2, 3):
        coords = quotient_coordinates(resolve(null_tangle(k, 2), drop_trivial_arcs=True), 3, k)
        assert not coords.coeffs


def test_reduction_of_top_power():
    # slope 2: every positive loop power rewrites to zero
    coords = quotient_coordinates(resolve(power_tangle(1, 1), drop_trivial_arcs=True), 2, 1)
    assert not coords.coeffs
    # slope 3: the first reducible power rewrites to a unit multiple of w^0
    coords = quotient_coordinates(resolve(power_tangle(1, 2), drop_trivial_arcs=True), 3, 1)
    assert coords[0].unit_parts() is not None or coords[0] == ZERO
    rel = _rotated_null_relation(3, 1, 0)
    want = UniPoly("w", [rel[0] * rel[2].unit_inverse() * Laurent({0: -1})])
    assert coords == want


def _rotated_null_relation(slope, k, n):
    """Coefficients (by loop power) of rotate(null_tangle(k, n)), resolved as
    one word, collar then tangle: the reference for the relation."""
    norm = A(rotation_norm_exponent(slope, 2 * k))
    el = scale(resolve(rotate(null_tangle(k, n), slope), drop_trivial_arcs=True), norm)
    return list(winding_part(el, k).coeffs)


def test_relation_degrees_and_units():
    # each rotated null tangle has degree n + slope - 1, a unit leading
    # coefficient, and is w^n times the one relation
    for slope in (2, 3, 5):
        for k in (1, 2, 3):
            rel = reduction_relation(slope, k)
            for n in range(4):
                want = _rotated_null_relation(slope, k, n)
                assert len(want) - 1 == n + slope - 1
                assert want[-1].unit_parts() is not None
                assert want == [ZERO] * n + list(rel.coeffs), (slope, k, n)


def test_relation_closed_form():
    # the relation is -A^(2k) S_(slope-1)(w)
    cheb = list(islice(chebyshev_terms(UniPoly.variable("w"), 1), 8))
    for slope in range(2, 9):
        for k in (1, 2, 3):
            want = cheb[slope - 1] * -A(2 * k)
            assert reduction_relation(slope, k) == want, (slope, k)


def test_quotient_requires_slope_two():
    with pytest.raises(ValueError):
        quotient_coordinates(resolve(power_tangle(1, 0)), 1, 1)


# -- rotation operator --------------------------------------------------------


def test_rotation_order():
    # the rotation is multiplication by f, so it has order dividing 2k
    # exactly when f^(2k) = 1 in the quotient (the power taken in full here,
    # then reduced once)
    for slope, k in GRID:
        f = rotation_matrix(slope, k)
        assert f ** (2 * k) % reduction_relation(slope, k) == W_ONE, (slope, k)


@pytest.mark.parametrize("n", range(8))
def test_matrix_power_squares_only_while_bits_remain(monkeypatch, n):
    # the n-th power of the rotation's multiplier f, then reduced once:
    # square-and-multiply takes bit_length - 1 squarings and popcount - 1
    # products, none by 1; n = 6 takes both branches
    f, rel = rotation_matrix(5, 2), reduction_relation(5, 2)
    want = W_ONE
    for _ in range(n):
        want = want * f % rel
    calls = []
    product = UniPoly.__mul__

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(UniPoly, "__mul__", counted)
    assert f ** n % rel == want
    assert len(calls) == max(n.bit_length() - 1, 0) + max(n.bit_count() - 1, 0), n


@pytest.fixture
def fresh_rotation_tables():
    """Empty the quotient's caches before and after a test, so that tables
    built from a patched rotation never outlive it."""
    clear_sprime_caches()
    yield
    clear_sprime_caches()


def test_wrong_rotation_fails_the_checks_on_cached_tables(monkeypatch, fresh_rotation_tables):
    # the caches hold tables, never verdicts: behind emptied caches, A times
    # the rotation's multiplier has (A f)^2 = A^2 and moves every
    # exponent by one, so both checks that read the cached tables fail
    rotation = sprime.rotation_matrix

    def scaled(slope, k):
        return times_A(rotation(slope, k), 1)

    monkeypatch.setattr(sprime, "rotation_matrix", scaled)
    report = verify_theorem(TorusKnotConfig(2, 3), max_k=2)
    failed = {c["name"]: c["witness"] for c in report.failed}
    for slope in (2, 3):
        assert failed[f"rotation-order-slope{slope}"] == {"slope": slope, "k": 1}
        assert failed[f"normalized-rotation-slope{slope}"]["j"] == 1


def test_rotation_off_by_a_constant_has_no_exponents(monkeypatch, fresh_rotation_tables):
    # f + A^5 sends no e_j to a unit times e_(slope-j): the leading
    # coefficients give a unit, the full images disagree, and both checks
    # that read the exponents report the error
    rotation = sprime.rotation_matrix

    def shifted(slope, k):
        return rotation(slope, k) + UniPoly.constant("w", A(5))

    monkeypatch.setattr(sprime, "rotation_matrix", shifted)
    report = verify_theorem(TorusKnotConfig(3, 5), max_k=1)
    witness = {c["name"]: c["witness"] for c in report.checks}
    error = {"error": "ValueError: elements are not proportional by one unit"}
    for slope in (3, 5):
        assert witness[f"rotation-exponents-slope{slope}"] == error
        assert witness[f"normalized-rotation-slope{slope}"] == error


def test_rotation_is_linear_on_elements():
    # rotating a resolved element termwise agrees with rotating the tangle
    slope, k = 3, 2
    tangle = AnnularTangle(4, (crossing(0, 1), crossing(3, -1), cap(3), cap(1)))
    whole = quotient_coordinates(rotated_element(tangle, slope), slope, k)
    parts = UniPoly("w")
    for mc, c in resolve(tangle).items():
        from torusskein.skein import multicurve_tangle
        piece = quotient_coordinates(rotated_element(multicurve_tangle(mc), slope), slope, k)
        parts = parts + piece * c
    assert parts == whole


def test_rotation_matrix_columns_are_rotated_powers():
    # the fact the ring rests on: w^m f, the rotated w^0 times w^m, reduced,
    # equals the rotation of w^m resolved on its own, for every basis power
    for slope, k in GRID:
        f, rel = rotation_matrix(slope, k), reduction_relation(slope, k)
        for m in range(slope - 1):
            want = quotient_coordinates(rotated_element(power_tangle(k, m), slope), slope, k)
            assert w_power(m) * f % rel == want, (slope, k, m)


def test_rotation_matrix_matches_direct_rotation():
    for slope, k in ((2, 1), (3, 1), (3, 2), (5, 1)):
        f, rel = rotation_matrix(slope, k), reduction_relation(slope, k)
        for j in range(1, slope):
            direct = quotient_coordinates(
                rotated_element(basis_tangle(k, j, slope), slope), slope, k)
            assert direct == f * basis_coordinates(slope, k)[j - 1] % rel, (slope, k, j)


def _rotated_tangles(slope, k):
    """The power, null and basis tangles that the tests rotate.  The quotient
    tables rotate only w^0, the null tangle without core loops and the basis
    tangles; the rest are their references."""
    yield from (power_tangle(k, m) for m in range(slope - 1))
    yield from (null_tangle(k, n) for n in range(slope - 1))
    yield from (basis_tangle(k, j, slope) for j in range(1, slope))


def test_rotated_element_matches_full_word():
    # continuing from the cached collar states equals resolving the whole
    # rotated word, up to the trivial-arc terms the quotient kills.  The
    # oracle resolves rotate(t, slope) from scratch, apart from collar_states;
    # test_dropping_trivial_arcs_filters_the_full_sum pins the pruning.
    for slope in range(2, 7):
        for k in (1, 2, 3):
            norm = Laurent.A(rotation_norm_exponent(slope, 2 * k))
            for t in _rotated_tangles(slope, k):
                want = scale(resolve(rotate(t, slope), drop_trivial_arcs=True), norm)
                assert rotated_element(t, slope) == want, (slope, k, t)


def test_collar_keeps_only_states_without_trivial_arcs():
    # the full collar sums hold 10,945, 1,052 and 1,596 states
    sizes = {(slope, w): len(sprime.collar_states(slope, w))
             for slope, w in ((3, 10), (5, 6), (3, 8))}
    assert sizes == {(3, 10): 55, (5, 6): 76, (3, 8): 36}
    full = resolve_states(AnnularTangle(6, sprime.rotation_slices(5, 6)), None)
    assert len(full) == 1052
    want = {s: c for s, c in full.items() if not any(w == 0 for _, _, w in s[1])}
    assert dict(sprime.collar_states(5, 6)) == want


def test_collar_continues_shorter_collar():
    # each collar continues the one a turn shorter, filled from below even
    # when the slopes are asked for from the top down, and equals the pruned
    # sum over its whole word
    for width in (2, 4, 6):
        sprime.collar_states.cache_clear()
        for slope in range(8, 0, -1):
            whole = AnnularTangle(width, sprime.rotation_slices(slope, width))
            want = resolve_states(whole, drop_trivial_arcs=True)
            assert dict(sprime.collar_states(slope, width)) == want, (slope, width)


def test_cold_collar_memory(fresh_rotation_tables):
    # a state keeps its strand ends as one tuple of far positions and one of
    # windings: the cold slope-5 collar at width 14, with the shorter collars
    # it continues, holds 1.7-2.0 MB under tracemalloc, against 3.0-3.3 MB
    # with one (far, w) pair per end
    tracemalloc.start()
    try:
        states = sprime.collar_states(5, 14)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(states) == 1574 and held < 2.5e6, held


def _peak_live_states(word):
    """The most live states after any slice of the word's pruned state sum."""
    peak, states, width = 0, None, word.endpoints
    for ev in word.slices:
        step = AnnularTangle(width, (ev,))
        states = resolve_states(step, 10 ** 6, states, drop_trivial_arcs=True)
        peak = max(peak, len(states))
        width = step.final_width
    return peak


def test_rotation_guard_matches_full_word(state_budget):
    # the guard refuses exactly the rotations whose pruned sum over the full
    # word, collar then tangle, peaks over the budget, and names the case
    limit = 30
    cases = [(slope, k, t) for slope, k in GRID + [(9, 2)] for t in _rotated_tangles(slope, k)]
    peaks = [_peak_live_states(rotate(t, slope)) for slope, k, t in cases]
    assert min(peaks) <= limit < max(peaks)
    state_budget(limit)
    for (slope, k, t), peak in zip(cases, peaks):
        try:
            rotated_element(t, slope)
        except BudgetError as exc:
            assert peak > limit, (slope, k, t)
            assert exc.figures["strands"] == 2 * k
            assert limit < exc.figures["states"] <= peak
        else:
            assert peak <= limit, (slope, k, t)


def test_rotated_element_repeats():
    # the cached collar states are not changed by the sums that start from them
    for slope, k in ((3, 2), (5, 2)):
        for t in (power_tangle(k, 0), null_tangle(k, 1), basis_tangle(k, 2, slope)):
            first = rotated_element(t, slope)
            assert rotated_element(t, slope) == first
            sprime.collar_states.cache_clear()
            assert rotated_element(t, slope) == first


def test_rotation_preserves_killed_submodule():
    for slope, k in ((2, 1), (3, 2)):
        for n in (0, 1):
            el = rotated_element(null_tangle(k, n), slope)
            # after reduction the image is identically zero in the quotient
            assert not quotient_coordinates(el, slope, k).coeffs


# -- distinguished basis ------------------------------------------------------


def test_first_basis_tangle_is_rainbow():
    for slope, k in GRID:
        el = resolve(basis_tangle(k, 1, slope))
        (mc, coeff), = el.terms.items()
        assert coeff == ONE
        assert mc.arcs == tuple((i, 2 * k - 1 - i, -1) for i in range(k))
        assert mc.loops == 0


def test_basis_coordinates_match_basis_tangles():
    # the basis read off the relations equals the quotient coordinates of
    # each basis tangle's own full (unpruned) state sum, and the closed form
    # e(k, j) = A^(1-j) S_(j-1)(w)
    cheb = list(islice(chebyshev_terms(UniPoly.variable("w"), 1), 6))
    for slope in range(2, 8):
        for k in (1, 2, 3):
            if (slope, k) == (7, 3):
                continue
            coords = basis_coordinates(slope, k)
            for j in range(1, slope):
                want = quotient_coordinates(resolve(basis_tangle(k, j, slope)), slope, k)
                assert coords[j - 1] == want, (slope, k, j)
                closed = cheb[j - 1] * A(1 - j)
                assert coords[j - 1] == closed, (slope, k, j)


def test_basis_triangular_with_unit_diagonal():
    for slope, k in GRID:
        coords = basis_coordinates(slope, k)
        for j in range(1, slope):
            vec = coords[j - 1]
            assert vec[j - 1].unit_parts() is not None, (slope, k, j)
            assert all(vec[m] == ZERO for m in range(j, slope - 1)), (slope, k, j)


def test_rotation_exponent_antisymmetry():
    for slope, k in GRID:
        expo = rotation_exponents(slope, k)
        for j in range(1, slope):
            assert expo[j - 1] == -expo[slope - j - 1], (slope, k)


def test_rotation_exponents_closed_form():
    # u_j = slope - 2j, and the rotation's multiplier squares to 1 (Cassini's
    # identity), on every slope the rotation table covers
    for slope in range(2, 9):
        for k in (1, 2, 3):
            want = tuple(slope - 2 * j for j in range(1, slope))
            assert rotation_exponents(slope, k) == want, (slope, k)
            assert rotation_square(slope, k) == W_ONE, (slope, k)


def test_normalized_basis_swaps_exactly():
    # the rotation swaps the rescaled basis as polynomials modulo the relation
    for slope, k in GRID:
        f, rel = rotation_matrix(slope, k), reduction_relation(slope, k)
        norm = normalized_basis(slope, k)
        for j in range(1, slope):
            assert f * norm[j - 1] % rel == norm[slope - j - 1], (slope, k, j)


def test_basis_index_range_guard():
    with pytest.raises(ValueError):
        basis_tangle(1, 3, 3)
    with pytest.raises(ValueError):
        basis_tangle(0, 1, 3)


def test_rotation_collar_crossing_count():
    # the collar stays inside the exact state-sum budget on the whole grid,
    # whatever its crossing count
    for slope, k in GRID + [(9, 2), (12, 1)]:
        collar = AnnularTangle(2 * k, sprime.rotation_slices(slope, 2 * k))
        assert _peak_live_states(collar) <= skein.STATE_BUDGET, (slope, k, collar.crossings)


def test_verify_fills_one_cache_entry_per_slope_and_k():
    # every caller reaches a cached builder with the same key, so no
    # (slope, k) table is computed twice
    per_slope = (sprime.rotation_matrix, sprime.basis_coordinates, sprime.rotation_exponents,
                 sprime.rotation_square)
    caches = per_slope + (sprime.reduction_relation, sprime.collar_states)
    clear_sprime_caches()
    verify_theorem(TorusKnotConfig(2, 3), max_k=2)
    for fn in per_slope:
        assert fn.cache_info().currsize == 4, fn.__name__  # {2, 3} x {1, 2}
    # the basis reads the relation at every slope below its own, and each
    # collar continues the one a turn shorter: {1, 2, 3} x {1, 2} relations
    # and {1, 2, 3} x {2, 4} collars
    assert sprime.reduction_relation.cache_info().currsize == 6
    assert sprime.collar_states.cache_info().currsize == 6
    for fn in caches:
        assert fn.cache_info().misses == fn.cache_info().currsize, fn.__name__
    # these are all of the module's caches
    cached = {fn for fn in vars(sprime).values()
              if hasattr(fn, "cache_info") and fn.__module__ == sprime.__name__}
    assert cached == set(caches)


def test_verify_of_a_pair_with_seen_slopes_adds_no_miss():
    # (3, 5) shares slope 3 with (2, 3) and slope 5 with (2, 5): every
    # (slope, k) table it reads is already cached
    tables = (sprime.rotation_matrix, sprime.basis_coordinates, sprime.rotation_exponents,
              sprime.rotation_square, sprime.reduction_relation, sprime.collar_states)
    clear_sprime_caches()
    for p, q in ((2, 3), (2, 5)):
        verify_theorem(TorusKnotConfig(p, q), max_k=1)
    misses = [fn.cache_info().misses for fn in tables]
    # slopes {2, 3, 5} at k = 1; the relations and collars at slopes 1..5
    assert misses == [3, 3, 3, 3, 5, 5]
    assert verify_theorem(TorusKnotConfig(3, 5), max_k=1).all_passed
    assert [fn.cache_info().misses for fn in tables] == misses
