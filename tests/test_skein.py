"""State-sum engine: Kauffman relations, normal forms, the state budget."""

import hashlib
import json
import random

import hypothesis.strategies as st
import pytest
from conftest import reference_resolve_states
from hypothesis import given

from torusskein import skein, sprime
from torusskein.algebra import DELTA, Laurent
from torusskein.skein import (
    AnnularTangle,
    BudgetError,
    MalformedTangle,
    Multicurve,
    PlanarityError,
    SkeinElement,
    cap,
    crossing,
    cup,
    kink_slices,
    loop_slices,
    multicurve_tangle,
    resolve,
    resolve_states,
    rot,
)

A = Laurent.A


def word_from_codes(width, codes):
    """Interpret a code stream as a well-formed slice word (fuzzing helper)."""
    slices = []
    w = width
    for code in codes:
        kind = code % 4
        if kind == 0 and w >= 2:
            slices.append(crossing((code // 8) % w, 1 if code % 8 < 4 else -1))
        elif kind == 1:
            slices.append(cup((code // 4) % (w + 1)))
            w += 2
        elif kind == 2 and w >= 2:
            slices.append(cap((code // 4) % w))
            w -= 2
        elif kind == 3 and w >= 1:
            slices.append(rot(1 if code % 8 < 4 else -1))
    return AnnularTangle(width, tuple(slices))


random_words = st.builds(
    word_from_codes,
    st.sampled_from([0, 2, 4, 6]),
    st.lists(st.integers(0, 255), max_size=8),
)

# longer words on odd strand counts too, whose states pack one digit per A^2
long_words = st.builds(
    word_from_codes,
    st.integers(0, 7),
    st.lists(st.integers(0, 255), max_size=16),
)


# -- Kauffman relation basics -------------------------------------------------


def test_contractible_loop_value():
    el = resolve(AnnularTangle(0, (cup(0), cap(0))))
    assert el == SkeinElement(0, {Multicurve((), 0): DELTA})


def test_core_loop_and_powers():
    for n in range(4):
        el = resolve(AnnularTangle(0, loop_slices(n)))
        assert el == SkeinElement(0, {Multicurve((), n): Laurent.one()})


def test_kink_factors_exact():
    (plain, one), = resolve_states(AnnularTangle(1, ())).items()
    assert one == Laurent.one()
    for sign in (1, -1):
        states = resolve_states(AnnularTangle(1, kink_slices(0, sign)))
        (state, coeff), = states.items()
        assert state == plain
        assert coeff == Laurent({3 * sign: -1})


def pinned_words(count=200, seed=14):
    """Closed words on running widths 0-6: every slice kind, both signs, seam crossings."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        width = rng.choice((0, 2, 4, 6))
        w, slices = width, []
        for _ in range(rng.randint(2, 20)):
            kind = rng.choice(("x", "x", "cup", "cap", "rot"))
            if kind == "x" and w >= 2:
                pos = w - 1 if rng.random() < 0.35 else rng.randrange(w)
                slices.append(crossing(pos, rng.choice((1, -1))))
            elif kind == "cup" and w <= 4:
                slices.append(cup(rng.randrange(w + 1)))
                w += 2
            elif kind == "cap" and w >= 2:
                slices.append(cap(rng.randrange(w)))
                w -= 2
            elif kind == "rot" and w >= 1:
                slices.append(rot(rng.choice((1, -1))))
        while w:
            slices.append(cap(rng.randrange(w)))
            w -= 2
        words.append(AnnularTangle(width, tuple(slices)))
    return words


def test_resolved_words_match_recorded_digest():
    # the engine's results on a fixed list of words, byte for byte; the
    # digest was taken from the state machine with tagged strand ends
    words = pinned_words()
    seen = set()
    for t in words:
        w = t.endpoints
        for ev in t.slices:
            seam = ev[0] in ("x", "cap") and ev[1] == w - 1
            seen.add((ev[0], seam, ev[2] if ev[0] == "x" else ev[1] if ev[0] == "rot" else 0))
            w = AnnularTangle(w, (ev,)).final_width
    assert seen >= {("x", seam, sign) for seam in (False, True) for sign in (1, -1)}
    assert seen >= {("cap", False, 0), ("cap", True, 0), ("rot", False, 1), ("rot", False, -1)}
    assert any(ev[0] == "cup" for t in words for ev in t.slices)
    blob = json.dumps([resolve(t).to_json() for t in words], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "7f13d4fde103ef87a804f3392963cef5d8c7a7b2e39cb3c829013407790f8054")


def test_closed_kink_factors():
    # closing a curl against a cap realizes the opposite chirality
    for sign in (1, -1):
        el = resolve(AnnularTangle(2, (crossing(0, sign), cap(0))))
        assert el == SkeinElement(2, {Multicurve(((0, 1, 0),), 0): Laurent({-3 * sign: -1})})


def test_reidemeister_two_local():
    for width in (2, 3, 4, 5, 6):
        plain = resolve_states(AnnularTangle(width, ()))
        for i in range(width):
            for sign in (1, -1):
                word = AnnularTangle(width, (crossing(i, sign), crossing(i, -sign)))
                assert resolve_states(word) == plain, (width, i, sign)


def test_reidemeister_three_local():
    for width in (3, 4, 5, 6):
        for i in range(width):
            j = (i + 1) % width
            for sign in (1, -1):
                a = resolve_states(AnnularTangle(
                    width, (crossing(i, sign), crossing(j, sign), crossing(i, sign))))
                b = resolve_states(AnnularTangle(
                    width, (crossing(j, sign), crossing(i, sign), crossing(j, sign))))
                assert a == b, (width, i, sign)


def test_reidemeister_one_local():
    for width in (1, 2, 3):
        plain = resolve_states(AnnularTangle(width, ()))
        for pos in range(width):
            for sign in (1, -1):
                word = AnnularTangle(width, kink_slices(pos, sign))
                got = resolve_states(word)
                want = {s: c * Laurent({3 * sign: -1}) for s, c in plain.items()}
                assert got == want


@given(random_words, st.integers(0, 7), st.sampled_from([1, -1]))
def test_reidemeister_two_inserted_anywhere(tangle, cut, sign):
    # splice an opposite crossing pair into a random word at a random depth
    cut = min(cut, len(tangle.slices))
    w = AnnularTangle(tangle.endpoints, tangle.slices[:cut]).final_width
    if w < 2:
        return
    pos = cut % w
    spliced = (tangle.slices[:cut]
               + (crossing(pos, sign), crossing(pos, -sign))
               + tangle.slices[cut:])
    assert resolve_states(AnnularTangle(tangle.endpoints, spliced)) == resolve_states(tangle)


@given(random_words, st.integers(0, 8))
def test_resolve_from_start_matches_whole_word(tangle, cut):
    # continuing a prefix's states through the suffix equals the whole sum,
    # and the prefix's dict is neither changed nor handed back
    cut = min(cut, len(tangle.slices))
    head = AnnularTangle(tangle.endpoints, tangle.slices[:cut])
    tail = AnnularTangle(head.final_width, tangle.slices[cut:])
    start = resolve_states(head)
    saved = dict(start)
    got = resolve_states(tail, start=start)
    assert got == resolve_states(tangle)
    assert start == saved and got is not start


def _without_trivial_arcs(states):
    return {s: c for s, c in states.items() if not any(w == 0 for _, _, w in s[1])}


@given(random_words, st.integers(0, 8))
def test_dropping_trivial_arcs_filters_the_full_sum(tangle, cut):
    # an arc is never removed once made, so dropping a state at its first
    # winding-0 arc changes no other state's coefficient; the same holds for
    # a tail continued from a pruned prefix
    want = _without_trivial_arcs(resolve_states(tangle))
    assert resolve_states(tangle, drop_trivial_arcs=True) == want
    cut = min(cut, len(tangle.slices))
    head = AnnularTangle(tangle.endpoints, tangle.slices[:cut])
    tail = AnnularTangle(head.final_width, tangle.slices[cut:])
    start = resolve_states(head, drop_trivial_arcs=True)
    assert resolve_states(tail, start=start, drop_trivial_arcs=True) == want


@given(long_words, st.integers(0, 16), st.booleans())
def test_packed_sum_equals_laurent_reference(tangle, cut, drop):
    # the packed sum, whole, continued from its own packed head, and continued
    # from a head of Laurent values, equals the Laurent sum term for term
    want = reference_resolve_states(tangle, drop_trivial_arcs=drop)
    assert dict(resolve_states(tangle, drop_trivial_arcs=drop)) == want
    cut = min(cut, len(tangle.slices))
    head = AnnularTangle(tangle.endpoints, tangle.slices[:cut])
    tail = AnnularTangle(head.final_width, tangle.slices[cut:])
    for start in (resolve_states(head, drop_trivial_arcs=drop),
                  reference_resolve_states(head, drop_trivial_arcs=drop)):
        assert dict(resolve_states(tail, start=start, drop_trivial_arcs=drop)) == want


@pytest.mark.parametrize("bits, widened", [(8, False), (4, True)])
def test_small_digits_refresh_bounds_exactly(monkeypatch, bits, widened):
    # with 8-bit digits the bounds pass 2^6 and are replaced by the true sums
    # |c|, which stay below it; with 4-bit digits a true sum reaches 2^2 and
    # the sum restarts at 8 bits.  Either way the result is exact, and a
    # 128-bit continuation repacks the small-digit start
    refreshes = []
    digits = skein._digits

    def counted(n, b):
        refreshes.append(b)
        return digits(n, b)

    monkeypatch.setattr(skein, "_digits", counted)
    monkeypatch.setattr(skein, "_DIGIT_BITS", bits)
    word = AnnularTangle(6, sprime.rotation_slices(5, 6))
    got = resolve_states(word, drop_trivial_arcs=True)
    assert refreshes and (got._bits > bits) == widened
    want = reference_resolve_states(word, drop_trivial_arcs=True)
    assert dict(got) == want and max(abs(c) for v in want.values() for c in v.terms.values()) == 5
    tail = AnnularTangle(6, (cap(5), cap(3), cap(1)))
    monkeypatch.setattr(skein, "_DIGIT_BITS", 128)
    assert dict(resolve_states(tail, start=got)) == reference_resolve_states(tail, start=want)


def test_mixed_class_merge_raises():
    # cap(0) merges the plain pair with its turnback, whose closed loop brings
    # A^-2 and A^2: their coefficients must differ by A^(2 mod 4), as a
    # crossing's two smoothings do, or the packed sum is refused
    plain = skein._initial_state(2)
    turned, _ = skein._turnback(plain, 0)
    capped = AnnularTangle(2, (cap(0),))
    assert dict(resolve_states(capped, start={plain: A(1), turned: A(-1)})) == {
        (((), ()), ((0, 1, 0),), 0): Laurent({-3: -1})}
    with pytest.raises(PlanarityError, match="differ mod 4"):
        resolve_states(capped, start={plain: Laurent.one(), turned: Laurent.one()})
    with pytest.raises(PlanarityError, match="mixes exponent classes mod 4"):
        resolve_states(capped, start={plain: Laurent.one() + A(2)})


@given(random_words, st.integers(0, 7), st.sampled_from([1, -1]))
def test_crossing_elimination_identity(tangle, cut, sign):
    # a crossing equals A^s (parallel) + A^-s (turnback) in any context
    cut = min(cut, len(tangle.slices))
    head, tail = tangle.slices[:cut], tangle.slices[cut:]
    w = AnnularTangle(tangle.endpoints, head).final_width
    if w < 2:
        return
    pos = cut % w
    crossed = resolve_states(AnnularTangle(
        tangle.endpoints, head + (crossing(pos, sign),) + tail))
    parallel = resolve_states(tangle)
    if pos == w - 1:
        # a seam-straddling cup is a top cup followed by one rotation step
        turn_word = head + (cap(pos), cup(w - 2), rot(1)) + tail
    else:
        turn_word = head + (cap(pos), cup(pos)) + tail
    turnback = resolve_states(AnnularTangle(tangle.endpoints, turn_word))
    combined: dict = {}
    for states, scale in ((parallel, A(sign)), (turnback, A(-sign))):
        for s, c in states.items():
            v = combined.get(s, Laurent.zero()) + c * scale
            if v:
                combined[s] = v
            else:
                combined.pop(s, None)
    assert combined == crossed


def test_rot_round_trip_is_identity():
    for width in (1, 2, 3, 4):
        plain = resolve_states(AnnularTangle(width, ()))
        both = resolve_states(AnnularTangle(width, (rot(1), rot(-1))))
        assert both == plain


def test_full_rotation_of_closed_diagram():
    # 2k rot steps return any capped-off picture to itself
    word = (cap(3), cap(1))
    base = resolve(AnnularTangle(4, word))
    spun = resolve(AnnularTangle(4, (rot(1),) * 4 + word))
    assert spun == base


# -- normal forms -------------------------------------------------------------


def test_seam_and_trivial_arcs_are_distinct():
    trivial = resolve(AnnularTangle(2, (cap(0),)))
    seam = resolve(AnnularTangle(2, (cap(1),)))
    assert trivial == SkeinElement(2, {Multicurve(((0, 1, 0),), 0): Laurent.one()})
    assert seam == SkeinElement(2, {Multicurve(((0, 1, -1),), 0): Laurent.one()})
    assert trivial != seam


def test_rainbow_normal_form():
    el = resolve(AnnularTangle(6, (cap(5), cap(3), cap(1))))
    (mc, coeff), = el.terms.items()
    assert mc.arcs == ((0, 5, -1), (1, 4, -1), (2, 3, -1))
    assert coeff == Laurent.one()


@given(random_words)
def test_resolved_terms_round_trip_through_tangles(tangle):
    if not tangle.is_closed():
        return
    el = resolve(tangle)
    for mc, _ in el.items():
        back = resolve(multicurve_tangle(mc))
        assert back == SkeinElement(mc.endpoints, {mc: Laurent.one()})


def test_unrealizable_matching_rejected():
    crossing_matching = Multicurve(((0, 2, 0), (1, 3, 0)), 0)
    with pytest.raises(PlanarityError):
        multicurve_tangle(crossing_matching)
    winding_inside_trivial = Multicurve(((0, 3, 0), (1, 2, -1)), 0)
    with pytest.raises(PlanarityError):
        multicurve_tangle(winding_inside_trivial)


def test_mixed_trivial_and_winding_arcs():
    mc = Multicurve(((0, 5, -1), (1, 4, -1), (2, 3, 0)), 1)
    el = resolve(multicurve_tangle(mc))
    assert el == SkeinElement(6, {mc: Laurent.one()})


# -- guards and serialization -------------------------------------------------


def test_crossing_budget(monkeypatch):
    # the bound is on live states, not crossings: a 23-crossing curl chain
    # keeps one live state, so even a budget of one admits it
    curls = AnnularTangle(0, (cup(0),) + (crossing(0, 1),) * 23 + (cap(0),))
    assert resolve(curls, 1) == resolve(curls)
    # a slice at most doubles the live states, so a sum refused with at most
    # twice its budget stopped at the first slice over it, before it grew;
    # the refusal names the count, the bound and the width
    word = AnnularTangle(6, tuple(crossing(i % 6, 1) for i in range(10)))
    size = len(resolve_states(word))
    limit = size // 4
    with pytest.raises(BudgetError) as exc:
        resolve_states(word, limit)
    figures = exc.value.figures
    assert limit < figures["states"] <= 2 * limit < size
    assert figures == {"states": figures["states"], "budget": limit, "strands": 6}
    assert resolve_states(word, size) == resolve_states(word)
    # the module's bound is read at each call; an explicit budget lifts it
    monkeypatch.setattr(skein, "STATE_BUDGET", limit)
    with pytest.raises(BudgetError):
        resolve_states(word)
    assert resolve_states(word, size) == resolve_states(word, 10 ** 6)


def test_malformed_words_rejected():
    with pytest.raises(MalformedTangle):
        AnnularTangle(0, (cap(0),))
    with pytest.raises(MalformedTangle):
        AnnularTangle(2, (crossing(2, 1),))
    with pytest.raises(MalformedTangle):
        AnnularTangle(0, (rot(1),))
    # slice constructors check nothing: the tangle checks every slice
    with pytest.raises(MalformedTangle, match="crossing sign"):
        AnnularTangle(2, (crossing(0, 2),))
    with pytest.raises(MalformedTangle, match="rot sign"):
        AnnularTangle(1, (rot(0),))
    with pytest.raises(MalformedTangle):
        resolve(AnnularTangle(2, ()))  # open tangle


def test_tangle_json_round_trip():
    # the README's diagram example reads back as the tangle it draws
    blob = {"endpoints": 4, "slices": [
        {"op": "crossing", "pos": 3, "sign": 1}, {"op": "cup", "pos": 0},
        {"op": "cap", "pos": 1}, {"op": "rot", "sign": -1},
        {"op": "crossing", "pos": 1, "sign": -1}, {"op": "cap", "pos": 3},
        {"op": "cap", "pos": 0}], "meta": {}}
    tangle = AnnularTangle(4, (crossing(3, 1), cup(0), cap(1), rot(-1),
                               crossing(1, -1), cap(3), cap(0)))
    assert AnnularTangle.from_json(json.loads(json.dumps(blob))) == tangle


def test_skein_element_json():
    el = resolve(AnnularTangle(2, (crossing(0, 1), cap(0))))
    blob = el.to_json()
    assert blob == [{"matching": [[0, 1]], "windings": [0],
                     "core_loops": 0, "coeff": "-A^-3"}]
