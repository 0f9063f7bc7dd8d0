"""Exact ring arithmetic and Chebyshev-style trace polynomials."""

import inspect
import sys
from fractions import Fraction
from itertools import islice

import hypothesis.strategies as st
import pytest
from hypothesis import given

from torusskein.algebra import (
    DELTA,
    Laurent,
    TracePoly,
    UniPoly,
    chebyshev,
    chebyshev_terms,
)
from torusskein.sprime import reduction_relation

A = Laurent.A


def laurents(max_terms=4, max_exp=5, max_coeff=9):
    return st.dictionaries(
        st.integers(-max_exp, max_exp),
        st.integers(-max_coeff, max_coeff),
        max_size=max_terms,
    ).map(Laurent)


def trace_polys(max_exp=3, max_terms=4):
    keys = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp),
                     st.integers(0, max_exp))
    return st.dictionaries(keys, st.integers(-9, 9), max_size=max_terms).map(
        TracePoly)


# -- Laurent ----------------------------------------------------------------


def test_difference_of_squares():
    assert (A(1) + A(-1)) * (A(1) - A(-1)) == A(2) - A(-2)


def test_loop_value_square():
    assert DELTA * DELTA == Laurent({4: 1, 0: 2, -4: 1})


@given(laurents())
def test_additive_identity(f):
    assert f + Laurent.zero() == f


@given(laurents(), laurents())
def test_commutativity(f, g):
    assert f + g == g + f
    assert f * g == g * f


@given(laurents(), laurents(), laurents())
def test_associativity_and_distributivity(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_unit_parts_and_inverse():
    u = Laurent({3: -1})
    assert u.unit_parts() == (-1, 3)
    assert u * u.unit_inverse() == Laurent.one()
    assert (A(2) + A(0)).unit_parts() is None
    assert Laurent({5: 2}).unit_parts() is None


def test_laurent_rendering():
    assert str(DELTA) == "-A^2 - A^-2"
    assert str(DELTA * DELTA) == "A^4 + 2 + A^-4"
    assert str(Laurent.zero()) == "0"
    assert str(Laurent({1: 1})) == "A"


# -- Chebyshev polynomials ---------------------------------------------------


def test_chebyshev_base_cases():
    assert chebyshev(0) == UniPoly("s", (2,))
    assert chebyshev(1) == UniPoly("s", (0, 1))
    assert chebyshev(2) == UniPoly("s", (-2, 0, 1))


def test_chebyshev_defining_identity():
    # independent oracle: substitute s = t + 1/t and compare with t^n + t^-n
    t_plus_tinv = Laurent({1: 1, -1: 1})
    for n in range(0, 21):
        want = Laurent({n: 1}) + Laurent({-n: 1})
        assert chebyshev(n).evaluate(t_plus_tinv) == want


def test_chebyshev_degree_five():
    # T_5 = s^5 - 5 s^3 + 5 s, from the defining identity above
    assert chebyshev(5) == UniPoly("s", (0, 5, 0, -5, 0, 1))
    assert str(chebyshev(5)) == "s^5 - 5*s^3 + 5*s"


def test_chebyshev_high_degree():
    # the recursion is a loop: a degree past the interpreter's recursion
    # limit nests a bounded number of frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        t = chebyshev(600)
    finally:
        sys.setrecursionlimit(limit)
    assert t.degree == 600 and t.coeffs[-1] == 1
    assert t.evaluate(2) == 2 and t.evaluate(-2) == 2


def test_chebyshev_product_rule():
    for m in range(0, 21):
        for n in range(0, 21):
            assert chebyshev(m) * chebyshev(n) == chebyshev(m + n) + chebyshev(abs(m - n))


def test_chebyshev_at_plus_minus_two():
    for n in range(0, 21):
        assert chebyshev(n).evaluate(2) == 2
        assert chebyshev(n).evaluate(-2) == 2 * (-1) ** n


def test_chebyshev_terms_over_s():
    # both kinds over s, in one pass each: T_n is chebyshev(n), S_n has
    # S_n(t + 1/t) = t^n + t^(n-2) + ... + t^-n, and T_n = S_n - S_(n-2)
    s = UniPoly.variable("s")
    t_plus_tinv = Laurent({1: 1, -1: 1})
    first = list(islice(chebyshev_terms(s), 21))
    second = list(islice(chebyshev_terms(s, 1), 21))
    for n in range(21):
        assert first[n] == chebyshev(n)
        assert second[n].evaluate(t_plus_tinv) == Laurent({e: 1 for e in range(-n, n + 1, 2)})
        if n >= 2:
            assert first[n] == second[n] - second[n - 2]


def test_variable_tag_mismatch_is_error():
    try:
        chebyshev(2) + UniPoly("y", (-2, 0, 1))
    except ValueError:
        pass
    else:
        raise AssertionError("expected a variable mismatch error")


# -- UniPoly over Laurent, modulo a relation ----------------------------------


def w_polys(max_degree=6):
    return st.lists(laurents(), max_size=max_degree + 1).map(lambda cs: UniPoly("w", cs))


# the quotients S'(T, 2k) the verifier reduces in
relations = st.builds(reduction_relation, st.integers(2, 7), st.integers(1, 3))


@given(w_polys(), w_polys(), relations)
def test_remainder_respects_products(a, b, r):
    assert (a * b) % r == ((a % r) * (b % r)) % r


@given(w_polys(10), relations)
def test_remainder_degree_below_divisor(a, r):
    assert (a % r).degree < r.degree


@given(w_polys(3), st.integers(0, 6), relations)
def test_modular_power_matches_full_power(f, n, r):
    assert pow(f, n, r) == (f ** n) % r


@given(w_polys(), laurents(max_terms=3).filter(lambda c: c and c.unit_parts() is None))
def test_remainder_needs_a_unit_leading_coefficient(a, lead):
    with pytest.raises(ValueError, match="not a unit"):
        a % UniPoly("w", [Laurent.one(), lead])


# -- TracePoly ---------------------------------------------------------------


def test_trace_poly_rendering_graded_lex():
    f = TracePoly.x() * TracePoly.z() - TracePoly.y()
    assert str(f) == "x*z - y"
    g = TracePoly({(0, 0, 0): 2, (1, 1, 0): 1, (3, 0, 0): -1})
    assert str(g) == "-x^3 + x*y + 2"


@given(trace_polys(), trace_polys())
def test_trace_poly_ring_laws(f, g):
    assert f + g == g + f
    assert f * g == g * f
    assert f + TracePoly() == f


def test_trace_poly_evaluate_matches_terms():
    f = TracePoly.x() ** 2 * TracePoly.z() - 3 * TracePoly.y()
    assert f.evaluate(2, 1, 5) == 2 ** 2 * 5 - 3


def test_trace_poly_coefficients_are_integers():
    # an int coefficient is stored as given; any other scalar, integral or
    # not, is refused, never truncated
    assert type(TracePoly.constant(3).terms[(0, 0, 0)]) is int
    for c in (Fraction(1, 2), Fraction(7, 3), Fraction(3), 0.5, 3.0):
        with pytest.raises(TypeError):
            TracePoly({(1, 0, 0): c})
        with pytest.raises(TypeError):
            TracePoly.constant(c)


def test_trace_poly_compares_with_non_integral_fraction():
    # a non-int scalar is no TracePoly: equality answers False and
    # arithmetic raises TypeError, never a truncation
    for half in (Fraction(1, 2), 0.5):
        name = type(half).__name__
        assert not TracePoly.x() == half
        assert TracePoly.x() != half
        for op in (lambda: TracePoly.x() + half, lambda: half * TracePoly.x(),
                   lambda: TracePoly.x() - half, lambda: half - TracePoly.x()):
            with pytest.raises(TypeError, match=f"{name}' and 'TracePoly'|TracePoly' and '{name}"):
                op()


# -- the shared sparse core ---------------------------------------------------


def assert_clean(f):
    # ring results skip the validating constructor: every stored coefficient
    # is a nonzero int, and rebuilding through the constructor changes nothing
    assert all(type(c) is int and c for c in f.terms.values())
    assert f.terms == type(f)(f.terms).terms


@given(laurents(), laurents(), st.integers(0, 3), st.integers(-6, 6))
def test_laurent_results_are_clean(f, g, n, e):
    for r in (f + g, f - g, -f, f * g, f ** n, f.shift(e), f - f, 2 + f, 1 - f, 0 * f):
        assert_clean(r)


@given(trace_polys(), trace_polys(), st.integers(0, 3))
def test_trace_poly_results_are_clean(f, g, n):
    for r in (f + g, f - g, -f, f * g, f ** n, f - f, 2 + f, 1 - f, 0 * f):
        assert_clean(r)


def test_values_are_immutable():
    for value in (Laurent.one(), TracePoly.x()):
        name = type(value).__name__
        with pytest.raises(AttributeError, match=name):
            value.terms = {}
        with pytest.raises(AttributeError, match=name):
            value.extra = 1


def int_form(f, flag, constant):
    # the int that f equals when f is a constant (or zero) and the flag is set
    if flag and set(f.terms) <= {constant}:
        return f.terms.get(constant, 0)
    return f


def assert_one_value(a, b):
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_constants_hash_as_their_ints():
    assert_one_value(Laurent.one(), 1)
    assert_one_value(Laurent.zero(), 0)
    assert_one_value(TracePoly.constant(3), 3)
    assert_one_value(UniPoly("w", [0, Laurent.one()]),
                     UniPoly("w", [Laurent.zero(), Laurent.one()]))


@given(st.lists(st.tuples(laurents(max_exp=1), st.booleans()), max_size=4),
       trace_polys(max_exp=1), st.booleans())
def test_equal_values_hash_equal(coeffs, t, flag):
    # few exponents, so that constant and zero coefficients come up often
    for f, g in coeffs:
        assert_one_value(f, int_form(f, g, 0))
    assert_one_value(UniPoly("w", [f for f, _ in coeffs]),
                     UniPoly("w", [int_form(f, g, 0) for f, g in coeffs]))
    assert_one_value(t, int_form(t, flag, (0, 0, 0)))
