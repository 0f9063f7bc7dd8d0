"""Component structure, restriction, degree filtration, meeting points."""

import dataclasses
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from conftest import abelian_meeting_points
from hypothesis import given

from torusskein.algebra import TracePoly, UniPoly
from torusskein.charvariety import (
    AdmissiblePair,
    Component,
    TorusKnotConfig,
    abelian_parametrization,
    admissible_pairs,
    components,
    degree,
    knot_trace,
    leading_coeff_vector,
    restrict_to_component,
)


def coprime_configs(limit):
    return [TorusKnotConfig(p, q)
            for p in range(2, limit + 1) for q in range(p + 1, limit + 1)
            if math.gcd(p, q) == 1]


def small_trace_polys():
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(keys, st.integers(-5, 5), min_size=1, max_size=3).map(
        TracePoly)


def test_config_validation():
    with pytest.raises(ValueError):
        TorusKnotConfig(2, 4)
    with pytest.raises(ValueError):
        TorusKnotConfig(3, 3)
    with pytest.raises(ValueError):
        TorusKnotConfig(1, 3)


def test_trefoil_pairs():
    assert admissible_pairs(TorusKnotConfig(2, 3)) == [AdmissiblePair(1, 1)]


def test_pair_counts():
    assert len(admissible_pairs(TorusKnotConfig(3, 4))) == 3
    for cfg in coprime_configs(12):
        assert len(admissible_pairs(cfg)) == (cfg.p - 1) * (cfg.q - 1) // 2


def test_components_listing_and_json():
    cfg = TorusKnotConfig(2, 3)
    comps = components(cfg)
    assert [c.kind for c in comps] == ["abelian", "irreducible"]
    blob = comps[1].to_json()
    assert set(blob) == {"kind", "k", "l", "x_c", "y_c"}
    assert abs(blob["x_c"] - 1.0) < 1e-12  # 2 cos(pi/3)
    assert abs(blob["y_c"]) < 1e-12        # 2 cos(pi/2)
    assert components(TorusKnotConfig(3, 4))[0].to_json()["kind"] == "abelian"


def test_component_kind_follows_pair():
    # the kind is read off the pair, never stored beside it
    cfg = TorusKnotConfig(2, 3)
    abelian, irreducible = Component(cfg), Component(cfg, AdmissiblePair(1, 1))
    assert (abelian.kind, irreducible.kind) == ("abelian", "irreducible")
    for comp in (abelian, irreducible):
        assert comp.to_json()["kind"] == comp.kind
    assert "kind" not in {f.name for f in dataclasses.fields(Component)}


def test_abelian_parametrization_trefoil():
    px, py, pz = abelian_parametrization(TorusKnotConfig(2, 3))
    assert px == UniPoly("s", (-2, 0, 1))
    assert py == UniPoly("s", (0, -3, 0, 1))
    assert pz == UniPoly("s", (0, 5, 0, -5, 0, 1))
    assert (px.evaluate(0), py.evaluate(0), pz.evaluate(0)) == (-2, 0, 0)


def test_abelian_parametrization_at_two():
    for cfg in (TorusKnotConfig(2, 3), TorusKnotConfig(3, 5), TorusKnotConfig(4, 9)):
        assert tuple(f.evaluate(2) for f in abelian_parametrization(cfg)) == (2, 2, 2)


def test_restriction_examples():
    cfg = TorusKnotConfig(2, 3)
    comp = components(cfg)[1]
    assert restrict_to_component(TracePoly.z(), comp) == UniPoly("z", (0.0, 1.0))
    rx = restrict_to_component(TracePoly.x(), comp)
    assert rx.degree == 0 and abs(rx[0] - 1.0) < 1e-12
    assert restrict_to_component(TracePoly.constant(1), comp) == UniPoly("z", (1.0,))


@given(small_trace_polys(), small_trace_polys())
def test_restriction_is_ring_morphism(f, g):
    cfg = TorusKnotConfig(3, 5)
    for comp in components(cfg):
        rf = restrict_to_component(f, comp, trim_tol=0.0)
        rg = restrict_to_component(g, comp, trim_tol=0.0)
        rfg = restrict_to_component(f * g, comp, trim_tol=0.0)
        prod = rf * rg
        n = max(rfg.degree, prod.degree) + 1
        for m in range(n):
            a, b = rfg[m], prod[m]
            assert abs(float(a) - float(b)) < 1e-8


def test_degree_examples():
    cfg = TorusKnotConfig(2, 3)
    assert degree(TracePoly.z(), cfg) == 1
    assert degree(TracePoly.x() ** 3 * TracePoly.y(), cfg) == 0
    assert degree(TracePoly(), cfg) == 0
    from torusskein.traces import trace_word
    assert degree(trace_word(1, 1), cfg) == 1


def test_degree_additive_on_generic_products():
    cfg = TorusKnotConfig(3, 4)
    f = TracePoly.z() + TracePoly.x()
    g = TracePoly.z() ** 2 + TracePoly.y()
    # leading z-coefficients of both are 1 on every component: no common zero
    assert degree(f * g, cfg) == degree(f, cfg) + degree(g, cfg)


@given(small_trace_polys(), small_trace_polys())
def test_degree_additive_without_common_leading_zero(f, g):
    cfg = TorusKnotConfig(2, 5)
    df, dg = degree(f, cfg), degree(g, cfg)
    if not f or not g:
        return
    lf = leading_coeff_vector(f, df, cfg)
    lg = leading_coeff_vector(g, dg, cfg)
    if any(abs(a) > 1e-9 and abs(b) > 1e-9 for a, b in zip(lf, lg)):
        assert degree(f * g, cfg) == df + dg


def test_leading_coeff_vector_examples():
    cfg = TorusKnotConfig(2, 3)
    d = 3
    ones = leading_coeff_vector(TracePoly.z(d), d, cfg)
    assert ones == [1.0]
    vec = leading_coeff_vector(TracePoly.x() * TracePoly.z(d), d, cfg)
    assert abs(vec[0] - 1.0) < 1e-12  # 2 cos(pi/3)
    low = leading_coeff_vector(TracePoly.x(), d, cfg)
    assert low == [0.0]
    with pytest.raises(ValueError):
        leading_coeff_vector(TracePoly.z(d + 1), d, cfg)


def test_meeting_points_trefoil():
    cfg = TorusKnotConfig(2, 3)
    zp, zm = abelian_meeting_points(AdmissiblePair(1, 1), cfg)
    assert abs(zp - 2 * math.cos(math.pi / 3 + math.pi / 2)) < 1e-15
    assert abs(zm - 2 * math.cos(math.pi / 3 - math.pi / 2)) < 1e-15


def test_meeting_points_distinct_up_to_twelve():
    for cfg in coprime_configs(12):
        for pair in admissible_pairs(cfg):
            zp, zm = abelian_meeting_points(pair, cfg)
            assert abs(zp - zm) > 1e-9


def test_meeting_points_symmetric_case():
    # k pi / q = pi/2 makes the two z-values opposite
    cfg = TorusKnotConfig(3, 4)
    for pair in admissible_pairs(cfg):
        if 2 * pair.k == cfg.q:
            zp, zm = abelian_meeting_points(pair, cfg)
            assert abs(zp + zm) < 1e-12


def abelian_parameter_witnesses(pair, cfg, tol=1e-9):
    # the 2pq-th-root search: indices m of t = exp(i*pi*m/(pq)) with
    # x(t) = x_c and y(t) = y_c, one per conjugate pair {t, 1/t}
    p, q = cfg.p, cfg.q
    comp = Component(cfg, pair)
    hits = []
    for m in range(2 * p * q):
        if (-m) % (2 * p * q) in hits:
            continue
        xv = 2.0 * math.cos(math.pi * m * p / (p * q))
        yv = 2.0 * math.cos(math.pi * m * q / (p * q))
        if abs(xv - comp.x_const) < tol and abs(yv - comp.y_const) < tol:
            hits.append(m)
    return hits


def test_meeting_points_lie_on_abelian_curve():
    for cfg in coprime_configs(9):
        px, py, pz = abelian_parametrization(cfg)
        for pair in admissible_pairs(cfg):
            ms = abelian_parameter_witnesses(pair, cfg)
            assert len(ms) == 2
            zs = sorted(2 * math.cos(math.pi * m * (cfg.p + cfg.q) / (cfg.p * cfg.q))
                        for m in ms)
            want = sorted(abelian_meeting_points(pair, cfg))
            assert max(abs(a - b) for a, b in zip(zs, want)) < 1e-9
            # and the full triple sits on the parametrized curve
            for m in ms:
                s = 2 * math.cos(math.pi * m / (cfg.p * cfg.q))
                comp = Component(cfg, pair)
                assert abs(float(px.evaluate(Fraction(0)) * 0 + px.evaluate(s)) - comp.x_const) < 1e-9
                assert abs(py.evaluate(s) - comp.y_const) < 1e-9


def test_knot_trace_is_constant_on_components():
    # tr(u^q) = tr(v^p) restricts to 2*(-1)^k on the (k, l) component
    for cfg in (TorusKnotConfig(2, 3), TorusKnotConfig(3, 5)):
        f = knot_trace(cfg)
        for pair in admissible_pairs(cfg):
            r = restrict_to_component(f, Component(cfg, pair))
            assert r.degree == 0
            assert abs(r[0] - 2 * (-1) ** pair.k) < 1e-9


def test_knot_trace_is_the_trace_of_a_power():
    # T_q run over x is the trace recursion's tr(u^q)
    from torusskein.traces import trace_word
    for cfg in coprime_configs(12):
        assert knot_trace(cfg) == trace_word(cfg.q, 0), cfg
