"""Component structure, meeting points, the knot trace on the components."""

import dataclasses
import math

import pytest
from conftest import abelian_meeting_points

from torusskein.algebra import chebyshev
from torusskein.charvariety import (
    AdmissiblePair,
    Component,
    TorusKnotConfig,
    admissible_pairs,
    components,
    knot_trace,
)


def coprime_configs(limit):
    return [TorusKnotConfig(p, q)
            for p in range(2, limit + 1) for q in range(p + 1, limit + 1)
            if math.gcd(p, q) == 1]


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
        px, py = chebyshev(cfg.p), chebyshev(cfg.q)
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
                assert abs(px.evaluate(s) - comp.x_const) < 1e-9
                assert abs(py.evaluate(s) - comp.y_const) < 1e-9


def test_knot_trace_is_constant_on_components():
    # tr(u^q) = tr(v^p) holds no z and takes 2*(-1)^k on the (k, l) component
    for cfg in (TorusKnotConfig(2, 3), TorusKnotConfig(3, 5)):
        f = knot_trace(cfg)
        assert all(e == 0 for _, _, e in f.terms)
        for pair in admissible_pairs(cfg):
            comp = Component(cfg, pair)
            assert abs(f.evaluate(comp.x_const, comp.y_const, 0) - 2 * (-1) ** pair.k) < 1e-9


def test_knot_trace_is_the_trace_of_a_power():
    # T_q run over x is the trace recursion's tr(u^q)
    from torusskein.traces import trace_word
    for cfg in coprime_configs(12):
        assert knot_trace(cfg) == trace_word(cfg.q, 0), cfg
