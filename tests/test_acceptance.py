"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance and bound is pinned here.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from conftest import (
    leading_z_coeff,
    normalized_basis,
    scale,
    z_coefficient,
    z_part_closed_form,
)

from torusskein.algebra import Laurent, UniPoly
from torusskein.charvariety import Component, TorusKnotConfig, admissible_pairs
from torusskein.assembly import (
    deg0_basis,
    deg0_degree,
    verify_dst,
)
from torusskein.cli import main as cli_main
from torusskein.skein import (
    AnnularTangle,
    SkeinElement,
    Multicurve,
    cap,
    crossing,
    cup,
    kink_slices,
    resolve,
    resolve_states,
)
from torusskein.sprime import (
    basis_coordinates,
    null_tangle,
    reduction_relation,
    rotate,
    rotation_exponents,
    rotation_matrix,
    rotation_norm_exponent,
    winding_part,
)
from torusskein.traces import numeric_rep, series_table, trace_word

TRACE_CONFIGS = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]
SKEIN_GRID = [(p, k) for p in (2, 3, 5) for k in (1, 2, 3)]


def coprime_pairs(limit=12):
    return [(p, q) for p in range(2, limit + 1) for q in range(p + 1, limit + 1)
            if math.gcd(p, q) == 1]


@contextmanager
def criterion(name: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] {name} ({elapsed:.2f}s, budget {seconds:g}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget"


def test_criterion_1_component_count():
    with criterion("component count = (p-1)(q-1)/2 for coprime p < q <= 12", 1.0):
        for p, q in coprime_pairs():
            pairs = admissible_pairs(TorusKnotConfig(p, q))
            assert len(pairs) == (p - 1) * (q - 1) // 2
            assert all(1 <= pr.k < q and 1 <= pr.l < p and (pr.k - pr.l) % 2 == 0
                       for pr in pairs)


def test_criterion_2_trace_triple_agreement():
    with criterion("trace triple agreement (recursion, series, 2x2 oracle)", 10.0):
        table = series_table(12, 12)
        for i in range(13):
            for j in range(13):
                assert table[i][j] == trace_word(i, j)
        rng = np.random.default_rng(20259)
        for p, q in TRACE_CONFIGS:
            cfg = TorusKnotConfig(p, q)
            pairs = admissible_pairs(cfg)
            for _ in range(20):
                pair = pairs[int(rng.integers(len(pairs)))]
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                u, v = numeric_rep(pair, z, cfg)
                comp = Component(cfg, pair)
                upow = [np.eye(2, dtype=complex)]
                vpow = [np.eye(2, dtype=complex)]
                for _ in range(12):
                    upow.append(upow[-1] @ u)
                    vpow.append(vpow[-1] @ v)
                for i in range(13):
                    for j in range(13):
                        want = trace_word(i, j).evaluate(comp.x_const, comp.y_const, z)
                        got = np.trace(upow[i] @ vpow[j])
                        assert abs(complex(want) - got) < 1e-9, (p, q, pair, i, j)


def test_criterion_3_leading_coefficient_formula():
    with criterion("leading z-coefficient sine formula, 1 <= i, j <= 8", 5.0):
        for i in range(1, 9):
            for j in range(1, 9):
                # the z-part of tr(u^i v^j) is z S_(i-1)(x) S_(j-1)(y), exactly
                word, closed = trace_word(i, j), z_part_closed_form(i, j)
                assert word - z_coefficient(word, 0) == closed, (i, j)
                lead = z_coefficient(closed, 1)
                for p, q in TRACE_CONFIGS:
                    cfg = TorusKnotConfig(p, q)
                    for pair in admissible_pairs(cfg):
                        comp = Component(cfg, pair)
                        got = lead.evaluate(comp.x_const, comp.y_const, 0)
                        assert abs(got - leading_z_coeff(i, j, pair, cfg)) < 1e-9


def test_criterion_4_kauffman_engine_soundness():
    with criterion("Kauffman engine: R1 = -A^(+-3), R2, R3, loop = -A^2 - A^-2", 60.0):
        delta = Laurent.loop_value()
        assert resolve(AnnularTangle(0, (cup(0), cap(0)))) == SkeinElement(
            0, {Multicurve((), 0): delta})
        # R1 exact factors, every chirality and position
        for width in (1, 2, 3):
            plain = resolve_states(AnnularTangle(width, ()))
            for pos in range(width):
                for sign in (1, -1):
                    got = resolve_states(AnnularTangle(width, kink_slices(pos, sign)))
                    want = {s: c * Laurent({3 * sign: -1}) for s, c in plain.items()}
                    assert got == want
        # R2 and R3 at every site on up to 6 strands (k <= 3)
        for width in (2, 3, 4, 5, 6):
            plain = resolve_states(AnnularTangle(width, ()))
            for i in range(width):
                for sign in (1, -1):
                    word = AnnularTangle(width, (crossing(i, sign), crossing(i, -sign)))
                    assert resolve_states(word) == plain
        for width in (3, 4, 5, 6):
            for i in range(width):
                j = (i + 1) % width
                for sign in (1, -1):
                    a = resolve_states(AnnularTangle(width, (
                        crossing(i, sign), crossing(j, sign), crossing(i, sign))))
                    b = resolve_states(AnnularTangle(width, (
                        crossing(j, sign), crossing(i, sign), crossing(j, sign))))
                    assert a == b
        # R2 pairs spliced into every crossing word of length <= 2 on 4 strands,
        # at every depth: together with functoriality of the state evolution
        # this covers all words with <= 6 crossings
        letters = [crossing(pos, sign) for pos in range(4) for sign in (1, -1)]
        words = [()] + [(a,) for a in letters] + [(a, b) for a in letters for b in letters]
        for word in words:
            base = resolve_states(AnnularTangle(4, word))
            for depth in range(len(word) + 1):
                for pos in range(4):
                    for sign in (1, -1):
                        spliced = word[:depth] + (crossing(pos, sign),
                                                  crossing(pos, -sign)) + word[depth:]
                        assert resolve_states(AnnularTangle(4, spliced)) == base


def test_criterion_5_rotation_order():
    with criterion("rotation^(2k) = 1 on S' coordinates, k <= 3, p in {2,3,5}", 120.0):
        for p, k in SKEIN_GRID:
            # the rotation is multiplication by f: of order dividing 2k
            # exactly when f^(2k) = 1 modulo the relation
            f = rotation_matrix(p, k)
            assert f ** (2 * k) % reduction_relation(p, k) == UniPoly.constant("w", 1), (p, k)


def test_criterion_6_basis_and_rotation_exponents():
    with criterion("basis triangularity and rotation exponents", 120.0):
        for p, k in SKEIN_GRID:
            coords = basis_coordinates(p, k)
            for j in range(1, p):
                vec = coords[j - 1]
                assert vec[j - 1].unit_parts() is not None, (p, k, j)
                assert all(not vec[m] for m in range(j, p - 1)), (p, k, j)
            expo = rotation_exponents(p, k)  # raises unless each unit is +A^u
            assert all(expo[j - 1] == -expo[p - j - 1] for j in range(1, p)), (p, k)
            # rescaled to A^(n_j) e_j, the basis is swapped exactly
            f, rel = rotation_matrix(p, k), reduction_relation(p, k)
            norm = normalized_basis(p, k)
            for j in range(1, p):
                assert f * norm[j - 1] % rel == norm[p - j - 1], (p, k, j)


def test_criterion_7_relation_degrees():
    with criterion("relation degree n + p - 1 with invertible leading term", 120.0):
        for p, k in SKEIN_GRID:
            rel = reduction_relation(p, k)
            norm = Laurent.A(rotation_norm_exponent(p, 2 * k))
            for n in range(4):
                # rotate(null_tangle(k, n)) resolved as one word is w^n times the relation
                word = rotate(null_tangle(k, n), p)
                poly = winding_part(scale(resolve(word, drop_trivial_arcs=True), norm), k)
                assert poly.degree == n + p - 1, (p, k, n)
                assert poly[n + p - 1].unit_parts() is not None, (p, k, n)
                assert poly == UniPoly("w", [0] * n + list(rel.coeffs)), (p, k, n)


def test_criterion_8_sine_matrix_invertible():
    with criterion("sine-product matrix invertible for coprime p < q <= 12", 1.0):
        for p, q in coprime_pairs():
            ok, det, cond = verify_dst(TorusKnotConfig(p, q))
            assert ok, (p, q, det, cond)


def test_criterion_9_degree_zero_independence():
    with criterion("degree-0 leading degrees pairwise distinct (d <= 4pq)", 1.0):
        for p, q in coprime_pairs():
            cfg = TorusKnotConfig(p, q)
            basis = deg0_basis(cfg, 4 * p * q)  # every candidate, repeats included
            degs = [deg0_degree(b, cfg) for b in basis]
            assert len(set(degs)) == len(degs)
        # the degree map on the unswapped exponent ranges is NOT injective
        p, q = 2, 3
        seen = set()
        collision = False
        for n in range(3):
            for m1 in range(p):
                for m2 in range(q):
                    d = p * m1 + p * q * n + q * m2
                    if d in seen:
                        collision = True
                    seen.add(d)
        assert collision


def test_criterion_10_theorem_report():
    with criterion("verify P Q --max-k 2 exits 0 on the four reference knots", 300.0):
        for p, q in ((2, 3), (2, 5), (3, 4), (3, 5)):
            code = cli_main(["verify", str(p), str(q), "--max-k", "2"])
            assert code == 0, (p, q)
