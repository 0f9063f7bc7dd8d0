"""Trace recursion vs generating function vs numeric matrices."""

import hashlib
import inspect
import math
import sys

import numpy as np
import pytest
from conftest import (
    abelian_meeting_points,
    flipped_series_table,
    leading_z_coeff,
    reference_series_table,
    word_trace,
    z_coefficient,
    z_part_closed_form,
)

from torusskein.algebra import TracePoly, chebyshev_terms
from torusskein.charvariety import (
    AdmissiblePair,
    Component,
    TorusKnotConfig,
    admissible_pairs,
)
from torusskein.traces import (
    matrix_powers,
    numeric_rep,
    numeric_traces,
    sample_stack,
    series_table,
    trace_values,
    trace_word,
    validate_stack,
)

RNG = np.random.default_rng(416)


def random_z():
    return complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))


EXACT_CONFIGS = [TorusKnotConfig(2, 3), TorusKnotConfig(3, 5),
                 TorusKnotConfig(5, 12), TorusKnotConfig(7, 11)]


def assert_same_number(got, want):
    # bit for bit: same type, equal, and the same round-trip repr (sign of zero)
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)


def test_trace_word_literals():
    assert trace_word(0, 0) == TracePoly.constant(2)
    assert trace_word(1, 1) == TracePoly.z()
    assert trace_word(2, 1) == TracePoly.x() * TracePoly.z() - TracePoly.y()


def test_pure_powers_are_chebyshev():
    # the Chebyshev recursion run over x and over y, against the trace recursion
    tx = chebyshev_terms(TracePoly.x())
    ty = chebyshev_terms(TracePoly.y())
    for n in range(0, 13):
        assert next(tx) == trace_word(n, 0)
        assert next(ty) == trace_word(0, n)


def test_z_degree_exactly_one():
    for i in range(0, 11):
        for j in range(0, 11):
            f = trace_word(i, j)
            want = 1 if (i >= 1 and j >= 1) else 0
            assert max(e for _, _, e in f.terms) == want


def test_conjugation_symmetry():
    for i in range(0, 9):
        for j in range(0, 9):
            swapped = {(b, a, c): v for (a, b, c), v in trace_word(i, j).terms.items()}
            assert TracePoly(swapped) == trace_word(j, i)


@pytest.mark.parametrize("i, j", [(150, 0), (0, 150), (150, 3)])
def test_trace_word_recursion_stays_shallow(i, j):
    # filled bottom-up, a cold call nests a bounded number of frames, far
    # fewer than the degree
    trace_word.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        word = trace_word(i, j)
    finally:
        sys.setrecursionlimit(limit)
    assert max(a for a, _, _ in word.terms) == i and max(b for _, b, _ in word.terms) == j


def test_series_matches_recursion():
    table = series_table(8, 8)
    assert table[0][0] == TracePoly.constant(2)
    assert table[1][1] == TracePoly.z()
    for i in range(9):
        for j in range(9):
            assert table[i][j] == trace_word(i, j)


@pytest.mark.parametrize("max_i, max_j", [(16, 16), (16, 3), (3, 16), (0, 0)])
def test_series_table_equals_product_reference(max_i, max_j):
    assert series_table(max_i, max_j) == reference_series_table(max_i, max_j)


def test_trace_word_term_order_is_pinned():
    # trace_values adds each word's terms in this order, so the bits of
    # every exact trace value depend on it
    words = repr([list(trace_word(i, j).terms.items()) for i in range(13) for j in range(13)])
    assert hashlib.sha256(words.encode()).hexdigest() == (
        "56f856ed2eb4c17c4874831af5dbfbf4658770f832f7506beb240f102407abfb")


def test_series_bound_guard():
    with pytest.raises(ValueError):
        series_table(17, 2)


def test_flipped_pairing_disagrees():
    bad = flipped_series_table(3, 3)
    assert any(bad[i][j] != trace_word(i, j) for i in range(4) for j in range(4))


def test_numeric_rep_relations():
    for cfg in (TorusKnotConfig(2, 3), TorusKnotConfig(3, 5), TorusKnotConfig(4, 5)):
        for pair in admissible_pairs(cfg):
            u, v = numeric_rep(pair, random_z(), cfg)
            # operator-norm distances of U^q and V^p from (-1)^k Id, (-1)^l Id
            du = np.linalg.norm(np.linalg.matrix_power(u, cfg.q) - (-1) ** pair.k * np.eye(2), 2)
            dv = np.linalg.norm(np.linalg.matrix_power(v, cfg.p) - (-1) ** pair.l * np.eye(2), 2)
            assert du < 1e-9 and dv < 1e-9


def test_numeric_rep_reducible_at_meeting_points():
    cfg = TorusKnotConfig(2, 3)
    pair = AdmissiblePair(1, 1)
    for z in abelian_meeting_points(pair, cfg):
        _, v = numeric_rep(pair, z, cfg)
        # V becomes upper triangular, so (1, 0) is a common eigenvector with U
        assert abs(v[1, 0]) < 1e-9


@pytest.mark.parametrize("z", [complex("nan"), complex("inf")])
def test_numeric_rep_rejects_non_finite_z(z):
    # NaN compares False with every tolerance, so finiteness is tested first
    with pytest.raises(ValueError, match="not finite"):
        numeric_rep(AdmissiblePair(1, 1), z, TorusKnotConfig(2, 3))


def test_numeric_rep_matches_trace_word():
    cfg = TorusKnotConfig(3, 4)
    for pair in admissible_pairs(cfg):
        z = random_z()
        u, v = numeric_rep(pair, z, cfg)
        comp = Component(cfg, pair)
        for i in range(0, 9):
            for j in range(0, 9):
                want = complex(trace_word(i, j).evaluate(comp.x_const, comp.y_const, z))
                assert abs(want - word_trace(u, v, i, j)) < 1e-9


@pytest.mark.parametrize("cfg", EXACT_CONFIGS, ids=str)
def test_trace_values_equal_evaluate_exactly(cfg):
    # two complex z and one real z per pair, evaluated as one stack of the
    # complex samples and one of the real ones
    comps = [Component(cfg, pair) for pair in admissible_pairs(cfg)]
    draws = [(comp, (random_z(), random_z(), float(RNG.uniform(-2, 2)))) for comp in comps]
    stacks = ([(comp, z) for comp, zs in draws for z in zs[:2]],
              [(comp, zs[2]) for comp, zs in draws])
    for stack in stacks:
        table = trace_values(8, [comp.x_const for comp, _ in stack],
                             [comp.y_const for comp, _ in stack], [z for _, z in stack])
        assert table.shape == (len(stack), 9, 9)
        for (comp, z), rows in zip(stack, table.tolist()):
            for i in range(9):
                for j in range(9):
                    want = trace_word(i, j).evaluate(comp.x_const, comp.y_const, z)
                    assert_same_number(rows[i][j], want)


@pytest.mark.parametrize("max_ij", [0, 1, 2, 12])
def test_trace_values_equal_evaluate_at_other_sizes(max_ij):
    # the term layout is cut into parts at term positions; at 0-2 some
    # cuts coincide, and 12 holds 4,021 terms
    comps = [Component(EXACT_CONFIGS[3], pair) for pair in admissible_pairs(EXACT_CONFIGS[3])[:3]]
    rng = np.random.default_rng(max_ij)
    zs = [complex(*rng.uniform(-2, 2, 2)) for _ in comps]
    table = trace_values(max_ij, [comp.x_const for comp in comps],
                         [comp.y_const for comp in comps], zs)
    assert table.shape == (len(comps), max_ij + 1, max_ij + 1)
    for comp, z, rows in zip(comps, zs, table.tolist()):
        for i in range(max_ij + 1):
            for j in range(max_ij + 1):
                want = trace_word(i, j).evaluate(comp.x_const, comp.y_const, z)
                assert_same_number(rows[i][j], want)


@pytest.mark.parametrize("cfg", EXACT_CONFIGS, ids=str)
def test_numeric_rep_traces_equal_trace_exactly(cfg):
    picks = [pair for pair in admissible_pairs(cfg) for _ in range(3)]
    zs = [random_z() for _ in picks]
    us, vs = sample_stack(picks, *component_traces(picks, cfg), zs, cfg)
    table = numeric_traces(us, vs, 8, 8)
    assert table.shape == (len(picks), 9, 9)
    for pair, z, u, v, rows in zip(picks, zs, us, vs, table.tolist()):
        one_u, one_v = numeric_rep(pair, z, cfg)
        # the stack holds the matrices numeric_rep builds, bit for bit
        assert one_u.tobytes() == u.tobytes() and one_v.tobytes() == v.tobytes()
        for i in range(9):
            for j in range(9):
                assert_same_number(rows[i][j], word_trace(u, v, i, j))
    assert numeric_traces(us[:1], vs[:1], 2, 5).shape == (1, 3, 6)
    assert numeric_traces(us[:2], vs[:2], 4, 1).shape == (2, 5, 2)


@pytest.mark.parametrize("size", [1, 20, 40])
def test_matrix_powers_equal_matrix_power_bit_for_bit(size):
    # the shared squares fold as matrix_power folds them, so every power
    # keeps its bytes; 20 is the U (or V) half of the trace check's stack,
    # 8 its top (MAX_IJ) and 7 the last power of the stacked 4-7 level
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    for top in (0, 1, 3, 7, 8, 16):
        powers = matrix_powers(a, top)
        assert len(powers) == top + 1
        for n, got in enumerate(powers):
            assert got.tobytes() == np.linalg.matrix_power(a, n).tobytes(), (top, n)


def _broken_reps(cfg):
    """(reason, (U, V, pair, z)) samples that validate_stack must reject."""
    pair, *rest = admissible_pairs(cfg)
    other = next(o for o in rest if o.k != pair.k and o.l != pair.l)
    z = random_z()
    u, v = numeric_rep(pair, z, cfg)
    moved_u, moved_v = numeric_rep(other, z, cfg)
    infinite = v.copy()
    infinite[0, 1] = complex("inf")
    return [
        ("not finite", (u, v, pair, complex("nan"))),
        ("not finite", (u, infinite, pair, z)),
        ("det U drifted", (u * 1.001, v, pair, z)),
        ("det V drifted", (u, v * 1.001, pair, z)),
        ("tr U is off", (moved_u, v, pair, z)),
        ("tr V is off", (u, moved_v, pair, z)),
        ("tr UV missed", (u, v, pair, z + 0.1)),
    ]


def component_traces(pairs, cfg):
    """x_c and y_c of each pair's component, the traces validate_stack expects."""
    comps = [Component(cfg, pair) for pair in pairs]
    return [c.x_const for c in comps], [c.y_const for c in comps]


@pytest.mark.parametrize("cfg", [TorusKnotConfig(3, 5), TorusKnotConfig(5, 12)], ids=str)
def test_stacked_validation_rejects_what_validate_rejects(cfg):
    pairs = admissible_pairs(cfg)
    zs = [random_z() for _ in pairs]
    us, vs = sample_stack(pairs, *component_traces(pairs, cfg), zs, cfg)
    validate_stack(us, vs, *component_traces(pairs, cfg), zs)  # a good stack passes
    for reason, (bad_u, bad_v, bad_pair, bad_z) in _broken_reps(cfg):
        with pytest.raises(ValueError, match=reason):
            validate_stack(bad_u[None], bad_v[None], *component_traces([bad_pair], cfg), [bad_z])
        # the broken sample in the middle of a good stack
        at = len(pairs) // 2
        stack_u = np.concatenate([us[:at], bad_u[None], us[at:]])
        stack_v = np.concatenate([vs[:at], bad_v[None], vs[at:]])
        with pytest.raises(ValueError, match=reason):
            validate_stack(stack_u, stack_v,
                           *component_traces(pairs[:at] + [bad_pair] + pairs[at:], cfg),
                           zs[:at] + [bad_z] + zs[at:])


def test_numeric_stack_rejects_a_non_finite_z_among_finite_ones():
    cfg = TorusKnotConfig(3, 5)
    pairs = admissible_pairs(cfg)
    zs = [random_z() for _ in pairs]
    zs[-1] = complex("nan")
    with pytest.raises(ValueError, match="not finite"):
        sample_stack(pairs, *component_traces(pairs, cfg), zs, cfg)


def test_leading_z_coeff_literals():
    cfg = TorusKnotConfig(3, 5)
    for pair in admissible_pairs(cfg):
        assert abs(leading_z_coeff(1, 1, pair, cfg) - 1.0) < 1e-12
        want = 2 * math.cos(math.pi * pair.k / cfg.q)
        assert abs(leading_z_coeff(2, 1, pair, cfg) - want) < 1e-12
        assert abs(leading_z_coeff(cfg.q, 1, pair, cfg)) < 1e-12


def test_leading_z_coeff_matches_restriction():
    # the z-coefficient of the word itself at the component's x_c and y_c
    for cfg in (TorusKnotConfig(2, 5), TorusKnotConfig(3, 4)):
        for pair in admissible_pairs(cfg):
            comp = Component(cfg, pair)
            for i in range(1, 6):
                for j in range(1, 6):
                    lead = z_coefficient(trace_word(i, j), 1)
                    got = lead.evaluate(comp.x_const, comp.y_const, 0)
                    assert abs(got - leading_z_coeff(i, j, pair, cfg)) < 1e-9


def test_z_part_is_z_times_second_kind_product():
    # exact, in integers: tr(u^i v^j) minus its z-free terms is
    # z S_(i-1)(x) S_(j-1)(y), with S_n the second-kind chebyshev_terms
    for i in range(1, 13):
        for j in range(1, 13):
            word = trace_word(i, j)
            assert word - z_coefficient(word, 0) == z_part_closed_form(i, j), (i, j)
