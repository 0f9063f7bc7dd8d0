"""Graded basis, sine matrix, and the verification report."""

import hashlib
import json
import math
import warnings
from itertools import islice

import numpy as np
import pytest
from conftest import flipped_series_table, substitute, word_trace, z_coefficient

from torusskein.algebra import TracePoly, chebyshev, chebyshev_terms
from torusskein.charvariety import Component, TorusKnotConfig, admissible_pairs
from torusskein import assembly, skein, sprime, traces
from torusskein.assembly import (
    Deg0,
    DegK,
    VerificationReport,
    basis_traces,
    deg0_basis,
    deg0_degree,
    deg0_exponents,
    degk_orbits,
    orbit_partner,
    scaled_abs_det,
    sine_matrix,
    sine_table,
    verify_dst,
    verify_theorem,
)
from torusskein.skein import BudgetError
from torusskein.traces import numeric_rep, series_table, trace_word


def coprime_configs(limit):
    return [TorusKnotConfig(p, q)
            for p in range(2, limit + 1) for q in range(p + 1, limit + 1)
            if math.gcd(p, q) == 1]


# -- degree-0 basis -----------------------------------------------------------


def test_deg0_examples_trefoil():
    cfg = TorusKnotConfig(2, 3)
    basis = deg0_basis(cfg, 5)
    got = {(b.m1, b.n, b.m2): deg0_degree(b, cfg) for b in basis}
    assert got[(0, 0, 0)] == 0
    assert got[(1, 0, 0)] == 2
    assert got[(0, 0, 1)] == 3
    assert got[(1, 0, 1)] == 5


def reference_deg0_basis(cfg, bound):
    """deg0_basis as a Deg0 per candidate, built before the bound is tested."""
    out = {}
    for n in range(bound // (cfg.p * cfg.q) + 1):
        for m1 in range(cfg.q):
            for m2 in range(cfg.p):
                idx = Deg0(m1, n, m2)
                d = deg0_degree(idx, cfg)
                if d > bound:
                    continue
                assert d not in out, (cfg, idx)
                out[d] = idx
    return [out[d] for d in sorted(out)]


def test_deg0_basis_equals_per_candidate_reference():
    for cfg in coprime_configs(13):
        bound = 4 * cfg.p * cfg.q
        assert deg0_basis(cfg, bound) == reference_deg0_basis(cfg, bound), cfg


def test_deg0_degrees_distinct_up_to_twelve():
    for cfg in coprime_configs(12):
        basis = deg0_basis(cfg, 4 * cfg.p * cfg.q)  # every candidate, repeats included
        degs = [deg0_degree(b, cfg) for b in basis]
        assert len(set(degs)) == len(degs)
        # the verify check reads the same degrees off plain ints
        assert sorted(d for d, _ in deg0_exponents(cfg, 4 * cfg.p * cfg.q)) == degs, cfg


def swapped_deg0_exponents(cfg, bound):
    """deg0_exponents with the wrong ranges m1 < p and m2 < q, in its loop order."""
    p, q = cfg.p, cfg.q
    for n in range(bound // (p * q) + 1):
        for m1 in range(p):
            for m2 in range(q):
                d = p * m1 + p * q * n + q * m2
                if d <= bound:
                    yield d, (m1, n, m2)


def test_swapped_exponent_ranges_collide():
    # with m1 < p and m2 < q instead, degrees collide already for (2, 3)
    degrees = [d for d, _ in swapped_deg0_exponents(TorusKnotConfig(2, 3), 24)]
    assert len(set(degrees)) < len(degrees), "the swapped ranges should produce a degree collision"


def test_deg0_check_fails_on_a_collision(monkeypatch):
    monkeypatch.setattr(assembly, "deg0_exponents", swapped_deg0_exponents)
    collision = {"bound": 24, "degree": 6, "collision": [
        {"m1": 0, "n": 0, "m2": 2}, {"m1": 0, "n": 1, "m2": 0}]}
    assert assembly._check_deg0_degrees(TorusKnotConfig(2, 3)) == (False, collision)
    report = verify_theorem(TorusKnotConfig(2, 3), max_k=1)
    check, = [c for c in report.checks if c["name"] == "deg0-distinct-degrees"]
    assert not check["pass"] and check["witness"] == collision


def test_deg0_abelian_leading_degree():
    for cfg in (TorusKnotConfig(2, 3), TorusKnotConfig(3, 4)):
        # the abelian line s -> (T_p(s), T_q(s), T_(p+q)(s))
        sx, sy, sz = chebyshev(cfg.p), chebyshev(cfg.q), chebyshev(cfg.p + cfg.q)
        basis = deg0_basis(cfg, 2 * cfg.p * cfg.q)
        for idx, f in zip(basis, basis_traces(basis, cfg)):
            assert substitute(f, sx, sy, sz).degree == deg0_degree(idx, cfg)


# -- degree-k orbits ----------------------------------------------------------


def test_orbit_counts():
    assert len(list(degk_orbits(TorusKnotConfig(2, 3), 1))) == 1
    for k in (1, 2, 3):
        assert len(list(degk_orbits(TorusKnotConfig(3, 5), k))) == 4
    for cfg in coprime_configs(12):
        want = (cfg.p - 1) * (cfg.q - 1) // 2
        assert len(list(degk_orbits(cfg, 1))) == want


def test_orbits_are_free():
    for cfg in coprime_configs(12):
        for orb in degk_orbits(cfg, 2):
            assert (orb.j1, orb.j2) != orbit_partner(orb, cfg)


# -- trace functions of basis elements ----------------------------------------


def test_basis_traces_examples():
    cfg = TorusKnotConfig(2, 3)
    assert list(basis_traces([Deg0(0, 0, 0), DegK(1, 1, 1)], cfg)) == [
        TracePoly.constant(1), TracePoly.z()]
    comps = [Component(cfg, pair) for pair in admissible_pairs(cfg)]
    for k in (1, 2, 3):
        for f in basis_traces(degk_orbits(cfg, k), cfg):
            # z-degree k, with a z^k coefficient that is nonzero on a component
            assert max(e for _, _, e in f.terms) == k
            lead = z_coefficient(f, k)
            assert any(abs(lead.evaluate(c.x_const, c.y_const, 0)) > 1e-10 for c in comps)


def test_knot_trace_two_expressions_agree():
    # T_q(x) and T_p(y) take one value on every component
    for cfg in (TorusKnotConfig(2, 3), TorusKnotConfig(3, 5)):
        fx = next(islice(chebyshev_terms(TracePoly.x()), cfg.q, None))
        fy = next(islice(chebyshev_terms(TracePoly.y()), cfg.p, None))
        for comp in [Component(cfg, pr) for pr in admissible_pairs(cfg)]:
            rx = fx.evaluate(comp.x_const, comp.y_const, 0)
            ry = fy.evaluate(comp.x_const, comp.y_const, 0)
            assert abs(rx - ry) < 1e-9
        assert z_coefficient(fx, 0) == fx and z_coefficient(fy, 0) == fy
        # and on the abelian line x = T_p(s), y = T_q(s): T_q(T_p(s)) = T_p(T_q(s))
        on_x = next(islice(chebyshev_terms(chebyshev(cfg.p)), cfg.q, None))
        on_y = next(islice(chebyshev_terms(chebyshev(cfg.q)), cfg.p, None))
        assert on_x == on_y


# -- sine matrix ---------------------------------------------------------------


def test_sine_matrix_trefoil():
    m = sine_matrix(TorusKnotConfig(2, 3))
    assert m.shape == (1, 1)
    assert abs(m[0, 0]) > 0.5


def test_sine_matrix_even_q_row_pattern():
    cfg = TorusKnotConfig(3, 4)
    pairs = admissible_pairs(cfg)
    m = sine_matrix(cfg)
    for r, orb in enumerate(degk_orbits(cfg, 1)):
        if 2 * orb.j1 == cfg.q:
            for c, pair in enumerate(pairs):
                if pair.k % 2 == 0:
                    assert abs(m[r, c]) < 1e-12


def test_sine_matrix_matches_leading_coefficients():
    # the matrix is the leading-coefficient data up to one positive factor
    # per component column
    for cfg in (TorusKnotConfig(2, 3), TorusKnotConfig(3, 4), TorusKnotConfig(3, 5)):
        pairs = admissible_pairs(cfg)
        orbits = degk_orbits(cfg, 1)
        m = sine_matrix(cfg)
        comps = [Component(cfg, pair) for pair in pairs]
        lead = np.array([
            [z_coefficient(f, 1).evaluate(c.x_const, c.y_const, 0) for c in comps]
            for f in basis_traces(orbits, cfg)
        ])
        for c, pair in enumerate(pairs):
            factor = 2 * math.sin(math.pi * pair.k / cfg.q) * math.sin(math.pi * pair.l / cfg.p)
            assert factor > 0
            assert np.allclose(m[:, c], factor * lead[:, c], atol=1e-9)
        assert scaled_abs_det(lead) > 1e-8


def reference_sine_matrix(cfg):
    # the per-entry double loop the table-driven sine_matrix replaces, kept
    # as its reference: one math.sin per factor of every entry
    orbits = list(degk_orbits(cfg, 1))
    pairs = admissible_pairs(cfg)
    out = np.zeros((len(orbits), len(pairs)))
    for r, orb in enumerate(orbits):
        reps = [(orb.j1, orb.j2), orbit_partner(orb, cfg)]
        for c, pair in enumerate(pairs):
            out[r, c] = sum(
                math.sin(j1 * pair.k * math.pi / cfg.q)
                * math.sin(j2 * pair.l * math.pi / cfg.p)
                for j1, j2 in reps
            )
    return out


def test_sine_matrix_equals_per_entry_sines_bit_for_bit():
    for cfg in coprime_configs(13):
        got, want = sine_matrix(cfg), reference_sine_matrix(cfg)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), cfg


def test_sine_table_is_shared_and_read_only():
    table = sine_table(7)
    assert sine_table(7) is table
    with pytest.raises(ValueError):
        table[1] = 0.0


def test_dst_invertible_up_to_twelve():
    for cfg in coprime_configs(12):
        ok, det, cond = verify_dst(cfg)
        assert ok, (cfg, det, cond)


def test_sine_matrix_is_scaled_orthogonal():
    # rows are orthogonal with common norm sqrt(pq/2): the parity-restricted
    # tensor of two discrete sine transforms
    for cfg in coprime_configs(9):
        m = sine_matrix(cfg)
        gram = m @ m.T
        want = cfg.p * cfg.q / 2 * np.eye(m.shape[0])
        assert np.allclose(gram, want, atol=1e-9)


def test_dst_negative_control():
    m = sine_matrix(TorusKnotConfig(3, 5)).copy()
    m[1, :] = m[0, :]
    assert scaled_abs_det(m) < 1e-8


def test_scaled_det_overflows_to_inf_without_warning():
    # a DST-I matrix: |det| = (201/2)^200 after row scaling, past float range
    n = 400
    m = np.sin(np.pi * np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) / (n + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scaled_abs_det(m) == math.inf


@pytest.mark.parametrize("det, passed, witness", [
    (math.inf, True, {"scaled_det": "inf"}),
    (0.0, False, {"scaled_det": 0.0, "cond": "inf"}),
])
def test_dst_witness_is_json_safe(monkeypatch, det, passed, witness):
    # (31, 37) overflows the determinant for real; patched here, it is quick
    monkeypatch.setattr(assembly, "scaled_abs_det", lambda m: det)
    report = verify_theorem(TorusKnotConfig(2, 3), max_k=1)
    check, = [c for c in report.checks if c["name"] == "dst-invertible"]
    assert check["pass"] is passed
    assert witness.items() <= check["witness"].items()
    json.loads(report.json_str(), parse_constant=pytest.fail)  # no NaN or Infinity


# -- verification report -------------------------------------------------------


def test_verify_theorem_passes_trefoil():
    report = verify_theorem(TorusKnotConfig(2, 3), max_k=2)
    assert isinstance(report, VerificationReport)
    assert report.all_passed
    names = [c["name"] for c in report.checks]
    assert len(names) == len(set(names))
    for c in report.checks:
        assert set(c) == {"name", "pass", "witness", "ms"}


def test_verify_theorem_negative_control(monkeypatch):
    # a mis-paired generating-function numerator must break the triple
    # agreement, also after a passing pair has memoised the true table's
    # comparison
    assert verify_theorem(TorusKnotConfig(2, 3), max_k=1).all_passed
    monkeypatch.setattr(assembly, "series_table", flipped_series_table)
    report = verify_theorem(TorusKnotConfig(2, 3), max_k=1)
    failed = {c["name"]: c["witness"] for c in report.checks if not c["pass"]}
    assert "trace-triple-agreement" in failed
    witness = failed["trace-triple-agreement"]
    assert set(witness) == {"mismatch"} and witness["mismatch"]["route"] == "series"


def test_series_comparison_runs_once_per_process(monkeypatch):
    # the exact comparison does not depend on the knot: a second pair reuses it
    builds = []

    def counted(max_i, max_j):
        builds.append((max_i, max_j))
        return series_table(max_i, max_j)

    monkeypatch.setattr(assembly, "series_table", counted)
    assert verify_theorem(TorusKnotConfig(2, 3), max_k=1).all_passed
    assert verify_theorem(TorusKnotConfig(3, 5), max_k=1).all_passed
    assert builds == [(assembly.MAX_IJ, assembly.MAX_IJ)]


def test_non_finite_trace_error_fails_with_json_safe_witness(monkeypatch):
    # max(worst, nan) keeps worst, so a running maximum alone would let a
    # NaN error through
    numeric_traces = assembly.numeric_traces

    def nan_traces(us, vs, max_i, max_j):
        out = numeric_traces(us, vs, max_i, max_j)
        out[2, 1, 1] = complex("nan")
        return out

    monkeypatch.setattr(assembly, "numeric_traces", nan_traces)
    passed, witness = assembly._check_triple_agreement(TorusKnotConfig(2, 3), 7)
    assert not passed
    assert witness == {"sample": 2, "error": "nan", "tol": 1e-9}
    report = verify_theorem(TorusKnotConfig(2, 3), max_k=1)
    check, = [c for c in report.checks if c["name"] == "trace-triple-agreement"]
    assert not check["pass"] and check["witness"]["sample"] == 2
    json.loads(report.json_str(), parse_constant=pytest.fail)  # no NaN or Infinity


def reference_triple_agreement(cfg, seed, max_ij=8, samples=20, tol=1e-9):
    # the per-entry form of the check, kept as its reference: one exact
    # polynomial evaluation and one pair of matrix powers per (i, j) entry
    table = series_table(max_ij, max_ij)
    for i in range(max_ij + 1):
        for j in range(max_ij + 1):
            if table[i][j] != trace_word(i, j):
                return False, {"mismatch": {"i": i, "j": j, "route": "series"}}
    rng = np.random.default_rng(seed)
    pairs = admissible_pairs(cfg)
    worst = 0.0
    for _ in range(samples):
        pair = pairs[int(rng.integers(len(pairs)))]
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        u, v = numeric_rep(pair, z, cfg)
        comp = Component(cfg, pair)
        for i in range(max_ij + 1):
            for j in range(max_ij + 1):
                want = trace_word(i, j).evaluate(comp.x_const, comp.y_const, z)
                got = word_trace(u, v, i, j)
                worst = max(worst, abs(complex(want) - got))
        if worst > tol:
            return False, {"worst_error": worst, "tol": tol}
    return worst <= tol, {"worst_error": worst, "tol": tol,
                          "samples": samples, "max_ij": max_ij}


@pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (5, 12), (7, 11), (2, 11), (11, 12)])
@pytest.mark.parametrize("seed", [assembly.DEFAULT_SEED, 7])
def test_triple_agreement_matches_per_entry_reference(p, q, seed):
    cfg = TorusKnotConfig(p, q)
    got = assembly._check_triple_agreement(cfg, seed)
    assert got == reference_triple_agreement(cfg, seed)
    assert got[0]
    # a tolerance no sample meets takes the early return with the same witness
    got = assembly._check_triple_agreement(cfg, seed, tol=1e-18)
    assert got == reference_triple_agreement(cfg, seed, tol=1e-18)
    assert not got[0]
    # at 1e-13 some cases pass, and the others return early at the first
    # sample or at a later one
    got = assembly._check_triple_agreement(cfg, seed, tol=1e-13)
    assert got == reference_triple_agreement(cfg, seed, tol=1e-13)


def test_triple_agreement_returns_early_after_the_first_sample():
    # at the default seed, (3, 5) meets 1e-13 on its first three samples
    # and misses it on the fourth
    cfg = TorusKnotConfig(3, 5)
    seed = assembly.DEFAULT_SEED
    assert assembly._check_triple_agreement(cfg, seed, samples=3, tol=1e-13)[0]
    got = assembly._check_triple_agreement(cfg, seed, samples=4, tol=1e-13)
    assert not got[0]
    assert got == assembly._check_triple_agreement(cfg, seed, tol=1e-13)


# sha256 of the reports below: the float witnesses worst_error, scaled_det
# and cond take their bits from numpy's kernels, and the pin table holds
# only three reports at a seed other than the default
FLOAT_WITNESS_DIGEST = "e06516de36d01248d073f5269ef1f8caeb0498638bfeb5509f47e4aa0acb2c88"


def test_float_witnesses_are_pinned():
    digest = hashlib.sha256()
    for seed in (assembly.DEFAULT_SEED, 7, 23):
        for cfg in coprime_configs(12):
            report = verify_theorem(cfg, max_k=1, seed=seed)
            for check in report.checks:
                check["ms"] = 0
            digest.update(report.json_str().encode())
    assert digest.hexdigest() == FLOAT_WITNESS_DIGEST


# sha256 of the reports below, 1,091 refused checks among them: a refusal
# witness names the state count at the slice where the guard trips, so it
# pins the order in which each check first reads the relations and f
REFUSAL_WITNESS_DIGEST = "301f900971b0f8d2a2ec9c462409db297385ac55d421835ae9666158ebed7c20"


def test_refusal_witnesses_are_pinned(state_budget):
    default = skein.STATE_BUDGET
    digest, refusals = hashlib.sha256(), 0
    for budget in (8, 12, 20, 35, 60, 100, 170, 400, default):
        state_budget(budget)
        for cfg in coprime_configs(9):
            for k in (1, 2, 3):
                report = verify_theorem(cfg, max_k=k)
                for check in report.checks:
                    check["ms"] = 0.0  # as `verify --no-timings` prints it
                    refusals += assembly.refused(check)
                digest.update(report.json_str().encode())
    assert refusals == 1091
    assert digest.hexdigest() == REFUSAL_WITNESS_DIGEST


def test_verify_needs_no_complex_lu_and_no_numpy_sort(monkeypatch):
    # validate_stack decides its tests on Python complex scalars and
    # _term_layout inverts its ranking in Python, so a verify process never
    # pages in LAPACK's complex LU, numpy's sort kernel, its isfinite loop or
    # its complex abs loop; the real LU of scaled_abs_det and the real abs
    # of its row scale stay, since their bits reach the report
    real_det, real_abs = np.linalg.det, np.abs

    def real_only(name, fn):
        def guarded(a, *args, **kwargs):
            if np.iscomplexobj(a):
                raise AssertionError(f"{name} on a complex array")
            return fn(a, *args, **kwargs)
        return guarded

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(name)
        return refused

    traces._term_layout.cache_clear()
    monkeypatch.setattr(np.linalg, "det", real_only("np.linalg.det", real_det))
    monkeypatch.setattr(np, "abs", real_only("np.abs", real_abs))
    monkeypatch.setattr(np, "argsort", refuse("np.argsort"))
    monkeypatch.setattr(np, "isfinite", refuse("np.isfinite"))
    for cfg in coprime_configs(12):
        report = verify_theorem(cfg, max_k=1)
        assert report.all_passed, (cfg, report.failed)


def test_rotation_refusal_witness_names_the_case(state_budget):
    # the witness of a guard refusal is enough to rerun the refused case:
    # slope 9 peaks at 9 live states for k=1 and 52 for k=2
    state_budget(20)
    report = verify_theorem(TorusKnotConfig(2, 9), max_k=2)
    check, = [c for c in report.checks if c["name"] == "rotation-order-slope9"]
    assert not check["pass"]
    refusal = check["witness"]["refused"]
    assert refusal == {"slope": 9, "k": 2, "budget": 20, "states": refusal["states"]}
    assert refusal["states"] > 20
    assert report.failed == [] and not report.all_passed


def test_a_refused_collar_is_summed_once(monkeypatch, state_budget):
    # lru_cache keeps no exception, so collar_states keeps a refusal as its
    # value, with no traceback: every check that reads a refused table then
    # raises a copy of it, and the collar is summed once
    real, refusals = skein.resolve_states, []

    def counted(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except BudgetError:
            refusals.append(args[0].endpoints)
            raise
    monkeypatch.setattr(skein, "resolve_states", counted)
    monkeypatch.setattr(sprime, "resolve_states", counted)
    for budget, sums in ((60, 1), (20, 2)):  # 3 and 7 when refusals are summed afresh
        state_budget(budget)
        refusals.clear()
        report = verify_theorem(TorusKnotConfig(3, 5), max_k=3)
        assert len(refusals) == sums, (budget, refusals)
        refused = [c["witness"]["refused"] for c in report.checks if assembly.refused(c)]
        assert len(refused) > sums
        for case in refused:
            kept = sprime.collar_states(case["slope"], 2 * case["k"])
            assert isinstance(kept, BudgetError) and kept.__traceback__ is None
            assert kept.figures == {"states": case["states"], "budget": budget,
                                    "strands": 2 * case["k"]}


def _zeroed_report(cfg, max_k):
    """verify_theorem's JSON as `verify --no-timings` prints it."""
    report = verify_theorem(cfg, max_k=max_k)
    for check in report.checks:
        check["ms"] = 0.0
    return report.json_str()


def test_refusal_witnesses_do_not_depend_on_read_order(state_budget):
    # in `verify` only a collar sum can trip the budget, since the null and
    # rainbow tangles that continue a collar are caps only, and the first
    # collar that trips is the same whichever table reads it first: so each
    # report is the same from cold caches and after a k-major pass that
    # reads every table of both slopes first
    tables = (sprime.reduction_relation, sprime.rotation_matrix, sprime.basis_coordinates,
              sprime.rotation_square, sprime.rotation_exponents)
    refusals = 0
    for budget in (8, 20, 60, 170):
        for cfg in coprime_configs(7):
            state_budget(budget)
            cold = _zeroed_report(cfg, 3)
            refusals += cold.count('"refused"')
            state_budget(budget)
            for k in (1, 2, 3):
                for slope in (cfg.p, cfg.q):
                    for table in tables:
                        try:
                            table(slope, k)
                        except BudgetError:
                            pass
            assert _zeroed_report(cfg, 3) == cold, (cfg, budget)
    assert refusals > 0


def test_report_exit_code(monkeypatch, state_budget):
    # the rule `verify` and the sweep script exit with: 0 on a pass, 1 on a
    # failure, 3 on a refusal with no failure; a failure outranks a refusal
    assert verify_theorem(TorusKnotConfig(2, 3), max_k=1).exit_code == 0
    with monkeypatch.context() as patch:
        patch.setattr(assembly, "series_table", flipped_series_table)
        assert verify_theorem(TorusKnotConfig(2, 3), max_k=1).exit_code == 1
    state_budget(20)
    assert verify_theorem(TorusKnotConfig(2, 9), max_k=2).exit_code == 3
    monkeypatch.setattr(assembly, "series_table", flipped_series_table)
    assert verify_theorem(TorusKnotConfig(2, 9), max_k=2).exit_code == 1


def test_report_json_schema():
    report = verify_theorem(TorusKnotConfig(2, 3), max_k=1)
    blob = report.to_json()
    assert set(blob) == {"config", "checks"}
    assert blob["config"]["p"] == 2 and blob["config"]["q"] == 3
    assert all({"name", "pass", "witness", "ms"} == set(c) for c in blob["checks"])

