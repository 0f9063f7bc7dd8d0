"""Graded basis of the skein module of a torus-knot complement, its trace
image at A = -1, the sine-product matrix, and the instance verification
report.

The complement splits along an annulus into two solid tori: the one whose
core is the generator u carries slope q (the knot is homologous to q times
that core), the other one slope p.  Degree-0 basis elements are monomials
x^m1 P^n y^m2 with P the trace of the knot class; degree-k elements are
indexed by rotation orbits {(j1, j2), (q-j1, p-j2)} of winding pairs and map
to the trace functions z^(k-1) tr(u^j1 v^j2).

Exponent ranges: m1 ranges over [0, q-1] and m2 over [0, p-1].  With
x of abelian degree p and y of degree q this makes the leading degrees
p*m1 + p*q*n + q*m2 a complete residue system mod pq, hence pairwise
distinct; the swapped ranges (m1 < p, m2 < q) admit collisions, e.g.
p*2 = p*q*1 at (p, q) = (2, 3), and are demonstrably wrong -- see the tests.

The trace check samples the character variety at random points: the
draws of numpy's ``default_rng(seed)``, reproduced bit for bit by the
in-package stream of ``_pcg64``.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._pcg64 import Generator
from .algebra import TracePoly, UniPoly
from .charvariety import (
    TorusKnotConfig,
    admissible_pairs,
    knot_trace,
    Component,
)
from .skein import BudgetError
from .sprime import basis_coordinates, rotation_exponents, rotation_power
from .traces import numeric_traces, sample_stack, series_table, trace_values, trace_word

DEFAULT_SEED = 20259
MAX_IJ = 8  # the trace check compares tr(u^i v^j) for i, j <= MAX_IJ


@dataclass(frozen=True)
class Deg0:
    """Index of a degree-0 basis element x^m1 P^n y^m2."""

    m1: int
    n: int
    m2: int


@dataclass(frozen=True)
class DegK:
    """Index of a degree-k basis orbit, stored by its lex-least representative."""

    k: int
    j1: int
    j2: int


def deg0_degree(idx: Deg0, cfg: TorusKnotConfig) -> int:
    """Leading degree in the abelian parameter t."""
    return cfg.p * idx.m1 + cfg.p * cfg.q * idx.n + cfg.q * idx.m2


def deg0_exponents(cfg: TorusKnotConfig, degree_bound: int):
    """(leading degree, (m1, n, m2)) of every index x^m1 P^n y^m2 with degree
    at most the bound, in loop order, repeats included.

    The degrees are pairwise distinct by the residue-system argument; the
    ``deg0-distinct-degrees`` check tests that on what this yields.
    """
    if degree_bound < 0:
        raise ValueError("bound must be nonnegative")
    p, q = cfg.p, cfg.q
    for n in range(degree_bound // (p * q) + 1):
        for m1 in range(q):
            for m2 in range(p):
                d = p * m1 + p * q * n + q * m2  # deg0_degree, before any Deg0 is built
                if d <= degree_bound:
                    yield d, (m1, n, m2)


def deg0_basis(cfg: TorusKnotConfig, degree_bound: int) -> list[Deg0]:
    """All indices with leading degree at most the bound, sorted by degree."""
    return [Deg0(*e) for _, e in sorted(deg0_exponents(cfg, degree_bound))]


def orbit_partner(idx: DegK, cfg: TorusKnotConfig) -> tuple[int, int]:
    return (cfg.q - idx.j1, cfg.p - idx.j2)


def degk_orbits(cfg: TorusKnotConfig, k: int) -> Iterator[DegK]:
    """Rotation orbits of winding pairs (j1, j2) in [1, q-1] x [1, p-1], lazily in lex order.

    The involution (j1, j2) -> (q-j1, p-j2) is fixed-point free because p
    and q cannot both be even, so there are (p-1)(q-1)/2 orbits.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for j1 in range(1, cfg.q):
        for j2 in range(1, cfg.p):
            partner = (cfg.q - j1, cfg.p - j2)
            if (j1, j2) == partner:
                raise RuntimeError(f"fixed orbit at {(j1, j2)}")
            if (j1, j2) < partner:
                yield DegK(k, j1, j2)


def basis_traces(indices, cfg: TorusKnotConfig):
    """Trace function of each graded basis element of a listing, in order
    (each up to a global sign at A=-1).

    The powers P^n of the knot class are built once per listing, each from
    the one before, and shared by every x^m1 P^n y^m2 that uses them.
    """
    knot, knot_powers = knot_trace(cfg), [TracePoly.constant(1)]
    for idx in indices:
        if isinstance(idx, Deg0):
            while len(knot_powers) <= idx.n:
                knot_powers.append(knot_powers[-1] * knot)
            yield TracePoly.x() ** idx.m1 * knot_powers[idx.n] * TracePoly.y() ** idx.m2
        elif isinstance(idx, DegK):
            yield TracePoly.z() ** (idx.k - 1) * trace_word(idx.j1, idx.j2)
        else:
            raise TypeError(f"not a graded index: {idx!r}")


@lru_cache(maxsize=None)
def sine_table(n: int) -> np.ndarray:
    """math.sin(m * math.pi / n) for m = 0..(n-1)^2, read-only: every knot
    with p or q equal to n shares it."""
    table = np.array([math.sin(m * math.pi / n) for m in range((n - 1) ** 2 + 1)])
    table.flags.writeable = False
    return table


def sine_matrix(cfg: TorusKnotConfig) -> np.ndarray:
    """Matrix of symmetrized sine products, orbits by admissible pairs.

    Entry (orbit, pair) sums sin(j1*k*pi/q) * sin(j2*l*pi/p) over the two
    orbit representatives; the orbits, and so the matrix, do not depend on
    the grade, so those of grade 1 are read.  Each sine is read from the
    cached :func:`sine_table` of q (or p) by the integer m = j1*k (or j2*l),
    the argument the per-entry expression rounds.
    """
    # [orbit, representative, axis]: the two winding pairs of each orbit
    js = np.array([[(o.j1, o.j2), orbit_partner(o, cfg)] for o in degk_orbits(cfg, 1)])
    ks, ls = np.array([(pair.k, pair.l) for pair in admissible_pairs(cfg)]).T
    sin_q, sin_p = sine_table(cfg.q), sine_table(cfg.p)
    prods = sin_q[js[..., :1] * ks] * sin_p[js[..., 1:] * ls]
    # sum() over the two representatives starts from 0
    return 0.0 + prods[:, 0] + prods[:, 1]


def scaled_abs_det(m: np.ndarray) -> float:
    """|det| after dividing each row by its largest absolute entry."""
    scale = np.abs(m).max(axis=1)
    if np.any(scale == 0):
        return 0.0
    with np.errstate(over="ignore"):  # past float range the det is inf, and passes
        return abs(float(np.linalg.det(m / scale[:, None])))


def verify_dst(cfg: TorusKnotConfig):
    """Invertibility of the sine matrix after row scaling.

    Returns (ok, scaled |det|, condition number); ok when the scaled |det|
    exceeds 1e-8.
    """
    m = sine_matrix(cfg)
    det = scaled_abs_det(m)
    cond = float(np.linalg.cond(m)) if det else float("inf")
    return det > 1e-8, det, cond


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


def refused(check: dict) -> bool:
    """Whether a check was refused by the state budget: neither passed nor failed."""
    return "refused" in check["witness"]


@dataclass
class VerificationReport:
    config: dict
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    @property
    def failed(self) -> list:
        """The checks that failed, not counting those refused."""
        return [c for c in self.checks if not c["pass"] and not refused(c)]

    @property
    def exit_code(self) -> int:
        """0 if every check passed, 1 if one failed, else 3: some refused, none failed."""
        return 0 if self.all_passed else 1 if self.failed else 3

    def to_json(self) -> dict:
        return {"config": self.config, "checks": self.checks}

    def json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _run_check(name, fn, *args) -> dict:
    """Run one check fn(*args) -> (passed, witness) and time it."""
    t0 = time.perf_counter()
    try:
        passed, witness = fn(*args)
    except BudgetError as exc:  # refused: reported apart from a failure
        # every state sum of a check runs on 2k strands at the slope in its name
        case = dict(exc.figures, slope=int(name.rpartition("-slope")[2]))
        case["k"] = case.pop("strands") // 2
        passed, witness = False, {"refused": case}
    except Exception as exc:  # hard failures are reported, never skipped
        passed, witness = False, {"error": f"{type(exc).__name__}: {exc}"}
    ms = (time.perf_counter() - t0) * 1000.0
    return {"name": name, "pass": bool(passed), "witness": witness,
            "ms": round(ms, 3)}


def _check_admissible_count(cfg):
    got = len(admissible_pairs(cfg))
    want = (cfg.p - 1) * (cfg.q - 1) // 2
    return got == want, {"count": got, "expected": want}


def _check_deg0_degrees(cfg):
    bound = 4 * cfg.p * cfg.q
    seen = {}
    for d, exps in deg0_exponents(cfg, bound):
        if d in seen:
            return False, {"bound": bound, "degree": d, "collision": [
                dict(zip(("m1", "n", "m2"), e)) for e in (seen[d], exps)]}
        seen[d] = exps
    return True, {"bound": bound, "count": len(seen)}


def _check_orbit_count(cfg, max_k):
    want = (cfg.p - 1) * (cfg.q - 1) // 2
    counts = {k: sum(1 for _ in degk_orbits(cfg, k)) for k in range(1, max_k + 1)}
    return all(c == want for c in counts.values()), {
        "counts": counts, "expected": want}


def _json_float(x: float):
    """x, or its repr when JSON has no literal for it (inf, nan)."""
    return x if math.isfinite(x) else repr(x)


def _check_dst(cfg):
    ok, det, cond = verify_dst(cfg)
    return ok, {"scaled_det": _json_float(det), "cond": _json_float(cond)}


@lru_cache(maxsize=None)
def _series_mismatch(build, max_ij):
    """The first (i, j) where the table build(max_ij, max_ij) differs from
    trace_word(i, j), or None.  The comparison does not depend on the knot,
    so it runs once per process for each table builder (a builder patched
    in is compared afresh)."""
    table = build(max_ij, max_ij)
    for i in range(max_ij + 1):
        for j in range(max_ij + 1):
            if table[i][j] != trace_word(i, j):
                return i, j
    return None


def _check_triple_agreement(cfg, seed, samples=20, tol=1e-9):
    mismatch = _series_mismatch(series_table, MAX_IJ)
    if mismatch:
        return False, {"mismatch": {"i": mismatch[0], "j": mismatch[1], "route": "series"}}
    rng = Generator(seed)  # numpy's default_rng(seed) stream, bit for bit
    pairs = admissible_pairs(cfg)
    picks, zs = [], []
    for _ in range(samples):
        picks.append(pairs[int(rng.integers(len(pairs)))])
        zs.append(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    comps = [Component(cfg, pair) for pair in picks]
    xs, ys = [c.x_const for c in comps], [c.y_const for c in comps]
    us, vs = sample_stack(picks, xs, ys, zs, cfg)
    diff = trace_values(MAX_IJ, xs, ys, zs) - numeric_traces(us, vs, MAX_IJ, MAX_IJ)
    # np.hypot is what abs() of a Python complex computes; np.abs may differ
    errors = np.hypot(diff.real, diff.imag).reshape(samples, -1).max(axis=1)
    worst = 0.0
    for sample, error in enumerate(errors.tolist()):  # the running worst
        if not math.isfinite(error):  # max() would skip a NaN
            return False, {"sample": sample, "error": _json_float(error), "tol": tol}
        worst = max(worst, error)
        if worst > tol:
            return False, {"worst_error": worst, "tol": tol}
    return True, {"worst_error": worst, "tol": tol,
                  "samples": samples, "max_ij": MAX_IJ}


def _check_rotation_order(slope, max_k):
    for k in range(1, max_k + 1):
        if rotation_power(slope, k) != UniPoly.constant("w", 1):
            return False, {"slope": slope, "k": k}
    return True, {"slope": slope, "k_range": max_k}


def _check_basis_triangular(slope, max_k):
    for k in range(1, max_k + 1):
        coords = basis_coordinates(slope, k)
        for j in range(1, slope):
            diagonal = coords[j - 1][j - 1]  # an int 0 past the degree
            if not diagonal or diagonal.unit_parts() is None:
                return False, {"slope": slope, "k": k, "j": j,
                               "diagonal": str(diagonal)}
            if coords[j - 1].degree >= j:
                return False, {"slope": slope, "k": k, "j": j,
                               "reason": "not triangular"}
    return True, {"slope": slope, "k_range": max_k}


def _check_rotation_exponents(slope, max_k):
    for k in range(1, max_k + 1):
        expo = rotation_exponents(slope, k)  # raises on sign defects
        if any(expo[j - 1] != -expo[slope - j - 1] for j in range(1, slope)):
            return False, {"slope": slope, "k": k, "exponents": list(expo)}
    return True, {"slope": slope, "k_range": max_k,
                  "exponents": list(rotation_exponents(slope, 1))}


def _check_normalized_rotation(slope, max_k):
    # rotate(e_j) = A^(u_j) e_(slope-j) exactly, so the basis rescaled to
    # A^(n_j) e_j, n_j = -u_j when 2j > slope and 0 otherwise, is swapped
    # exactly when n_j + u_j = n_(slope-j)
    for k in range(1, max_k + 1):
        expo = rotation_exponents(slope, k)
        shift = [-u if 2 * j > slope else 0 for j, u in enumerate(expo, start=1)]
        for j in range(1, slope):
            if shift[j - 1] + expo[j - 1] != shift[slope - j - 1]:
                return False, {"slope": slope, "k": k, "j": j}
    return True, {"slope": slope, "k_range": max_k}


def verify_theorem(cfg: TorusKnotConfig, max_k: int = 2,
                   seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run every instance check of the freeness theorem for one (p, q).

    Skein-side checks run once per side of the splitting (slope q for the
    solid torus with core u, slope p for the other), for each grade k from 1
    to max_k.  An out-of-range max_k or seed is a usage error and raises
    ValueError before any check runs.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    checks = [
        _run_check("admissible-pair-count", _check_admissible_count, cfg),
        _run_check("deg0-distinct-degrees", _check_deg0_degrees, cfg),
        _run_check("degk-orbit-count", _check_orbit_count, cfg, max_k),
        _run_check("dst-invertible", _check_dst, cfg),
        _run_check("trace-triple-agreement", _check_triple_agreement, cfg, seed),
    ]
    for slope in sorted({cfg.p, cfg.q}):
        tag = f"slope{slope}"
        checks.extend([
            _run_check(f"rotation-order-{tag}", _check_rotation_order, slope, max_k),
            _run_check(f"basis-triangular-{tag}", _check_basis_triangular, slope, max_k),
            _run_check(f"rotation-exponents-{tag}", _check_rotation_exponents, slope, max_k),
            _run_check(f"normalized-rotation-{tag}", _check_normalized_rotation, slope, max_k),
        ])
    return VerificationReport(
        config={"p": cfg.p, "q": cfg.q, "max_k": max_k, "seed": seed},
        checks=checks)
