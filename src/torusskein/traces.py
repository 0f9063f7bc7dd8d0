"""Traces of u^i v^j three independent ways.

1. :func:`trace_word` -- exact recursion from the SL2 identity
   tr(MN) = tr(M) tr(N) - tr(M N^-1), reducing the u-power first and then
   the v-power.
2. :func:`series_table` -- expansion of the generating function
   sum_{i,j} tr(u^i v^j) s^i t^j =
   (2 - s x - t y + s t z) / ((1 - s x + s^2)(1 - t y + t^2)),
   whose denominators are the characteristic polynomials det(1 - s u) and
   det(1 - t v); their inverses are the second-kind Chebyshev series of
   :func:`~torusskein.algebra.chebyshev_terms`.  The numerator pairing (x
   with s, y with t) is the one consistent with x = tr(u); the tests build
   the flipped pairing themselves, as a deliberately wrong negative control.
3. :func:`numeric_stack` -- explicit 2x2 matrices for representations on
   chosen irreducible components, one per sample, for float cross-checks;
   :func:`numeric_rep` is a stack of one.

:func:`trace_values` and :func:`numeric_traces` evaluate a whole (i, j)
table of routes 1 and 3 at a stack of samples in one batch.  The exact
route multiplies each term of every word once and adds each word's terms
in order; the numeric route takes the powers of U and V for all samples
from squares shared by every exponent, bit for bit matrix_power's, and
forms only the diagonal of each product U^i V^j.  Each value is bit for
bit the per-entry :meth:`TracePoly.evaluate` or :meth:`NumericRep.trace`.
The exact polynomials have int coefficients, so routes 1 and 2 run in
integer arithmetic.

The lru_cache memos behind trace_word, series_table and _term_layout
(the words' terms laid out for the batch) are the only shared state in
this module; the results do not depend on evaluation order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .algebra import TracePoly, chebyshev_terms
from .charvariety import AdmissiblePair, Component, TorusKnotConfig
from .skein import BudgetError

SERIES_MAX = 16
WORD_BUDGET = 2 ** 12  # bound on (i+1)(j+1); `trace-poly 63 63` takes 0.4 s


def check_word(i: int, j: int) -> None:
    """Raise BudgetError when tr(u^i v^j) has (i+1)(j+1) over WORD_BUDGET."""
    if (i + 1) * (j + 1) > WORD_BUDGET:
        raise BudgetError(
            f"tr(u^{i} v^{j}): (i+1)(j+1) = {(i + 1) * (j + 1)} exceeds the "
            f"word budget of {WORD_BUDGET}")


@lru_cache(maxsize=None)
def trace_word(i: int, j: int) -> TracePoly:
    """tr(u^i v^j) as an exact polynomial in x, y, z (i, j >= 0).

    For i, j >= 1 the result has z-degree exactly 1.  It has about
    (i+1)(j+1)/2 terms; :func:`check_word` refuses an oversized word before
    anything is built.
    """
    if i < 0 or j < 0:
        raise ValueError("exponents must be nonnegative")
    check_word(i, j)
    if (i, j) == (0, 0):
        return TracePoly.constant(2)
    if (i, j) == (1, 0):
        return TracePoly.x()
    if (i, j) == (0, 1):
        return TracePoly.y()
    if (i, j) == (1, 1):
        return TracePoly.z()
    # fill the memo bottom-up first, so that no call recurses more than a
    # few levels deep whatever the degree
    if i >= 2:
        for m in range(2, i):
            trace_word(m, j)
        # tr(u * u^{i-1} v^j) = tr(u) tr(u^{i-1} v^j) - tr(u^{i-2} v^j)
        return TracePoly.x() * trace_word(i - 1, j) - trace_word(i - 2, j)
    # i <= 1, j >= 2: peel a v off the right
    for m in range(2, j):
        trace_word(i, m)
    return trace_word(i, j - 1) * TracePoly.y() - trace_word(i, j - 2)


@lru_cache(maxsize=None)
def _term_layout(max_ij: int) -> tuple:
    """The terms of every trace_word(i, j), i, j <= max_ij, laid out flat.

    Returns (c, a, b, e, counts, order).  The words are ranked by term
    count, longest first; c holds each term as float(c) (what ``c * float``
    computes inside TracePoly.evaluate) and a, b, e its exponents of x, y,
    z, with term t of every word before term t+1 of any.  counts[t] is the
    number of words with more than t terms, a prefix of the ranking, and
    order[w] the rank of word i*(max_ij+1) + j.
    """
    n = max_ij + 1
    words = [list(trace_word(i, j).terms.items()) for i in range(n) for j in range(n)]
    ranked = sorted(range(len(words)), key=lambda w: -len(words[w]))
    counts = [sum(len(terms) > t for terms in words) for t in range(len(words[ranked[0]]))]
    flat = [words[w][t] for t, m in enumerate(counts) for w in ranked[:m]]
    coeffs = np.array([float(c) for _, c in flat])
    expos = np.array([key for key, _ in flat], dtype=np.intp).reshape(-1, 3).T
    return (coeffs, *expos, tuple(counts), np.argsort(ranked))


def trace_values(max_ij: int, xs, ys, zs) -> np.ndarray:
    """Exact trace values at a stack of samples, shape (S, max_ij+1, max_ij+1).

    Entry [s, i, j] is trace_word(i, j).evaluate(xs[s], ys[s], zs[s]) bit
    for bit, for float xs and ys and for zs all float or all complex: each
    power is taken with ``**``, every term multiplied once as
    c*x^a*y^b*z^e, and each word's terms added in its term order from +0,
    one term position at a time over all samples (np.sum would add
    pairwise, in another order).
    """
    n = max_ij + 1
    xp, yp, zp = (np.array([[v ** m for m in range(n)] for v in vs])
                  for vs in (xs, ys, zs))
    c, a, b, e, counts, order = _term_layout(max_ij)
    # the real part c*x^a*y^b of every term, in place: each product
    # commutes, so it rounds as left to right, and at most two (S, terms)
    # float arrays are live; z^e joins one term position at a time
    real = xp[:, a]
    real *= c
    real *= yp[:, b]
    acc = np.zeros((len(zp), n * n), dtype=zp.dtype)
    start = 0
    for m in counts:
        t = slice(start, start + m)
        acc[:, :m] += real[:, t] * zp[:, e[t]]
        start += m
    return acc[:, order].reshape(-1, n, n)


@lru_cache(maxsize=None)
def series_table(max_i: int, max_j: int) -> tuple:
    """Power-series coefficients G[i][j] of the trace generating function.

    1/(1 - s x + s^2) expands to sum_i S_i(x) s^i with S_i the degree-i
    second-kind recursion polynomials, so the (i, j) coefficient is read off
    as a finite combination of S_i(x) and S_j(y).  Only the pairing of x
    with s is built here; the flipped numerator 2 - t x - s y + s t z, a
    wrong convention, lives in the tests as a negative control.  The table
    does not depend on the knot, so it is cached; rows are tuples, so a
    cached table is immutable.
    """
    if max_i > SERIES_MAX or max_j > SERIES_MAX:
        raise ValueError(f"series bounds are limited to {SERIES_MAX}")
    x, y, z = TracePoly.x(), TracePoly.y(), TracePoly.z()
    # [S_-1, S_0, ..., S_n], with S_-1 = 0
    sx = [TracePoly(), *islice(chebyshev_terms(x, 1), max_i + 1)]
    sy = [TracePoly(), *islice(chebyshev_terms(y, 1), max_j + 1)]
    return tuple(
        tuple(2 * sx[i + 1] * sy[j + 1] - x * sx[i] * sy[j + 1]
              - y * sx[i + 1] * sy[j] + z * sx[i] * sy[j]
              for j in range(max_j + 1))
        for i in range(max_i + 1))


def validate_stack(us, vs, pairs, zs, cfg, tol_det: float = 1e-12,
                   tol_trace: float = 1e-9) -> None:
    """Raise ValueError unless every sample of the stack is a representation
    on its pair's component with tr UV = z."""
    zs = np.asarray(zs, dtype=complex)
    # every test below is ``> tol``, which NaN would pass
    if not (np.isfinite(zs).all() and np.isfinite(us).all() and np.isfinite(vs).all()):
        raise ValueError("z or an entry of U or V is not finite")
    comps = [Component(cfg, pair) for pair in pairs]
    tests = (
        (np.linalg.det(us), 1, tol_det, "det U drifted from 1"),
        (np.linalg.det(vs), 1, tol_det, "det V drifted from 1"),
        (np.trace(us, axis1=1, axis2=2), [c.x_const for c in comps], tol_trace,
         "tr U is off the component"),
        (np.trace(vs, axis1=1, axis2=2), [c.y_const for c in comps], tol_trace,
         "tr V is off the component"),
        (np.trace(us @ vs, axis1=1, axis2=2), zs, tol_trace, "tr UV missed the requested z"),
    )
    for got, want, tol, message in tests:
        if (np.abs(got - want) > tol).any():
            raise ValueError(message)


@dataclass(frozen=True)
class NumericRep:
    """A numeric SL2 representation pinned to one irreducible component."""

    U: np.ndarray
    V: np.ndarray
    pair: AdmissiblePair
    z_param: complex
    cfg: TorusKnotConfig

    def word(self, i: int, j: int) -> np.ndarray:
        return np.linalg.matrix_power(self.U, i) @ np.linalg.matrix_power(self.V, j)

    def trace(self, i: int, j: int) -> complex:
        return complex(np.trace(self.word(i, j)))

    def validate(self, tol_det: float = 1e-12, tol_trace: float = 1e-9) -> None:
        validate_stack(self.U[None], self.V[None], [self.pair], [self.z_param], self.cfg,
                       tol_det, tol_trace)

    def relation_defects(self) -> tuple[float, float]:
        """Operator-norm distances of U^q and V^p from (-1)^k Id, (-1)^l Id."""
        q, p = self.cfg.q, self.cfg.p
        uq = np.linalg.matrix_power(self.U, q) - (-1) ** self.pair.k * np.eye(2)
        vp = np.linalg.matrix_power(self.V, p) - (-1) ** self.pair.l * np.eye(2)
        return (float(np.linalg.norm(uq, 2)), float(np.linalg.norm(vp, 2)))


def numeric_stack(pairs, zs, cfg: TorusKnotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Matrices U, V with tr U = x_c, tr V = y_c, tr UV = z for each sample
    (pair, z), stacked to shape (S, 2, 2) and validated in one pass.

    U is diagonal with eigenvalues exp(+-i k pi / q).  V = [[a, 1], [ad-1, d]]
    has the prescribed trace and determinant 1; a is solved from the linear
    system tr V = y_c, tr UV = z, which is nonsingular because the
    eigenvalues of U are distinct.  The construction succeeds for every z;
    exactly at the two abelian meeting z-values the pair becomes reducible
    (V turns triangular) but the matrices remain valid.
    """
    us, vs = [], []
    for pair, z in zip(pairs, zs):
        xi = cmath.exp(1j * math.pi * pair.k / cfg.q)
        eta_sum = 2.0 * math.cos(math.pi * pair.l / cfg.p)
        denom = xi - 1 / xi
        if abs(denom) < 1e-15:
            raise ValueError(f"degenerate eigenvalue data for pair {pair}")
        a = (z - eta_sum / xi) / denom
        d = eta_sum - a
        us.append([[xi, 0.0], [0.0, 1 / xi]])
        vs.append([[a, 1.0], [a * d - 1.0, d]])
    us = np.array(us, dtype=complex).reshape(-1, 2, 2)
    vs = np.array(vs, dtype=complex).reshape(-1, 2, 2)
    validate_stack(us, vs, pairs, zs, cfg)
    return us, vs


def numeric_rep(pair: AdmissiblePair, z_param: complex, cfg: TorusKnotConfig) -> NumericRep:
    """The representation of :func:`numeric_stack` for one sample."""
    us, vs = numeric_stack([pair], [z_param], cfg)
    return NumericRep(us[0], vs[0], pair, complex(z_param), cfg)


def matrix_powers(a: np.ndarray, top: int) -> list:
    """[a^0, ..., a^top] of a stack of matrices, each bit for bit
    np.linalg.matrix_power's: every square a^(2^b) is taken once, and a^n
    folds the squares of the set bits of n, lowest first, as matrix_power
    does past its shortcuts a^0, a^1 and a^3 = (a a) a."""
    powers, squares = [np.linalg.matrix_power(a, 0), a], [a]
    for n in range(2, top + 1):
        high = n.bit_length() - 1
        rest = n - (1 << high)
        if not rest:
            squares.append(squares[-1] @ squares[-1])
        # matrix_power's running product over the lower bits of n is powers[rest]
        powers.append(powers[rest] @ squares[high] if rest else squares[high])
    if top >= 3:
        powers[3] = squares[1] @ a  # after the folds 7, 11, ... that read a @ a^2
    return powers[:top + 1]


def numeric_traces(us, vs, max_i: int, max_j: int) -> np.ndarray:
    """Traces of U^i V^j for stacks of U and V, shape (S, max_i+1, max_j+1).

    Entry [s, i, j] is the trace of NumericRep.word(i, j) of sample s, bit
    for bit: the powers of the stacked U and V are the matrix_power calls of
    ``word`` (:func:`matrix_powers`), and only the two diagonal entries of
    each product are formed, each summed as ``@`` sums it.
    """
    both = np.concatenate([us, vs])
    powers = np.stack(matrix_powers(both, max(max_i, max_j)), axis=1)
    u = powers[:len(us), :max_i + 1, None]
    v = powers[len(us):, None, :max_j + 1]
    m00 = u[..., 0, 0] * v[..., 0, 0] + u[..., 0, 1] * v[..., 1, 0]
    m11 = u[..., 1, 0] * v[..., 0, 1] + u[..., 1, 1] * v[..., 1, 1]
    # np.trace sums from +0.0, so it never returns a -0.0 part; "+ 0j"
    # does the same, and the rest of the sum is the same single addition
    return m00 + m11 + 0j
