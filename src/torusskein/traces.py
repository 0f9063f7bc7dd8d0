"""Traces of u^i v^j three independent ways.

1. :func:`trace_word` -- exact recursion from the SL2 identity
   tr(MN) = tr(M) tr(N) - tr(M N^-1), reducing the u-power first and then
   the v-power.  Each step x*a - b (or a*y - b) is a monomial shift of one
   word and a subtraction, with the terms in the order that product gives.
2. :func:`series_table` -- expansion of the generating function
   sum_{i,j} tr(u^i v^j) s^i t^j =
   (2 - s x - t y + s t z) / ((1 - s x + s^2)(1 - t y + t^2)),
   whose denominators are the characteristic polynomials det(1 - s u) and
   det(1 - t v); their inverses are the second-kind Chebyshev series of
   :func:`~torusskein.algebra.chebyshev_terms`.  Each coefficient is a sum of
   outer products of the S_n and T_n coefficient maps in x and in y.  The
   numerator pairing (x with s, y with t) is the one consistent with
   x = tr(u); the tests build the product form and the flipped pairing, a
   deliberately wrong negative control, themselves.
3. :func:`sample_stack` -- explicit 2x2 matrices for representations on
   chosen irreducible components, one per sample, for float cross-checks.

:func:`trace_values` and :func:`numeric_traces` evaluate a whole (i, j)
table of routes 1 and 3 at a stack of samples in one batch.  The exact
route holds its terms as (term, sample) rows, term t of every word before
term t+1 of any, forms every term's value in one product for each of three
runs of rows, and adds each word's terms in order, one in-place add of a
contiguous block of rows per term position; the numeric route takes the
powers of U and V for all samples from shared squares, those with one top
bit in one stacked product, and forms only the diagonal of each product
U^i V^j.  Each value is bit for bit the per-entry
:meth:`TracePoly.evaluate` or np.trace(matrix_power(U, i) @ matrix_power(V, j)).
The exact polynomials have int coefficients, so routes 1 and 2 run in
integer arithmetic.

A ``verify`` process runs three native numpy kernels, each because its
rounding reaches the report: zgemm, the complex matrix product behind
:func:`matrix_powers`, fixes the bits of trace-triple-agreement's
``worst_error``; in ``assembly``, the real LU (dgetrf) behind
``scaled_abs_det`` fixes dst-invertible's ``scaled_det``, and the SVD
(dgesdd) behind ``np.linalg.cond`` its ``cond``.  Everything else stays
elementwise or in Python: :func:`validate_stack` only compares against
tolerances, so it runs on Python complex scalars, forming its
determinants and traces from the 2x2 entries with no complex LU and no
numpy ``isfinite`` or ``abs`` loop, and :func:`_term_layout` inverts its
ranking of the words with a Python sort.  A kernel left out is resident
code that a process never pages in.

The lru_cache memos of trace_word and _term_layout are the only shared
state in this module; the results do not depend on evaluation order.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat

import numpy as np

from .algebra import TracePoly, chebyshev_terms
from .charvariety import AdmissiblePair, Component, TorusKnotConfig
from .skein import BudgetError

SERIES_MAX = 16
_TERM_PARTS = 3  # runs of term positions that trace_values forms one at a time
# bound on (i+1)(j+1)(i+j+2): about twice the word's terms times its length,
# since trace_word's memo keeps every word of the chain that builds it and
# their coefficients grow with the length; `trace-poly 63 63`, at the bound,
# takes 0.2 s and 39 MB
WORD_BUDGET = 2 ** 19


def check_word(i: int, j: int) -> None:
    """Raise BudgetError when tr(u^i v^j) has (i+1)(j+1)(i+j+2) over WORD_BUDGET."""
    work = (i + 1) * (j + 1) * (i + j + 2)
    if work > WORD_BUDGET:
        raise BudgetError(f"tr(u^{i} v^{j}): (i+1)(j+1)(i+j+2) = {work} exceeds the "
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
        return trace_word(i - 1, j).shift(1, 0, 0) - trace_word(i - 2, j)
    # i <= 1, j >= 2: peel a v off the right
    for m in range(2, j):
        trace_word(i, m)
    return trace_word(i, j - 1).shift(0, 1, 0) - trace_word(i, j - 2)


@lru_cache(maxsize=None)
def _term_layout(max_ij: int) -> tuple:
    """The terms of every trace_word(i, j), i, j <= max_ij, laid out flat.

    Returns (parts, order).  The words are ranked by term count, longest
    first, with term t of every word before term t+1 of any.  counts[t] is
    the number of words with more than t terms, a prefix of the ranking.
    The term positions are cut into _TERM_PARTS runs of about equal term
    counts, and each part is (c, a, b, e, counts) of its run: c holds each
    term as float(c) (what ``c * float`` computes inside
    TracePoly.evaluate), as a column, and a, b, e its exponents of x, y, z.
    order[w] is the rank of word i*(max_ij+1) + j: the inverse of the
    ranking, taken by a Python sort of the word indices, since numpy's sort
    kernel would cost a process more to page in than it saves on 81 words.
    """
    n = max_ij + 1
    words = [list(trace_word(i, j).terms.items()) for i in range(n) for j in range(n)]
    ranked = sorted(range(len(words)), key=lambda w: -len(words[w]))
    # minus the term counts by rank, ascending: counts[t] is how many are below -t
    negated = [-len(words[w]) for w in ranked]
    counts = [bisect_left(negated, -t) for t in range(-negated[0])]
    flat = [words[w][t] for t, m in enumerate(counts) for w in ranked[:m]]
    coeffs = np.array([float(c) for _, c in flat])[:, None]
    expos = np.array([e for key, _ in flat for e in key], dtype=np.intp).reshape(-1, 3).T
    # ends[t] is the first term row of position t; each cut is the first
    # position end at or past the next share of the rows
    ends = [0, *accumulate(counts)]
    cuts = sorted({0, len(counts), *(bisect_left(ends, len(flat) * k / _TERM_PARTS)
                                      for k in range(1, _TERM_PARTS))})
    parts = tuple((coeffs[ends[i]:ends[j]], *expos[:, ends[i]:ends[j]], tuple(counts[i:j]))
                  for i, j in zip(cuts, cuts[1:]))
    return parts, np.array(sorted(range(len(ranked)), key=ranked.__getitem__))


def trace_values(max_ij: int, xs, ys, zs) -> np.ndarray:
    """Exact trace values at a stack of samples, shape (S, max_ij+1, max_ij+1).

    Entry [s, i, j] is trace_word(i, j).evaluate(xs[s], ys[s], zs[s]) bit
    for bit, for float xs and ys and for zs all float or all complex: each
    power is taken with ``**``, every term's value c*x^a*y^b*z^e is formed
    in one product over the (term, sample) rows of each part of the layout,
    and each word's terms are added in its term order from +0, one in-place
    add per term position over all samples (np.sum would add pairwise, in
    another order).
    """
    n = max_ij + 1
    # (power, sample) tables, so that the terms below are (term, sample)
    # rows and every term position is one contiguous block of them
    xp, yp, zp = (np.array([v ** m for m in range(n) for v in vs]).reshape(n, -1)
                  for vs in (xs, ys, zs))
    parts, order = _term_layout(max_ij)
    acc = np.zeros((n * n, len(zs)), dtype=zp.dtype)
    # one part at a time: a complex array of all the rows, with numpy's
    # cast of real to complex for the product, would double the peak
    # memory here, from about 0.3 to 0.6 MB at 20 samples and max_ij = 8
    for c, a, b, e, counts in parts:
        # c*x^a*y^b rounds as left to right, since each product commutes;
        # it multiplies the gathered z^e in place, which rounds as
        # (c*x^a*y^b)*z^e: a complex product's parts are products and sums,
        # and both commute
        real = xp[a]
        real *= c
        real *= yp[b]
        terms = zp[e]
        terms *= real
        start = 0
        for m in counts:
            words = acc[:m]
            words += terms[start:start + m]
            start += m
    return acc[order].T.reshape(-1, n, n)


def series_table(max_i: int, max_j: int) -> tuple:
    """Power-series coefficients G[i][j] of the trace generating function.

    1/(1 - s x + s^2) expands to sum_i S_i(x) s^i with S_i the degree-i
    second-kind recursion polynomials, so the (i, j) coefficient is read off
    as a finite combination of S_i(x) and S_j(y).
    """
    if max_i > SERIES_MAX or max_j > SERIES_MAX:
        raise ValueError(f"series bounds are limited to {SERIES_MAX}")
    # coefficient maps [(power, coefficient), ...] of S_-1 = 0, S_0, ..., S_n
    # and of T_0, ..., T_n, one variable's, since x and y share them
    top = max(max_i, max_j) + 1
    s, t = ([[(key[0], c) for key, c in poly.terms.items()]
             for poly in islice(chebyshev_terms(TracePoly.x(), x0), top)] for x0 in (1, 2))
    s.insert(0, [])

    def entry(i, j):
        # 2 S_j(y) - y S_j-1(y) = T_j(y), so G[i][j] is the sum of the outer
        # products S_i(x) T_j(y) - x S_i-1(x) S_j(y) + z S_i-1(x) S_j-1(y)
        terms = {}
        for xs, ys, da, e, sign in ((s[i + 1], t[j], 0, 0, 1), (s[i], s[j + 1], 1, 0, -1),
                                    (s[i], s[j], 0, 1, 1)):
            for a, cx in xs:
                for b, cy in ys:
                    terms[a + da, b, e] = terms.get((a + da, b, e), 0) + sign * cx * cy
        return TracePoly(terms)

    return tuple(tuple(entry(i, j) for j in range(max_j + 1)) for i in range(max_i + 1))


def _scalars(values) -> list:
    """values as a flat sequence of Python scalars: an array is read with
    ``tolist``, which runs no ufunc loop; any other sequence is kept."""
    return values.ravel().tolist() if isinstance(values, np.ndarray) else values


def validate_stack(us, vs, xs, ys, zs) -> None:
    """Raise ValueError unless every sample of the stack is a representation
    with tr U = x, tr V = y and tr UV = z.

    us and vs hold each sample's 2x2 entries u00, u01, u10, u11 in order,
    flat or stacked to shape (S, 2, 2).  Only comparisons against tolerances
    leave this function, never a value, so it runs on Python complex
    scalars: det as u00 u11 - u01 u10, a trace as the diagonal sum, and
    tr UV as the sum of four products, each compared with ``abs``.  No
    numpy kernel runs here.
    """
    us, vs, xs, ys, zs = map(_scalars, (us, vs, xs, ys, zs))
    # every test below is ``> tol``, which NaN would pass
    if not all(map(cmath.isfinite, chain(zs, us, vs))):
        raise ValueError("z or an entry of U or V is not finite")
    u = [us[n:n + 4] for n in range(0, len(us), 4)]
    v = [vs[n:n + 4] for n in range(0, len(vs), 4)]
    tests = (
        ((a * d - b * c for a, b, c, d in u), repeat(1), 1e-12, "det U drifted from 1"),
        ((a * d - b * c for a, b, c, d in v), repeat(1), 1e-12, "det V drifted from 1"),
        ((a + d for a, _, _, d in u), xs, 1e-9, "tr U is off the component"),
        ((a + d for a, _, _, d in v), ys, 1e-9, "tr V is off the component"),
        ((a * e + b * g + c * f + d * h for (a, b, c, d), (e, f, g, h) in zip(u, v)), zs, 1e-9,
         "tr UV missed the requested z"),
    )
    for got, want, tol, message in tests:
        if any(abs(g - w) > tol for g, w in zip(got, want)):
            raise ValueError(message)


def sample_stack(pairs, xs, ys, zs, cfg: TorusKnotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Matrices U, V with tr U = x, tr V = y, tr UV = z for each sample
    (pair, x, y, z), x and y the constant traces of the pair's component,
    validated on their flat entry lists in one pass and then stacked to
    shape (S, 2, 2).

    U is diagonal with eigenvalues exp(+-i k pi / q).  V = [[a, 1], [ad-1, d]]
    has the prescribed trace and determinant 1; a is solved from the linear
    system tr V = y, tr UV = z, which is nonsingular because the
    eigenvalues of U are distinct.  The construction succeeds for every z;
    exactly at the two abelian meeting z-values the pair becomes reducible
    (V turns triangular) but the matrices remain valid.
    """
    us, vs = [], []
    for pair, y, z in zip(pairs, ys, zs):
        xi = cmath.exp(1j * math.pi * pair.k / cfg.q)
        denom = xi - 1 / xi
        if abs(denom) < 1e-15:
            raise ValueError(f"degenerate eigenvalue data for pair {pair}")
        a = (z - y / xi) / denom
        d = y - a
        # flat lists: validate_stack reads them as they are, and numpy reads
        # them faster than nested ones
        us.extend((xi, 0.0, 0.0, 1 / xi))
        vs.extend((a, 1.0, a * d - 1.0, d))
    validate_stack(us, vs, xs, ys, zs)
    return (np.array(us, dtype=complex).reshape(-1, 2, 2),
            np.array(vs, dtype=complex).reshape(-1, 2, 2))


def numeric_rep(pair: AdmissiblePair, z_param: complex, cfg: TorusKnotConfig) -> tuple:
    """(U, V) of :func:`sample_stack` for one sample, at the constant traces
    x_c, y_c of the pair's component.  The benchmark's tracer looks up this
    name, so it stays until its metrics go."""
    comp = Component(cfg, pair)
    us, vs = sample_stack([pair], [comp.x_const], [comp.y_const], [z_param], cfg)
    return us[0], vs[0]


def matrix_powers(a: np.ndarray, top: int) -> np.ndarray:
    """a^0, ..., a^top of a stack of matrices, stacked along a new first
    axis, each bit for bit np.linalg.matrix_power's.

    Every square a^(2^h) is taken once.  a^n folds the squares of the set
    bits of n, lowest first, as matrix_power does past its shortcuts a^0,
    a^1 and a^3 = (a a) a; so the powers with top bit h are the powers
    below 2^h times a^(2^h), formed in one stacked product.
    """
    powers = np.empty((top + 1, *a.shape), dtype=a.dtype)
    powers[0] = np.identity(a.shape[-1], dtype=a.dtype)  # as matrix_power(a, 0) sets it
    powers[1:2] = a  # nothing to set when top is 0
    bit = 2
    while bit <= top:
        np.matmul(powers[bit // 2], powers[bit // 2], out=powers[bit])
        # matrix_power's running product over the lower bits of n is a^rest
        rest = min(bit - 1, top - bit)
        np.matmul(powers[1:rest + 1], powers[bit], out=powers[bit + 1:bit + rest + 1])
        bit *= 2
    if top >= 3:
        powers[3] = powers[2] @ a  # after the folds 7, 11, ... that read a @ a^2
    return powers


def numeric_traces(us, vs, max_i: int, max_j: int) -> np.ndarray:
    """Traces of U^i V^j for stacks of U and V, shape (S, max_i+1, max_j+1).

    Entry [s, i, j] is np.trace(matrix_power(U, i) @ matrix_power(V, j)) of
    sample s, bit for bit: the powers of the stacked U and V are those
    matrix_power calls (:func:`matrix_powers`), and only the two diagonal
    entries of each product are formed, each summed as ``@`` sums it.
    """
    both = np.concatenate([us, vs])
    powers = matrix_powers(both, max(max_i, max_j)).swapaxes(0, 1)
    u = powers[:len(us), :max_i + 1, None]
    v = powers[len(us):, None, :max_j + 1]
    m00 = u[..., 0, 0] * v[..., 0, 0] + u[..., 0, 1] * v[..., 1, 0]
    m11 = u[..., 1, 0] * v[..., 0, 1] + u[..., 1, 1] * v[..., 1, 1]
    # np.trace sums from +0.0, so it never returns a -0.0 part; "+ 0j"
    # does the same, and the rest of the sum is the same single addition
    return m00 + m11 + 0j
