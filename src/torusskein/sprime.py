"""The quotient S'(T, 2k) of the relative solid-torus skein module.

Fix a slope p >= 1 (the framing curve of the marked points runs once around
the meridian direction and p times around the core) and k >= 1.  The quotient
kills every multicurve holding a winding-0 arc (each holds an innermost one,
a boundary-parallel arc between consecutive points).  The survivors are the
w^m -- k seam-crossing arcs in rainbow position plus m core loops -- so the
quotient is the ring Z[A, A^-1][w] modulo one relation, the rotated null
tangle, of degree p-1 with a unit leading coefficient.  An element is a
``UniPoly`` in w over ``Laurent`` reduced modulo it (``%``), with basis
{w^0, ..., w^(p-2)}.

The rotation shifts every marked point one step along the framing curve, the
last one passing the seam.  Its collar word is one positive framing curl and
p backward turns of one traveller strand, crossing each other strand once per
full turn (sign +1), times a global power of A.  Core loops lie inside the
collar, so the rotation commutes with w: it is multiplication by
f = rotate(w^0), and rot^(2k) = 1 reads f^(2k) = 1 in the ring.  In fact
f^2 = 1 there, by Cassini's identity: f is the Chebyshev S_(p-2)(w) and the
relation a unit times S_(p-1)(w), and S_(p-2)^2 - S_(p-3) S_(p-1) = 1; so
f^(2k) = 1 is checked as f^2 = 1, one product.  The
rotation invariants (that one, rot e_j = A^(u_j) e_(p-j) with
u_(p-j) = -u_j) pin the constants, see the tests.  The collar at slope p
continues the collar at slope p-1, its prefix, and the basis tangle e(k, j)
is the collar at slope j without its curl, on the null tangle: the basis
e(k, j) is read from the relations at slopes 1..p-1 (the tests build the
tangles as an oracle), and one collar sum per slope and width feeds every
table.  Per (slope, k) the cached tables are the relation, f, the basis,
f^2 and the exponents u_j; the rotated basis f e_j is formed only to
prove rot e_j = A^(u_j) e_(p-j) exactly, so the normalized basis
A^(n_j) e_j (n_j = -u_j when 2j > p, else 0), which the rotation swaps,
is read off the exponents and needs no table of its own.

``skein`` builds every word; this module only composes them: the turns of
the collar, the framing curve and each core loop come from
``turn_slices``, and the crossingless tangles w^m and the null tangle from
``multicurve_tangle`` of their multicurves.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache

from .algebra import Laurent, UniPoly
from .skein import (
    AnnularTangle,
    BudgetError,
    Multicurve,
    PlanarityError,
    SkeinElement,
    cap,
    cup,
    kink_slices,
    multicurve_tangle,
    resolve,
    resolve_states,
    turn_slices,
)


class QuotientError(RuntimeError):
    """A reduction relation has a non-invertible leading coefficient."""


def rotation_slices(slope: int, width: int) -> tuple:
    """Collar word of the rotation on ``width`` strands at the given slope.

    One positive framing curl, then slope-1 full backward turns of the strand
    at position 0 and one final seam passage, leaving every other strand
    shifted down one position.
    """
    if slope < 1:
        raise ValueError("slope must be at least 1")
    if width < 1:
        raise ValueError("rotation needs at least one strand")
    return kink_slices(0, 1) + turn_slices(slope, width)


def rotate(tangle: AnnularTangle, slope: int) -> AnnularTangle:
    """The collar word of the rotation stacked onto a tangle.

    This is the diagrammatic part only; the full operator carries the
    framing normalization A^(rotation_norm_exponent), applied by
    :func:`rotated_element`.
    """
    collar = rotation_slices(slope, tangle.endpoints)
    return AnnularTangle(tangle.endpoints, collar + tangle.slices)


def rotation_norm_exponent(slope: int, width: int) -> int:
    """Framing A-power of the rotation on ``width`` strands at ``slope``.

    The collar word realizes the rotation only up to a global power of A;
    the exponent width + slope - 4 restores the three defining invariants
    (rot^(2k) = 1 on the quotient, rot e_j proportional to e_(slope-j) by a
    plus power of A, antisymmetric exponents), checked over slopes up to 7
    and k up to 4.
    """
    return width + slope - 4


@lru_cache(maxsize=None)
def collar_states(slope: int, width: int) -> Mapping | BudgetError:
    """Final states of the collar word alone (read-only, coefficients kept packed),
    the ``start`` of every rotation, without the states holding a winding-0 arc
    (the quotient kills them), or the sum's refusal, kept so that it is summed once.
    The sum continues the collar one turn shorter, a prefix of the word, so the
    state budget trips at the slice and count of the sum from scratch."""
    word, start, done = rotation_slices(slope, width), None, 0
    if slope > 1:
        for s in range(1, slope - 1):  # fill the memo bottom-up, so recursion stays shallow
            collar_states(s, width)
        start, done = collar_states(slope - 1, width), len(rotation_slices(slope - 1, width))
        if isinstance(start, BudgetError):  # the prefix's refusal is the collar's
            return start
    try:
        return resolve_states(AnnularTangle(width, word[done:]), start=start,
                              drop_trivial_arcs=True)
    except BudgetError as exc:
        # a fresh copy, never raised, has no traceback: it keeps no frame alive
        return BudgetError(str(exc), **exc.figures)


def rotated_element(tangle: AnnularTangle, slope: int) -> SkeinElement:
    """The rotation operator applied to a closed tangle, normalization included,
    without the terms holding a winding-0 arc (the quotient kills them).

    The tangle's state sum continues from :func:`collar_states`, whose kept
    refusal is raised as a copy; a refusal names the live states and 2k strands.
    """
    width, start = tangle.endpoints, collar_states(slope, tangle.endpoints)
    if isinstance(start, BudgetError):
        raise BudgetError(str(start), **start.figures)
    el = resolve(tangle, start=start, drop_trivial_arcs=True)
    exp = rotation_norm_exponent(slope, width)
    return SkeinElement(width, {mc: c.shift(exp) for mc, c in el.terms.items()})


# ---------------------------------------------------------------------------
# distinguished tangles
# ---------------------------------------------------------------------------


def rainbow(k: int) -> tuple:
    """The arcs of w^m: k seam-crossing arcs, nested, on 2k marked points."""
    return tuple((i, 2 * k - 1 - i, -1) for i in range(k))


def power_tangle(k: int, m: int) -> AnnularTangle:
    """w^m: the k-arc seam rainbow with m core loops inside."""
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    return multicurve_tangle(Multicurve(rainbow(k), m))


def null_tangle(k: int, n: int) -> AnnularTangle:
    """k-1 seam arcs, one trivial arc on the last two points, n core loops.

    Dies in the quotient; its rotation is w^n times the reduction relation,
    of degree n + slope - 1.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    return multicurve_tangle(Multicurve(rainbow(k - 1) + ((2 * k - 2, 2 * k - 1, 0),), n))


def framing_curve_tangle(slope: int) -> AnnularTangle:
    """The framing curve pushed into the solid torus: the closed ``slope``-turn
    word, winding ``slope`` times around the annulus with slope-1 crossings."""
    if slope < 1:
        raise ValueError("slope must be at least 1")
    return AnnularTangle(0, (cup(0),) + turn_slices(slope, 2) + (cap(0),))


def expand_framing_curve(slope: int) -> UniPoly:
    """Class of the pushed-in framing curve in the loop basis {y^m}.

    Returns a degree-``slope`` polynomial in y over the Laurent ring; the
    leading coefficient is a unit.
    """
    return _loop_polynomial(resolve(framing_curve_tangle(slope)), "y", ())


def closed_basis_element(j: int, slope: int) -> SkeinElement:
    """e(0, j) = (framing curve)^n * y^m in S(T, 0), where j = slope*n + m."""
    if j < 0:
        raise ValueError("need j >= 0")
    n, m = divmod(j, slope)
    poly = expand_framing_curve(slope) ** n * UniPoly("y", [0] * m + [1])
    terms = {Multicurve((), deg): c for deg, c in enumerate(poly.coeffs) if c}
    return SkeinElement(0, terms)


# ---------------------------------------------------------------------------
# the quotient ring Z[A, A^-1][w] / (relation)
# ---------------------------------------------------------------------------


def _loop_polynomial(el: SkeinElement, var: str, arcs: tuple) -> UniPoly:
    """el as a polynomial in its core loops, dropping the terms that hold a
    trivial arc; every other term must have exactly ``arcs``, or this raises."""
    coeffs: list = []
    for mc, c in el.terms.items():
        if mc.has_trivial_arc():
            continue
        if mc.arcs != arcs:
            raise PlanarityError(f"unexpected surviving multicurve {mc}")
        coeffs.extend([Laurent.zero()] * (mc.loops + 1 - len(coeffs)))
        coeffs[mc.loops] = coeffs[mc.loops] + c
    return UniPoly(var, coeffs)


def winding_part(el: SkeinElement, k: int) -> UniPoly:
    """Image of el after killing trivial-arc terms, a polynomial in w.

    Every survivor must be a rainbow multicurve w^m; anything else signals a
    bookkeeping bug and raises.
    """
    if el.endpoints != 2 * k:
        raise ValueError("endpoint count does not match k")
    return _loop_polynomial(el, "w", rainbow(k))


@lru_cache(maxsize=None)
def reduction_relation(slope: int, k: int) -> UniPoly:
    """The relation rotate(null_tangle(k, 0)), a polynomial in w; w^n times it
    is rotate(null_tangle(k, n)).  Its degree slope - 1 and unit leading
    coefficient make the remainder by it well defined, or this raises."""
    rel = winding_part(rotated_element(null_tangle(k, 0), slope), k)
    if rel.degree != slope - 1:
        raise QuotientError(
            f"relation (slope={slope}, k={k}) has degree {rel.degree}, "
            f"expected {slope - 1}: {rel}")
    if rel.leading().unit_parts() is None:
        raise QuotientError(
            f"relation (slope={slope}, k={k}) has non-invertible "
            f"leading coefficient {rel.leading()}")
    return rel


def quotient_coordinates(el: SkeinElement, slope: int, k: int) -> UniPoly:
    """el in the quotient: its winding part modulo the relation, whose
    coefficients are el's coordinates in the basis w^m, m < slope-1."""
    if slope < 2:
        raise ValueError("slope must be at least 2 for a nontrivial quotient")
    return winding_part(el, k) % reduction_relation(slope, k)


def times_A(el: UniPoly, exp: int) -> UniPoly:
    """A^exp * el: a shift of each coefficient, no Laurent product."""
    return UniPoly(el.var, [c.shift(exp) for c in el.coeffs])


# ---------------------------------------------------------------------------
# the rotation: multiplication by f = rotate(w^0)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def rotation_matrix(slope: int, k: int) -> UniPoly:
    """f = rotate(w^0) in the quotient.  Core loops lie inside the collar, so
    rotate(w^m) = w^m f: the rotation is multiplication by f, and f is column 0
    of its matrix in the basis w^m.  The benchmark's tracer looks up this name
    and quotient_coordinates' by name, so both stay as they are."""
    return quotient_coordinates(rotated_element(power_tangle(k, 0), slope), slope, k)


@lru_cache(maxsize=None)
def basis_coordinates(slope: int, k: int) -> tuple:
    """The raw basis tangles e(k, j), j = 1..slope-1, in the quotient: the
    relation at slope j times -A^-(3 + rotation_norm_exponent(j, 2k)), undoing
    the curl and normalization; of degree j-1 < slope-1, it needs no reduction."""
    return tuple(times_A(-reduction_relation(j, k), -3 - rotation_norm_exponent(j, 2 * k))
                 for j in range(1, slope))


@lru_cache(maxsize=None)
def rotation_square(slope: int, k: int) -> UniPoly:
    """f^2 modulo the relation.  When this is 1 the rotation is an
    involution on the quotient, so its order divides 2k; Cassini's identity
    says it is 1 at every slope."""
    f = rotation_matrix(slope, k)
    return f * f % reduction_relation(slope, k)


@lru_cache(maxsize=None)
def rotation_exponents(slope: int, k: int) -> tuple:
    """Exponents u_j with rotate(e_j) = A^(u_j) e_(slope-j), j = 1..slope-1.

    rotate(e_j) = f e_j modulo the relation is the sum of e_j[m] g_m over the
    columns g_m = w^m f modulo the relation, each column the one before times
    w, with one top-term reduction.  Its unit ratio to e_(slope-j) is read off
    the leading coefficients (e_(slope-j)'s is a unit), then the image is
    tested against e_(slope-j) times it, exactly.  Raises if the ratio is no
    unit, if the image differs, or if the unit carries a minus sign, which
    would contradict the braid-normalization argument behind the basis.
    """
    coords = basis_coordinates(slope, k)
    rel = reduction_relation(slope, k)
    columns = [rotation_matrix(slope, k)]
    for _ in range(slope - 2):
        columns.append(UniPoly("w", (Laurent.zero(),) + columns[-1].coeffs) % rel)
    out = []
    for j, e in enumerate(coords, start=1):
        image = [Laurent.zero()] * (slope - 1)
        for c, g in zip(e.coeffs, columns):
            if c:
                for m, d in enumerate(g.coeffs):
                    if d:
                        image[m] = image[m] + c * d
        image, partner = UniPoly("w", image), coords[slope - j - 1]
        unit = image.leading() * partner.leading().unit_inverse()
        parts = unit.unit_parts()
        if parts is None:
            raise ValueError(f"ratio {unit} is not a unit")
        if image != partner * unit:
            raise ValueError("elements are not proportional by one unit")
        sign, u = parts
        if sign != 1:
            raise QuotientError(
                f"rotation sends e_{j} to {unit} * e_{slope - j}; "
                "expected a pure power of A")
        out.append(u)
    return tuple(out)
