"""The quotient S'(T, 2k) of the relative solid-torus skein module.

Fix a slope p >= 1 (the framing curve of the marked points runs once around
the meridian direction and p times around the core) and k >= 1.  The quotient
kills every multicurve holding a winding-0 arc (each holds an innermost one,
a boundary-parallel arc between consecutive points).  The survivors are the
w^m -- k seam-crossing arcs in rainbow position plus m core loops -- and
powers m >= p-1 reduce through w^n times one relation, the rotated null
tangle, to the basis {w^0, ..., w^(p-2)}.  Core loops lie inside the
rotation collar, so the rotation commutes with w.

The rotation shifts every marked point one step along the framing curve, the
last one passing the seam.  Its collar word is one positive framing curl and
p backward turns of one traveller strand, crossing each other strand once per
full turn (sign +1), times a global power of A; the rotation invariants
(rot^(2k) = 1, rot e_j = A^(u_j) e_(p-j) with u_(p-j) = -u_j) pin these
constants, see the tests.  The collar at slope p continues the collar at
slope p-1, its prefix, and the basis tangle e(k, j) is the collar at slope j
without its curl, on the null tangle: the basis reads the relations at
slopes 1..p-1, and one collar sum per slope and width feeds every table.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .algebra import Laurent, UniPoly
from .skein import (
    AnnularTangle,
    Multicurve,
    PlanarityError,
    SkeinElement,
    cap,
    crossing,
    cup,
    kink_slices,
    loop_slices,
    resolve,
    resolve_states,
    rot,
)


class QuotientError(RuntimeError):
    """A reduction relation has a non-invertible leading coefficient."""


def turn_slices(turns: int, width: int) -> tuple:
    """The strand at position 0 makes ``turns`` backward passages of the seam.

    Between consecutive passages it sweeps back down through the other
    strands with positive crossings, so every full turn crosses each other
    strand once.
    """
    down = tuple(crossing(m, 1) for m in range(width - 2, -1, -1))
    return (rot(-1),) + (down + (rot(-1),)) * (turns - 1)


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
def collar_states(slope: int, width: int) -> MappingProxyType:
    """Final states of the collar word alone (read-only), the ``start`` of every
    rotation, without the states holding a winding-0 arc (the quotient kills them).
    The sum continues the collar one turn shorter, a prefix of the word, so the
    state budget trips at the slice and count of the sum from scratch."""
    word, start, done = rotation_slices(slope, width), None, 0
    if slope > 1:
        for s in range(1, slope - 1):  # fill the memo bottom-up, so recursion stays shallow
            collar_states(s, width)
        start, done = collar_states(slope - 1, width), len(rotation_slices(slope - 1, width))
    rest = AnnularTangle(width, word[done:])
    return MappingProxyType(resolve_states(rest, start=start, drop_trivial_arcs=True))


def rotated_element(tangle: AnnularTangle, slope: int) -> SkeinElement:
    """The rotation operator applied to a closed tangle, normalization included,
    without the terms holding a winding-0 arc (the quotient kills them).

    The tangle's state sum continues from :func:`collar_states`; both sums
    are bounded by the state budget of :func:`resolve_states`, whose refusal
    names the live state count and the strand count 2k.
    """
    width = tangle.endpoints
    el = resolve(tangle, start=collar_states(slope, width), drop_trivial_arcs=True)
    return el.scale(Laurent.A(rotation_norm_exponent(slope, width)))


# ---------------------------------------------------------------------------
# distinguished tangles
# ---------------------------------------------------------------------------


def power_tangle(k: int, m: int) -> AnnularTangle:
    """w^m: the k-arc seam rainbow with m core loops inside."""
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    slices = [cap(width - 1) for width in range(2 * k, 0, -2)]
    slices.extend(loop_slices(m))
    return AnnularTangle(2 * k, tuple(slices))


def null_tangle(k: int, n: int) -> AnnularTangle:
    """k-1 seam arcs, one trivial arc on the last two points, n core loops.

    Dies in the quotient; its rotation is w^n times the reduction relation,
    of degree n + slope - 1.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    slices = [cap(2 * k - 2)]
    slices.extend(cap(width - 1) for width in range(2 * k - 2, 0, -2))
    slices.extend(loop_slices(n))
    return AnnularTangle(2 * k, tuple(slices))


def basis_tangle(k: int, j: int, slope: int) -> AnnularTangle:
    """Basis tangle e(k, j): a j-times-winding exterior strand on the outer
    pair of marked points, around a (k-1)-strand once-winding cable on the
    middle ones; the null tangle after j turns, the slope-j collar without its
    curl.  Requires 1 <= j <= slope-1 (and j >= 1 for any slope)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not 1 <= j <= max(slope - 1, 1):
        raise ValueError(f"index j={j} out of range for slope {slope}")
    return AnnularTangle(2 * k, turn_slices(j, 2 * k) + null_tangle(k, 0).slices)


def framing_curve_tangle(slope: int) -> AnnularTangle:
    """The framing curve pushed into the solid torus: winds ``slope`` times
    around the annulus, drawn as a spiral with slope-1 crossings."""
    if slope < 1:
        raise ValueError("slope must be at least 1")
    word: list = [cup(0)]
    for _ in range(slope - 1):
        word.append(rot(1))
        word.append(crossing(0, 1))
    word.append(rot(1))
    word.append(cap(0))
    return AnnularTangle(0, tuple(word))


def expand_framing_curve(slope: int) -> UniPoly:
    """Class of the pushed-in framing curve in the loop basis {y^m}.

    Returns a degree-``slope`` polynomial in y over the Laurent ring; the
    leading coefficient is a unit.
    """
    el = resolve(framing_curve_tangle(slope))
    coeffs = [Laurent.zero()] * (slope + 1)
    for mc, c in el.terms.items():
        if mc.arcs:
            raise PlanarityError("closed curve resolved to a term with arcs")
        if mc.loops >= len(coeffs):
            coeffs.extend([Laurent.zero()] * (mc.loops + 1 - len(coeffs)))
        coeffs[mc.loops] = coeffs[mc.loops] + c
    return UniPoly("y", coeffs)


def closed_basis_element(j: int, slope: int) -> SkeinElement:
    """e(0, j) = (framing curve)^n * y^m in S(T, 0), where j = slope*n + m."""
    if j < 0:
        raise ValueError("need j >= 0")
    n, m = divmod(j, slope)
    poly = expand_framing_curve(slope) ** n * UniPoly("y", [0] * m + [1])
    terms = {Multicurve((), deg): c for deg, c in enumerate(poly.coeffs) if c}
    return SkeinElement(0, terms)


# ---------------------------------------------------------------------------
# quotient coordinates
# ---------------------------------------------------------------------------


def _rainbow_arcs(k: int) -> tuple:
    return tuple((i, 2 * k - 1 - i, -1) for i in range(k))


def winding_part(el: SkeinElement, k: int) -> dict[int, Laurent]:
    """Image of el after killing trivial-arc terms, as a map loops -> coeff.

    Every survivor must be a rainbow multicurve w^m; anything else signals a
    bookkeeping bug and raises.
    """
    if el.endpoints != 2 * k:
        raise ValueError("endpoint count does not match k")
    rainbow = _rainbow_arcs(k)
    out: dict[int, Laurent] = {}
    for mc, c in el.terms.items():
        if mc.has_trivial_arc():
            continue
        if mc.arcs != rainbow:
            raise PlanarityError(f"unexpected surviving multicurve {mc}")
        s = out.get(mc.loops, Laurent.zero()) + c
        if s:
            out[mc.loops] = s
        else:
            out.pop(mc.loops, None)
    return out


@lru_cache(maxsize=None)
def reduction_relation(slope: int, k: int) -> tuple:
    """Coefficients (by loop power) of the relation rotate(null_tangle(k, 0)).

    It vanishes in the quotient, and w^n times it is rotate(null_tangle(k, n)).
    Its top degree slope - 1 and unit leading coefficient make the rewriting
    of every w^m, m >= slope - 1, well founded; anything else is a hard failure.
    """
    poly = winding_part(rotated_element(null_tangle(k, 0), slope), k)
    top = slope - 1
    degree = max(poly) if poly else -1
    if degree != top:
        raise QuotientError(
            f"relation (slope={slope}, k={k}) has degree {degree}, "
            f"expected {top}: {poly}")
    if poly[top].unit_parts() is None:
        raise QuotientError(
            f"relation (slope={slope}, k={k}) has non-invertible "
            f"leading coefficient {poly[top]}")
    return tuple(poly.get(m, Laurent.zero()) for m in range(top + 1))


def _reduce_winding(poly: dict[int, Laurent], slope: int, k: int) -> list[Laurent]:
    """Coordinates of a map loops -> coeff, which is consumed: each w^m with
    m >= slope-1 is cancelled by w^(m-slope+1) times the relation."""
    if slope < 2:
        raise ValueError("slope must be at least 2 for a nontrivial quotient")
    rel = reduction_relation(slope, k)
    top = slope - 1
    inverse = rel[top].unit_inverse()
    while poly:
        m = max(poly)
        if m < top:
            break
        factor = poly[m] * inverse
        for d, c in enumerate(rel, start=m - top):
            if not c:
                continue
            s = poly.get(d, Laurent.zero()) - factor * c
            if s:
                poly[d] = s
            else:
                poly.pop(d, None)
    return [poly.get(m, Laurent.zero()) for m in range(top)]


def quotient_coordinates(el: SkeinElement, slope: int, k: int) -> list[Laurent]:
    """Coordinates of el in the quotient basis {w^m : 0 <= m <= slope-2}."""
    return _reduce_winding(winding_part(el, k), slope, k)


# ---------------------------------------------------------------------------
# the rotation as a matrix on quotient coordinates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def rotation_matrix(slope: int, k: int) -> tuple:
    """Columns of the rotation operator in the basis {w^m}, m < slope-1.

    Column m holds the quotient coordinates of rotate(w^m): the one state sum
    rotate(w^0), reduced with every loop count raised by m.  Rotating an
    arbitrary element then reduces to one matrix-vector product, so iterating
    the rotation runs no further state sum.
    """
    rainbow = winding_part(rotated_element(power_tangle(k, 0), slope), k)
    return tuple(
        tuple(_reduce_winding({d + m: c for d, c in rainbow.items()}, slope, k))
        for m in range(slope - 1))


def apply_matrix(cols, vec: list[Laurent]) -> list[Laurent]:
    dim = len(cols)
    out = [Laurent.zero()] * dim
    for m, c in enumerate(vec):
        if not c:
            continue
        col = cols[m]
        for i in range(dim):
            if col[i]:
                out[i] = out[i] + c * col[i]
    return out


def identity_matrix(dim: int):
    return tuple(tuple(Laurent.one() if i == m else Laurent.zero()
                       for i in range(dim)) for m in range(dim))


def _compose(a, b):
    """Columns of the product a b."""
    return tuple(tuple(apply_matrix(a, list(col))) for col in b)


def matrix_power(cols, n: int):
    """cols^n by square-and-multiply: no product by the identity, and no
    square past the last bit."""
    result = None
    while n:
        if n & 1:
            result = cols if result is None else _compose(cols, result)
        n >>= 1
        if n:
            cols = _compose(cols, cols)
    return identity_matrix(len(cols)) if result is None else result


def unit_ratio(vec_a: list[Laurent], vec_b: list[Laurent]) -> Laurent:
    """The unit u with vec_a = u * vec_b, if one exists.

    Needs at least one coordinate of vec_b to be a unit (true for the
    triangular basis vectors this is used on).
    """
    for a, b in zip(vec_a, vec_b):
        if not b or b.unit_parts() is None:
            continue
        cand = a * b.unit_inverse()
        if cand.unit_parts() is None:
            raise ValueError(f"ratio {cand} is not a unit")
        if all(x == cand * y for x, y in zip(vec_a, vec_b)):
            return cand
        raise ValueError("coordinates are not proportional by one unit")
    raise ValueError("no unit coordinate to divide by")


@lru_cache(maxsize=None)
def basis_coordinates(slope: int, k: int) -> tuple:
    """Quotient coordinates of the raw basis tangles e(k, j), j = 1..slope-1: the
    relation at slope j times -A^-(3 + rotation_norm_exponent(j, 2k)), undoing the
    curl and normalization; of degree j-1 < slope-1, it needs no reduction."""
    return tuple(
        tuple(c * -Laurent.A(-3 - rotation_norm_exponent(j, 2 * k))
              for c in reduction_relation(j, k)) + (Laurent.zero(),) * (slope - 1 - j)
        for j in range(1, slope))


@lru_cache(maxsize=None)
def rotation_power(slope: int, k: int) -> tuple:
    """Columns of R^(2k), R = rotation_matrix(slope, k); the rotation has
    order dividing 2k on the quotient exactly when this is the identity."""
    return matrix_power(rotation_matrix(slope, k), 2 * k)


@lru_cache(maxsize=None)
def rotated_basis(slope: int, k: int) -> tuple:
    """Quotient coordinates of rotate(e_j), j = 1..slope-1: R applied to the
    rows of basis_coordinates(slope, k)."""
    cols = rotation_matrix(slope, k)
    return tuple(tuple(apply_matrix(cols, list(e))) for e in basis_coordinates(slope, k))


@lru_cache(maxsize=None)
def rotation_exponents(slope: int, k: int) -> tuple:
    """Exponents u_j with rotate(e_j) = A^(u_j) e_(slope-j), j = 1..slope-1.

    Raises if the proportionality unit carries a minus sign, which would
    contradict the braid-normalization argument behind the basis.
    """
    coords = basis_coordinates(slope, k)
    out = []
    for j, image in enumerate(rotated_basis(slope, k), start=1):
        unit = unit_ratio(image, coords[slope - j - 1])
        sign, e = unit.unit_parts()
        if sign != 1:
            raise QuotientError(
                f"rotation sends e_{j} to {unit} * e_{slope - j}; "
                "expected a pure power of A")
        out.append(e)
    return tuple(out)


def normalization_shifts(slope: int, k: int) -> list[int]:
    """n_j with normalized e_j = A^(n_j) e_j: -u_j when 2j > slope, else 0."""
    expo = rotation_exponents(slope, k)
    return [-expo[j - 1] if 2 * j > slope else 0 for j in range(1, slope)]


def normalized_basis_coordinates(slope: int, k: int) -> list[list[Laurent]]:
    """Basis coordinates rescaled so rotate(e_j) = e_(slope-j) exactly."""
    return [[c.shift(n) for c in e]
            for e, n in zip(basis_coordinates(slope, k), normalization_shifts(slope, k))]
