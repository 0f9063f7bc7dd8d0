"""Kauffman bracket state sums for banded tangles in a solid torus.

Diagrams live in an annulus carrying 2k marked points on its outer boundary
circle, listed in cyclic order; a seam (a radial cut) sits between the
highest-numbered position and position 0.  A tangle is a word of elementary
slices read from the marked boundary inward:

* ``("x", i, sign)``  -- crossing of the strands at cyclically adjacent
  positions i and i+1 (``i == width-1`` crosses the seam),
* ``("cup", i)``      -- birth of an adjacent strand pair at linear slot i,
* ``("cap", i)``      -- death of the cyclically adjacent pair at i, i+1,
* ``("rot", sign)``   -- pure bookkeeping: the strand at one end of the
  linear order passes the seam to the other end (sign +1 moves the last
  strand to position 0).  No strands cross; only the seam-cut labels shift.

Resolving a tangle applies the Kauffman relations: a crossing of sign s
splits as A^s (strands kept parallel) plus A^-s (turnback smoothing), and a
contractible loop contributes the factor -A^2 - A^-2.  States that become
identical are merged, so resolution cost is governed by the number of
distinct planar states rather than 2^crossings; a bound on the number of
live distinct states (``STATE_BUDGET``) refuses an oversized sum as soon as
it grows past the bound, rather than ever approximating it.

Fully resolved states are normal-form multicurves: a perfect matching of the
marked points where each arc either misses the seam (winding 0) or crosses
it once (winding -1 when read from its smaller endpoint), plus some number
of parallel core loops.  These are the free-module basis of the relative
skein module of the solid torus.

Inside the sum a state's coefficient is held packed, as a triple
``(lo, N, L)`` of ints: N = sum of c_e * 2^(B (e - lo) / 4) over the
exponents e of the coefficient, one B-bit digit (``_DIGIT_BITS``) per power
of A^4 (per A^2 on an odd strand count, see the class rule), and L an upper
bound on sum |c_e|.  A crossing's branch moves only lo; the loop factor
-A^2 - A^-2 gives (lo - 2, -((N << B) + N), 2L); a merge is one shift and
one int add, with bound L1 + L2; a state is dropped when N == 0.
``resolve_states`` returns the packed states as a read-only mapping whose
values are decoded to ``Laurent`` when read, and which continues packed
when passed back as ``start``.

*Exactness.*  N is the coefficient times A^-lo with A^4 set to 2^B.  That
substitution is additive and turns a factor A^(4m) into a shift by mB bits,
so every operation above acts on N exactly as on the coefficient.  While
every |c_e| <= L < 2^(B-1), the balanced base-2^B digits of N are the c_e
(an expansion with digits in [-2^(B-1), 2^(B-1)) is unique), so decoding
is exact and N == 0 exactly when the coefficient is 0.  Every stored L is
kept below 2^(B-2): a merge or a loop factor then gives L < 2^(B-1), still
exact, and a state whose bound reaches 2^(B-2) is decoded and its L
replaced by its true sum |c_e|.  If even that reaches 2^(B-2), the sum
restarts at twice the digit width.  Nothing is approximated.

*The class rule.*  One digit per A^4 needs every exponent of one state's
coefficient in one class mod 4.  A path of smoothings reaching a state
contributes A to the power sum(+-1 over its crossings) + sum(+-2 over its
contractible loops), which is sum(s_c) + 2(t + d) mod 4, with t its
turnback smoothings and d its contractible loops; so it is enough that
t + d mod 2 is fixed by the state.  When the strand count is even, a core
circle meets the diagram an even number of times and the annulus minus
the diagram has a checkerboard shading.  At each crossing one smoothing
joins the two shaded corners, so t = j + const mod 2, with j the number of
crossings so smoothed.  The shaded regions, joined by those j bands, form a
planar surface F with chi(F) = const - j and chi(F) = 2 (components) -
(boundary circles), so F has j + const boundary circles mod 2.  These are
the state's closed curves (its d contractible loops and its core loops,
each with shading on one side only), the boundary circles of the annulus
that carry no endpoint, and the circles that alternate between the state's
arcs and shaded pieces of the annulus boundary, whose number is fixed by
how the arcs pair the endpoints.  All but d are fixed by the state, so
d + j, hence t + d, is fixed mod 2.  An odd strand count admits no shading;
there each exponent has the parity of the crossing count, and states are
packed one digit per A^2.  A merge of two packed values whose lo differ
off the class is a bookkeeping error and raises PlanarityError.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .algebra import Laurent

STATE_BUDGET = 2 ** 15  # live distinct states; `verify 5 7 --max-k 8` peaks at 17,542
_DIGIT_BITS = 128  # bits per packed digit; a multiple of 4 (see the module docstring)

X, CUP, CAP, ROT = "x", "cup", "cap", "rot"


class MalformedTangle(ValueError):
    """The slice word is inconsistent with the running strand count."""


class PlanarityError(RuntimeError):
    """Winding bookkeeping produced a curve no embedded diagram can have."""


class BudgetError(RuntimeError):
    """A computation outgrew a fixed bound: it is refused, never approximated.

    ``figures`` holds what a report needs to name the refusal; the state sum
    gives the live ``states`` when the guard tripped, the ``budget`` and the
    ``strands`` of the word.
    """

    def __init__(self, message: str, **figures):
        super().__init__(message)
        self.figures = figures


def crossing(pos: int, sign: int) -> tuple:
    return (X, pos, sign)


def cup(pos: int) -> tuple:
    return (CUP, pos)


def cap(pos: int) -> tuple:
    return (CAP, pos)


def rot(sign: int) -> tuple:
    return (ROT, sign)


def kink_slices(pos: int, sign: int) -> tuple:
    """A curl on the strand at ``pos``; resolves to the factor -A^(3*sign)."""
    return (cup(pos + 1), crossing(pos, sign), cap(pos + 1))


def turn_slices(turns: int, width: int) -> tuple:
    """The strand at position 0 makes ``turns`` backward passages of the seam.

    Between consecutive passages it sweeps back down through the other
    strands with positive crossings, so every full turn crosses each other
    strand once.
    """
    down = tuple(crossing(m, 1) for m in range(width - 2, -1, -1))
    return (rot(-1),) + (down + (rot(-1),)) * (turns - 1)


def loop_slices(n: int) -> tuple:
    """Slices appending n parallel core loops, each a closed one-turn word."""
    return ((cup(0),) + turn_slices(1, 2) + (cap(0),)) * n


_SLICE_FIELDS = {"crossing": (crossing, ("pos", "sign")), "cup": (cup, ("pos",)),
                 "cap": (cap, ("pos",)), "rot": (rot, ("sign",))}


def _json_field(obj, key: str, kind: type, where: str):
    """``obj[key]`` from a diagram's JSON; MalformedTangle naming the field otherwise."""
    if not isinstance(obj, dict):
        raise MalformedTangle(f"{where} must be a JSON object, not {type(obj).__name__}")
    if key not in obj:
        raise MalformedTangle(f"{where} has no field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedTangle(
            f"{where} field {key!r} must be {kind.__name__}, not {type(value).__name__}")
    return value


@dataclass(frozen=True, slots=True)
class AnnularTangle:
    """A banded tangle presented as a slice word on ``endpoints`` strands."""

    endpoints: int
    slices: tuple = ()
    final_width: int = field(init=False)
    crossings: int = field(init=False)

    def __post_init__(self):
        if self.endpoints < 0:
            raise MalformedTangle("negative strand count")
        object.__setattr__(self, "slices", tuple(tuple(ev) for ev in self.slices))
        w = self.endpoints
        ncross = 0
        for ev in self.slices:
            op = ev[0]
            if op == X:
                _, pos, sign = ev
                if w < 2 or not 0 <= pos < w:
                    raise MalformedTangle(f"crossing at {pos} with width {w}")
                if sign not in (1, -1):
                    raise MalformedTangle("crossing sign must be +1 or -1")
                ncross += 1
            elif op == CUP:
                _, pos = ev
                if not 0 <= pos <= w:
                    raise MalformedTangle(f"cup at {pos} with width {w}")
                w += 2
            elif op == CAP:
                _, pos = ev
                if w < 2 or not 0 <= pos < w:
                    raise MalformedTangle(f"cap at {pos} with width {w}")
                w -= 2
            elif op == ROT:
                _, sign = ev
                if w < 1:
                    raise MalformedTangle("rot needs at least one strand")
                if sign not in (1, -1):
                    raise MalformedTangle("rot sign must be +1 or -1")
            else:
                raise MalformedTangle(f"unknown slice op {op!r}")
        object.__setattr__(self, "final_width", w)
        object.__setattr__(self, "crossings", ncross)

    def is_closed(self) -> bool:
        return self.final_width == 0

    @staticmethod
    def from_json(data) -> "AnnularTangle":
        slices = []
        for n, item in enumerate(_json_field(data, "slices", list, "diagram")):
            op = _json_field(item, "op", str, f"slice {n}")
            if op not in _SLICE_FIELDS:
                raise MalformedTangle(f"unknown slice op {op!r}")
            make, keys = _SLICE_FIELDS[op]
            slices.append(make(*(_json_field(item, key, int, f"slice {n}") for key in keys)))
        return AnnularTangle(_json_field(data, "endpoints", int, "diagram"), tuple(slices))


@dataclass(frozen=True, slots=True)
class Multicurve:
    """Normal form: matched arcs with windings, plus parallel core loops.

    Each arc is a triple (a, b, w) with a < b and w in {0, -1}: the signed
    number of seam crossings walking the arc from a to b.  Contractible
    loops are never stored; ``loops`` counts core-parallel circles.
    """

    arcs: tuple = ()
    loops: int = 0

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(tuple(a) for a in self.arcs))

    @property
    def endpoints(self) -> int:
        return 2 * len(self.arcs)

    def has_trivial_arc(self) -> bool:
        return any(w == 0 for _, _, w in self.arcs)

    def to_json(self) -> dict:
        return {
            "matching": [[a, b] for a, b, _ in self.arcs],
            "windings": [w for _, _, w in self.arcs],
            "core_loops": self.loops,
        }

    def __str__(self):
        if not self.arcs and not self.loops:
            return "empty"
        parts = [f"{a}-{b}" + ("~" if w else "") for a, b, w in self.arcs]
        if self.loops:
            parts.append(f"core^{self.loops}")
        return " ".join(parts)


class SkeinElement:
    """Finite Laurent-linear combination of multicurves with 2k endpoints."""

    __slots__ = ("endpoints", "terms")

    def __init__(self, endpoints: int, terms: Mapping[Multicurve, Laurent]):
        object.__setattr__(self, "endpoints", endpoints)
        object.__setattr__(self, "terms", {mc: c for mc, c in terms.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("SkeinElement values are immutable")

    def __eq__(self, other):
        if not isinstance(other, SkeinElement):
            return NotImplemented
        return self.endpoints == other.endpoints and self.terms == other.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].arcs, kv[0].loops))

    def to_json(self) -> list:
        out = []
        for mc, c in self.items():
            entry = mc.to_json()
            entry["coeff"] = str(c)
            out.append(entry)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        return " ++ ".join(f"({c}) * [{mc}]" for mc, c in self.items())

    def __repr__(self):
        return f"SkeinElement({self})"


# ---------------------------------------------------------------------------
# state machine
#
# A state is ((fars, ws), arcs, loops), with one entry of fars and of ws per
# open strand end, by angular position i: fars[i] >= 0 is the position of
# the other end of its curve, fars[i] < 0 the marked boundary point
# ~fars[i]; ws[i] is the signed number of seam crossings accumulated walking
# along the curve from the far end to this end.  Two flat tuples spare the
# 56-byte (far, w) tuple that each end would take on its own.  A crossing's
# turnback smoothing and a cap share one join, _turnback; the cap then
# deletes the two joined positions.
# ---------------------------------------------------------------------------


def _initial_state(width: int):
    return ((tuple(~e for e in range(width)), (0,) * width), (), 0)


def _turnback(state, i):
    """Join the curves at cyclic positions i, i+1, and leave a fresh arc between
    the two positions; returns (state, whether a contractible loop closed)."""
    (fars, ws), arcs, loops = state
    j = (i + 1) % len(fars)
    seam = 1 if j == 0 else 0  # the join's traversal from i to j crosses the seam
    fu, fv = fars[i], fars[j]
    closed = False
    fars, ws = list(fars), list(ws)
    if fu == j:
        total = ws[i] + seam
        if total == 0:
            closed = True
        elif total in (1, -1):
            loops += 1
        else:
            raise PlanarityError(f"closed component with net winding {total}")
    else:
        walk = ws[i] + seam - ws[j]  # fu -> i -> j -> fv
        if fu < 0 and fv < 0:
            a, b, w = ~fu, ~fv, walk
            if a > b:
                a, b, w = b, a, -w
            if w not in (0, -1):
                raise PlanarityError(f"arc ({a},{b}) with net winding {w}")
            arcs = tuple(sorted(arcs + ((a, b, w),)))
        if fv >= 0:
            fars[fv], ws[fv] = fu, walk
        if fu >= 0:
            fars[fu], ws[fu] = fv, -walk
    fars[i], fars[j], ws[i], ws[j] = j, i, -seam, seam
    return ((tuple(fars), tuple(ws)), arcs, loops), closed


def _apply_cap(state, i):
    ((fars, ws), arcs, loops), closed = _turnback(state, i)
    j = (i + 1) % len(fars)
    lo = 1 if j == 0 else 0  # the pair across the seam: positions 0 and i
    # the kept ends start at lo, and a far past j moves down by the 2 - lo
    # deleted positions below it
    return ((tuple([f - 2 + lo if f > j else f for f in fars[lo:i] + fars[i + 2:]]),
             ws[lo:i] + ws[i + 2:]), arcs, loops), closed


def _apply_cup(state, i):
    (fars, ws), arcs, loops = state
    fars = [f + 2 if f >= i else f for f in fars]
    return ((tuple(fars[:i] + [i + 1, i] + fars[i:]), ws[:i] + (0, 0) + ws[i:]), arcs, loops)


def _apply_rot(state, sign):
    (fars, ws), arcs, loops = state
    width = len(fars)
    mover = -1 if sign == 1 else 0  # the end that passes the seam
    cut = -sign % width  # the position that the rotation brings to 0
    far, ws = fars[mover], list(ws)
    ws[mover] += sign
    if far >= 0:
        ws[far] -= sign
    fars = [(f + sign) % width if f >= 0 else f for f in fars]
    return ((tuple(fars[cut:] + fars[:cut]), tuple(ws[cut:] + ws[:cut])), arcs, loops)


def _branches(states: Mapping, ev):
    """(state, value, new state, A-exponent, whether a contractible loop closed)
    for each branch of one slice over every live state; values pass through."""
    op, arg = ev[0], ev[1]
    if op == X:
        sign = ev[2]
        for state, value in states.items():
            yield state, value, state, sign, False
            turned, closed = _turnback(state, arg)
            yield state, value, turned, -sign, closed
    elif op == CAP:
        for state, value in states.items():
            capped, closed = _apply_cap(state, arg)
            yield state, value, capped, 0, closed
    else:
        apply = _apply_cup if op == CUP else _apply_rot
        for state, value in states.items():
            yield state, value, apply(state, arg), 0, False


# ---------------------------------------------------------------------------
# packed coefficients (see the module docstring)
# ---------------------------------------------------------------------------


class _Widen(Exception):
    """A state's true sum |c_e| reached 2^(B-2): the sum restarts at 2B bits."""


def _digits(n: int, bits: int):
    """The balanced base-2^bits digits of n, lowest first."""
    full = 1 << bits
    half, mask = full >> 1, full - 1
    while n:
        d = n & mask
        if d >= half:
            d -= full
        yield d
        n = (n - d) >> bits


def _refreshed(n: int, bits: int, top: int) -> int:
    """The true sum |c_e| of an exactly decodable packed value, below ``top``."""
    bound = sum(abs(c) for c in _digits(n, bits))
    if bound >= top:
        raise _Widen
    return bound


def _pack(coeff: Laurent, bits: int, stride: int) -> tuple:
    """(lo, N, L) of a nonzero coefficient, with L its true sum |c_e|."""
    lo = min(coeff.terms)
    n = bound = 0
    for e, c in coeff.terms.items():
        if (e - lo) % stride:
            raise PlanarityError(f"coefficient {coeff} mixes exponent classes mod {stride}")
        n += c << (e - lo) // stride * bits
        bound += abs(c)
    if bound >= 1 << (bits - 2):
        raise _Widen
    return (lo, n, bound)


class _PackedStates(Mapping):
    """Read-only result of :func:`resolve_states`: open states mapped to their
    packed coefficients, each decoded to a Laurent polynomial when read."""

    __slots__ = ("_packed", "_bits", "_stride")

    def __init__(self, packed: dict, bits: int, stride: int):
        self._packed, self._bits, self._stride = packed, bits, stride

    def __getitem__(self, state) -> Laurent:
        lo, n, _ = self._packed[state]
        stride = self._stride
        return Laurent({lo + stride * i: c for i, c in enumerate(_digits(n, self._bits)) if c})

    def __contains__(self, state) -> bool:
        return state in self._packed

    def __iter__(self):
        return iter(self._packed)

    def __len__(self) -> int:
        return len(self._packed)


def _packed_start(start: Mapping, bits: int, stride: int) -> dict:
    """The packed states of ``start``, shared when already packed at ``bits``."""
    if isinstance(start, _PackedStates) and (start._bits, start._stride) == (bits, stride):
        return start._packed
    return {state: _pack(coeff, bits, stride) for state, coeff in start.items() if coeff}


def _packed_sum(tangle, limit, start, drop_trivial_arcs, bits, stride) -> dict:
    step = bits // stride  # bits of N per unit of exponent difference
    top = 1 << (bits - 2)
    if start is None:
        states = {_initial_state(tangle.endpoints): (0, 1, 1)}
    else:
        states = _packed_start(start, bits, stride)
    for ev in tangle.slices:
        merged: dict = {}
        for state, (lo, n, bound), new_state, exp, closed in _branches(states, ev):
            # arcs only grow, so a changed tuple means one arc was added
            if (drop_trivial_arcs and new_state[1] is not state[1]
                    and any(w == 0 for _, _, w in new_state[1])):
                continue
            lo += exp
            if closed:  # times -A^2 - A^-2
                lo, n, bound = lo - 2, -((n << 4 * step) + n), 2 * bound
                if bound >= top:
                    bound = _refreshed(n, bits, top)
            value = (lo, n, bound)
            prev = merged.setdefault(new_state, value)
            if prev is value:
                continue
            plo, pn, pbound = prev
            gap = lo - plo
            if gap % stride:
                raise PlanarityError(
                    f"merge of A^{plo} and A^{lo} packings: exponent classes "
                    f"differ mod {stride}")
            if gap >= 0:
                lo, n = plo, pn + (n << gap * step)
            else:
                n += pn << -gap * step
            if not n:
                del merged[new_state]
                continue
            bound += pbound
            if bound >= top:
                bound = _refreshed(n, bits, top)
            merged[new_state] = (lo, n, bound)
        if len(merged) > limit:
            raise BudgetError(
                f"{len(merged)} live states on {tangle.endpoints} strands exceed "
                f"the state budget of {limit}",
                states=len(merged), budget=limit, strands=tangle.endpoints)
        states = merged
    return states


def resolve_states(tangle: AnnularTangle, budget: int | None = None,
                   start: Mapping | None = None, *, drop_trivial_arcs: bool = False) -> Mapping:
    """Run the state sum; returns a read-only mapping of open states to coefficients.

    Identical states are merged as the word is consumed, so the cost scales
    with the number of distinct planar states.  After each slice the number
    of live states is checked against ``budget`` (``STATE_BUDGET`` when None),
    and BudgetError is raised as soon as it is over.  ``start``, a result of
    an earlier call, is continued instead of the initial state, without
    decoding its coefficients; it is never mutated or returned.
    ``drop_trivial_arcs`` drops a state as soon as it holds a winding-0 arc;
    arcs are never removed, so this filters the full result exactly (given a
    ``start`` pruned the same way).  Coefficients are held packed (see the
    module docstring) and decoded to ``Laurent`` when read.
    """
    limit = STATE_BUDGET if budget is None else budget
    # one packed digit per A^4 on an even strand count, else per A^2
    bits, stride = _DIGIT_BITS, 2 if tangle.endpoints % 2 else 4
    while True:
        try:
            packed = _packed_sum(tangle, limit, start, drop_trivial_arcs, bits, stride)
        except _Widen:
            bits *= 2
        else:
            return _PackedStates(packed, bits, stride)


def resolve(tangle: AnnularTangle, budget: int | None = None,
            start: Mapping | None = None, *, drop_trivial_arcs: bool = False) -> SkeinElement:
    """Kauffman bracket resolution of a closed tangle (keywords: see resolve_states)."""
    if not tangle.is_closed():
        raise MalformedTangle(
            f"tangle leaves {tangle.final_width} strands unclosed")
    states = resolve_states(tangle, budget, start, drop_trivial_arcs=drop_trivial_arcs)
    # a closed state (((), ()), arcs, loops) is exactly one multicurve, decoded once
    return SkeinElement(tangle.endpoints, {
        Multicurve(arcs, loops): coeff for (_, arcs, loops), coeff in states.items()})


def multicurve_tangle(mc: Multicurve) -> AnnularTangle:
    """A crossingless slice word resolving to the given multicurve.

    Constructively certifies planar realizability: trivial arcs must nest
    and the seam-crossing arcs must close up in rainbow order, otherwise the
    matching is not embeddable and a PlanarityError is raised.
    """
    pairing = {}
    for a, b, w in mc.arcs:
        pairing[a] = (b, w)
        pairing[b] = (a, w)
    alive = sorted(pairing)
    if len(alive) != 2 * len(mc.arcs):
        raise PlanarityError("matching reuses an endpoint")
    slices = []
    while alive:
        width = len(alive)
        for i in range(width - 1):
            partner, w = pairing[alive[i]]
            if partner == alive[i + 1] and w == 0:
                slices.append(cap(i))
                del alive[i:i + 2]
                break
        else:
            partner, w = pairing[alive[0]]
            if width >= 2 and partner == alive[-1] and w == -1:
                slices.append(cap(width - 1))
                alive = alive[1:-1]
            else:
                raise PlanarityError(f"matching not planar-realizable: {mc}")
    slices.extend(loop_slices(mc.loops))
    return AnnularTangle(mc.endpoints, tuple(slices))
