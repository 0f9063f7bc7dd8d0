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
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .algebra import DELTA, Laurent

STATE_BUDGET = 2 ** 15  # live distinct states; `verify 5 7 --max-k 8` peaks at 17,542

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


@dataclass(frozen=True)
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

    def to_json(self) -> dict:
        out = []
        for ev in self.slices:
            if ev[0] == X:
                out.append({"op": "crossing", "pos": ev[1], "sign": ev[2]})
            elif ev[0] == ROT:
                out.append({"op": "rot", "sign": ev[1]})
            else:
                out.append({"op": ev[0], "pos": ev[1]})
        return {"endpoints": self.endpoints, "slices": out, "meta": {}}

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


@dataclass(frozen=True)
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

    def scale(self, c: Laurent) -> "SkeinElement":
        return SkeinElement(self.endpoints, {mc: v * c for mc, v in self.terms.items()})

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
# A state is (ends, arcs, loops).  ends[i] = (far, w) describes the open
# strand end at angular position i: far >= 0 is the position of the other
# end of its curve, far < 0 the marked boundary point ~far; w is the signed
# number of seam crossings accumulated walking along the curve from the far
# end to this end.  A crossing's turnback smoothing and a cap share one
# join, _turnback; the cap then deletes the two joined positions.
# ---------------------------------------------------------------------------

ONE = Laurent.one()


def _initial_state(width: int):
    return (tuple((~e, 0) for e in range(width)), (), 0)


def _turnback(state, i):
    """Join the curves at cyclic positions i, i+1, and leave a fresh arc between
    the two positions; returns (state, factor in {ONE, DELTA})."""
    ends, arcs, loops = state
    j = (i + 1) % len(ends)
    seam = 1 if j == 0 else 0  # the join's traversal from i to j crosses the seam
    (fu, wu), (fv, wv) = ends[i], ends[j]
    factor = ONE
    ends = list(ends)
    if fu == j:
        total = wu + seam
        if total == 0:
            factor = DELTA
        elif total in (1, -1):
            loops += 1
        else:
            raise PlanarityError(f"closed component with net winding {total}")
    else:
        walk = wu + seam - wv  # fu -> i -> j -> fv
        if fu < 0 and fv < 0:
            a, b, w = ~fu, ~fv, walk
            if a > b:
                a, b, w = b, a, -w
            if w not in (0, -1):
                raise PlanarityError(f"arc ({a},{b}) with net winding {w}")
            arcs = tuple(sorted(arcs + ((a, b, w),)))
        if fv >= 0:
            ends[fv] = (fu, walk)
        if fu >= 0:
            ends[fu] = (fv, -walk)
    ends[i], ends[j] = (j, -seam), (i, seam)
    return (tuple(ends), arcs, loops), factor


def _apply_cap(state, i):
    (ends, arcs, loops), factor = _turnback(state, i)
    lo, hi = sorted((i, (i + 1) % len(ends)))
    kept = ends[:lo] + ends[lo + 1:hi] + ends[hi + 1:]
    return (tuple((f - (f > lo) - (f > hi), w) for f, w in kept), arcs, loops), factor


def _apply_cup(state, i):
    ends, arcs, loops = state
    shifted = [(f + 2 if f >= i else f, w) for f, w in ends]
    return (tuple(shifted[:i] + [(i + 1, 0), (i, 0)] + shifted[i:]), arcs, loops)


def _apply_rot(state, sign):
    ends, arcs, loops = state
    width = len(ends)
    ends = list(ends)
    mover = width - 1 if sign == 1 else 0
    far, w = ends[mover]
    ends[mover] = (far, w + sign)
    if far >= 0:
        ends[far] = (ends[far][0], ends[far][1] - sign)
    ends = [((f + sign) % width if f >= 0 else f, w) for f, w in ends]
    ends = ends[-1:] + ends[:-1] if sign == 1 else ends[1:] + ends[:1]
    return (tuple(ends), arcs, loops)


def _apply_event(state, ev):
    """List of (state, A-exponent, factor in {ONE, DELTA}) from one slice."""
    op = ev[0]
    if op == X:
        turned, f = _turnback(state, ev[1])
        return [(state, ev[2], ONE), (turned, -ev[2], f)]
    if op == CUP:
        return [(_apply_cup(state, ev[1]), 0, ONE)]
    if op == CAP:
        new, f = _apply_cap(state, ev[1])
        return [(new, 0, f)]
    return [(_apply_rot(state, ev[1]), 0, ONE)]


def resolve_states(tangle: AnnularTangle, budget: int | None = None,
                   start: Mapping | None = None, *, drop_trivial_arcs: bool = False):
    """Run the state sum; returns a dict mapping open states to coefficients.

    Identical states are merged as the word is consumed, so the cost scales
    with the number of distinct planar states.  After each slice the number
    of live states is checked against ``budget`` (``STATE_BUDGET`` when None),
    and BudgetError is raised as soon as it is over.  ``start``, a result of
    an earlier call, is continued instead of the initial state; it is never
    mutated or returned.  ``drop_trivial_arcs`` drops a state as soon as it
    holds a winding-0 arc; arcs are never removed, so this filters the full
    result exactly (given a ``start`` pruned the same way).
    """
    limit = STATE_BUDGET if budget is None else budget
    states = {_initial_state(tangle.endpoints): ONE} if start is None else start
    for ev in tangle.slices:
        merged: dict = {}
        for state, coeff in states.items():
            for new_state, exp, factor in _apply_event(state, ev):
                # arcs only grow, so a changed tuple means one arc was added
                if (drop_trivial_arcs and new_state[1] is not state[1]
                        and any(w == 0 for _, _, w in new_state[1])):
                    continue
                add = coeff.shift(exp) if exp else coeff
                if factor is not ONE:
                    add = add * factor
                prev = merged.get(new_state)
                s = add if prev is None else prev + add
                if s:
                    merged[new_state] = s
                else:
                    merged.pop(new_state, None)
        if len(merged) > limit:
            raise BudgetError(
                f"{len(merged)} live states on {tangle.endpoints} strands exceed "
                f"the state budget of {limit}",
                states=len(merged), budget=limit, strands=tangle.endpoints)
        states = merged
    return dict(states) if states is start else states


def resolve(tangle: AnnularTangle, budget: int | None = None,
            start: Mapping | None = None, *, drop_trivial_arcs: bool = False) -> SkeinElement:
    """Kauffman bracket resolution of a closed tangle (keywords: see resolve_states)."""
    if not tangle.is_closed():
        raise MalformedTangle(
            f"tangle leaves {tangle.final_width} strands unclosed")
    states = resolve_states(tangle, budget, start, drop_trivial_arcs=drop_trivial_arcs)
    # a closed state ((), arcs, loops) is exactly one multicurve
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
