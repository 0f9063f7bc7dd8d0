"""SL2(C) character variety of the torus-knot group <u, v | u^q = v^p>.

Convention, used consistently everywhere in this package: u is the generator
whose relation exponent is q, so an irreducible representation has
eigenvalue exp(i*k*pi/q) on u with k in [1, q-1], and exp(i*l*pi/p) on v with
l in [1, p-1].  Trace coordinates are x = tr(u), y = tr(v), z = tr(uv), and
an SL2 element with eigenvalue exp(i*theta) has trace 2*cos(theta).

The variety is a disjoint union of (p-1)(q-1)/2 affine lines (one per
admissible pair, coordinatized by z) plus one abelian line parametrized by
s -> (T_p(s), T_q(s), T_{p+q}(s)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .algebra import TracePoly, chebyshev_terms


@dataclass(frozen=True)
class TorusKnotConfig:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 2 or self.q < 2:
            raise ValueError("p and q must both be at least 2")
        if self.p == self.q:
            raise ValueError("p and q must differ")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")


@dataclass(frozen=True)
class AdmissiblePair:
    """Eigenvalue labels (k on u mod q, l on v mod p) of the same parity."""

    k: int
    l: int


@dataclass(frozen=True)
class Component:
    """One line of the character variety: the abelian line when ``pair`` is
    None, otherwise the irreducible line of that admissible pair.

    ``kind`` is read off ``pair``, so the two cannot disagree.  Irreducible
    components carry the constant traces of the two generators; equality
    and ordering decisions use the integer labels only, never the float
    approximations.
    """

    cfg: TorusKnotConfig
    pair: AdmissiblePair | None = None

    @property
    def kind(self) -> str:
        return "abelian" if self.pair is None else "irreducible"

    @property
    def x_const(self) -> float:
        if self.pair is None:
            raise ValueError("abelian component has no constant x")
        return 2.0 * math.cos(math.pi * self.pair.k / self.cfg.q)

    @property
    def y_const(self) -> float:
        if self.pair is None:
            raise ValueError("abelian component has no constant y")
        return 2.0 * math.cos(math.pi * self.pair.l / self.cfg.p)

    def to_json(self) -> dict:
        if self.pair is None:
            return {"kind": self.kind, "k": None, "l": None,
                    "x_c": None, "y_c": None}
        return {"kind": self.kind, "k": self.pair.k, "l": self.pair.l,
                "x_c": self.x_const, "y_c": self.y_const}


def admissible_pairs(cfg: TorusKnotConfig) -> list[AdmissiblePair]:
    """All (k, l) with k in [1, q-1], l in [1, p-1], k = l mod 2, lex order."""
    return [
        AdmissiblePair(k, l)
        for k in range(1, cfg.q)
        for l in range(1, cfg.p)
        if (k - l) % 2 == 0
    ]


def components(cfg: TorusKnotConfig) -> list[Component]:
    """The abelian line followed by one component per admissible pair."""
    out = [Component(cfg)]
    out.extend(Component(cfg, pair) for pair in admissible_pairs(cfg))
    return out


def knot_trace(cfg: TorusKnotConfig) -> TracePoly:
    """tr(u^q) = tr(v^p) as a polynomial in x (the class of the knot)."""
    return next(islice(chebyshev_terms(TracePoly.x()), cfg.q, None))
