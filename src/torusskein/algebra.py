"""Exact coefficient arithmetic.

Three polynomial flavours cover everything downstream, and one recursion
builds the Chebyshev polynomials in each of them:

* :class:`Laurent` -- Laurent polynomials in the framing variable ``A`` with
  arbitrary-precision integer coefficients; the ground ring of all skein
  computations.
* :class:`UniPoly` -- dense univariate polynomials over ints or
  :class:`Laurent`.  Over Laurent, ``%`` works modulo a polynomial with a
  unit leading coefficient: the quotient S'(T, 2k) is such a ring.
* :class:`TracePoly` -- sparse polynomials in the trace coordinates
  ``x, y, z`` with integer coefficients.
* :func:`chebyshev_terms` -- X_(n+1) = g X_n - X_(n-1) for a variable g of
  either polynomial flavour (s or w, x or y): the first kind T_n from
  X_0 = 2, the second kind S_n from X_0 = 1.  :func:`chebyshev` is T_n in s.

Laurent and TracePoly share one sparse core, ``_Sparse``: a map from
monomial keys to nonzero ints, with the validating constructor, the
coercion of ints, addition, negation, subtraction, powers, equality, hashing
and immutability written once.  The constructor refuses a coefficient or a
key entry that is not an int (a Fraction, a float) rather than truncate it.
The results of ring operations are built straight from maps already clean,
without another pass through the constructor.  Each class adds its monomial
key (an int exponent, or an exponent triple), its product, and its
rendering and evaluation.

All values are immutable after construction; every operation is pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import operator
from itertools import islice


def _power(base, n: int, one):
    """base ** n by square and multiply, with no product by ``one`` (the unit
    of base's ring) and no square after the last bit."""
    if n < 0:
        raise ValueError("negative power; a unit's inverse is unit_inverse")
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


def _signed_sum(pieces) -> str:
    """Render (negative, body) pairs, highest term first, as "a - b + c"."""
    out = ""
    for neg, body in pieces:
        if out:
            out += f" {'-' if neg else '+'} {body}"
        else:
            out = ("-" if neg else "") + body
    return out or "0"


def _scalar_term(c, mon: str) -> tuple[bool, str]:
    """(negative, body) of the term c*mon; an empty ``mon`` is the constant term."""
    neg = c < 0
    ac = -c if neg else c
    if not mon:
        return neg, str(ac)
    return neg, mon if ac == 1 else f"{ac}*{mon}"


class _Sparse:
    """Sparse integer polynomial: ``terms`` maps monomial keys to nonzero ints.

    A subclass supplies ``_key``, which checks one monomial key (an
    exponent, or an exponent triple), ``_CONSTANT``, the key of the constant
    monomial, and ``__mul__``.  Coefficients and key entries go through
    ``operator.index``: any value that is not an int raises TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                c = operator.index(c)
                if c:
                    clean[self._key(key)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _coerce(cls, v):
        """``v`` as a value of this class, if it is one or an int, else NotImplemented."""
        if isinstance(v, cls):
            return v
        if isinstance(v, int):
            return cls._wrap({cls._CONSTANT: operator.index(v)} if v else {})
        return NotImplemented

    @classmethod
    def _wrap(cls, clean: dict):
        """A value owning ``clean``, whose coefficients are nonzero ints."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", clean)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __add__(self, other, sign=1, /):
        # sign -1 gives self - other in the same pass, with no negated copy
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r = dict(self.terms)
        for key, c in other.terms.items():
            s = r.get(key, 0) + sign * c
            if s:
                r[key] = s
            else:
                r.pop(key, None)
        return self._wrap(r)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)  # NotImplemented when other is no scalar

    def __pow__(self, n: int):
        return _power(self, n, self._coerce(1))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int (zero as 0)
        terms = self.terms
        if len(terms) <= 1 and terms.keys() <= {self._CONSTANT}:
            return hash(terms.get(self._CONSTANT, 0))
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return bool(self.terms)


class Laurent(_Sparse):
    """Laurent polynomial in A, stored as a sparse exponent -> int map."""

    __slots__ = ()
    _CONSTANT = 0
    _key = staticmethod(operator.index)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: 1})

    @staticmethod
    def A(exp: int = 1) -> "Laurent":
        return Laurent({exp: 1})

    @staticmethod
    def loop_value() -> "Laurent":
        """Value of a contractible framed loop: -A^2 - A^-2."""
        return Laurent({2: -1, -2: -1})

    # -- ring ops ----------------------------------------------------------

    # bound here, not only inherited: bench/tracing.py counts additions by
    # wrapping the __add__ in Laurent's own namespace, vars(Laurent)
    __add__ = __radd__ = _Sparse.__add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = r.get(e, 0) + c1 * c2
                if s:
                    r[e] = s
                else:
                    r.pop(e, None)
        return Laurent._wrap(r)

    __rmul__ = __mul__

    def shift(self, exp: int) -> "Laurent":
        """Multiply by A^exp."""
        return Laurent._wrap({e + exp: c for e, c in self.terms.items()})

    # -- units -------------------------------------------------------------

    def unit_parts(self) -> tuple[int, int] | None:
        """If the value is +-A^m, return (sign, m); otherwise None."""
        if len(self.terms) != 1:
            return None
        (e, c), = self.terms.items()
        if c in (1, -1):
            return (c, e)
        return None

    def unit_inverse(self) -> "Laurent":
        up = self.unit_parts()
        if up is None:
            raise ValueError(f"not a unit in Z[A,A^-1]: {self}")
        sign, e = up
        return Laurent({-e: sign})

    # -- evaluation and rendering -----------------------------------------

    def __str__(self):
        return _signed_sum(
            _scalar_term(self.terms[e], "" if e == 0 else "A" if e == 1 else f"A^{e}")
            for e in sorted(self.terms, reverse=True))

    def __repr__(self):
        return f"Laurent({self})"


DELTA = Laurent.loop_value()


class UniPoly:
    """Dense univariate polynomial; the variable is a one-letter tag.

    Coefficients are ints or Laurent values, any other raises TypeError.
    Mixing different variable tags in one operation is a usage error.  The
    Chebyshev polynomials in s and w come from :func:`chebyshev_terms`.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Laurent)):
                raise TypeError(f"UniPoly coefficient {c!r} is neither an int nor a Laurent")
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly values are immutable")

    @staticmethod
    def variable(var: str) -> "UniPoly":
        return UniPoly(var, (0, 1))

    @staticmethod
    def constant(var: str, c) -> "UniPoly":
        return UniPoly(var, (c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other: "UniPoly"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(self.var, other)
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.var, [self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(self.var, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            out = [c * other for c in self.coeffs]
            return UniPoly(self.var, out)
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly(self.var)
        # the zero of the coefficient ring (int() or Laurent()),
        # so that a slot no product reaches holds the same type as the rest
        out = [type(self.coeffs[-1])()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.var, out)

    __rmul__ = __mul__

    def __mod__(self, divisor: "UniPoly") -> "UniPoly":
        """Remainder by a divisor whose leading coefficient has a
        ``unit_inverse`` (which raises otherwise), top term first."""
        self._check(divisor)
        inverse, top = divisor.leading().unit_inverse(), divisor.degree
        out = list(self.coeffs)
        for m in range(len(out) - 1, top - 1, -1):
            if not out[m]:
                continue
            factor = out[m] * inverse
            for d, c in enumerate(divisor.coeffs, start=m - top):
                if c:
                    out[d] = out[d] - factor * c
        return UniPoly(self.var, out[:top])

    def __pow__(self, n: int):
        return _power(self, n, UniPoly.constant(self.var, 1))

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def evaluate(self, v):
        out = 0
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def __str__(self):
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mon = "" if k == 0 else (self.var if k == 1 else f"{self.var}^{k}")
            if isinstance(c, Laurent):
                pieces.append((False, f"({c})" + (f"*{mon}" if mon else "")))
            else:
                pieces.append(_scalar_term(c, mon))
        return _signed_sum(pieces)

    def __repr__(self):
        return f"UniPoly({self})"


class TracePoly(_Sparse):
    """Sparse polynomial in the trace coordinates x, y, z over the integers.

    Terms map exponent triples (i, j, k) for x^i y^j z^k to nonzero ints:
    every trace of a word in u and v lies in Z[x, y, z].  A coefficient
    that is not an int (a Fraction, a float) is never truncated: TypeError
    here and in arithmetic, and == answers False.
    The canonical term order is graded lexicographic, which fixes both
    rendering and equality-of-string output across runs.
    """

    __slots__ = ()
    _CONSTANT = (0, 0, 0)

    @staticmethod
    def _key(key):
        i, j, k = map(operator.index, key)
        return i, j, k

    @staticmethod
    def constant(c) -> "TracePoly":
        return TracePoly({(0, 0, 0): c})

    @staticmethod
    def x(power: int = 1) -> "TracePoly":
        return TracePoly({(power, 0, 0): 1})

    @staticmethod
    def y(power: int = 1) -> "TracePoly":
        return TracePoly({(0, power, 0): 1})

    @staticmethod
    def z(power: int = 1) -> "TracePoly":
        return TracePoly({(0, 0, power): 1})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r: dict[tuple[int, int, int], int] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                s = r.get(key, 0) + c1 * c2
                if s:
                    r[key] = s
                else:
                    r.pop(key, None)
        return TracePoly._wrap(r)

    __rmul__ = __mul__

    def shift(self, a: int, b: int, c: int) -> "TracePoly":
        """Multiply by the monomial x^a y^b z^c, keeping the term order."""
        return TracePoly._wrap({(i + a, j + b, k + c): v for (i, j, k), v in self.terms.items()})

    def evaluate(self, xv, yv, zv):
        out = 0
        for (i, j, k), c in self.terms.items():
            out = out + c * xv ** i * yv ** j * zv ** k
        return out

    def __str__(self):
        # graded lexicographic, largest first
        return _signed_sum(
            _scalar_term(self.terms[key], "*".join(
                (var if e == 1 else f"{var}^{e}") for var, e in zip("xyz", key) if e))
            for key in sorted(self.terms, key=lambda key: (sum(key), key), reverse=True))

    def __repr__(self):
        return f"TracePoly({self})"


def chebyshev_terms(gen, x0: int = 2):
    """X_0, X_1, X_2, ... in the ring of ``gen``, holding only the last two:
    X_0 = x0, X_1 = gen and X_(n+1) = gen*X_n - X_(n-1).

    ``x0`` = 2 gives the first kind T_n, with T_n(t + 1/t) = t^n + t^-n;
    ``x0`` = 1 the second kind S_n, with S_n(t + 1/t) = (t^(n+1) -
    t^-(n+1)) / (t - 1/t).  ``gen`` is any ring value with +, - and * by
    its own ring and by ints: a UniPoly variable (s, w) or TracePoly.x()
    or .y().  This is the one Chebyshev recursion of the package.
    """
    # X_(-1) = gen*X_0 - X_1, so that the loop also yields X_1
    prev, cur = gen * (x0 - 1), gen * 0 + x0
    while True:
        yield cur
        prev, cur = cur, gen * cur - prev


def chebyshev(n: int) -> UniPoly:
    """Trace polynomial of a power: T_n in s, with T_n(t + 1/t) = t^n + 1/t^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return next(islice(chebyshev_terms(UniPoly.variable("s")), n, None))
