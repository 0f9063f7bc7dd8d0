"""numpy's ``default_rng(seed)`` stream, bit for bit, for the two draws the
trace check makes: ``integers(n)`` and ``uniform(lo, hi)``.

The generator is PCG64 (O'Neill 2014, "PCG: a family of simple fast
space-efficient statistically good algorithms"): a 128-bit linear
congruential state, each 64-bit output the XSL-RR permutation of the state
after one step.  numpy seeds it through ``SeedSequence``: the seed's
little-endian 32-bit words are hashed into a pool of four words, and eight
state words are drawn from the pool.  Both are fixed integer recipes, so
reproducing them here gives the same samples, and the same reports, without
importing ``numpy.random``, and whatever numpy later does to its Generator.
"""

from __future__ import annotations

from functools import lru_cache

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG's 128-bit multiplier

# SeedSequence's hash constants, and the size of its pool in 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


@lru_cache(maxsize=None)
def _seed_words(seed: int) -> tuple[int, ...]:
    """SeedSequence(seed).generate_state(8): the pool mixed from the seed's
    32-bit words, then eight words hashed from the pool in turn.  Memoised,
    since every knot of a run draws from the same seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return tuple(out)


class Generator:
    """``numpy.random.default_rng(seed)``, restricted to ``integers(n)`` and
    ``uniform(lo, hi)``, which draw exactly what numpy's draw."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        w = _seed_words(seed)
        # the state words read as four little-endian uint64: initstate, initseq
        initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        initseq = (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32
        self._inc = (initseq << 1 | 1) & _M128
        # from state 0: one step, add initstate, one more step
        self._state = ((self._inc + initstate) * _MULT + self._inc) & _M128
        self._half = None  # the unused upper half of a 64-bit output

    def _next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x, r = (s >> 64) ^ (s & _M64), s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            out, self._half = self._half, None
            return out
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def integers(self, n: int) -> int:
        """Uniform in [0, n) by Lemire's bounded method on 32-bit draws; n = 1
        draws nothing.  numpy takes another method past 2^32, so this raises."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"n must lie in [1, 2^32], got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return m >> 32

    def uniform(self, lo: float, hi: float) -> float:
        """lo + (hi - lo) times a double in [0, 1) from the top 53 bits."""
        return lo + (hi - lo) * ((self._next64() >> 11) * 2.0 ** -53)
