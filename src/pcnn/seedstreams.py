"""Many seeded numpy generators at once, as array passes.

Row i of `SeedStreams(prefix, ids)` is the generator
`np.random.default_rng(np.random.SeedSequence([*prefix, ids[i]]))`: its
`random` holds that generator's first `random()`, bit for bit, computed
for every row with uint32/uint64 array arithmetic instead of one generator
per row.

The arithmetic follows numpy's `SeedSequence` (entropy split into uint32
words, a 4-word pool built by `hashmix` and `mix`, `generate_state(4,
uint64)`) and its PCG64 (a 128-bit LCG seeded by `pcg_setseq_128_srandom_r`,
output by XSL-RR). numpy keeps both streams fixed across releases (NEP 19),
and the tests compare the draws with numpy's own generators.
"""

import numpy as np

_M32 = 0xFFFFFFFF
# SeedSequence's pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier, as (high, low) 64-bit halves
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _words(value):
    """`SeedSequence`'s uint32 words of a non-negative integer, least
    significant first; 0 is one word."""
    if value < 0:
        raise ValueError(f"a stream's seed must be non-negative, got {value}")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


class _Hash:
    """SeedSequence's `hashmix`, whose multiplier advances on every call; a
    call hashes a whole column of uint32 words."""

    def __init__(self, init, mult):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _M32
        value = value * np.uint32(self.const)
        return value ^ value >> 16


def _mix(x, y):
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ result >> 16


def _pool(entropy):
    """SeedSequence's pool of every row of `entropy`, (n, L) uint32 words:
    four uint32 columns."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # a word past the pool mixes into every pool word
    for src in range(_POOL, entropy.shape[1]):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    return pool


def _generate_state(pool):
    """`generate_state(4, np.uint64)` of each row's pool: four uint64 columns."""
    hashmix = _Hash(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    return [words[i] | words[i + 1] << np.uint64(32) for i in range(0, 2 * _POOL, 2)]


def _mulhi(a, b):
    """High 64 bits of the 128-bit product of uint64 arrays, from 32-bit halves."""
    a0, a1 = a & np.uint64(_M32), a >> np.uint64(32)
    b0, b1 = b & np.uint64(_M32), b >> np.uint64(32)
    lo_hi, hi_lo = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (lo_hi & np.uint64(_M32)) + (hi_lo & np.uint64(_M32))
    return a1 * b1 + (lo_hi >> np.uint64(32)) + (hi_lo >> np.uint64(32)) + (mid >> np.uint64(32))


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


class SeedStreams:
    """One PCG64 per id, seeded by `SeedSequence([*prefix, id])`, after its
    first `random()`, which `random` holds as a float64 array.

    `prefix` is a sequence of non-negative integers and `ids` an int64
    array. A negative value raises ValueError, as in `SeedSequence`; for
    an id the message names `what` and the first negative id.
    """

    def __init__(self, prefix, ids, what="ids"):
        ids = np.asarray(ids, dtype=np.int64)
        negative = np.flatnonzero(ids < 0)
        if len(negative):
            raise ValueError(f"{what} must be non-negative to seed a stream, "
                             f"got {ids[negative[0]]}")
        prefix = [word for value in prefix for word in _words(int(value))]
        self._hi, self._lo, self._inc_hi, self._inc_lo = (
            np.zeros(len(ids), dtype=np.uint64) for _ in range(4))
        ids = ids.astype(np.uint64)
        high = ids >> np.uint64(32)
        # an id >= 2**32 is two entropy words, so the ids pool in two groups
        for rows, words in ((high == 0, 1), (high > 0, 2)):
            rows = np.flatnonzero(rows)
            entropy = np.empty((len(rows), len(prefix) + words), dtype=np.uint32)
            entropy[:, :len(prefix)] = prefix
            entropy[:, len(prefix)] = ids[rows] & np.uint64(_M32)
            if words == 2:
                entropy[:, -1] = high[rows]
            self._seed(rows, *_generate_state(_pool(entropy)))
        self._step()
        self.random = (self._next64() >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def _seed(self, rows, seed_hi, seed_lo, seq_hi, seq_lo):
        """PCG64's `pcg_setseq_128_srandom_r` up to its last step: inc =
        seq << 1 | 1, and the state after one step from 0 plus the seed."""
        inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
        inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
        self._inc_hi[rows], self._inc_lo[rows] = inc_hi, inc_lo
        self._hi[rows], self._lo[rows] = _add128(inc_hi, inc_lo, seed_hi, seed_lo)

    def _step(self):
        """state = state * multiplier + inc, modulo 2**128."""
        hi = (_mulhi(self._lo, np.uint64(_PCG_LO)) + self._lo * np.uint64(_PCG_HI)
              + self._hi * np.uint64(_PCG_LO))
        lo = self._lo * np.uint64(_PCG_LO)
        self._hi, self._lo = _add128(hi, lo, self._inc_hi, self._inc_lo)

    def _next64(self):
        """Step, then XSL-RR: the xor of the halves rotated right by the
        top 6 bits of the state."""
        self._step()
        x, rot = self._hi ^ self._lo, self._hi >> np.uint64(58)
        return x >> rot | x << (-rot & np.uint64(63))
