"""sha256-separated random streams: every stream is a pure function of its key.

``stream`` builds one Generator for one key.  ``Streams`` gives a batch's
keys the same streams without building a Generator per key: it runs
numpy's ``SeedSequence`` mixing and PCG64's seeding step once over the
whole batch's seeds as array arithmetic, then moves one reused Generator
to each key's state in turn.
"""

from __future__ import annotations

import hashlib

import numpy as np

# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _seed(parts, sep):
    key = sep.join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")


def stream(*parts, sep="|"):
    """Generator seeded by the first 8 digest bytes of ``sep.join(parts)``."""
    return np.random.default_rng(_seed(parts, sep))


def _hashmix(const, mult):
    """numpy SeedSequence's hashmix over uint32 arrays; each call advances the constant."""
    def mix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const
        return value ^ value >> 16
    return mix


def _pcg64_states(seeds):
    """(state, inc) of ``default_rng(s)`` for each uint64 seed s, mixed as (B,) arrays."""
    seeds = np.array(seeds, dtype=np.uint64)
    mix_in, mix_out = _hashmix(_INIT_A, _MULT_A), _hashmix(_INIT_B, _MULT_B)
    # a seed is two little-endian uint32 words; the rest of the pool hashes zeros
    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [mix_in(w) for w in ((seeds & _M32).astype(np.uint32),
                                (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_L - mix_in(pool[src]) * _MIX_R
                pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, uint64): 8 words cycling the pool, paired little-endian
    words = [mix_out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * j] | words[2 * j + 1] << 32).tolist() for j in range(4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128  # pcg64_set_seed: two LCG steps
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc))
    return states


class Streams:
    """``stream(*key)`` for each of a batch's keys, seeded in one vectorised pass.

    Iterating yields one Generator, moved to each key's state in turn, so a
    key's draws must be taken before the next key's stream is asked for.
    """

    def __init__(self, keys, rng):
        self._states = _pcg64_states([_seed(key, "|") for key in keys])
        self._rng = rng  # any PCG64 Generator; only its state is replaced

    def __len__(self):
        return len(self._states)

    def __iter__(self):
        bit_generator = self._rng.bit_generator
        for state, inc in self._states:
            bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0,
                                   "uinteger": 0, "state": {"state": state, "inc": inc}}
            yield self._rng
