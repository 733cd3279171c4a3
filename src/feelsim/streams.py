"""Deterministic random-stream derivation.

Every stochastic draw in the simulator comes from a generator keyed by
(root seed, domain, *tags).  Streams are independent of the order in which
they are opened, so per-worker work can run in any order or grouping
without changing results.

`substream` opens one stream.  `stream_seeds` derives the seeds of many at
once, without opening any: it takes the seed's pool from numpy's SeedSequence
and restates the rest of its hash (see the SeedSequence documentation and
NEP 19, https://numpy.org/neps/nep-0019-rng-policy.html) over columns of tags,
then generate_state and PCG64's seeding, so `reseed` puts a reused Generator
on exactly the stream `substream` opens for the same coordinate.
"""
from __future__ import annotations

import numpy as np

# domain tags; keep values stable, results depend on them
DOMAIN_INIT = 0
DOMAIN_DATA = 1
DOMAIN_PARTITION = 2
DOMAIN_PROFILE = 3
DOMAIN_SELECT = 4
DOMAIN_TRAIN = 5
DOMAIN_CHANNEL = 6
DOMAIN_DEADLINE = 7

# SeedSequence's hash constants and pool size, and PCG64's LCG multiplier
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Return the generator for a (seed, *tags) coordinate.

    Same coordinate -> same stream, always.  Distinct coordinates give
    statistically independent streams.
    """
    key = tuple(int(t) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def _consts(init: int, mult: int, n: int) -> np.ndarray:
    """The multipliers of n hashes in a row, as a uint32 column: hash i xors out[i] and
    multiplies by out[i + 1].  uint32 products wrap modulo 2**32, as the hash's do."""
    return np.cumprod([init] + [mult] * n, dtype=np.uint32)[:, None]


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def stream_seeds(seed: int, rows) -> list[tuple[int, int]]:
    """(state, inc) of the PCG64 that substream(seed, *row) seeds, for each row of tags.

    rows is a sequence of equal-length rows of tags in [0, 2**32).  The seed's pool comes
    from SeedSequence(seed).pool, which every row shares; only the tag columns (each mixed
    into every row's pool in one array pass), generate_state and PCG64's seeding are
    restated.
    """
    rows = list(rows)
    if not rows:
        return []
    try:
        tags = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    except OverflowError:
        raise ValueError("stream tags must be in [0, 2**32)") from None
    if tags.size and (tags.min() < 0 or tags.max() > _MASK32):
        raise ValueError("stream tags must be in [0, 2**32)")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    pool = np.random.SeedSequence(seed).pool[:, None]
    # the seed's words, zero-padded to the pool, took 4 hash multipliers each
    n_words = max(_POOL, -(-seed.bit_length() // 32))
    a = _consts(_INIT_A, _MULT_A, _POOL * (n_words + tags.shape[1]))
    for i, column in enumerate(tags.T.astype(np.uint32), start=n_words):
        h = (column ^ a[_POOL * i : _POOL * (i + 1)]) * a[_POOL * i + 1 : _POOL * (i + 1) + 1]
        h ^= h >> 16
        pool = _mix(pool, h)
    # generate_state(4, np.uint64): eight hashed words, cycling through the pool
    b = _consts(_INIT_B, _MULT_B, 8)
    words = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:-1]) * b[1:]
    words ^= words >> 16
    words = np.broadcast_to(words, (8, len(rows))).astype(np.uint64)
    # uint64 j is words 2j (low) and 2j + 1; PCG64 seeds from (u0 << 64 | u1, u2 << 64 | u3)
    # as pcg64_srandom_r does: inc from the second, then two LCG steps around the first
    u64 = (words[1::2] << np.uint64(32) | words[0::2]).tolist()
    out = []
    for u0, u1, u2, u3 in zip(*u64):
        inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
        out.append((((inc + (u0 << 64 | u1)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def reseed(generator: np.random.Generator, seed_pair: tuple[int, int]) -> np.random.Generator:
    """Put a PCG64 Generator on the stream stream_seeds gave seed_pair for; return it."""
    state, inc = seed_pair
    generator.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                     "state": {"state": state, "inc": inc}}
    return generator
