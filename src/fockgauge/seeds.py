"""Seeds of sweep states, derived a chunk of indices at a time.

Sweep state i of a sweep with seed S draws the stream of
`numpy.random.default_rng([S, i])`, so `{"seed": [S, i]}` replays it on its
own.  Run once per state, numpy's `SeedSequence` costs more than drawing a
small state.  Here the four 64-bit words that `SeedSequence([S, i])` hands
to PCG64 are computed for many indices in one uint32 pass, following numpy's
documented algorithm step by step, and each `SweepSeed` gives PCG64 its
words; the states are bit for bit the same.

This module loads `numpy.random`, which importing the package does not, so
the sweep imports it when it first needs a seed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

CHUNK = 1024  # indices per uint32 pass; 256 to 4096 measured alike
MASK = 0xFFFFFFFF


def seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """`SeedSequence([seed, i]).generate_state(4, np.uint64)` for i in [start, stop), as rows.

    Every index must fit one 32-bit entropy word.  All arithmetic wraps mod
    2^32 in uint32 arrays; the running hash constants are the same for every
    index, so they stay Python ints.
    """
    if seed < 0 or not 0 <= start <= stop <= 1 << 32:
        raise ValueError(f"sweep seeds need a non-negative seed and indices in [0, 2**32), got {seed} and [{start}, {stop})")
    count = stop - start
    # the entropy: the 32-bit words of the seed, low word first, then the index
    words = [seed >> shift & MASK for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((len(words) + 1, count), np.uint32)
    entropy[:-1] = np.array(words, np.uint32)[:, None]
    entropy[-1] = np.arange(start, stop, dtype=np.int64)
    h = 0x43B0D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal h
        value = value ^ h
        h = h * 0x931E8875 & MASK
        value = value * h
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * 0xCA01F9DD - y * 0x4973F715
        return result ^ result >> 16

    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(count, np.uint32)) for k in range(4)]
    for source in range(4):
        for dest in range(4):
            if dest != source:
                pool[dest] = mix(pool[dest], hashmix(pool[source]))
    for extra in entropy[4:]:
        for dest in range(4):
            pool[dest] = mix(pool[dest], hashmix(extra))
    h = 0x8B51F9DD
    out = np.empty((8, count), np.uint64)
    for k in range(8):
        value = pool[k % 4] ^ h
        h = h * 0x58F38DED & MASK
        value = value * h
        out[k] = value ^ value >> 16
    # word pairs joined low word first, whatever the host's byte order
    return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)


class SweepSeed(ISeedSequence):
    """The seeding words of one sweep state, for `default_rng` to hand to PCG64."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"a sweep seed answers only PCG64's generate_state(4, uint64), not ({n_words}, {np.dtype(dtype)})"
            )
        return self.words


def sweep_seeds(seed: int, count: int) -> Iterator[SweepSeed]:
    """Seeds of sweep states 0..count-1, their words derived `CHUNK` indices at a time."""
    for start in range(0, count, CHUNK):
        yield from map(SweepSeed, seed_words(seed, start, min(start + CHUNK, count)))
