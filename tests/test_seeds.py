import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockgauge
import fockgauge.verify as verify_mod
from fockgauge import SweepConfig, random_state, sweep
from fockgauge.cli import dumps
from fockgauge.seeds import CHUNK, SweepSeed, seed_words, sweep_seeds
from _parents import reference_sweep_states

# one to 42 entropy words of seed, each boundary of a word, and a seed past the fourth word
SEEDS = (0, 1, 5, 2**31, 2**32 - 1, 2**32, 2**64 + 5, 10**40, 2**200 + 3, 10**400)
# index ranges in one pass, up to the last index a sweep may hold
RANGES = ((0, 40), (CHUNK - 20, CHUNK + 20), (2**32 - 40, 2**32))


def _numpy_words(seed, index):
    return np.random.SeedSequence([seed, index]).generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_chunked_words_are_numpys_seed_sequence_words(seed):
    for start, stop in RANGES:
        words = seed_words(seed, start, stop)
        want = np.array([_numpy_words(seed, i) for i in range(start, stop)])
        assert words.dtype == np.uint64 and words.shape == (stop - start, 4)
        assert words.tobytes() == want.tobytes(), (seed, start)
    # the sweep's seeds, chunk by chunk across a chunk edge
    words = np.array([s.words for s in sweep_seeds(seed, CHUNK + 20)])
    assert words.tobytes() == np.array([_numpy_words(seed, i) for i in range(CHUNK + 20)]).tobytes(), seed


@pytest.mark.parametrize("kind, rank", [("pure", 1), ("mixed", 3)])
def test_random_state_on_a_sweep_seed_is_the_listed_seeds_state(kind, rank):
    for seed in (0, 7, 2**64 + 5, 10**400):
        for index, sweep_seed in itertools.islice(enumerate(sweep_seeds(seed, CHUNK + 3)), CHUNK - 3, None):
            got = random_state(12, kind, rank=rank, seed=sweep_seed)
            want = random_state(12, kind, rank=rank, seed=[seed, index])
            part = "amplitudes" if kind == "pure" else "entries"
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), (seed, index)


def test_chunked_sweep_prints_the_bytes_of_per_index_seeding(monkeypatch):
    # a few chunk edges, the pure/mixed boundary inside a chunk, a multi-word seed
    config = SweepConfig(n_pure=2 * CHUNK + 100, n_mixed=CHUNK, cutoff=4, rank=3, seed=2**64 + 5)
    chunked = dumps(sweep(config).to_dict())
    monkeypatch.setattr(verify_mod, "_sweep_states", reference_sweep_states)
    assert chunked == dumps(sweep(config).to_dict())


def test_sweep_seed_answers_only_pcg64s_request():
    sweep_seed = next(sweep_seeds(3, 1))
    assert sweep_seed.generate_state(4, np.uint64) is sweep_seed.words
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match=r"generate_state\(4, uint64\)"):
            sweep_seed.generate_state(n_words, dtype)
    assert isinstance(sweep_seed, SweepSeed)


def test_seed_words_refuse_what_no_word_holds():
    for seed, start, stop in ((-1, 0, 1), (0, 0, 2**32 + 1), (0, 5, 4)):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            seed_words(seed, start, stop)


def test_numpy_random_loads_only_with_a_sweep():
    # importing the package and its command line leaves numpy.random unloaded;
    # the first sweep loads it
    code = (
        "import sys, fockgauge, fockgauge.cli\n"
        "assert 'numpy.random' not in sys.modules, 'loaded at import'\n"
        "fockgauge.sweep(fockgauge.SweepConfig(n_pure=1, n_mixed=0, cutoff=4))\n"
        "assert 'numpy.random' in sys.modules, 'not loaded by a sweep'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fockgauge.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
