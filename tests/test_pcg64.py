"""The in-package PCG64 stream against numpy's default_rng, and the imports
the package saves."""

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import torusskein
from torusskein._pcg64 import Generator, _seed_words

# the bounds of integers(n): small ones, as in the trace check (n = 1 draws
# nothing), any up to 2^32, and near 2^31 and 2^32, where Lemire's method
# rejects half of its draws or numpy takes a plain 32-bit draw
bounds = st.one_of(st.integers(1, 4), st.integers(1, 1 << 32),
                   st.sampled_from([(1 << 31) + 3, (1 << 32) - 1, 1 << 32]))


@given(st.integers(0, 1 << 140), st.lists(bounds, max_size=30))
def test_matches_numpy_default_rng(seed, ns):
    # up to five 32-bit seed words, one more than SeedSequence's pool
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for n in ns:  # drawn as the trace check draws each sample
        assert ours.integers(n) == int(theirs.integers(n))
        assert ours.uniform(-2, 2) == theirs.uniform(-2, 2)
        assert ours.uniform(-2, 2) == theirs.uniform(-2, 2)
    # the 32-bit half kept from the last output is the same half
    assert ours.integers(1 << 32) == int(theirs.integers(1 << 32))


@pytest.mark.parametrize("seed", [0, (1 << 32) - 1, 1 << 32, (1 << 64) + 5, (1 << 130) + 7])
def test_matches_numpy_at_word_boundaries(seed):
    # one, two, three and five 32-bit seed words; five exceed the pool of four
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for n in (3, 7, 1 << 31, 35):
        assert ours.integers(n) == int(theirs.integers(n))
        assert ours.uniform(-2, 2) == theirs.uniform(-2, 2)


@given(st.integers(0, 1 << 70))
def test_integers_of_one_draws_nothing(seed):
    ours, fresh = Generator(seed), Generator(seed)
    assert ours.integers(1) == 0 == int(np.random.default_rng(seed).integers(1))
    assert ours.integers(5) == fresh.integers(5)
    assert ours.integers(1) == 0
    assert ours.uniform(-2, 2) == fresh.uniform(-2, 2)


@pytest.mark.parametrize("seed", [0, 20259, (1 << 64) + 5])
def test_generators_of_one_seed_draw_one_stream(seed):
    # the seed words are memoised per seed, as a tuple no generator can change
    assert isinstance(_seed_words(seed), tuple)
    first, second = Generator(seed), Generator(seed)
    assert [(first.integers(n), first.uniform(-2, 2)) for n in (3, 55, 1 << 32)] == [
        (second.integers(n), second.uniform(-2, 2)) for n in (3, 55, 1 << 32)]


def test_out_of_range_raises():
    rng = Generator(7)
    for n in (0, (1 << 32) + 1):
        with pytest.raises(ValueError, match="2\\^32"):
            rng.integers(n)
    with pytest.raises(ValueError, match="non-negative"):
        Generator(-1)


def test_verify_leaves_numpy_random_unimported():
    # python -X importtime names every module a process imports
    src = Path(torusskein.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "torusskein",
         "verify", "2", "3", "--max-k", "1", "--json"],
        capture_output=True, text=True, env=env, check=True)
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "torusskein.assembly" in imported and "numpy.linalg" in imported
    assert "numpy.random" not in imported


def test_exact_skein_side_imports_no_numpy():
    # algebra, skein, sprime and charvariety are exact: importing them pulls
    # in no numpy, since the package's __init__ imports nothing
    src = Path(torusskein.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import torusskein.sprime, torusskein.charvariety"],
        capture_output=True, text=True, env=env, check=True)
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {"torusskein.algebra", "torusskein.skein", "torusskein.sprime",
            "torusskein.charvariety"} <= imported
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
