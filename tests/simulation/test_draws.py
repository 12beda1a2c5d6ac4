"""``BlockDraws`` against the numpy ``Generator`` calls it serves.

The source is meant to return exactly what ``default_rng(seed)`` returns
for the same sequence of scalar ``random()`` / ``integers(n)`` calls, so
every check here is ``==`` on long random interleavings that cross many
block boundaries.
"""

import random as pyrandom

import numpy as np
import pytest

from repro.simulation.draws import BLOCK, BlockDraws

SEEDS = (0, 7, 2024)

#: 1 draws nothing; 3·2**30 rejects 25 % of its 32-bit inputs and
#: 2**31 + 1 almost half; 2**32 - 1 is the largest 32-bit range.
SIZES = (1, 2, 319, 3 * 2**30, 2**31 + 1, 2**32 - 1)

CALLS = 100_000


def _script(seed, calls):
    """A random interleaving: ``None`` is ``random()``, an int ``n`` is
    ``integers(n)``. Runs of ``integers`` calls leave the kept half-word
    both used and pending across ``random()`` calls."""
    chooser = pyrandom.Random(seed)
    return [None if chooser.random() < 0.4 else chooser.choice(SIZES) for _ in range(calls)]


def _play(source, script):
    return [source.random() if n is None else int(source.integers(n)) for n in script]


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_calls_equal_the_generator(seed):
    script = _script(seed, CALLS)
    assert _play(BlockDraws(seed), script) == _play(np.random.default_rng(seed), script)
    # Far more raw words than one block were consumed.
    assert sum(n is None for n in script) > 10 * BLOCK


@pytest.mark.parametrize("n", SIZES)
def test_each_size_alone_equals_the_generator(n):
    source, generator = BlockDraws(5), np.random.default_rng(5)
    assert [source.integers(n) for _ in range(3 * BLOCK)] == [
        int(generator.integers(n)) for _ in range(3 * BLOCK)
    ]


def test_random_alone_equals_the_generator():
    source, generator = BlockDraws(3), np.random.default_rng(3)
    assert [source.random() for _ in range(3 * BLOCK)] == [
        generator.random() for _ in range(3 * BLOCK)
    ]


def test_numpy_integer_sizes():
    source, generator = BlockDraws(1), np.random.default_rng(1)
    for n in (np.int64(319), np.uint32(2**32 - 1), np.int32(2)):
        drawn = source.integers(n)
        assert type(drawn) is int
        assert drawn == generator.integers(n)


@pytest.mark.parametrize("n", (0, -1, 2**32, 2**40))
def test_out_of_range_sizes_raise(n):
    with pytest.raises(ValueError, match="0 < n < 2\\*\\*32"):
        BlockDraws(0).integers(n)


def test_non_integer_size_raises():
    with pytest.raises(TypeError):
        BlockDraws(0).integers(319.0)
