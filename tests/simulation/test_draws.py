"""``BlockDraws`` and the exponential walk against the numpy
``Generator`` calls they serve.

The source is meant to return exactly what ``default_rng(seed)`` returns
for the same sequence of scalar ``random()`` / ``integers(n)`` calls, and
the walk exactly what ``standard_exponential`` returns, so every check
here is ``==`` on long random sequences that cross many block
boundaries.
"""

import random as pyrandom

import numpy as np
import pytest

from repro.simulation import draws
from repro.simulation.draws import BLOCK, BlockDraws, exponential_walk

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


# -- the exponential ziggurat on raw words -------------------------------------

EXPONENTIAL_DRAWS = 1_000_000


def _walk_exponentials(seed, n, block=4096):
    """``n`` draws from ``exponential_walk`` over ``PCG64(seed)``'s words,
    each block carrying the words its last, unfinished draw started on."""
    bit_generator = np.random.PCG64(seed)
    left = np.empty(0, dtype=np.uint64)
    runs, count = [], 0
    while count < n:
        words = np.concatenate((left, bit_generator.random_raw(block)))
        values, tails = exponential_walk(words)
        runs.append(values)
        count += len(values)
        left = words[tails[-1]:] if len(tails) else words
    return np.concatenate(runs)[:n]


@pytest.mark.parametrize("seed", SEEDS)
def test_walk_equals_standard_exponential(seed):
    drawn = _walk_exponentials(seed, EXPONENTIAL_DRAWS)
    expected = np.random.default_rng(seed).standard_exponential(EXPONENTIAL_DRAWS)
    assert np.array_equal(drawn, expected)
    # ``exponential(scale)`` is ``scale * standard_exponential()``.
    scale = 1.0 / 36.0
    assert np.array_equal(
        scale * drawn, np.random.default_rng(seed).exponential(scale, EXPONENTIAL_DRAWS)
    )


def test_walk_equals_scalar_exponential_calls():
    generator = np.random.default_rng(11)
    assert _walk_exponentials(11, 20_000, block=97).tolist() == [
        generator.standard_exponential() for _ in range(20_000)
    ]


def test_every_slow_branch_is_taken(monkeypatch):
    """Each branch of numpy's slow path, counted on 10⁶ draws: the idx-0
    tail (≈ 0.05 %), a wedge accept and a wedge reject that draws again
    (≈ 1.1 % each)."""
    taken = []
    slow_path = draws.exponential_slow_path

    def counting(words, pos):
        drawn = slow_path(words, pos)
        if drawn is not None:
            taken.append(((words[pos] >> 3) & 0xFF, drawn[1] - pos))
        return drawn

    monkeypatch.setattr(draws, "exponential_slow_path", counting)
    drawn = _walk_exponentials(0, EXPONENTIAL_DRAWS)
    assert np.array_equal(drawn, np.random.default_rng(0).standard_exponential(EXPONENTIAL_DRAWS))
    tail = sum(1 for idx, _ in taken if idx == 0)
    wedge_accept = sum(1 for idx, used in taken if idx and used == 2)
    redrawn = sum(1 for _, used in taken if used > 2)
    assert 300 < tail < 700
    assert 9_000 < wedge_accept < 13_000
    assert 9_000 < redrawn < 13_000


@pytest.mark.parametrize("gap", (1, 2))
def test_walk_leaves_gap_words_to_its_caller(gap):
    """With ``gap`` words after each draw, the draws are what numpy's
    ``standard_exponential`` returns when a ``random()`` call follows it
    ``gap`` times, and ``tails`` points at those words."""
    words = np.random.PCG64(3).random_raw(20_000)
    values, tails = exponential_walk(words, gap=gap)
    generator = np.random.default_rng(3)
    expected, expected_draws = [], []
    for _ in range(len(values)):
        expected.append(generator.standard_exponential())
        expected_draws.append([generator.random() for _ in range(gap)])
    assert values.tolist() == expected
    assert [
        [(int(words[t + k]) >> 11) * 2.0**-53 for k in range(gap)] for t in tails.tolist()
    ] == expected_draws
    # Every draw whose gap words fit is returned.
    assert int(tails[-1]) + gap > len(words) - 3 * (gap + 1)


def test_slow_path_reports_running_out_of_words():
    words = np.random.PCG64(0).random_raw(4096)
    _, fast = draws.exponential_fast_path(words)
    slow = int(np.flatnonzero(~fast)[0])
    assert draws.exponential_slow_path(words.tolist()[: slow + 1], slow) is None
    assert draws.exponential_slow_path(words.tolist(), slow) is not None
