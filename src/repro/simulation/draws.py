"""Scalar draws served from blocks of raw PCG64 words, bit for bit.

A scalar ``Generator.random()`` or ``Generator.integers(n)`` call costs
0.5–2 µs in numpy's call machinery, most of it not drawing.
:class:`BlockDraws` pulls raw 64-bit words ``BLOCK`` at a time with
``bit_generator.random_raw`` and serves both calls from them, returning
exactly what ``np.random.default_rng(seed)`` would return for the same
sequence of calls:

* ``random()`` takes one word ``w`` and returns ``(w >> 11) * 2**-53``,
  numpy's ``next_double``.
* ``integers(n)`` for ``0 < n < 2**32`` is numpy's 32-bit Lemire draw.
  Its 32-bit inputs come through PCG64's half-word stash: a fresh word
  serves its low half and keeps its high half for the next
  ``integers`` draw; ``random()`` leaves a kept half alone. A draw
  ``x`` gives ``m = x * n`` and is rejected while ``m mod 2**32 <
  2**32 mod n``; the result is ``m >> 32``. ``integers(1)`` is 0 and
  consumes nothing, as in numpy.

``standard_exponential`` takes a variable number of words, so it is not
served call by call. :func:`exponential_walk` runs numpy's own ziggurat
(Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000;
``random_standard_exponential`` in numpy's ``distributions.c``) over a
whole block of words instead, returning exactly the values a run of
``Generator.standard_exponential()`` calls returns:

* Fast path, ≈ 98 % of draws, one numpy pass over the block: a word
  ``w`` gives ``ri = w >> 3``, ``idx = ri & 0xFF``, ``ri >>= 8`` and
  ``x = ri * we[idx]``, the draw when ``ri < ke[idx]``.
* Slow branches, in scalar Python (:func:`exponential_slow_path`), each
  reading one more word as ``next_double`` ``u``: for ``idx == 0`` the
  tail ``r - log1p(-u)``; otherwise ``x`` when ``(fe[idx - 1] - fe[idx])
  * u + fe[idx] < exp(-x)``, else a fresh draw from the next word.

The ``ke``/``we``/``fe`` tables (:mod:`repro.simulation._ziggurat_tables`,
loaded on the first draw) are copied, not derived: they are the
``ke_double``, ``we_double`` and ``fe_double`` ``.rodata`` symbols of
``distributions.c.o`` in numpy 2.4.6's ``numpy/random/lib/libnpyrandom.a``
(a double-precision recomputation by the published recurrence matches
only 60 of the 256 ``ke``, 69 ``we`` and 23 ``fe`` entries).
``tests/simulation/test_draws.py`` holds the walk ``==`` to
``Generator.standard_exponential`` on 10⁶ draws a seed: a numpy whose
``ke`` or ``we`` differ fails it. An ``fe`` entry one ulp off flips only
a wedge test that lands within an ulp of ``exp(-x)``, which no sample of
that size shows.

The diurnal load stream (:class:`repro.simulation.profiles.DiurnalArrivals`)
draws its thinning candidates this way. The Poisson and bursty streams,
which draw ``exponential`` a few hundred times a soak, keep their
``Generator``.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Raw words pulled per refill.
BLOCK = 1024

_TWO_32 = 1 << 32
_LOW_32 = _TWO_32 - 1
_TWO_M53 = 2.0**-53


class BlockDraws:
    """The ``random()`` / ``integers(n)`` stream of
    ``np.random.default_rng(seed)``, served from blocks of raw words."""

    __slots__ = ("_bit_generator", "_words", "_next", "_kept")

    def __init__(self, seed: Optional[int] = None) -> None:
        self._bit_generator = np.random.PCG64(seed)
        self._words: List[int] = []
        self._next = BLOCK  # the first draw pulls the first block
        self._kept = -1  # high half of a word an ``integers`` draw split; -1 if none

    def _refill(self) -> None:
        self._words = self._bit_generator.random_raw(BLOCK).tolist()
        self._next = 0

    def random(self) -> float:
        """A double in ``[0, 1)``: ``Generator.random()`` bit for bit."""
        i = self._next
        if i == BLOCK:
            self._refill()
            i = 0
        self._next = i + 1
        return (self._words[i] >> 11) * _TWO_M53

    def integers(self, n: int) -> int:
        """An int in ``[0, n)``: ``Generator.integers(n)`` bit for bit,
        for ``0 < n < 2**32``."""
        if type(n) is not int:
            n = operator.index(n)
        if not 1 < n < _TWO_32:
            if n == 1:
                return 0
            raise ValueError(f"integers(n) needs 0 < n < 2**32, got {n}")
        threshold = _TWO_32 % n
        kept = self._kept
        while True:
            if kept < 0:
                i = self._next
                if i == BLOCK:
                    self._refill()
                    i = 0
                self._next = i + 1
                word = self._words[i]
                m = (word & _LOW_32) * n
                kept = word >> 32
            else:
                m = kept * n
                kept = -1
            if m & _LOW_32 >= threshold:
                self._kept = kept
                return m >> 32


# -- numpy's exponential ziggurat on raw words ---------------------------------

#: ``ziggurat_exp_r``: where the base strip's exponential tail starts.
_ZIGGURAT_EXP_R = 7.69711747013104972


class _Tables(NamedTuple):
    ke: Tuple[int, ...]
    we: Tuple[float, ...]
    fe: Tuple[float, ...]
    ke_array: np.ndarray
    we_array: np.ndarray


@functools.lru_cache(maxsize=None)
def _tables() -> _Tables:
    """The ziggurat tables, loaded on the first draw rather than at
    import; the arrays are read-only."""
    from repro.simulation._ziggurat_tables import FE, KE, WE

    ke, we = np.array(KE, dtype=np.uint64), np.array(WE, dtype=np.float64)
    ke.flags.writeable = we.flags.writeable = False
    return _Tables(KE, WE, FE, ke, we)


def exponential_fast_path(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(x, fast)`` for each raw word taken as the first word of a
    ``standard_exponential`` draw: where ``fast`` holds, ``x`` is the
    draw and the word is its only word."""
    tables = _tables()
    ke, we = tables.ke_array, tables.we_array
    ri = words >> np.uint64(3)
    idx = (ri & np.uint64(0xFF)).astype(np.intp)
    ri >>= np.uint64(8)
    return ri * we[idx], ri < ke[idx]


def exponential_slow_path(words: Sequence[int], pos: int) -> Optional[Tuple[float, int]]:
    """The ``standard_exponential`` draw whose first word is
    ``words[pos]``, in scalar: ``(value, index after its last word)``, or
    ``None`` if it needs a word past the end of ``words``."""
    ke, we, fe = _tables()[:3]
    end = len(words)
    while pos < end:
        ri = words[pos] >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * we[idx]
        if ri < ke[idx]:
            return x, pos + 1
        if pos + 1 == end:
            return None
        u = (words[pos + 1] >> 11) * _TWO_M53
        if idx == 0:
            return _ZIGGURAT_EXP_R - math.log1p(-u), pos + 2
        if (fe[idx - 1] - fe[idx]) * u + fe[idx] < math.exp(-x):
            return x, pos + 2
        pos += 2  # the wedge refused x: a fresh draw
    return None


def exponential_walk(words: np.ndarray, gap: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Back-to-back ``standard_exponential`` draws from the start of
    ``words``, each followed by ``gap`` words its caller reads itself.

    Returns ``(values, tails)``: ``tails[i]`` indexes the first word after
    draw ``i``, where its ``gap`` words start. Only draws whose ``gap``
    words lie inside ``words`` are returned; ``tails[-1] + gap`` words
    are used. Fast draws are classified in one pass; each slow one is
    run in scalar and spliced in, shifting the draws after it.
    """
    stride = gap + 1
    x, fast = exponential_fast_path(words)
    end = len(words)
    slow_draws: List[int] = []
    slow_values: List[float] = []
    slow_tails: List[int] = []
    slow_extra: List[int] = []  # words a slow draw uses past its first
    count = pos = 0
    word_list: List[int] = []
    for s in np.flatnonzero(~fast).tolist():
        if s < pos or (s - pos) % stride:
            continue  # a slow draw's extra word, or a gap word
        if not word_list:
            word_list = words.tolist()
        count += (s - pos) // stride
        drawn = exponential_slow_path(word_list, s)
        if drawn is None or drawn[1] + gap > end:
            break
        value, tail = drawn
        slow_draws.append(count)
        slow_values.append(value)
        slow_tails.append(tail)
        slow_extra.append(tail - s - 1)
        count += 1
        pos = tail + gap
    else:
        count += len(range(pos, end - gap, stride))
    # Draw k starts ``k * stride`` words in, plus the extra words of the
    # slow draws before it.
    shift = np.zeros(count + 1, dtype=np.intp)
    shift[np.array(slow_draws, dtype=np.intp) + 1] = slow_extra
    firsts = np.arange(0, count * stride, stride) + np.cumsum(shift[:count])
    values, tails = x[firsts], firsts + 1
    values[slow_draws] = slow_values
    tails[slow_draws] = slow_tails
    return values, tails
