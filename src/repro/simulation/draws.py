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

Nothing else is served: a draw that takes a variable number of words
(``exponential``'s ziggurat) would need numpy's own algorithm, so such
streams keep their ``Generator``.
"""

from __future__ import annotations

import operator
from typing import List, Optional

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
