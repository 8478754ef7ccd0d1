"""Packed fixed-width integer vectors over 64-bit words."""

from __future__ import annotations

import sys
from array import array

from .core import ContractViolation

_ONES = (1 << 64) - 1


class IntVector:
    """Fixed-size vector of width-bit unsigned integers, bit-packed.

    Entries may straddle word boundaries. With fill_ones=True every entry
    starts at the all-ones value of its width, which every hash table reads
    as a vacant slot.
    """

    __slots__ = ("width", "_words", "_mask")

    def __init__(self, width: int, size: int, fill_ones: bool = False) -> None:
        if not 1 <= width <= 64:
            raise ContractViolation(f"entry width {width} outside [1, 64]")
        self.width = width
        self._mask = (1 << width) - 1
        # repeating a one-word array allocates the words once, at their size
        nwords = (width * size + 63) >> 6
        self._words = array("Q", [_ONES if fill_ones else 0]) * nwords

    def get(self, i: int) -> int:
        bit = i * self.width
        w = bit >> 6
        off = bit & 63
        words = self._words
        v = words[w] >> off
        rem = 64 - off
        if rem < self.width:
            v |= words[w + 1] << rem
        return v & self._mask

    def set(self, i: int, v: int) -> None:
        if not 0 <= v <= self._mask:
            raise ContractViolation(f"value {v} does not fit {self.width} bits")
        bit = i * self.width
        w = bit >> 6
        off = bit & 63
        words = self._words
        words[w] = (words[w] & ~(self._mask << off) | (v << off)) & 0xFFFFFFFFFFFFFFFF
        spill = off + self.width - 64
        if spill > 0:
            keep = self.width - spill
            words[w + 1] = (words[w + 1] & ~((1 << spill) - 1)) | (v >> keep)

    @property
    def allocated_bytes(self) -> int:
        return sys.getsizeof(self._words)
