"""Hash building blocks: an invertible multiply and VByte.

Everything here is deterministic with fixed published constants: no seeds,
no per-process randomization. One multiply by the golden-ratio constant
homes every trie table (Knuth's multiplicative hashing): modulo a power of
two it is invertible, so the tables can store quotients and reconstruct
keys exactly.
"""

from __future__ import annotations

from .core import ContractViolation, CorruptionError

GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # the odd integer nearest 2**64 / golden ratio


class BijectiveTransform:
    """Bijection over [0, 2**bits): one multiply by a fixed odd constant.

    forward(x) is x * m mod 2**bits and inverse(y) is y * m**-1 mod 2**bits.
    The high bits of the product depend on every bit of x, so a table of
    2**h slots homes a key at forward(x) >> (bits - h); the low bits that
    remain are the quotient a compact table stores. 0 maps to 0.
    """

    __slots__ = ("_mask", "_mult", "_mult_inv")

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ContractViolation("transform needs a domain of at least one bit")
        self._mask = (1 << bits) - 1
        self._mult = (GOLDEN_GAMMA & self._mask) | 1  # truncated constant, forced odd
        self._mult_inv = pow(self._mult, -1, 1 << bits)

    def forward(self, x: int) -> int:
        return (x * self._mult) & self._mask

    def inverse(self, y: int) -> int:
        return (y * self._mult_inv) & self._mask


def vbyte_encode(n: int) -> bytes:
    """Encode a non-negative integer, 7 data bits per byte, low group first.

    The high bit of each byte marks continuation. 0 encodes as a single
    0x00 byte.
    """
    if n < 0:
        raise ContractViolation("vbyte encodes non-negative integers only")
    out = bytearray()
    while n >= 0x80:
        out.append(0x80 | (n & 0x7F))
        n >>= 7
    out.append(n)
    return bytes(out)


def vbyte_decode(buf, offset: int = 0) -> tuple[int, int]:
    """Decode one integer from buf at offset. Returns (value, bytes consumed)."""
    n = 0
    shift = 0
    pos = offset
    end = len(buf)
    while True:
        if pos >= end:
            raise CorruptionError("vbyte ran past the end of the buffer")
        b = buf[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if b < 0x80:
            return n, pos - offset
        shift += 7
