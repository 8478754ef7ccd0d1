"""Shared domain types: keywords, edge symbols, values, configuration.

Keys are arbitrary byte strings that never contain the reserved terminator
byte 0x00. The library appends the terminator internally so the stored key
set is prefix-free, which guarantees that two distinct keys always disagree
at some position strictly inside both.

Trie edges carry a (branching byte, label offset) pair packed into a single
integer code: ``code = byte * offset_limit + offset``. Offsets are kept
below ``offset_limit`` by inserting step nodes, whose edges use one reserved
marker code. Codes above the marker never occur, which leaves room for the
table sentinels used by the hash-trie backends.
"""

from __future__ import annotations

from dataclasses import dataclass

VALUE_BITS = 32
NO_VALUE = (1 << VALUE_BITS) - 1  # reserved "absent" payload, rejected at the API boundary

MAX_CAPACITY = 1 << 48

REPRS = ("pbt", "cbt", "pfkt", "cfkt")
LABEL_MAPS = ("plm", "slm")
GROUP_SIZES = (8, 16, 32, 64)


class DynPdtError(Exception):
    """Base class for all library errors."""


class InvalidKeyword(DynPdtError):
    """Key is empty or contains the reserved terminator byte."""


class ContractViolation(DynPdtError):
    """An operation was called outside its stated preconditions."""


class CorruptionError(DynPdtError):
    """Internal state failed a consistency check that should be unreachable."""


class ResourceExhausted(DynPdtError):
    """A table cannot grow past the configured maximum capacity."""


class EmptyCorpus(DynPdtError):
    """A corpus file yielded no usable keys."""


def validate_keyword(raw) -> bytes:
    """Validate a raw key and return it with the terminator appended.

    Accepts bytes, bytearray or memoryview. Rejects empty keys and keys
    containing the terminator byte, since either would break prefix-freeness.
    """
    if not isinstance(raw, (bytes, bytearray, memoryview)):
        raise InvalidKeyword(
            f"key must be bytes, bytearray or memoryview, got {type(raw).__name__}")
    raw = bytes(raw)
    if not raw:
        raise InvalidKeyword("empty key")
    if 0 in raw:
        raise InvalidKeyword("key contains the reserved terminator byte 0x00")
    return raw + b"\x00"


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Config:
    """Construction parameters for a dictionary.

    offset_limit caps the offset component of edge codes (larger values mean
    fewer step nodes but a wider symbol space). label_map picks the label
    groups' width: slm groups group_size consecutive ids per bytes object,
    and plm is the same map at a width of 1, one record per node.
    """

    trie_repr: str = "cbt"
    label_map: str = "slm"
    offset_limit: int = 64
    group_size: int = 16
    initial_capacity: int = 1 << 16

    def __post_init__(self) -> None:
        if self.trie_repr not in REPRS:
            raise ContractViolation(f"trie_repr must be one of {REPRS}")
        if self.label_map not in LABEL_MAPS:
            raise ContractViolation(f"label_map must be one of {LABEL_MAPS}")
        for name in ("offset_limit", "group_size", "initial_capacity"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ContractViolation(f"{name} must be an int, got {type(v).__name__}")
        if self.offset_limit < 4 or not _is_pow2(self.offset_limit):
            raise ContractViolation("offset_limit must be a power of two >= 4")
        if self.group_size not in GROUP_SIZES:
            raise ContractViolation(f"group_size must be one of {GROUP_SIZES}")
        if not _is_pow2(self.initial_capacity) or self.initial_capacity < 16:
            raise ContractViolation("initial_capacity must be a power of two >= 16")
        if self.initial_capacity > MAX_CAPACITY:
            raise ContractViolation("initial_capacity exceeds the supported maximum")
        if self.initial_capacity.bit_length() - 1 + self.symbol_bits > 64:
            raise ContractViolation("packed keys would exceed 64 bits")

    @property
    def step_code(self) -> int:
        return 256 * self.offset_limit

    @property
    def symbol_space(self) -> int:
        # twice the marker code, a power of two, so packed (node, code) keys
        # split cleanly into bit fields
        return 512 * self.offset_limit

    @property
    def symbol_bits(self) -> int:
        return self.symbol_space.bit_length() - 1
