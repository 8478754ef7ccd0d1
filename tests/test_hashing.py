import random

import pytest

from dynpdt.core import CorruptionError
from dynpdt.nlm import vbyte_decode, vbyte_encode
from dynpdt.trie_repr import golden_multipliers


@pytest.mark.parametrize("bits", [1, 2, 3, 8, 13])
def test_transform_is_a_permutation(bits):
    mult, inv = golden_multipliers(bits)
    domain = 1 << bits
    mask = domain - 1
    image = {x * mult & mask for x in range(domain)}
    assert image == set(range(domain))
    for x in range(domain):
        assert (x * mult & mask) * inv & mask == x


def test_transform_round_trip_wide():
    mult, inv = golden_multipliers(48)
    mask = (1 << 48) - 1
    rng = random.Random(7)
    for _ in range(10_000):
        x = rng.getrandbits(48)
        y = x * mult & mask
        assert y * inv & mask == x


def test_transform_fixes_zero():
    # the multiplier is odd, so it is invertible, and x=0 survives it
    for bits in (4, 16, 48):
        mult, inv = golden_multipliers(bits)
        assert mult & 1
        assert mult * inv & ((1 << bits) - 1) == 1


def test_vbyte_frozen_encodings():
    assert vbyte_encode(0) == b"\x00"
    assert vbyte_encode(127) == b"\x7f"
    assert vbyte_encode(128) == b"\x80\x01"
    assert vbyte_encode(16383) == b"\xff\x7f"
    assert vbyte_encode(16384) == b"\x80\x80\x01"


def test_vbyte_round_trip():
    for n in list(range(4096)) + [2**14, 2**21 - 1, 2**21, 2**32 - 1, 2**40]:
        buf = vbyte_encode(n)
        value, consumed = vbyte_decode(buf)
        assert (value, consumed) == (n, len(buf))


def test_vbyte_decode_at_offset():
    buf = b"junk" + vbyte_encode(300) + b"tail"
    value, consumed = vbyte_decode(buf, 4)
    assert value == 300
    assert buf[4 + consumed:] == b"tail"


def test_vbyte_truncated_raises():
    with pytest.raises(CorruptionError):
        vbyte_decode(b"\x80")  # continuation bit with nothing after it
    with pytest.raises(CorruptionError):
        vbyte_decode(b"")
