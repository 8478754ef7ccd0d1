import random

import pytest

from dynpdt.core import CorruptionError
from dynpdt.hashing import (
    BijectiveTransform,
    SplitMix64,
    scramble,
    vbyte_decode,
    vbyte_encode,
)

# pinned outputs; scramble(x) is the splitmix64 finalizer of x + gamma, so
# scramble(0) and scramble(1) equal the first outputs of streams seeded 0 and 1
FROZEN_SCRAMBLE = {
    0: 0xE220A8397B1DCDAF,
    1: 0x910A2DEC89025CC1,
    2: 0x975835DE1C9756CE,
    0xDEADBEEF: 0x4ADFB90F68C9EB9B,
    (1 << 64) - 1: 0xE4D971771B652C20,
}


def test_scramble_frozen_values():
    for x, want in FROZEN_SCRAMBLE.items():
        assert scramble(x) == want


def test_scramble_stays_u64():
    for x in (0, 1, 2**32, 2**64 - 1, 123456789):
        assert 0 <= scramble(x) < 1 << 64


def test_scramble_avalanche():
    # flipping one input bit should flip about half the output bits
    rng = random.Random(0)
    flips = 0
    trials = 20_000
    for _ in range(trials):
        x = rng.getrandbits(64)
        bit = 1 << rng.randrange(64)
        flips += (scramble(x) ^ scramble(x ^ bit)).bit_count()
    assert 0.47 < flips / (trials * 64) < 0.53


def test_splitmix_stream_matches_scramble():
    # output i of a stream seeded s is scramble(s + i*gamma)
    gamma = 0x9E3779B97F4A7C15
    for seed in (0, 7, 2**63):
        rng = SplitMix64(seed)
        got = [rng.next() for _ in range(5)]
        want = [scramble((seed + i * gamma) & (2**64 - 1)) for i in range(5)]
        assert got == want


def test_splitmix_below_bounds_and_determinism():
    rng = SplitMix64(99)
    seen = [rng.below(10) for _ in range(1000)]
    assert all(0 <= v < 10 for v in seen)
    assert set(seen) == set(range(10))
    rng2 = SplitMix64(99)
    assert seen == [rng2.below(10) for _ in range(1000)]


@pytest.mark.parametrize("bits", [1, 2, 3, 8, 13])
def test_transform_is_a_permutation(bits):
    tf = BijectiveTransform(bits)
    domain = 1 << bits
    image = {tf.forward(x) for x in range(domain)}
    assert image == set(range(domain))
    for x in range(domain):
        assert tf.inverse(tf.forward(x)) == x


def test_transform_round_trip_wide():
    tf = BijectiveTransform(48)
    rng = random.Random(7)
    for _ in range(10_000):
        x = rng.getrandbits(48)
        y = tf.forward(x)
        assert 0 <= y < 1 << 48
        assert tf.inverse(y) == x


def test_transform_fixes_zero():
    # x=0 survives both the xor-shift and the odd multiply
    for bits in (4, 16, 48):
        assert BijectiveTransform(bits).forward(0) == 0


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
