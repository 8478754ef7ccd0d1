import random

import pytest

from dynpdt.bitarrays import BitVector, IntVector


@pytest.mark.parametrize("width", [1, 2, 7, 8, 31, 32, 33, 63, 64])
def test_intvector_matches_list_model(width):
    rng = random.Random(width)
    size = 257  # crosses several word boundaries at every width
    vec = IntVector(width, size)
    model = [0] * size
    top = (1 << width) - 1
    for _ in range(2000):
        i = rng.randrange(size)
        v = rng.randint(0, top)
        vec.set(i, v)
        model[i] = v
        j = rng.randrange(size)
        assert vec.get(j) == model[j]
    assert [vec.get(i) for i in range(size)] == model


def test_intvector_straddle_isolation():
    # width 31 guarantees entries spanning two backing words
    vec = IntVector(31, 10)
    vec.set(1, 0x7FFFFFFF)
    vec.set(2, 0)
    vec.set(3, 0x2AAAAAAA)
    assert vec.get(1) == 0x7FFFFFFF
    assert vec.get(2) == 0
    assert vec.get(3) == 0x2AAAAAAA
    vec.set(2, 0x55555555 & 0x7FFFFFFF)
    assert vec.get(1) == 0x7FFFFFFF  # neighbours untouched
    assert vec.get(3) == 0x2AAAAAAA


def test_intvector_fill_ones():
    vec = IntVector(13, 50, fill_ones=True)
    assert all(vec.get(i) == (1 << 13) - 1 for i in range(50))
    vec.set(20, 5)
    assert vec.get(20) == 5
    assert vec.get(19) == vec.get(21) == (1 << 13) - 1


def test_intvector_memory_scales():
    small = IntVector(8, 100).allocated_bytes
    big = IntVector(8, 10_000).allocated_bytes
    assert 0 < small < big
    # bit-packing: 8-bit entries should take roughly a byte each
    assert big < 10_000 * 2


def test_bitvector_basics():
    bv = BitVector(130)
    assert not bv.get(0) and not bv.get(129)
    bv.set_true(0)
    bv.set_true(64)
    bv.set_true(129)
    assert bv.get(0) and bv.get(64) and bv.get(129)
    assert list(bv.iter_set()) == [0, 64, 129]


def test_bitvector_iter_set_matches_model():
    rng = random.Random(5)
    bv = BitVector(1000)
    want = set()
    for _ in range(300):
        i = rng.randrange(1000)
        bv.set_true(i)
        want.add(i)
    assert list(bv.iter_set()) == sorted(want)
