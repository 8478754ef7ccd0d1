import random
import sys
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from dynpdt.bitarrays import IntVector
from dynpdt.core import ContractViolation
from dynpdt.trie_repr import _HashTrie


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


@pytest.mark.parametrize("width", [16, 31])  # one within a word, one straddling
@pytest.mark.parametrize("fill_ones", [False, True])
def test_intvector_set_refuses_values_that_do_not_fit(width, fill_ones):
    # a wider or negative value would overwrite the neighbouring entry
    vec = IntVector(width, 8, fill_ones)
    before = [vec.get(i) for i in range(8)]
    for bad in (1 << width, (1 << (width + 1)) + 5, -1, -(1 << width)):
        with pytest.raises(ContractViolation):
            vec.set(3, bad)
    assert [vec.get(i) for i in range(8)] == before
    vec.set(3, (1 << width) - 1)
    vec.set(4, 0)
    assert vec.get(3) == (1 << width) - 1 and vec.get(4) == 0


@pytest.mark.parametrize("width", [1, 4, 13, 64])
def test_intvector_fill_ones(width):
    # the fill is the vacancy mark of every hash table: 4-bit displacement
    # nibbles, spill-table keys and plain key tables of any width
    vec = IntVector(width, 150, fill_ones=True)
    ones = (1 << width) - 1
    assert all(vec.get(i) == ones for i in range(150))
    vec.set(70, 0)
    assert vec.get(70) == 0
    assert vec.get(69) == vec.get(71) == ones


@pytest.mark.parametrize("width", [1, 4, 13, 31, 32, 33, 64])
@pytest.mark.parametrize("size", [1, 16, 63, 64, 65, 200])
def test_nonvacant_lists_the_entries_that_are_not_all_ones(width, size):
    # the slot scan of every table, over marks of any width: entry values
    # next to the all-ones one, runs of vacant words and a last entry that
    # ends inside a word, for both fills
    rng = random.Random(width * 1000 + size)
    ones = (1 << width) - 1
    for fill_ones in (False, True):
        vec = IntVector(width, size, fill_ones)
        for i in range(size):
            if rng.random() < 0.3 and not 64 <= i < 128:
                vec.set(i, rng.choice([0, 1, ones - 1, 1 << (width - 1), ones]))
        want = [i for i in range(size) if vec.get(i) != ones]
        table = SimpleNamespace(_marks=vec, capacity=size)
        assert list(_HashTrie._used_slots(table)) == want


def test_intvector_memory_scales():
    small = IntVector(8, 100).allocated_bytes
    big = IntVector(8, 10_000).allocated_bytes
    assert 0 < small < big
    # bit-packing: 8-bit entries should take roughly a byte each
    assert big < 10_000 * 2


@pytest.mark.parametrize("width", [1, 4, 15, 17, 32, 64])
@pytest.mark.parametrize("fill_ones", [False, True])
def test_intvector_allocates_once_at_exact_size(width, fill_ones):
    size = 1 << 17
    nwords = (width * size + 63) >> 6
    tracemalloc.start()
    try:
        vec = IntVector(width, size, fill_ones)
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys.getsizeof(vec._words) == sys.getsizeof(array("Q")) + 8 * nwords
    assert vec.allocated_bytes == sys.getsizeof(vec._words)
    assert peak <= final + 1024
