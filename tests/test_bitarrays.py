import random
import sys
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from dynpdt.trie_repr import IntVector, _HashTrie


def load(vec, model):
    """Write model's values into vec's words: entry i takes bits
    [i * width, (i + 1) * width) of the integer whose bits [64 w, 64 w + 64)
    are word w. The bits past the last entry keep their fill."""
    words = vec._words
    big = sum(word << 64 * w for w, word in enumerate(words))
    mask = (1 << vec.width) - 1
    for i, v in enumerate(model):
        assert 0 <= v <= mask
        big = big & ~(mask << i * vec.width) | v << i * vec.width
    for w in range(len(words)):
        words[w] = big >> 64 * w & (1 << 64) - 1
    return vec


@pytest.mark.parametrize("width", [1, 2, 7, 8, 31, 32, 33, 63, 64])
def test_intvector_matches_list_model(width):
    rng = random.Random(width)
    size = 257  # crosses several word boundaries at every width
    top = (1 << width) - 1
    for fill_ones in (False, True):
        model = [rng.choice([0, top, rng.randint(0, top)]) for _ in range(size)]
        vec = load(IntVector(width, size, fill_ones), model)
        assert [vec.get(i) for i in range(size)] == model


def test_intvector_straddle_isolation():
    # width 31 guarantees entries spanning two backing words; each read
    # takes its own bits only, beside all-ones and all-zeros neighbours
    for mid in (0, 0x55555555 & 0x7FFFFFFF):
        model = [0, 0x7FFFFFFF, mid, 0x2AAAAAAA, 0x7FFFFFFF, 0, 0, 0, 0, 0]
        vec = load(IntVector(31, 10), model)
        assert [vec.get(i) for i in range(10)] == model


@pytest.mark.parametrize("width", [1, 4, 13, 64])
def test_intvector_fill_ones(width):
    # the fill is the vacancy mark of every hash table: 4-bit displacement
    # nibbles, spill-table keys and plain key tables of any width
    vec = IntVector(width, 150, fill_ones=True)
    ones = (1 << width) - 1
    assert all(vec.get(i) == ones for i in range(150))
    load(vec, [ones] * 70 + [0])
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
        fill = ones if fill_ones else 0
        model = [rng.choice([0, 1, ones - 1, 1 << (width - 1), ones])
                 if rng.random() < 0.3 and not 64 <= i < 128 else fill
                 for i in range(size)]
        vec = load(IntVector(width, size, fill_ones), model)
        want = [i for i in range(size) if model[i] != ones]
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
