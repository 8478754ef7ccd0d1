"""The packed-word format every node table stores: the packed_words allocator
and the slot scan _HashTrie._used_slots, read through the reference reader
packed_entry in oracles.py. The test names keep the ids they had when these
words were wrapped in a class, IntVector, that the tables no longer use."""

import random
import sys
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from dynpdt.trie_repr import _HashTrie, packed_words
from oracles import packed_entry


def load(words, width, model):
    """Write model's values into words: entry i takes bits
    [i * width, (i + 1) * width) of the integer whose bits [64 w, 64 w + 64)
    are word w. The bits past the last entry keep their fill."""
    big = sum(word << 64 * w for w, word in enumerate(words))
    mask = (1 << width) - 1
    for i, v in enumerate(model):
        assert 0 <= v <= mask
        big = big & ~(mask << i * width) | v << i * width
    for w in range(len(words)):
        words[w] = big >> 64 * w & (1 << 64) - 1
    return words


@pytest.mark.parametrize("width", [1, 2, 7, 8, 31, 32, 33, 63, 64])
def test_intvector_matches_list_model(width):
    rng = random.Random(width)
    size = 257  # crosses several word boundaries at every width
    top = (1 << width) - 1
    for ones in (False, True):
        model = [rng.choice([0, top, rng.randint(0, top)]) for _ in range(size)]
        words = load(packed_words(width, size, ones), width, model)
        assert [packed_entry(words, width, i) for i in range(size)] == model


def test_intvector_straddle_isolation():
    # width 31 guarantees entries spanning two backing words; each read
    # takes its own bits only, beside all-ones and all-zeros neighbours
    for mid in (0, 0x55555555 & 0x7FFFFFFF):
        model = [0, 0x7FFFFFFF, mid, 0x2AAAAAAA, 0x7FFFFFFF, 0, 0, 0, 0, 0]
        words = load(packed_words(31, 10), 31, model)
        assert [packed_entry(words, 31, i) for i in range(10)] == model


@pytest.mark.parametrize("width", [1, 4, 13, 64])
def test_intvector_fill_ones(width):
    # the fill is the vacancy mark of every hash table: 4-bit displacement
    # nibbles and plain key tables of any width
    words = packed_words(width, 150, ones=True)
    ones = (1 << width) - 1
    assert all(packed_entry(words, width, i) == ones for i in range(150))
    load(words, width, [ones] * 70 + [0])
    assert packed_entry(words, width, 70) == 0
    assert packed_entry(words, width, 69) == packed_entry(words, width, 71) == ones


@pytest.mark.parametrize("width", [1, 4, 13, 31, 32, 33, 64])
@pytest.mark.parametrize("size", [1, 16, 63, 64, 65, 200])
def test_nonvacant_lists_the_entries_that_are_not_all_ones(width, size):
    # the slot scan of every table, over marks of any width: entry values
    # next to the all-ones one, runs of vacant words and a last entry that
    # ends inside a word, for both fills
    rng = random.Random(width * 1000 + size)
    ones = (1 << width) - 1
    for all_ones in (False, True):
        fill = ones if all_ones else 0
        model = [rng.choice([0, 1, ones - 1, 1 << (width - 1), ones])
                 if rng.random() < 0.3 and not 64 <= i < 128 else fill
                 for i in range(size)]
        words = load(packed_words(width, size, all_ones), width, model)
        want = [i for i in range(size) if model[i] != ones]
        table = SimpleNamespace(_marks=words, _mark_bits=width, capacity=size)
        assert list(_HashTrie._used_slots(table)) == want


def test_intvector_memory_scales():
    small = sys.getsizeof(packed_words(8, 100))
    big = sys.getsizeof(packed_words(8, 10_000))
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
        words = packed_words(width, size, fill_ones)
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys.getsizeof(words) == sys.getsizeof(array("Q")) + 8 * nwords
    assert peak <= final + 1024
