"""Dictionary behavior: decomposition shape, CRUD semantics, determinism."""

import random

import pytest

from conftest import TECH_WORDS, random_words
from dynpdt import Config, Dictionary, InvalidKeyword, NO_VALUE
from oracles import OracleDictionary


def make(repr_="cbt", nlm="slm", capacity=256, lam=64, **kw):
    return Dictionary(Config(trie_repr=repr_, label_map=nlm,
                             initial_capacity=capacity, offset_limit=lam, **kw))


def labeled_records(d):
    """(node id, label, value) for keyword nodes; step nodes excluded."""
    return [(nid, p.label, p.value) for nid, p in d._nlm.iter_items()
            if p.value is not None]


def test_empty_dictionary():
    d = make()
    assert len(d) == 0
    assert d.key_count == 0
    assert d.lookup(b"anything") is None
    assert b"anything" not in d
    assert d.delete(b"anything") is False
    assert list(d.items()) == []
    assert d.node_count == 1  # the root slot is claimed eagerly, unlabeled


def test_first_key_takes_root(combo):
    d = make(*combo)
    assert d.insert(b"technology", 7) is True
    assert d.node_count == 1
    assert d.lookup(b"technology") == 7
    assert labeled_records(d) == [(d._backend.root_id, b"technology", 7)]


def test_worked_example_structure(combo):
    d = make(*combo)
    for i, w in enumerate(TECH_WORDS):
        assert d.insert(w, i) is True
    assert d.node_count == 4
    assert len(d) == 4
    for i, w in enumerate(TECH_WORDS):
        assert d.lookup(w) == i

    # the three non-root keywords hang off the shared stem as
    # single-byte branches: (branch byte, offset in parent label)
    root = d._backend.root_id
    lam = d.config.offset_limit
    edges = {}
    for nid, label, _ in labeled_records(d):
        if nid == root:
            assert label == b"technology"
        else:
            edges[label] = divmod(d._backend.getedge(nid), lam)
    assert edges == {
        b"cs": (ord("i"), 5),
        b"ue": (ord("q"), 0),
        b"lly": (ord("a"), 1),
    }
    assert sorted(d.items()) == sorted((w, i) for i, w in enumerate(TECH_WORDS))


def test_step_chain_for_far_mismatch():
    # offset limit 8 forces the mismatch at position 9 through one hop node
    d = make(lam=8)
    words = TECH_WORDS + [b"technological"]
    for i, w in enumerate(words):
        d.insert(w, i)
    assert d.node_count == 6
    steps = [nid for nid, p in d._nlm.iter_items() if p.value is None]
    assert len(steps) == 1
    assert d._backend.getedge(steps[0]) == d.config.step_code
    for i, w in enumerate(words):
        assert d.lookup(w) == i
    assert sorted(d.items()) == sorted((w, i) for i, w in enumerate(words))


def test_prefix_keyword_gets_terminator_edge(combo):
    d = make(*combo)
    for i, w in enumerate([b"z", b"az", b"a"]):
        assert d.insert(w, i) is True
    assert d.node_count == 3
    assert d.lookup(b"z") == 0
    assert d.lookup(b"az") == 1
    assert d.lookup(b"a") == 2
    assert d.lookup(b"az" + b"z") is None
    assert sorted(d.items()) == [(b"a", 2), (b"az", 1), (b"z", 0)]
    # the node for "a" sits below the node for "az" via a terminator edge
    (nid,) = [nid for nid, label, _ in labeled_records(d) if label == b""]
    assert d._backend.getedge(nid) < d.config.offset_limit  # branch byte 0


def test_nested_prefix_chain():
    d = make()
    words = [b"abcd", b"abc", b"ab", b"a"]
    for i, w in enumerate(words):
        assert d.insert(w, i) is True
    for i, w in enumerate(words):
        assert d.lookup(w) == i
    assert d.lookup(b"abcde") is None
    assert sorted(d.items()) == sorted((w, i) for i, w in enumerate(words))


def test_delete_and_revive(combo):
    d = make(*combo)
    for i, w in enumerate(TECH_WORDS):
        d.insert(w, i)
    nodes_before = d.node_count
    assert d.delete(b"technique") is True
    assert d.lookup(b"technique") is None
    assert b"technique" not in d
    assert len(d) == 3
    assert d.delete(b"technique") is False
    assert d.node_count == nodes_before  # node stays, value cleared

    assert d.insert(b"technique", 99) is True
    assert d.lookup(b"technique") == 99
    assert len(d) == 4
    assert d.node_count == nodes_before


def test_insert_present_keeps_old_value():
    d = make()
    assert d.insert(b"key", 1) is True
    assert d.insert(b"key", 2) is False
    assert d.lookup(b"key") == 1


def test_value_range():
    d = make()
    assert d.insert(b"lo", 0) is True
    assert d.insert(b"hi", NO_VALUE - 1) is True
    assert d.lookup(b"lo") == 0
    assert d.lookup(b"hi") == NO_VALUE - 1
    with pytest.raises(ValueError):
        d.insert(b"bad", NO_VALUE)
    with pytest.raises(ValueError):
        d.insert(b"bad", -1)


@pytest.mark.parametrize("bad", [b"", b"a\x00b", b"\x00", "text", 7, None])
def test_malformed_keywords_are_absent(bad):
    d = make()
    d.insert(b"good", 1)
    with pytest.raises(InvalidKeyword):
        d.insert(bad, 2)
    assert d.lookup(bad) is None
    assert d.delete(bad) is False
    assert bad not in d


def test_bytes_like_keywords():
    d = make()
    assert d.insert(bytearray(b"alpha"), 3) is True
    assert d.lookup(memoryview(b"alpha")) == 3
    assert d.insert(b"alpha", 9) is False


def test_growth_mid_build(combo, small_words):
    d = make(*combo, capacity=16)
    for i, w in enumerate(small_words):
        assert d.insert(w, i) is True
    assert d.growth_events >= 4
    assert d.capacity >= 16 * 2**4
    for i, w in enumerate(small_words):
        assert d.lookup(w) == i
    assert sorted(d.items()) == sorted((w, i) for i, w in enumerate(small_words))


def test_byte_identical_determinism(combo, small_words):
    def build():
        d = make(*combo, capacity=16)
        for i, w in enumerate(small_words):
            d.insert(w, i)
        for w in small_words[::3]:
            d.delete(w)
        return d

    a, b = build(), build()
    assert a.memory_bytes() == b.memory_bytes()
    assert list(a.items()) == list(b.items())
    assert (a.node_count, a.capacity, a.key_count) == (b.node_count, b.capacity, b.key_count)


def test_insertion_order_invariance(small_words):
    value = {w: i for i, w in enumerate(small_words)}
    want = sorted(value.items())
    for seed in range(5):
        order = list(small_words)
        random.Random(seed).shuffle(order)
        d = make(capacity=64)
        for w in order:
            d.insert(w, value[w])
        assert sorted(d.items()) == want
        assert len(d) == len(small_words)


def test_long_keys_take_step_hops(combo):
    # shared 150-byte prefix with offset limit 4 means dozens of hop nodes;
    # the 154-byte root label needs a two-byte length field
    base = bytes(random.Random(3).choices(b"xy", k=150))
    k1 = base + b"left"
    k2 = base + b"right"
    # mismatches on a multiple of the offset limit: k3 branches at offset 0
    # after 37 hops from the root, k4 at offset 0 after one hop below k3
    k3 = base[:148] + b"zabcdefgh"
    k4 = base[:148] + b"zabcdXYZ"
    keys = [k1, k2, k3, k4]
    d = make(*combo, lam=4)
    for i, k in enumerate(keys, 1):
        assert d.insert(k, i) is True
    for i, k in enumerate(keys, 1):
        assert d.lookup(k) == i
    for absent in (base, base[:148] + b"zabcd", k4 + b"!", base + b"lef"):
        assert d.lookup(absent) is None
    steps = [nid for nid, p in d._nlm.iter_items() if p.value is None]
    assert len(steps) == 150 // 4 + 1
    assert sorted(d.items()) == sorted(zip(keys, range(1, 5)))


def test_mixed_ops_match_oracle(combo):
    d = make(*combo, capacity=16, lam=8)
    oracle = OracleDictionary()
    rng = random.Random(hash(combo) & 0xFFFF)
    pool = random_words(120, seed=4, min_len=1, max_len=9)
    for step in range(1200):
        w = pool[rng.randrange(len(pool))]
        op = rng.random()
        if op < 0.5:
            assert d.insert(w, step) == oracle.insert(w, step)
        elif op < 0.8:
            assert d.lookup(w) == oracle.lookup(w)
        else:
            assert d.delete(w) == oracle.delete(w)
        if step % 400 == 399:
            assert sorted(d.items()) == sorted(oracle.items())
            assert len(d) == oracle.key_count
    assert sorted(d.items()) == sorted(oracle.items())
