"""Dictionary behavior: decomposition shape, CRUD semantics, determinism."""

import random
import sys
import tracemalloc

import pytest

from conftest import TECH_WORDS, dna_kmers, random_words, synthetic_urls
from dynpdt import (
    NO_VALUE,
    Config,
    CorruptionError,
    Dictionary,
    InvalidKeyword,
    ResourceExhausted,
    shape_stats,
)
from dynpdt.core import REPRS
from dynpdt.nlm import LabelMap
from oracles import OracleDictionary, parent_edges


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
            edges[label] = divmod(parent_edges(d._backend)[nid][1], lam)
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
    assert parent_edges(d._backend)[steps[0]][1] == d.config.step_code
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
    assert parent_edges(d._backend)[nid][1] < d.config.offset_limit  # branch byte 0


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
    memory_before = d.memory_bytes()
    assert d.delete(b"technique") is True
    assert d.lookup(b"technique") is None
    assert b"technique" not in d
    assert len(d) == 3
    assert d.delete(b"technique") is False
    assert d.node_count == nodes_before  # node stays, value cleared
    assert d.memory_bytes() == memory_before  # the rewritten record is exact-size

    assert d.insert(b"technique", 99) is True
    assert d.lookup(b"technique") == 99
    assert len(d) == 4
    assert d.node_count == nodes_before
    assert d.memory_bytes() == memory_before


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
    # with 32 or 64 labels per group, 16 slots hold less than one group
    for ell in (16, 32, 64):
        d = make(*combo, capacity=16, group_size=ell)
        for i, w in enumerate(small_words):
            assert d.insert(w, i) is True
        assert d.growth_events >= 4
        assert d.capacity >= 16 * 2**4
        if combo in (("pfkt", "plm"), ("cfkt", "plm")):
            assert len(d._nlm._groups) == d.node_count  # one record per id
        for i, w in enumerate(small_words):
            assert d.lookup(w) == i
        assert sorted(d.items()) == sorted((w, i) for i, w in enumerate(small_words))


@pytest.mark.parametrize("grow", [False, True])
@pytest.mark.parametrize("repr_", REPRS)
def test_items_refuses_inserts_while_iterating(repr_, grow):
    # as with a dict, an insert between two pairs ends the iteration with
    # RuntimeError, whether or not it doubles the table under it
    d = make(repr_, capacity=64)
    for i, w in enumerate(TECH_WORDS):
        d.insert(w, i)
    pairs = d.items()
    next(pairs)
    events = d.growth_events
    i = 0
    while True:
        assert d.insert(b"new%d" % i, i)
        i += 1
        if not grow or d.growth_events > events:
            break
    assert d.growth_events == events + grow
    with pytest.raises(RuntimeError, match="changed size during iteration"):
        next(pairs)
    assert sorted(d.items()) == sorted(
        [(w, i) for i, w in enumerate(TECH_WORDS)] + [(b"new%d" % j, j) for j in range(i)])


@pytest.mark.parametrize("repr_", REPRS)
def test_items_refuses_a_failed_insert_that_doubled(repr_):
    # an insert between two pairs doubles the table, then its label write
    # raises and its nodes go: the node count is as before, but the slot
    # ids the iteration's snapshot holds have moved
    d = make(repr_, capacity=16)
    keys = random_words(20, seed=8)
    n = 0
    while 10 * (d.node_count + 1) <= 9 * d.capacity:
        d.insert(keys[n], n)
        n += 1
    pairs = d.items()
    next(pairs)
    nodes, events = d.node_count, d.growth_events

    def failing(nid, label, value):
        raise MemoryError

    d._nlm.associate = failing  # looked up on each insert
    with pytest.raises(MemoryError):
        d.insert(keys[n], n)
    del d._nlm.associate
    assert (d.node_count, d.growth_events) == (nodes, events + 1)
    with pytest.raises(RuntimeError, match="changed size during iteration"):
        next(pairs)
    assert sorted(d.items()) == sorted((k, i) for i, k in enumerate(keys[:n]))


@pytest.mark.parametrize("repr_", REPRS)
def test_climb_to_reserved_key_is_corruption(repr_, monkeypatch):
    # the root key marks the root and the ids no node holds; a climb that
    # meets it below the root is reading a broken table
    d = make(repr_)
    for i, w in enumerate(TECH_WORDS):
        d.insert(w, i)
    b = d._backend
    keys = b.parent_keys()
    broken = next(iter(parent_edges(b)))
    keys[broken] = b._root_key
    with pytest.raises(CorruptionError, match=f"node {broken} has no parent edge"):
        b.edges_above(keys, broken)
    monkeypatch.setattr(b, "parent_keys", lambda: keys)
    with pytest.raises(CorruptionError, match="no parent edge"):
        list(d.items())
    with pytest.raises(CorruptionError, match="no parent edge"):
        shape_stats(d)


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
    rng = random.Random("-".join(combo))
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


@pytest.mark.parametrize("repr_, nlm", [("pbt", "plm"), ("cfkt", "slm")])
def test_kmers_match_oracle(repr_, nlm):
    # fixed-length ACGT keys: below the root, most labels differ from the
    # rest of the keyword at its first byte
    d = make(repr_, nlm, capacity=16)
    oracle = OracleDictionary()
    keys = dna_kmers(1500, seed=9)
    stored, absent = keys[:1000], keys[1000:]
    for i, k in enumerate(stored):
        assert d.insert(k, i) == oracle.insert(k, i)
    probes = keys + [k[:-1] for k in stored[:200]] + [k + b"A" for k in stored[:200]]
    for k in probes:
        assert d.lookup(k) == oracle.lookup(k)
    gone = stored[::3]
    for k in gone + absent[:100]:
        assert d.delete(k) == oracle.delete(k)
    for i, k in enumerate(gone[::2]):  # revived in place with new values
        assert d.insert(k, 5000 + i) == oracle.insert(k, 5000 + i)
    for k in probes:
        assert d.lookup(k) == oracle.lookup(k)
    assert sorted(d.items()) == sorted(oracle.items())
    assert len(d) == oracle.key_count


@pytest.mark.parametrize("nlm, bound", [("slm", 2.5), ("plm", 1.0)])
@pytest.mark.parametrize("repr_", ["pbt", "cbt"])
def test_growth_peak_is_bounded(repr_, nlm, bound):
    # a doubling of a slot-id table moves every node and label record; what
    # it allocates on top of the dictionary stays a small multiple of it.
    # tracemalloc runs only around the inserts that may double the table:
    # one adds at most len(key) // 64 + 2 nodes at the default lam of 64
    for keys in (synthetic_urls(8000, seed=3), random_words(8000, seed=3)):
        d = make(repr_, nlm, capacity=16)
        ratios = []
        for i, k in enumerate(keys):
            if 10 * (d.node_count + len(k) // 64 + 2) <= 9 * d.capacity or d.capacity < 1024:
                d.insert(k, i)
                continue
            before, events = d.memory_bytes(), d.growth_events
            tracemalloc.start()
            try:
                d.insert(k, i)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if d.growth_events > events:
                ratios.append(peak / before)
        assert len(ratios) >= 3
        assert max(ratios) <= bound, ratios


@pytest.mark.parametrize("repr_", ["pbt", "cbt"])
def test_slm_groups_are_canonical_after_growth(repr_):
    # the groups a remap leaves behind are the ones inserting the same
    # records afresh builds, whatever the order, down to the allocation
    d = make(repr_, "slm", capacity=16)
    for i, w in enumerate(random_words(2500, seed=8)):
        d.insert(w, i)
    assert d.growth_events >= 8
    records = list(d._nlm.iter_items())
    random.Random(8).shuffle(records)
    fresh = LabelMap(d.config.group_size)
    for nid, p in records:
        if p.value is None:
            fresh.associate_step(nid)
        else:
            fresh.associate(nid, p.label, p.value)
    # fresh ends at its last record; the remapped map spans the capacity
    assert len(d._nlm._groups) == -(-d.capacity // d.config.group_size)
    tail = d._nlm._groups[len(fresh._groups):]
    assert all(got is d._nlm._empty for got in tail)
    for got, want in zip(d._nlm._groups, fresh._groups):
        assert got == want and sys.getsizeof(got) == sys.getsizeof(want)


@pytest.mark.parametrize("repr_", REPRS)
def test_growth_ns_sums_the_doublings(repr_, monkeypatch):
    # each doubling adds its wall time, the label map's on_grow included;
    # a refused one adds nothing. The clock only moves inside on_grow here
    import dynpdt.trie_repr as tr
    clock = [0]
    monkeypatch.setattr(tr, "perf_counter_ns", lambda: clock[0])
    d = make(repr_, capacity=16)
    follow = d._backend.on_grow

    def on_grow(remap, capacity):
        clock[0] += 1000
        follow(remap, capacity)

    d._backend.on_grow = on_grow
    assert d.growth_ns == 0
    for i, w in enumerate(random_words(300, seed=4)):
        d.insert(w, i)
    assert d.growth_events >= 4
    assert d.growth_ns == 1000 * d.growth_events
    monkeypatch.setattr(tr, "MAX_CAPACITY", d.capacity)
    before = (d.growth_events, d.growth_ns)
    with pytest.raises(ResourceExhausted):
        for i, w in enumerate(random_words(1000, seed=5)):
            d.insert(w, i)
    assert (d.growth_events, d.growth_ns) == before


@pytest.mark.parametrize("repr_", REPRS)
def test_refused_growth_leaves_insert_undone(repr_, monkeypatch):
    # 12 nodes fill 16 slots to 0.75; a key that branches 9 bytes into the
    # root label owes 2 step nodes plus its edge, so it needs 32 slots,
    # which a ceiling of 16 refuses before any node is created
    import dynpdt.trie_repr as tr
    monkeypatch.setattr(tr, "MAX_CAPACITY", 16)
    d = make(repr_, capacity=16, lam=4)
    d.insert(b"abcdefghijklmnop", 0)
    for i, ch in enumerate(b"bcdefghijkl", 1):
        d.insert(bytes((ch,)), i)
    assert d.node_count == 12
    before = (d.node_count, len(d), d.memory_bytes(), sorted(d.items()))
    for _ in range(2):
        with pytest.raises(ResourceExhausted):
            d.insert(b"abcdefghiX", 99)
        assert (d.node_count, len(d), d.memory_bytes(), sorted(d.items())) == before
    assert d.lookup(b"abcdefghiX") is None
    assert d.insert(b"m", 12) is True  # a lone edge still fits


def test_non_integer_value_leaves_insert_undone(combo):
    # the value is coerced before the walk, so a rejected one creates no
    # node, whether the keyword is new or a deleted one being revived
    d = make(*combo)
    for i, w in enumerate(TECH_WORDS):
        d.insert(w, i)
    assert d.delete(b"technically") is True
    for key in (b"techno", b"technically"):
        before = (d.node_count, len(d), d.memory_bytes(), sorted(d.items()))
        for bad in (1.5, "7", None):
            with pytest.raises(TypeError):
                d.insert(key, bad)
            assert (d.node_count, len(d), d.memory_bytes(), sorted(d.items())) == before
        assert d.insert(key, 9) is True
        assert d.lookup(key) == 9
