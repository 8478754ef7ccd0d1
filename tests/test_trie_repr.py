import random

import pytest

from conftest import dna_kmers, random_words, synthetic_urls
from dynpdt import Dictionary
from dynpdt.core import REPRS, Config, ContractViolation, CorruptionError, ResourceExhausted
from dynpdt.trie_repr import (
    _SMALL_ESCAPE,
    _VACANT,
    SpillTable,
    make_backend,
)
from oracles import OracleTrie, parent_edges


def cfg(repr_, capacity=16, lam=4, **kw):
    return Config(trie_repr=repr_, offset_limit=lam, initial_capacity=capacity, **kw)


def displacement(b, j):
    """Slot j's displacement read as stored: the nibble, or the map's entry
    when the nibble is the escape value."""
    nib = b._marks.get(j)
    return nib if nib < _SMALL_ESCAPE else b._disp.get(j)


# ---------------------------------------------------------------- tables


def test_spill_table_differential():
    # values below 255 take one byte each and nothing more
    rng = random.Random(1)
    st = SpillTable(key_bits=10)
    model = {}
    keys = list(range(1 << 10))
    rng.shuffle(keys)
    for key in keys[:900]:
        value = rng.randrange(255)
        st.insert(key, value)
        model[key] = value
        if len(model) % 97 == 0:
            probe = rng.randrange(1 << 10)
            if probe in model:
                assert st.get(probe) == model[probe]
            else:
                with pytest.raises(CorruptionError):
                    st.get(probe)
    assert len(st) == len(st._vals) == 900
    assert len(st._wide) == 0
    for key in keys[:900]:
        assert st.get(key) == model[key]
    for key in keys[900:]:
        with pytest.raises(CorruptionError):
            st.get(key)


def test_spill_table_roundtrip_and_duplicate():
    st = SpillTable(key_bits=16)
    for key in (0, 1, 9999, 65535, 12345, 254, 255):
        st.insert(key, key % 1000)
    for key in (0, 1, 9999, 65535, 12345, 254, 255):
        assert st.get(key) == key % 1000
    # values of 255 and up are kept whole, in slot order
    assert st._wide.tolist() == [255, 999, 345, 535]
    # every caller reads the map only for a slot whose nibble escaped
    with pytest.raises(CorruptionError):
        st.get(7)
    with pytest.raises(ContractViolation):
        st.insert(1, 5)


def _spill_state(st):
    return (st._keys.tolist(), bytes(st._vals), st._wide.tolist(), st.memory_bytes())


def test_spill_table_refused_duplicate_changes_nothing():
    st = SpillTable(key_bits=17)
    for key in range(0, 570, 10):
        st.insert(key, key % 255)
    for value in (1, 256):  # a refused wide value must not be stored
        before = _spill_state(st)
        with pytest.raises(ContractViolation):
            st.insert(560, value)
        assert _spill_state(st) == before
    st.insert(575, 256)
    st.insert(5, 300)
    assert st._wide.tolist() == [300, 256]
    assert all(st.get(key) == key % 255 for key in range(0, 570, 10))
    for key, value in ((575, 1), (5, 1000)):  # and refusals after wide values
        before = _spill_state(st)
        with pytest.raises(ContractViolation):
            st.insert(key, value)
        assert _spill_state(st) == before
    assert (st.get(5), st.get(575)) == (300, 256)


@pytest.mark.parametrize("key_bits", [32, 40, 48])
def test_spill_table_holds_full_width_values(key_bits):
    # a compact table of 2**32 slots or more keeps its widest displacements
    st = SpillTable(key_bits)
    st.insert(5, 2**key_bits - 1)
    st.insert(2**key_bits - 1, 14)
    assert st.get(5) == 2**key_bits - 1
    assert st.get(2**key_bits - 1) == 14
    assert (st.mid_count, st.spill_count) == (1, 1)


def shared_home_edges(b, home, n):
    """n edges (parent, code), none of them the root's, homed at slot home."""
    sym_bits = b._sym_bits
    edges = []
    for quot in range(1, n + 2):
        k = b._tf.inverse((home << sym_bits) | quot)
        edges.append((k >> sym_bits, k & ((1 << sym_bits) - 1)))
    return [e for e in edges if e != (0, b._root_key)][:n]


@pytest.mark.parametrize("repr_", ["cbt", "cfkt"])
def test_small_displacements_stay_in_the_nibble(repr_):
    # a cluster of 30 keys at one home: displacements 0-13 are the nibble
    # itself, larger ones read the escape value and have a map entry, and
    # every slot no key took stays vacant
    b = make_backend(cfg(repr_, capacity=1 << 13))
    home = 700
    edges = shared_home_edges(b, home, 30)
    for e in edges:
        b.addchild(*e)
    used = set(b._used_slots())
    assert len(used) == b.node_count == 31
    cluster = [b._find_slot(*e) for e in edges]
    small = 0
    for j in cluster:
        d = (j - home) & b._cap_mask
        if d < _SMALL_ESCAPE:
            small += 1
            assert b._marks.get(j) == d
            assert j not in b._disp._keys
        else:
            assert b._marks.get(j) == _SMALL_ESCAPE
            assert b._disp.get(j) == d
    assert small == _SMALL_ESCAPE  # one key at each of displacements 0-13
    assert len(b._disp) == 30 - small
    assert all(b._marks.get(j) == _VACANT for j in range(b.capacity) if j not in used)


@pytest.mark.parametrize("repr_", ["cbt", "cfkt"])
def test_probe_through_displacement_tiers(repr_):
    # 300 keys sharing one home slot displace the last ones past 255, so the
    # map keeps those whole beside its value bytes, and getchild must follow
    # escaped nibbles into the map for every size of displacement
    b = make_backend(cfg(repr_, capacity=1024))
    edges = shared_home_edges(b, 700, 310)
    present, absent = edges[:300], edges[300:]
    ids = {e: b.addchild(*e) for e in present}
    assert b.growth_events == 0
    disp = b._disp
    assert len(disp._wide) > 0 and max(disp._wide) > 255
    assert disp.mid_count > 0 and disp.spill_count > 0
    for e, nid in ids.items():
        assert b.getchild(*e) == nid
    for e in absent:
        assert b.getchild(*e) is None
    keys = b.parent_keys()
    for (u, c), nid in ids.items():
        assert keys[nid] == (u << b._sym_bits) | c


@pytest.mark.parametrize("repr_", ["cbt", "cfkt"])
def test_displacement_tiers_after_doublings(repr_):
    # every doubling rebuilds the escape map; afterwards its slots are
    # exactly the slots whose nibble escaped, with no orphan entry left
    nodes = []

    def follow(remap, new_cap):
        if remap is not None:
            nodes[:] = [remap[u] for u in nodes]

    b = make_backend(cfg(repr_), on_grow=follow)
    nodes.append(b.root_id)
    rng = random.Random(3)
    while b.node_count < 6000:
        parent = nodes[rng.randrange(len(nodes))]
        code = rng.randrange(1025)
        if b.getchild(parent, code) is None:
            nodes.append(b.addchild(parent, code))
    assert b.growth_events >= 8
    assert len(list(b._used_slots())) == b.node_count
    disp = b._disp
    escaped = [j for j in range(b.capacity) if b._marks.get(j) == _SMALL_ESCAPE]
    assert escaped
    assert disp._keys.tolist() == escaped
    assert all(disp.get(j) >= _SMALL_ESCAPE for j in escaped)


# ---------------------------------------------------------------- fresh state


@pytest.mark.parametrize("repr_", REPRS)
def test_fresh_backend_state(repr_):
    b = make_backend(cfg(repr_))
    assert b.capacity == 16
    assert b.node_count == 1
    assert b.growth_events == 0
    if repr_ in ("pfkt", "cfkt"):
        assert b.root_id == 0
    root_key = cfg(repr_).symbol_space - 1
    if repr_ in ("pbt", "cbt"):
        assert b.root_id == b._tf.forward(root_key) >> b._sym_bits


@pytest.mark.parametrize("repr_", REPRS)
def test_child_lifecycle(repr_):
    b = make_backend(cfg(repr_))
    root = b.root_id
    assert b.getchild(root, 3) is None
    u = b.addchild(root, 3)
    v = b.addchild(root, 200)
    w = b.addchild(u, 3)
    assert b.getchild(root, 3) == u
    assert b.getchild(root, 200) == v
    assert b.getchild(u, 3) == w
    assert b.getchild(u, 200) is None
    assert b.node_count == 4
    assert parent_edges(b) == {w: (u, 3), u: (root, 3), v: (root, 200)}


@pytest.mark.parametrize("repr_", REPRS)
def test_root_has_no_parent_edge(repr_):
    b = make_backend(cfg(repr_))
    assert b.parent_keys()[b.root_id] == b._root_key
    b.addchild(b.root_id, 1)
    assert b.parent_keys()[b.root_id] == b._root_key


@pytest.mark.parametrize("repr_", REPRS)
def test_dead_id_rejected(repr_):
    # an id no node holds reads the reserved root key, which no edge
    # carries, so a climb from it stops there and fails
    b = make_backend(cfg(repr_))
    u = b.addchild(b.root_id, 1)
    if repr_ in ("pbt", "cbt"):
        # every vacant slot is a dead id
        dead = [j for j in range(b.capacity) if j not in (b.root_id, u)]
    else:
        dead = list(range(u + 1, b.capacity))  # dense ids not assigned yet
    keys = b.parent_keys()
    assert len(keys) == b.capacity
    assert all(keys[d] == b._root_key for d in dead)
    assert keys[u] == (b.root_id << b._sym_bits) | 1


# ---------------------------------------------------------------- growth


@pytest.mark.parametrize("repr_", REPRS)
def test_growth_preserves_structure(repr_):
    remaps = []
    b = make_backend(cfg(repr_), on_grow=lambda r, m: remaps.append((r, m)))
    oracle = OracleTrie(b)
    rng = random.Random(42)
    handles = [oracle.root]
    for _ in range(400):
        parent = handles[rng.randrange(len(handles))]
        code = rng.randrange(1025)  # includes the step marker at 1024
        if oracle.children.get((parent, code)) is None:
            handles.append(oracle.addchild(parent, code))
        else:
            oracle.getchild(parent, code)
    oracle.check_all()
    assert b.growth_events >= 4
    assert len(remaps) == b.growth_events
    # the scan both refills and parent_keys read
    marks = b._marks
    used = [j for j in range(b.capacity) if marks.get(j) != marks._mask]
    assert list(b._used_slots()) == used
    assert len(used) == b.node_count
    for remap, new_cap in remaps:
        if repr_ in ("pbt", "cbt"):
            assert remap is not None
            assert len(remap) == new_cap // 2  # one entry per old slot
            moved = [v for v in remap if v >= 0]  # -1 marks a vacant old slot
            assert len(moved) == len(set(moved))  # bijective
            assert all(v < new_cap for v in moved)
        else:
            assert remap is None


@pytest.mark.parametrize("repr_", ["pbt", "cbt"])
def test_relocation_never_probes(repr_, monkeypatch):
    # the climb records the slots it passes, so the way down places them
    # without searching the old table again
    b = make_backend(cfg(repr_))
    oracle = OracleTrie(b)
    rng = random.Random(3)
    handles = [oracle.root]
    while b.node_count < 14:  # 14 nodes fit 16 slots; the 15th doubles them
        parent = handles[rng.randrange(len(handles))]
        code = rng.randrange(1, 1024)
        if (parent, code) not in oracle.children:
            handles.append(oracle.addchild(parent, code))
    assert b.growth_events == 0
    calls = []
    find = b._find_slot
    monkeypatch.setattr(b, "_find_slot", lambda u, c: calls.append((u, c)) or find(u, c))
    handles.append(oracle.addchild(handles[-1], 5))
    assert b.growth_events == 1
    assert calls == []
    oracle.check_all()


@pytest.mark.parametrize("repr_", REPRS)
def test_load_never_exceeds_cap(repr_):
    b = make_backend(cfg(repr_))
    for i in range(1, 200):
        b.addchild(b.root_id, i)
        assert 10 * b.node_count <= 9 * b.capacity


def grow_to(oracle, handles, rng, n):
    """Add random edges below random nodes until the trie has n nodes."""
    while oracle.n_nodes < n:
        parent = handles[rng.randrange(len(handles))]
        code = rng.randrange(1025)
        if (parent, code) not in oracle.children:
            handles.append(oracle.addchild(parent, code))


@pytest.mark.parametrize("repr_", ["pfkt", "cfkt"])
def test_parent_index_follows_every_change(repr_):
    # parent_keys reads the slot-to-id array afresh each time, so it sees
    # each addchild's id and every doubling, even one by reserve that adds
    # no node
    b = make_backend(cfg(repr_))
    oracle = OracleTrie(b)
    rng = random.Random(5)
    handles = [oracle.root]
    grow_to(oracle, handles, rng, 100)
    oracle.check_all()
    events = b.growth_events
    grow_to(oracle, handles, rng, 115)  # 115 nodes still fit 128 slots
    assert b.growth_events == events
    oracle.check_all()
    assert b.reserve(b.root_id, b.capacity - b.node_count) == b.root_id
    assert (b.node_count, b.growth_events) == (115, events + 1)
    oracle.check_all()


def _check_words(b, oracle):
    """Compare every word of b, read through IntVector.get and the
    displacement reader alone, with the oracle's edges; returns the
    number of escaped displacements."""
    marks = b._marks
    used = [j for j in range(b.capacity) if marks.get(j) != marks._mask]
    assert list(b._used_slots()) == used
    vacant = sorted(set(range(b.capacity)) - set(used))
    ids = getattr(b, "_ids", None)
    got = []
    for j in used:
        if hasattr(b, "_table"):
            k = b._table.get(j)
        else:
            i = (j - displacement(b, j)) & b._cap_mask
            k = b._tf.inverse((i << b._sym_bits) | b._quot.get(j))
        got.append((k, j if ids is None else ids.get(j)))
    want = [(b._root_key, b.root_id)]
    want += [((oracle.bid[p] << b._sym_bits) | c, oracle.bid[h])
             for h, (p, c) in oracle.parent.items()]
    assert sorted(got) == sorted(want)
    if hasattr(b, "_table"):
        assert all(b._table.get(j) == b._table._mask for j in vacant)
    else:
        assert all(b._marks.get(j) == _VACANT for j in vacant)
        assert all(b._quot.get(j) == 0 for j in vacant)
    if ids is not None:
        assert all(ids.get(j) == 0 for j in vacant)
    if not hasattr(b, "_disp"):
        return 0
    return len(b._disp)


@pytest.mark.parametrize("lam", [64, 4])
@pytest.mark.parametrize("repr_", REPRS)
def test_in_place_words_agree_with_intvector(repr_, lam):
    # placement, key decoding, id claims, the refills and the slot scan
    # write and read the packed words in place. At lam 64 the quotients
    # are 15 bits and the keys 19-28 bits, so entries straddle words.
    # At 512 slots, 120 edges below the root whose homes lie close
    # together push some displacements past the 4-bit array
    b = make_backend(cfg(repr_, lam=lam))
    oracle = OracleTrie(b)
    rng = random.Random(lam + len(repr_))
    handles = [oracle.root]
    zs = b._sym_bits
    step = cfg(repr_, lam=lam).step_code
    escaped = []
    while b.growth_events < 9:
        parent = rng.choice(handles)
        code = rng.randrange(step + 1)
        if (parent, code) in oracle.children:
            continue
        events = b.growth_events
        handles.append(oracle.addchild(parent, code))
        if b.growth_events == events:
            continue
        escaped.append(_check_words(b, oracle))
        if b.capacity == 512:
            u, mask = b.root_id, b._cap_mask
            home = [((u << zs | c) * b._tf._mult >> zs) & mask for c in range(step + 1)]
            near = sorted((c for c in range(step + 1) if (oracle.root, c) not in oracle.children),
                          key=lambda c: (home[c] - home[0]) & mask)
            for c in near[:120]:
                handles.append(oracle.addchild(oracle.root, c))
            assert b.growth_events == events + 1
            escaped.append(_check_words(b, oracle))
    assert b.capacity == 16 << 9
    if repr_ in ("cbt", "cfkt"):
        assert max(escaped) > 0, escaped


@pytest.mark.parametrize("dense,twin", [("pfkt", "pbt"), ("cfkt", "cbt")])
def test_dense_table_is_twin_plus_one_id_array(dense, twin):
    # the same edges in the same order: a dense-id table stores its twin's
    # table plus the slot-to-id array, and reading every parent edge
    # leaves nothing more behind
    backends = {}
    for r in (dense, twin):
        oracle = OracleTrie(make_backend(cfg(r)))
        grow_to(oracle, [oracle.root], random.Random(11), 600)
        oracle.check_all()
        backends[r] = oracle.backend
    d, t = backends[dense], backends[twin]
    assert d.capacity == t.capacity == 1024
    assert d.memory_bytes() == t.memory_bytes() + d._ids.allocated_bytes


def test_fk_ids_survive_growth():
    b = make_backend(cfg("pfkt"))
    ids = [b.addchild(b.root_id, code) for code in range(1, 60)]
    assert ids == list(range(1, 60))  # creation order, no holes
    assert b.growth_events > 0
    for code, nid in zip(range(1, 60), ids):
        assert b.getchild(b.root_id, code) == nid


@pytest.mark.parametrize("repr_", REPRS)
def test_growth_capacity_ceiling(repr_, monkeypatch):
    # a refused doubling changes nothing, whether it would pass MAX_CAPACITY
    # (set to 32 here) or need packed keys wider than 64 bits (55 symbol
    # bits leave room for 512 slots, not 1024)
    import dynpdt.trie_repr as tr
    wide = Config(trie_repr=repr_, offset_limit=1 << 46, initial_capacity=16)
    for ceiling, config, fanout, full in ((32, cfg(repr_), 28, 32),
                                          (tr.MAX_CAPACITY, wide, 460, 512)):
        monkeypatch.setattr(tr, "MAX_CAPACITY", ceiling)
        children = {}

        def follow(remap, new_cap, children=children):
            if remap is not None:
                for code, nid in children.items():
                    children[code] = remap[nid]

        b = make_backend(config, on_grow=follow)
        for code in range(1, fanout):
            children[code] = b.addchild(b.root_id, code)
        before = (b.capacity, b.node_count, b.growth_events)
        assert b.capacity == full
        for _ in range(2):
            with pytest.raises(ResourceExhausted):
                b.addchild(b.root_id, fanout)
            assert (b.capacity, b.node_count, b.growth_events) == before
        edges = parent_edges(b)
        for code, nid in children.items():
            assert b.getchild(b.root_id, code) == nid
            assert edges[nid] == (b.root_id, code)


# ---------------------------------------------------------------- differential


@pytest.mark.parametrize("repr_", REPRS)
def test_backend_differential(repr_):
    b = make_backend(cfg(repr_, lam=4))
    oracle = OracleTrie(b)
    rng = random.Random(7 + len(repr_))
    handles = [oracle.root]
    for step in range(6000):
        parent = handles[rng.randrange(len(handles))]
        code = rng.randrange(1025)
        child = oracle.getchild(parent, code)
        if child is None and rng.random() < 0.7:
            handles.append(oracle.addchild(parent, code))
        if step % 500 == 499:
            oracle.check_parent(handles[rng.randrange(1, len(handles))])
    oracle.check_all()
    assert b.growth_events >= 6


# ---------------------------------------------------------------- placement

CORPORA = {"words": random_words, "kmers": dna_kmers, "urls": synthetic_urls}


def build(repr_, keys, lam):
    d = Dictionary(cfg(repr_, lam=lam))
    for i, k in enumerate(keys):
        d.insert(k, i)
    return d


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_plain_and_compact_twins_place_alike(corpus):
    # one placement hash for all four tables: each compact table puts every
    # node where its plain twin does, through step nodes and every doubling
    keys = CORPORA[corpus](5000, seed=0)
    d = {r: build(r, keys, lam=4) for r in REPRS}
    assert d["pbt"].growth_events >= 9
    if corpus != "words":  # words of <= 12 letters never owe a step
        assert d["pbt"].node_count > len(keys)
    for plain, compact in (("pbt", "cbt"), ("pfkt", "cfkt")):
        p, c = d[plain]._backend, d[compact]._backend
        assert p.capacity == c.capacity
        assert list(p._used_slots()) == list(c._used_slots())
    assert list(d["pbt"]._nlm.iter_items()) == list(d["cbt"]._nlm.iter_items())
    assert d["pfkt"]._backend._ids._words == d["cfkt"]._backend._ids._words


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("repr_", ["cbt", "cfkt"])
def test_mean_displacement_near_uniform(repr_, corpus):
    # linear probing under a uniform hash displaces a key by
    # (1/(1 - load) - 1)/2 slots on average; clustering shows up as a
    # multiple of that
    b = build(repr_, CORPORA[corpus](20_000, seed=0), lam=64)._backend
    disp = [displacement(b, j) for j in b._used_slots()]
    load = b.node_count / b.capacity
    assert sum(disp) / len(disp) <= 2 * 0.5 * (1 / (1 - load) - 1)


# ---------------------------------------------------------------- memory


def test_pbt_memory_is_bit_packed():
    b = make_backend(cfg("pbt", capacity=1 << 12, lam=4))
    # 12 slot bits + 11 symbol bits per entry, plus small allocator overhead
    payload = (1 << 12) * 23 // 8
    assert payload <= b.memory_bytes() <= payload * 1.1 + 100


def test_compact_beats_plain_at_scale():
    backends = {}
    for r in REPRS:
        nodes = []

        def follow(remap, new_cap, nodes=nodes):
            if remap is not None:
                nodes[:] = [remap[u] for u in nodes]

        b = make_backend(cfg(r, capacity=1 << 10, lam=64), on_grow=follow)
        backends[r] = b
        nodes.append(b.root_id)
        rng2 = random.Random(5)
        for _ in range(20_000):
            parent = nodes[rng2.randrange(len(nodes))]
            code = rng2.randrange(256 * 64)
            child = b.getchild(parent, code)
            nodes.append(child if child is not None else b.addchild(parent, code))
    sizes = {r: b.memory_bytes() for r, b in backends.items()}
    assert sizes["cbt"] < sizes["pbt"]
    assert sizes["cfkt"] < sizes["pfkt"]
    # dense-id layouts carry one extra id array
    assert sizes["pfkt"] > sizes["pbt"]
