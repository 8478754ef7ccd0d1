import random
import sys
from array import array

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import dna_kmers, random_words, synthetic_urls
from dynpdt import Dictionary, trie_repr
from dynpdt.core import LABEL_MAPS, REPRS, Config, ContractViolation, CorruptionError, ResourceExhausted
from dynpdt.trie_repr import (
    _SMALL_ESCAPE,
    _VACANT,
    SpillTable,
    golden_multipliers,
    make_backend,
)
from oracles import OracleTrie, packed_entry, parent_edges
from test_layout import placement_digest, records_digest, storage_digest


def cfg(repr_, capacity=16, lam=4, **kw):
    return Config(trie_repr=repr_, offset_limit=lam, initial_capacity=capacity, **kw)


def nibble(b, j):
    """Slot j's 4-bit displacement entry, read by the reference reader."""
    return packed_entry(b._marks, 4, j)


def displacement(b, j):
    """Slot j's displacement read as stored: the nibble, or the map's entry
    when the nibble is the escape value."""
    nib = nibble(b, j)
    return nib if nib < _SMALL_ESCAPE else b._disp.get(j)


def marked_slots(b):
    """The slots whose mark entry is not all ones, by the reference reader."""
    vacant = (1 << b._mark_bits) - 1
    return [j for j in range(b.capacity) if packed_entry(b._marks, b._mark_bits, j) != vacant]


def home_slot(b, k):
    """The slot where packed key k's scan starts."""
    return (k * b._mult >> b._sym_bits) & b._cap_mask


def write_entry(words, width, i, value):
    """Set entry i of width-bit entries packed low bit first, bit by bit."""
    for n in range(width):
        w, off = divmod(i * width + n, 64)
        words[w] = words[w] & ~(1 << off) | (value >> n & 1) << off


def table_state(b):
    """Capacity, node count, every word array (the key or quotient and mark
    words, and the dense ids) and the escape map's two arrays and dict, as
    plain values."""
    state = {name: v.tolist() for name, v in vars(b).items() if isinstance(v, array)}
    if hasattr(b, "_disp"):
        disp = b._disp
        state["_disp"] = (disp._entries.tolist(), disp._homes.tolist(), dict(disp._wide))
    return b.capacity, b.node_count, state


# ---------------------------------------------------------------- homing


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
    assert len(st) == len(st._entries) == 900
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
    assert st._wide == {255: 255, 9999: 999, 12345: 345, 65535: 535}
    # every caller reads the map only for a slot whose nibble escaped
    with pytest.raises(CorruptionError):
        st.get(7)
    with pytest.raises(ContractViolation):
        st.insert(1, 5)


def _spill_state(st):
    return (st._entries.tolist(), dict(st._wide), st.memory_bytes())


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
    assert st._wide == {5: 300, 575: 256}
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


def test_spill_table_homes_differential():
    # escaped slots at random homes, slots below their displacement homed
    # across the table's end, and six values of 255 or more at one home:
    # homed_at answers every home as a brute-force model does, after the
    # inserts and again after removing every third slot
    rng = random.Random(29)
    key_bits = 11
    size = 1 << key_bits
    st = SpillTable(key_bits)
    model = {}  # slot -> displacement
    wide_home = 1000
    for value in (255, 256, 300, 511, 700, 1500):
        model[(wide_home + value) % size] = value
    for slot in range(40):  # displacements past the slot: homed across the end
        model.setdefault(slot, slot + rng.randrange(14, 200))
    while len(model) < 600:
        model.setdefault(rng.randrange(size), rng.choice([14, 15, 200, 254, 255, 256, 2000]))
    for slot in rng.sample(sorted(model), len(model)):
        st.insert(slot, model[slot])

    def check():
        homes = {}
        for slot, value in model.items():
            homes.setdefault((slot - value) % size, []).append(value)
        for home in range(size):
            assert sorted(st.homed_at(home)) == sorted(homes.get(home, []))
        assert all(st.get(slot) == value for slot, value in model.items())
        assert len(st._homes) == len(st._entries) == len(model)

    assert sorted(st.homed_at(wide_home)) == [255, 256, 300, 511, 700, 1500]
    assert any(slot < value for slot, value in model.items())
    check()
    for slot in sorted(model)[::3]:
        st.remove(slot)
        del model[slot]
    check()


def edge_at(b, home, quot):
    """The edge (parent, code) whose packed key is homed at slot home and
    stores quotient quot; the root's own key for one pair."""
    k = ((home << b._sym_bits) | quot) * b._mult_inv & b._key_mask
    return k >> b._sym_bits, k & b._root_key


def shared_home_edges(b, home, n):
    """n edges (parent, code), none of them the root's, homed at slot home."""
    edges = [edge_at(b, home, quot) for quot in range(1, n + 2)]
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
            assert nibble(b, j) == d
            assert j not in [e >> 8 for e in b._disp._entries]
        else:
            assert nibble(b, j) == _SMALL_ESCAPE
            assert b._disp.get(j) == d
    assert small == _SMALL_ESCAPE  # one key at each of displacements 0-13
    assert len(b._disp) == 30 - small
    assert all(nibble(b, j) == _VACANT for j in range(b.capacity) if j not in used)


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
    assert len(disp._wide) > 0 and max(disp._wide.values()) > 255
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
    escaped = [j for j in range(b.capacity) if nibble(b, j) == _SMALL_ESCAPE]
    assert escaped
    assert [e >> 8 for e in disp._entries] == escaped
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
        assert b.root_id == (root_key * b._mult & b._key_mask) >> b._sym_bits


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
    used = marked_slots(b)
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


def store_key(b, j, k):
    """Overwrite the key stored at used slot j with k, word by word; on a
    compact table k must home within 14 slots below j."""
    if hasattr(b, "_table"):
        write_entry(b._table, b._cap_bits + b._sym_bits, j, k)
        return
    d = (j - home_slot(b, k)) & b._cap_mask
    assert d < _SMALL_ESCAPE
    write_entry(b._quot, b._sym_bits, j, k * b._mult & b._root_key)
    write_entry(b._marks, 4, j, d)


@pytest.mark.parametrize("repr_", ["pbt", "cbt"])
def test_looping_parent_chain_fails_the_doubling(repr_):
    # two nodes whose stored keys name each other as parent: the relocation
    # climb from either never reaches a moved node, so the doubling must
    # raise rather than spin, and leave every word as it was
    b = make_backend(cfg(repr_))
    u = b.addchild(b.root_id, 1)
    v = b.addchild(b.root_id, 2)
    zs = b._sym_bits

    def homed_near(j, parent):
        # a code whose key under parent homes within 14 slots below j
        for c in range(b._root_key):
            k = (parent << zs) | c
            if (j - home_slot(b, k)) & b._cap_mask < _SMALL_ESCAPE:
                return k
        raise AssertionError("no code homes near the slot")

    store_key(b, u, homed_near(u, v))
    store_key(b, v, homed_near(v, u))
    assert b._slot_key(u) >> zs == v and b._slot_key(v) >> zs == u
    before = table_state(b)
    with pytest.raises(CorruptionError):
        b.reserve(b.root_id, b.capacity)
    assert table_state(b) == before
    assert b.growth_events == 0


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
    """Compare every entry of b's word arrays, read by the reference reader
    and the displacement reader alone, with the oracle's edges; returns the
    number of escaped displacements."""
    used = marked_slots(b)
    assert list(b._used_slots()) == used
    vacant = sorted(set(range(b.capacity)) - set(used))
    zs, key_bits = b._sym_bits, b._cap_bits + b._sym_bits
    ids = getattr(b, "_ids", None)
    got = []
    for j in used:
        if hasattr(b, "_table"):
            k = packed_entry(b._table, key_bits, j)
        else:
            i = (j - displacement(b, j)) & b._cap_mask
            k = ((i << zs) | packed_entry(b._quot, zs, j)) * b._mult_inv & b._key_mask
        got.append((k, j if ids is None else packed_entry(ids, b._cap_bits, j)))
    want = [(b._root_key, b.root_id)]
    want += [((oracle.bid[p] << b._sym_bits) | c, oracle.bid[h])
             for h, (p, c) in oracle.parent.items()]
    assert sorted(got) == sorted(want)
    if hasattr(b, "_table"):
        assert all(packed_entry(b._table, key_bits, j) == b._key_mask for j in vacant)
    else:
        assert all(nibble(b, j) == _VACANT for j in vacant)
        assert all(packed_entry(b._quot, zs, j) == 0 for j in vacant)
    if ids is not None:
        assert all(packed_entry(ids, b._cap_bits, j) == 0 for j in vacant)
    if not hasattr(b, "_disp"):
        return 0
    return len(b._disp)


@pytest.mark.parametrize("lam", [64, 4])
@pytest.mark.parametrize("repr_", REPRS)
def test_in_place_words_agree_with_reference_reader(repr_, lam):
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
            home = [((u << zs | c) * b._mult >> zs) & mask for c in range(step + 1)]
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
    assert d.memory_bytes() == t.memory_bytes() + sys.getsizeof(d._ids)


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


# ---------------------------------------------------------------- faults


def dictionary_state(d):
    """The three pinned layout digests of tests/test_layout.py and the items."""
    return records_digest(d), placement_digest(d), storage_digest(d), sorted(d.items())


@pytest.mark.parametrize("repr_,nlm", [(r, m) for r in ("pbt", "cbt") for m in LABEL_MAPS])
def test_fault_in_label_remap_leaves_the_doubling_undone(repr_, nlm):
    # the label move of a doubling raises: the table keeps its old size,
    # every node and record stays where it was, and the insert then succeeds
    d = Dictionary(Config(trie_repr=repr_, label_map=nlm, initial_capacity=16))
    keys = random_words(20, seed=8)
    n = 0
    while 10 * (d._backend.node_count + 1) <= 9 * d.capacity:
        d.insert(keys[n], n)
        n += 1
    assert (n, d.capacity, d.growth_events) == (14, 16, 0)
    before = dictionary_state(d)

    def failing_remap(old_to_new, new_capacity):
        raise MemoryError

    d._nlm.remap = failing_remap  # looked up on each doubling
    with pytest.raises(MemoryError):
        d.insert(keys[n], n)
    assert dictionary_state(d) == before
    assert all(d.lookup(k) == i for i, k in enumerate(keys[:n]))
    del d._nlm.remap
    assert d.insert(keys[n], n)
    assert (d.capacity, d.growth_events) == (32, 1)
    assert all(d.lookup(k) == i for i, k in enumerate(keys[:n + 1]))


@pytest.mark.parametrize("repr_", ["cbt", "cfkt"])
def test_fault_in_spill_insert_leaves_the_table_unchanged(repr_, monkeypatch):
    # the first placement whose displacement escapes fails to store it: no
    # quotient or nibble may be left behind, so a later key placed in that
    # slot and every doubling after it read back right
    config = Config(trie_repr=repr_, label_map="slm", initial_capacity=4096)
    keys = random_words(9000, seed=26)
    probe = Dictionary(config)
    n = 0
    while not len(probe._backend._disp):
        probe.insert(keys[n], n)
        n += 1
    n -= 1  # keys[n] made the first escape
    d = Dictionary(config)
    for i, k in enumerate(keys[:n]):
        d.insert(k, i)
    # the escape comes from the key's own placement, not from a doubling
    assert 10 * (d._backend.node_count + 1) <= 9 * d.capacity
    before = dictionary_state(d)
    insert = SpillTable.insert
    calls = []

    def failing_once(self, key, value):
        calls.append(key)
        if len(calls) == 1:
            raise MemoryError
        insert(self, key, value)

    monkeypatch.setattr(SpillTable, "insert", failing_once)  # it has __slots__
    with pytest.raises(MemoryError):
        d.insert(keys[n], n)
    assert dictionary_state(d) == before
    assert d.insert(keys[n], n)
    assert len(d._backend._disp) == 1
    for i, k in enumerate(keys[n + 1:], n + 1):
        d.insert(k, i)
    assert d.growth_events >= 2
    assert all(d.lookup(k) == i for i, k in enumerate(keys))


@pytest.mark.parametrize("lam", [64, 4])
@pytest.mark.parametrize("repr_,nlm", [(r, m) for r in REPRS for m in LABEL_MAPS])
def test_fault_in_associate_removes_the_new_nodes(repr_, nlm, lam):
    # the insert's label write raises after its nodes are placed: each node
    # goes again, newest first, with its step record, and the insert then
    # succeeds. At offset limit 4 the key branches 18 bytes into a label,
    # so it owes step nodes; at 64 it adds one node. The table doubled
    # before, so a slot-id label map holds groups no record has written
    d = Dictionary(Config(trie_repr=repr_, label_map=nlm, offset_limit=lam,
                          initial_capacity=16))
    keys = random_words(20, seed=8) + [b"q17abcdefghijklmnop"]
    for i, k in enumerate(keys):
        d.insert(k, i)
    key = b"q17abcdefghijklmno!"
    hops = d._walk(key + b"\0")[2]
    assert (hops > 0) == (lam == 4) and d.growth_events > 0
    assert 10 * (d.node_count + hops + 1) <= 9 * d.capacity  # no doubling
    before = dictionary_state(d)

    def failing(nid, label, value):
        raise MemoryError

    d._nlm.associate = failing  # looked up on each insert
    with pytest.raises(MemoryError):
        d.insert(key, 99)
    assert dictionary_state(d) == before
    del d._nlm.associate
    assert d.insert(key, 99)
    assert [d.lookup(k) for k in keys + [key]] == list(range(len(keys))) + [99]


@pytest.mark.parametrize("repr_", REPRS)
@pytest.mark.parametrize("n", [5, 20, 300])
def test_removechild_restores_every_word(repr_, n):
    # n edges share one home, so the next is placed at displacement n or
    # more: in the nibble, escaped, or escaped with its value whole.
    # Removing it leaves every word array and the escape map as they were,
    # and the search recorded past it goes
    b = make_backend(cfg(repr_, capacity=1024))
    edges = shared_home_edges(b, 700, n + 2)
    for e in edges[:n]:
        b.addchild(*e)
    before = table_state(b)
    b.addchild(*edges[n])
    assert b.getchild(*edges[n + 1]) is None and b._miss_key >= 0
    b.removechild(*edges[n])
    assert (table_state(b), b._miss_key) == (before, -1)
    assert b.getchild(*edges[n]) is None
    with pytest.raises(ContractViolation):
        b.removechild(*edges[n])


class _FailingInsertOnce(array):
    """An array whose first insert raises MemoryError."""

    armed = True

    def insert(self, i, x):
        if self.armed:
            self.armed = False
            raise MemoryError
        super().insert(i, x)


@pytest.mark.parametrize("repr_", ["cbt", "cfkt"])
@pytest.mark.parametrize("n", [20, 300])
def test_fault_in_spill_array_insert_leaves_the_map_unchanged(repr_, n):
    # n keys share one home, so the next one escapes with a displacement of
    # n or more: a byte below 255, or 255 with the value in the dict. The
    # array insert raises; the map answers every old slot, holds no entry
    # or value for the new one, and the placement then succeeds
    b = make_backend(cfg(repr_, capacity=1024))
    edges = shared_home_edges(b, 700, n + 1)
    ids = {e: b.addchild(*e) for e in edges[:n]}
    disp = b._disp
    escaped = {j: disp.get(j) for j in b._used_slots() if nibble(b, j) == _SMALL_ESCAPE}
    disp._entries = _FailingInsertOnce(disp._entries.typecode, disp._entries)
    before = table_state(b), disp.memory_bytes()
    with pytest.raises(MemoryError):
        b.addchild(*edges[n])
    assert (table_state(b), disp.memory_bytes()) == before
    assert all(disp.get(j) == v for j, v in escaped.items())
    assert all(b.getchild(*e) == nid for e, nid in ids.items())
    assert b.getchild(*edges[n]) is None
    ids[edges[n]] = b.addchild(*edges[n])
    j = b._find_slot(*edges[n])
    d = (j - 700) & b._cap_mask
    assert d >= n and disp.get(j) == d and (d >= 255) == (j in disp._wide)
    assert all(b.getchild(*e) == nid for e, nid in ids.items())


@pytest.mark.parametrize("repr_", ["cbt", "cfkt"])
@pytest.mark.parametrize("n", [20, 300])
def test_fault_in_spill_home_insert_leaves_the_map_unchanged(repr_, n):
    # as above, but the slot array takes the new entry and the home array's
    # insert raises: the slot entry and any wide value go again, so both
    # arrays and the dict hold what they held, and the placement then
    # succeeds and is found from its home
    b = make_backend(cfg(repr_, capacity=1024))
    edges = shared_home_edges(b, 700, n + 1)
    ids = {e: b.addchild(*e) for e in edges[:n]}
    disp = b._disp
    escaped = {j: disp.get(j) for j in b._used_slots() if nibble(b, j) == _SMALL_ESCAPE}
    disp._homes = _FailingInsertOnce(disp._homes.typecode, disp._homes)
    before = table_state(b)
    with pytest.raises(MemoryError):
        b.addchild(*edges[n])
    assert table_state(b) == before
    assert all(disp.get(j) == v for j, v in escaped.items())
    assert sorted(disp.homed_at(700)) == sorted(escaped.values())
    assert all(b.getchild(*e) == nid for e, nid in ids.items())
    assert b.getchild(*edges[n]) is None
    ids[edges[n]] = b.addchild(*edges[n])
    j = b._find_slot(*edges[n])
    d = (j - 700) & b._cap_mask
    assert d >= n and disp.get(j) == d and (d >= 255) == (j in disp._wide)
    assert d in disp.homed_at(700)
    assert all(b.getchild(*e) == nid for e, nid in ids.items())


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


# ---------------------------------------------------------------- recorded slot
# a failed search records its packed key and the vacant slot it stopped at,
# and placing that key starts there: the layout must not notice


def first_vacant(b, j):
    """The first slot from j on whose mark entry is all ones."""
    vacant = (1 << b._mark_bits) - 1
    while packed_entry(b._marks, b._mark_bits, j) != vacant:
        j = (j + 1) & b._cap_mask
    return j


@pytest.mark.parametrize("repr_", REPRS)
def test_recorded_slot_is_where_addchild_places(repr_):
    # eight edges homed at one slot; a reference table takes the same
    # addchild calls and no search
    b = make_backend(cfg(repr_, capacity=1024))
    ref = make_backend(cfg(repr_, capacity=1024))
    home = 700
    edges = shared_home_edges(b, home, 8)
    keys = [(u << b._sym_bits) | c for u, c in edges]
    for t in (b, ref):
        for e in edges[:5]:
            t.addchild(*e)
    # the search for the sixth scans past the five to the next vacant slot,
    # and addchild puts the edge there
    stop = first_vacant(b, home)
    assert stop != home
    assert b.getchild(*edges[5]) is None
    assert (b._miss_key, b._miss_slot) == (keys[5], stop)
    nid = b.addchild(*edges[5])
    assert b._find_slot(*edges[5]) == stop
    assert nid == (stop if repr_ in ("pbt", "cbt") else b._node_at(stop))
    ref.addchild(*edges[5])
    # a placement with no search of its own takes the slot the search for
    # the seventh recorded, so the seventh's scan moves on to the next
    assert b.getchild(*edges[6]) is None
    taken = b._miss_slot
    assert taken == first_vacant(b, home)
    for t in (b, ref):
        t.addchild(*edges[7])
    assert b._find_slot(*edges[7]) == taken
    assert (b._miss_key, b._miss_slot) == (keys[6], taken)
    moved_on = first_vacant(b, taken)
    assert moved_on != taken
    for t in (b, ref):
        t.addchild(*edges[6])
    assert b._find_slot(*edges[6]) == moved_on
    assert table_state(b) == table_state(ref)


@pytest.mark.parametrize("repr_", REPRS)
def test_recorded_slot_dropped_by_a_doubling_before_addchild(repr_):
    # at offset limit 4 a key that branches 15 bytes into a label owes three
    # step hops: its walk fails the search for the first step edge, then
    # insert's reserve doubles the table before that edge is added. The
    # reference dictionary forgets every search, so it places from the
    # home slot each time
    def forgetful(t):
        find = t.getchild

        def getchild(u, c):
            v = find(u, c)
            t._miss_key = -1
            return v
        t.getchild = getchild

    d = Dictionary(cfg(repr_))
    ref = Dictionary(cfg(repr_))
    forgetful(ref._backend)
    b = d._backend
    keys = []
    for i in range(1000):
        stem = b"q%03dabcdefghijklmnop" % i
        twin = stem[:-1] + b"!"
        for t in (d, ref):
            t.insert(stem, len(keys))
        keys.append(stem)
        u, held, hops, c, pos = d._walk(twin + b"\0")
        assert held is None and hops >= 3
        if 10 * (b.node_count + hops + 1) > 9 * b.capacity:
            break
    assert b._miss_key == (u << b._sym_bits) | cfg(repr_).step_code
    events = b.growth_events
    for t in (d, ref):
        t.insert(twin, len(keys))
    keys.append(twin)
    assert b.growth_events == events + 1
    assert [d.lookup(k) for k in keys] == list(range(len(keys)))
    assert table_state(b) == table_state(ref._backend)
    assert sorted(d.items()) == sorted(ref.items())


ADD, SEARCH, SEARCH_ADD, ADD_SEARCHED, CLASH, GROW = range(6)
# (kind, parent pick, code pick). ADD places a new edge with no search.
# SEARCH fails a search for a new edge and keeps the edge; ADD_SEARCHED adds
# the last one kept, after whatever placements and doublings came between,
# and the rest are never added. SEARCH_ADD adds the searched edge at once.
# CLASH places, with no search, a new edge whose scan from its home reaches
# the slot the last failed search recorded, so it takes that slot. GROW
# doubles the table, up to 4,096 slots. There is no shrink phase: a
# failing sequence is reported as drawn, so a probe-order slip fails in
# seconds
RECORDED_SLOT_OPS = st.lists(
    st.tuples(st.sampled_from([ADD, SEARCH, SEARCH_ADD, ADD_SEARCHED, CLASH] * 2 + [GROW]),
              st.integers(0, 255), st.integers(0, 1023)),
    min_size=100, max_size=250)


@pytest.mark.parametrize("lam", [4, 64])
@pytest.mark.parametrize("repr_", REPRS)
@settings(derandomize=True, max_examples=25, deadline=None, phases=[Phase.generate])
@given(ops=RECORDED_SLOT_OPS)
def test_recorded_slot_differential(repr_, lam, ops):
    # the same addchild and reserve calls, with failed searches between
    # them on one table only, must leave both tables storing the same words
    nodes = []  # current ids by creation index, the same in both tables

    def follow(remap, new_cap):
        if remap is not None:
            nodes[:] = [remap[u] for u in nodes]

    b = make_backend(cfg(repr_, lam=lam), on_grow=follow)
    ref = make_backend(cfg(repr_, lam=lam))
    nodes.append(b.root_id)
    zs = b._sym_bits
    codes = cfg(repr_, lam=lam).step_code + 1  # edge codes, the step code last
    edges = set()  # (parent index, code) of every added edge
    kept = []  # searched edges not added yet

    def fresh(p, code):
        return (p, code) not in edges and (p, code) not in kept

    def add(p, code):
        u = nodes[p]  # before b's doubling renumbers it
        nid = b.addchild(u, code)
        assert ref.addchild(u, code) == nid
        edges.add((p, code))
        nodes.append(nid)

    for kind, pick, code in ops:
        p = pick % len(nodes)
        if kind == GROW:
            if b.capacity < 4096:
                before = b.capacity
                assert b.reserve(b.root_id, b.capacity - b.node_count) == nodes[0]
                ref.reserve(ref.root_id, ref.capacity - ref.node_count)
                assert b.capacity == 2 * before and b._miss_key == -1
        elif kind == ADD_SEARCHED:
            if kept:
                add(*kept.pop())
        elif kind == CLASH:
            stop = b._miss_slot
            if b._miss_key < 0 or first_vacant(b, stop) != stop:
                continue
            home = home_slot(b, b._miss_key)
            reach = (stop - home) & b._cap_mask
            for c in range(codes):
                if not fresh(p, c):
                    continue
                if (home_slot(b, (nodes[p] << zs) | c) - home) & b._cap_mask <= reach:
                    events = b.growth_events
                    add(p, c)
                    if b.growth_events == events:
                        assert b._find_slot(nodes[p], c) == stop
                    break
        else:
            code %= codes
            while not fresh(p, code):
                code = (code + 1) % codes
            if kind != ADD:
                k = (nodes[p] << zs) | code
                assert b.getchild(nodes[p], code) is None
                assert (b._miss_key, b._miss_slot) == (k, first_vacant(b, home_slot(b, k)))
            if kind == SEARCH:
                kept.append((p, code))
            else:
                add(p, code)
    assert table_state(b) == table_state(ref)
    for p, c in edges:
        assert b.getchild(nodes[p], c) is not None


# ---------------------------------------------------------------- run scan
# past displacement 14 a search reads its cluster by runs of slots; each
# answer must be the slot-by-slot scan's, read by the reference reader


def reference_key(b, j):
    """The packed key stored at used slot j, by the reference reader."""
    if hasattr(b, "_table"):
        return packed_entry(b._table, b._cap_bits + b._sym_bits, j)
    home = (j - displacement(b, j)) & b._cap_mask
    q = packed_entry(b._quot, b._sym_bits, j)
    return ((home << b._sym_bits) | q) * b._mult_inv & b._key_mask


def check_searches(b, edges):
    """_find_slot of each edge against a slot-by-slot scan from its home;
    a failed search records the key and the first vacant slot. Returns the
    number of failed searches."""
    vacant = (1 << b._mark_bits) - 1
    misses = 0
    for u, c in edges:
        k = (u << b._sym_bits) | c
        j = home_slot(b, k)
        while packed_entry(b._marks, b._mark_bits, j) != vacant and reference_key(b, j) != k:
            j = (j + 1) & b._cap_mask
        if packed_entry(b._marks, b._mark_bits, j) == vacant:
            assert b._find_slot(u, c) is None
            assert (b._miss_key, b._miss_slot) == (k, j)
            misses += 1
        else:
            assert b._find_slot(u, c) == j
    return misses


def fill(b, clumps):
    """Add the edges (home, quotient) of each clump (home, first quotient,
    count) in order, skipping the root's key; returns the edges added."""
    added = []
    for home, q, n in clumps:
        for quot in range(q, q + n):
            e = edge_at(b, home, quot)
            if e != (0, b._root_key) and b.getchild(*e) is None:
                b.addchild(*e)
                added.append(e)
    return added


def false_positive_at(b, home, quot):
    """Whether the scan from home for quotient quot passes, at displacement
    14 or more, a slot storing quot for another home just below a slot
    storing quot ^ 1: a true zero field with a borrow above it."""
    zs, mask = b._sym_bits, b._cap_mask
    j, d = home, 0
    vacant = (1 << b._mark_bits) - 1
    while packed_entry(b._marks, b._mark_bits, j) != vacant:
        nxt = (j + 1) & mask
        if (d >= _SMALL_ESCAPE and packed_entry(b._quot, zs, j) == quot
                and displacement(b, j) != d and packed_entry(b._marks, 4, nxt) != vacant
                and packed_entry(b._quot, zs, nxt) == quot ^ 1):
            return True
        j, d = nxt, d + 1
    return False


@pytest.mark.parametrize("repr_", REPRS)
def test_run_scan_agrees_with_reference(repr_):
    # at 1,024 slots: 300 edges homed at 100 make a cluster of over four
    # runs whose compact displacements pass 255; 120 homed at 980 wrap past
    # the last slot to slot 75. At 500, 27 edges, then quotient 30 at
    # displacement 27 and, homed at 501, quotient 31 = 30 ^ 1 beside it: a
    # search from 501 for 30 meets a true zero field with a borrow above
    # it, where the displacement matches but the quotient does not
    b = make_backend(cfg(repr_, capacity=1024))
    stored = fill(b, [(100, 1, 300), (980, 1, 120), (500, 100, 27), (500, 30, 1), (501, 31, 1)])
    assert b.growth_events == 0 and b.node_count == 450
    # the root sits at slot 709
    assert list(b._used_slots()) == [*range(76), *range(100, 400), *range(500, 529),
                                     709, *range(980, 1024)]
    if hasattr(b, "_disp"):
        assert max(b._disp._wide.values()) == 299
        assert false_positive_at(b, 501, 30)
    # every stored edge, then from every home the edges storing quotients
    # that other homes' edges store
    searches = stored + [edge_at(b, h, q) for h in range(b.capacity)
                         for q in (1 + h % 300, 30, 31)]
    assert check_searches(b, searches) > 2000
    # at 32 slots and offset limit 8 a key is 17 bits, and the 32 bits of
    # ones that pad the last word read as one more vacant entry past slot
    # 31: a scan from 4 through the used slots 4-31 goes on at slot 0
    b = make_backend(cfg(repr_, capacity=32, lam=8))
    stored = fill(b, [(4, 1, 27)])
    assert list(b._used_slots()) == list(range(4, 32))
    searches = stored + [edge_at(b, h, q) for h in range(b.capacity) for q in range(40, 44)]
    assert check_searches(b, searches) == 128


@pytest.mark.parametrize("repr_", REPRS)
@settings(derandomize=True, max_examples=4, deadline=None, phases=[Phase.generate])
@given(load=st.floats(0.85, 0.9), seed=st.integers(0, 2**32 - 1))
def test_run_scan_differential(repr_, load, seed):
    # clumps of edges with consecutive quotients at random homes fill 512
    # slots to the load, after the clump of 2-41 at one home that puts a
    # borrow above a true zero. Searched: every stored edge, each one's
    # quotient from a home up to 40 slots further on, and random edges
    b = make_backend(cfg(repr_, capacity=512))
    rng = random.Random(seed)
    target = min(int(load * b.capacity), 9 * b.capacity // 10 - 1)
    trap = rng.randrange(b.capacity)
    stored = fill(b, [(trap, 2, 40)])
    qmax = 1 << b._sym_bits
    while b.node_count < target:
        n = min(rng.randrange(1, 24), target - b.node_count)
        stored += fill(b, [(rng.randrange(b.capacity), rng.randrange(1, qmax - n), n)])
    assert b.growth_events == 0
    if hasattr(b, "_disp"):
        assert false_positive_at(b, (trap + 1) & b._cap_mask, 30)
    homes = {e: home_slot(b, (e[0] << b._sym_bits) | e[1]) for e in stored}
    shadows = [edge_at(b, (homes[e] + rng.randrange(1, 41)) & b._cap_mask,
                       reference_key(b, b._find_slot(*e)) * b._mult & b._root_key)
               for e in stored]
    randoms = [edge_at(b, rng.randrange(b.capacity), rng.randrange(qmax)) for _ in range(200)]
    assert check_searches(b, stored + shadows + randoms) > 0


@pytest.mark.parametrize("repr_", ["cbt", "cfkt"])
def test_escaped_hits_read_no_run(repr_, monkeypatch):
    # 300 keys at one home: every hit, at any displacement, is found
    # through the map's entries for that home, so none reads a run of
    # slots; a failed search still does, to record its vacant slot
    b = make_backend(cfg(repr_, capacity=1024))
    edges = shared_home_edges(b, 700, 301)
    ids = {e: b.addchild(*e) for e in edges[:300]}
    runs = []

    def counting(words, lo, hi):
        runs.append((lo, hi))
        return run_bits(words, lo, hi)

    run_bits = trie_repr._run_bits
    monkeypatch.setattr(trie_repr, "_run_bits", counting)
    assert all(b.getchild(*e) == nid for e, nid in ids.items())
    assert runs == []
    assert b.getchild(*edges[300]) is None and runs
    assert b._miss_slot == first_vacant(b, 700)


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
    assert d["pfkt"]._backend._ids == d["cfkt"]._backend._ids


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


@pytest.mark.parametrize("repr_", REPRS)
def test_memory_bytes_counts_every_word_array(repr_):
    # after several doublings, memory_bytes() is the size of every distinct
    # word array the table holds (pbt's key array is also its marks) plus
    # its escape map, so no array can be left out of the count
    b = make_backend(cfg(repr_))
    oracle = OracleTrie(b)
    grow_to(oracle, [oracle.root], random.Random(2), 600)
    assert b.growth_events >= 5
    arrays = {id(v): v for v in vars(b).values() if isinstance(v, array)}
    assert len(arrays) == {"pbt": 1, "cbt": 2, "pfkt": 2, "cfkt": 3}[repr_]
    want = sum(sys.getsizeof(v) for v in arrays.values())
    if hasattr(b, "_disp"):
        want += b._disp.memory_bytes()
    assert b.memory_bytes() == want


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
