import random

import pytest

from dynpdt.core import REPRS, Config, ContractViolation, ResourceExhausted
from dynpdt.hashing import scramble
from dynpdt.trie_repr import (
    DisplacementStore,
    QuotientTable,
    SpillTable,
    make_backend,
)
from oracles import OracleTrie


def cfg(repr_, capacity=16, lam=4, **kw):
    return Config(trie_repr=repr_, offset_limit=lam, initial_capacity=capacity, **kw)


# ---------------------------------------------------------------- tables


def test_quotient_table_differential():
    rng = random.Random(1)
    qt = QuotientTable(key_bits=10, capacity=16)
    model = {}
    keys = list(range(1 << 10))
    rng.shuffle(keys)
    for key in keys[:900]:
        value = rng.randrange(128)
        qt.insert(key, value)
        model[key] = value
        if len(model) % 97 == 0:
            probe = rng.randrange(1 << 10)
            assert qt.get(probe) == model.get(probe)
    assert len(qt) == 900
    for key in keys[:900]:
        assert qt.get(key) == model[key]
    for key in keys[900:]:
        assert qt.get(key) is None
    assert dict(qt.items()) == model


def test_quotient_table_grows_under_load():
    qt = QuotientTable(key_bits=12, capacity=16)
    for key in range(600):
        qt.insert(key, key % 128)
    assert qt._cap >= 1024  # started at 16, load cap forces doublings
    assert all(qt.get(k) == k % 128 for k in range(600))


def test_spill_table_roundtrip_and_duplicate():
    st = SpillTable(key_bits=16, val_bits=16, capacity=4)
    for key in (0, 1, 9999, 65535, 12345):
        st.insert(key, key % 1000)
    for key in (0, 1, 9999, 65535, 12345):
        assert st.get(key) == key % 1000
    assert st.get(7) is None
    with pytest.raises(ContractViolation):
        st.insert(1, 5)


def test_displacement_store_tiers():
    ds = DisplacementStore(capacity=1 << 13, key_bits=13)
    cases = {0: 0, 1: 5, 2: 14, 3: 15, 4: 100, 5: 142, 6: 143, 7: 5000}
    for j, d in cases.items():
        ds.set(j, d)
    for j, d in cases.items():
        assert ds.get(j) == d
    assert ds.mid_count == 3   # 15, 100, 142
    assert ds.spill_count == 2  # 143, 5000


@pytest.mark.parametrize("repr_", ["cbt", "cfkt"])
def test_probe_through_displacement_tiers(repr_):
    # ~200 keys sharing one home slot push displacements through all three
    # tiers, so getchild must follow escaped nibbles into mid and spill
    b = make_backend(cfg(repr_, capacity=1024))
    tf = b._tf
    home = 700
    sym_bits = b._sym_bits
    root_key = b._root_key  # the root's (0, code) key is already placed

    def key_at(quot):
        k = tf.inverse((quot << b._cap_bits) | home)
        return k >> sym_bits, k & ((1 << sym_bits) - 1)

    edges = [key_at(q) for q in range(1, 211)]
    edges = [e for e in edges if e != (0, root_key)]
    present, absent = edges[:200], edges[200:]
    ids = {e: b.addchild(*e) for e in present}
    assert b.growth_events == 0
    assert b._disp.mid_count > 0 and b._disp.spill_count > 0
    for e, nid in ids.items():
        assert b.getchild(*e) == nid
    for e in absent:
        assert b.getchild(*e) is None


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
    if repr_ == "pbt":
        assert b.root_id == scramble(root_key) & 15
    if repr_ == "cbt":
        assert b.root_id == b._tf.forward(root_key) & 15


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
    assert b.getparent(w) == u and b.getedge(w) == 3
    assert b.getparent(u) == root and b.getedge(u) == 3
    assert b.getparent(v) == root and b.getedge(v) == 200


@pytest.mark.parametrize("repr_", REPRS)
def test_root_has_no_parent_edge(repr_):
    b = make_backend(cfg(repr_))
    with pytest.raises(ContractViolation):
        b.getparent(b.root_id)
    with pytest.raises(ContractViolation):
        b.getedge(b.root_id)


@pytest.mark.parametrize("repr_", REPRS)
def test_dead_id_rejected(repr_):
    b = make_backend(cfg(repr_))
    u = b.addchild(b.root_id, 1)
    dead = [b.capacity + 5, -1]
    if repr_ in ("pbt", "cbt"):
        # a vacant slot inside the table is just as dead
        dead.append(next(j for j in range(b.capacity) if j not in (b.root_id, u)))
    else:
        dead.append(u + 1)  # next dense id, not assigned yet
    for d in dead:
        with pytest.raises(ContractViolation):
            b.getparent(d)


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
    for remap, new_cap in remaps:
        if repr_ in ("pbt", "cbt"):
            assert remap is not None
            assert len(set(remap.values())) == len(remap)  # bijective
            assert all(0 <= v < new_cap for v in remap.values())
        else:
            assert remap is None


@pytest.mark.parametrize("repr_", REPRS)
def test_load_never_exceeds_cap(repr_):
    b = make_backend(cfg(repr_))
    for i in range(1, 200):
        b.addchild(b.root_id, i)
        assert 10 * b.node_count <= 9 * b.capacity


def test_fk_ids_survive_growth():
    b = make_backend(cfg("pfkt"))
    ids = [b.addchild(b.root_id, code) for code in range(1, 60)]
    assert ids == list(range(1, 60))  # creation order, no holes
    assert b.growth_events > 0
    for code, nid in zip(range(1, 60), ids):
        assert b.getchild(b.root_id, code) == nid


def test_pbt_inplace_map_equivalent():
    rng = random.Random(9)
    plan = []  # (parent index, code), every entry creates a node
    seen = set()
    count = 1
    while len(plan) < 300:
        step = (rng.randrange(count), rng.randrange(1025))
        if step in seen:
            continue
        seen.add(step)
        plan.append(step)
        count += 1
    tables = []
    for inplace in (False, True):
        ids = []

        def follow(remap, new_cap, ids=ids):
            ids[:] = [remap[u] for u in ids]

        b = make_backend(cfg("pbt", pbt_inplace_map=inplace), on_grow=follow)
        ids.append(b.root_id)
        for parent_idx, code in plan:
            ids.append(b.addchild(ids[parent_idx], code))
        tables.append((b.node_count, b.capacity, ids, bytes(b._table._words)))
    assert tables[0] == tables[1]


def test_growth_capacity_ceiling(monkeypatch):
    import dynpdt.trie_repr as tr
    monkeypatch.setattr(tr, "MAX_CAPACITY", 32)
    b = make_backend(cfg("pbt"))
    with pytest.raises(ResourceExhausted):
        for code in range(1, 64):
            b.addchild(b.root_id, code)


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
    # dense-id layouts carry two extra id arrays
    assert sizes["pfkt"] > sizes["pbt"]
