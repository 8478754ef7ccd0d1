import random

import pytest

from dynpdt.core import Config, ContractViolation, NO_VALUE
from dynpdt.nlm import (
    PlainLabelMap,
    SparseLabelMapBonsai,
    SparseLabelMapFK,
    make_label_map,
)


def bonsai_maps(capacity=256, ell=16):
    return [PlainLabelMap(capacity), SparseLabelMapBonsai(capacity, ell)]


@pytest.mark.parametrize("make", [
    lambda: PlainLabelMap(256),
    lambda: SparseLabelMapBonsai(256, 16),
    lambda: SparseLabelMapFK(16),
])
def test_roundtrip_labels_and_values(make):
    m = make()
    rows = [(0, b"technology", 7), (1, b"cs", 0), (2, b"ue", NO_VALUE - 1),
            (3, b"lly", 123456), (5, b"cal", 99)]
    for nid, label, value in rows:
        if nid == 5 and isinstance(m, SparseLabelMapFK):
            m.associate_step(4)  # dense maps demand contiguous ids
        m.associate(nid, label, value)
    if not isinstance(m, SparseLabelMapFK):
        m.associate_step(4)
    for nid, label, value in rows:
        got = m.access(nid)
        assert (got.label, got.value) == (label, value)
    step = m.access(4)
    assert step.label == b"" and step.value is None


@pytest.mark.parametrize("length", [0, 1, 126, 127, 128, 300])
def test_label_length_field_boundaries(length):
    # the length prefix stores len+1, so 127 is the first two-byte field
    label = bytes((i % 255) + 1 for i in range(length))
    for m in bonsai_maps(capacity=16):
        m.associate(3, label, 42)
        got = m.access(3)
        assert got.label == label and got.value == 42


def test_empty_label_is_not_a_step():
    for m in bonsai_maps():
        m.associate(0, b"", 5)
        m.associate_step(1)
        assert m.access(0).value == 5
        assert m.access(1).value is None


def test_access_absent_returns_none():
    for m in bonsai_maps():
        assert m.access(7) is None
    assert SparseLabelMapFK(8).access(0) is None


def test_update_value_in_place():
    for m in bonsai_maps() + [SparseLabelMapFK(8)]:
        m.associate(0, b"abc", 1)
        m.update_value(0, NO_VALUE)
        assert m.access(0).value == NO_VALUE
        m.update_value(0, 77)
        got = m.access(0)
        assert (got.label, got.value) == (b"abc", 77)
        m.associate_step(1)
        with pytest.raises(ContractViolation):
            m.update_value(1, 5)  # step records carry no value
        with pytest.raises(ContractViolation):
            m.update_value(2, 5)  # no record at all
        assert m.access(0).value == 77 and m.access(1).value is None


def test_group_packing_same_bucket():
    # ids 0..15 share one bucket at ell=16; inserts arrive out of order
    m = SparseLabelMapBonsai(64, 16)
    order = [7, 0, 15, 3, 12, 1, 14, 8]
    for nid in order:
        m.associate(nid, bytes([65 + nid]) * nid, nid)
    for nid in order:
        got = m.access(nid)
        assert got.label == bytes([65 + nid]) * nid
        assert got.value == nid


@pytest.mark.parametrize("ell", [8, 16, 32, 64])
def test_bonsai_differential(ell):
    rng = random.Random(ell)
    cap = 512
    m = SparseLabelMapBonsai(cap, ell)
    plain = PlainLabelMap(cap)
    model = {}
    free = list(range(cap))
    rng.shuffle(free)
    for _ in range(400):
        if free and (len(model) < 10 or rng.random() < 0.6):
            nid = free.pop()
            if rng.random() < 0.2:
                m.associate_step(nid)
                plain.associate_step(nid)
                model[nid] = (b"", None)
            else:
                label = bytes(rng.choices(range(1, 256), k=rng.randrange(20)))
                value = rng.randrange(NO_VALUE)
                m.associate(nid, label, value)
                plain.associate(nid, label, value)
                model[nid] = (label, value)
        else:
            nid = rng.randrange(cap)
            want = model.get(nid)
            for probe in (m, plain):
                got = probe.access(nid)
                if want is None:
                    assert got is None
                else:
                    assert (got.label, got.value) == want
    assert sorted((n, p.label, p.value) for n, p in m.iter_items()) == \
        sorted((n, l, v) for n, (l, v) in model.items()) == \
        sorted((n, p.label, p.value) for n, p in plain.iter_items())


def test_remap_moves_everything():
    for m in bonsai_maps(capacity=64):
        for nid in range(0, 40, 3):
            m.associate(nid, bytes([nid + 1]) * 3, nid)
        mapping = {nid: 127 - nid for nid in range(0, 40, 3)}
        m.remap(mapping, 128)
        for old, new in mapping.items():
            got = m.access(new)
            assert got.label == bytes([old + 1]) * 3 and got.value == old
        assert m.access(0) is None or 0 in mapping.values()


def test_fk_is_append_only():
    m = SparseLabelMapFK(8)
    for nid in range(20):
        m.associate(nid, b"x" * nid, nid)
    for nid in range(20):
        assert m.access(nid).value == nid
    with pytest.raises(Exception):
        m.associate(25, b"gap", 1)  # id 20 was never assigned
    m.ensure_capacity(1 << 12)  # a no-op, dense storage grows by itself


def test_factory_wires_families():
    cfg = Config(label_map="plm")
    assert isinstance(make_label_map(cfg, "bonsai"), PlainLabelMap)
    assert isinstance(make_label_map(cfg, "fk"), PlainLabelMap)
    cfg = Config(label_map="slm")
    assert isinstance(make_label_map(cfg, "bonsai"), SparseLabelMapBonsai)
    assert isinstance(make_label_map(cfg, "fk"), SparseLabelMapFK)


def test_sparse_beats_plain_on_memory():
    # one honest corpus, three layouts; wider groups amortize better
    rng = random.Random(3)
    rows = [(nid, bytes(rng.choices(range(97, 123), k=rng.randint(2, 14))), nid)
            for nid in range(0, 4096, 2)]
    plain = PlainLabelMap(4096)
    narrow = SparseLabelMapBonsai(4096, 8)
    wide = SparseLabelMapBonsai(4096, 64)
    for m in (plain, narrow, wide):
        for nid, label, value in rows:
            m.associate(nid, label, value)
    assert wide.memory_bytes() < narrow.memory_bytes() < plain.memory_bytes()
