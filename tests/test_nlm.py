import random
import sys
from array import array

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from dynpdt import Dictionary
from dynpdt.core import REPRS, Config, ContractViolation, CorruptionError, NO_VALUE
from dynpdt.nlm import LabelMap, make_label_map, vbyte_decode, vbyte_encode

ELLS = (1, 8, 16, 64)  # plm's one record per group, and three slm widths
MAKERS = [lambda ell=ell: LabelMap(ell) for ell in ELLS]
# slot tables (pbt, cbt) hand out ids with gaps and in any order; dense-id
# tables (pfkt, cfkt) hand them out contiguously, in order
GAPPED = [40, 3, 17, 0, 63, 5, 9, 4]
DENSE = list(range(12))


def test_vbyte_frozen_encodings():
    assert vbyte_encode(0) == b"\x00"
    assert vbyte_encode(127) == b"\x7f"
    assert vbyte_encode(128) == b"\x80\x01"
    assert vbyte_encode(16383) == b"\xff\x7f"
    assert vbyte_encode(16384) == b"\x80\x80\x01"


def test_vbyte_round_trip():
    for n in list(range(4096)) + [2**14, 2**21 - 1, 2**21, 2**32 - 1, 2**40]:
        buf = vbyte_encode(n)
        value, consumed = vbyte_decode(buf)
        assert (value, consumed) == (n, len(buf))


def test_vbyte_decode_at_offset():
    buf = b"junk" + vbyte_encode(300) + b"tail"
    value, consumed = vbyte_decode(buf, 4)
    assert value == 300
    assert buf[4 + consumed:] == b"tail"


def test_vbyte_truncated_raises():
    with pytest.raises(CorruptionError):
        vbyte_decode(b"\x80")  # continuation bit with nothing after it
    with pytest.raises(CorruptionError):
        vbyte_decode(b"")


def records(m):
    return {n: (p.label, p.value) for n, p in m.iter_items()}


@pytest.mark.parametrize("make", MAKERS)
def test_roundtrip_labels_and_values(make):
    for ids in (GAPPED, DENSE):
        m = make()
        want = {}
        for i, nid in enumerate(ids):
            if i % 4 == 3:
                m.associate_step(nid)
                want[nid] = (b"", None)
            else:
                want[nid] = (bytes([97 + i]) * (i * 3 % 11), [7, 0, NO_VALUE - 1, 123456][i % 4])
                m.associate(nid, *want[nid])
        for nid, (label, value) in want.items():
            got = m.access(nid)
            assert (got.label, got.value) == (label, value)
        assert records(m) == want
        assert [nid for nid, _ in m.iter_items()] == sorted(want)


@pytest.mark.parametrize("length", [0, 1, 125, 126, 127, 128, 250, 251, 300])
def test_label_length_field_boundaries(length):
    # a label's code byte holds its payload size, len + 4, up to 250 bytes;
    # from 251 on the code is an escape and a VByte length follows it
    label = bytes((i % 255) + 1 for i in range(length))
    for ell in ELLS:
        m = LabelMap(ell)
        m.associate(3, label, 42)
        got = m.access(3)
        assert got.label == label and got.value == 42
    plain = LabelMap(1)
    plain.associate(0, label, 42)
    head = 1 if length < 251 else 1 + len(vbyte_encode(length))
    assert len(plain._groups[0]) == head + length + 4


def test_empty_label_is_not_a_step():
    for ell in ELLS:
        m = LabelMap(ell)
        m.associate(0, b"", 5)
        m.associate_step(1)
        assert m.access(0).value == 5
        assert m.access(1).value is None


def test_access_absent_returns_none():
    for ell in ELLS:
        m = LabelMap(ell)
        assert m.access(0) is None and m.access(7) is None  # nothing written yet
        m.associate(70, b"x", 1)
        assert m.access(69) is None and m.access(71) is None
        assert m.access(1000) is None  # past the last group


def reference_match(want, s, pos):
    """match() spelled out for the record want, a (label, value) or None."""
    if want is None or want[1] is None:
        return None
    label, value = want
    rest, stored = s[pos:], label + b"\x00"
    if rest == stored:
        return value
    for k, (a, b) in enumerate(zip(rest, stored)):
        if a != b:
            return ~(pos + k)
    return CorruptionError  # one terminated string is a prefix of the other


def check_match(m, nid, want, s, pos):
    expected = reference_match(want, s, pos)
    if expected is CorruptionError:
        with pytest.raises(CorruptionError):
            m.match(nid, s, pos, len(s) - 1)
    else:
        assert m.match(nid, s, pos, len(s) - 1) == expected


@pytest.mark.parametrize("ell", ELLS)
def test_match_agrees_with_access(ell):
    # the target sits after a label long enough to take the escape code, in
    # the same group when ell > 1, so its rank skip takes the fallback loop
    long_id, step_id, empty_id, unwritten = ell, ell + 1, ell + 2, ell + 3
    target = max(2 * ell - 1, 5)
    label, long_label = b"example.org/a", bytes(range(1, 256)) + b"tail"
    m = LabelMap(ell)
    m.associate(0, b"root", 1)
    m.associate(long_id, long_label, 2)
    m.associate_step(step_id)
    m.associate(empty_id, b"", NO_VALUE)
    m.associate(target, label, 3)
    assert m._groups[long_id // ell][0] == 255  # escaped
    residuals = [label, label[:5], label[:0], label + b"/b", b"x" + label[1:],
                 label[:1] + b"X" + label[2:], label[:7] + b"O" + label[8:],
                 long_label, b"\x02" + long_label[1:], long_label[:1] + b"X" + long_label[2:],
                 long_label[:-1] + b"T", long_label[:280], long_label + b"s"]
    for nid in (0, long_id, step_id, empty_id, unwritten, target, 1000):
        got = m.access(nid)
        want = got if got is None else (got.label, got.value)
        for rest in residuals:
            for head in (b"", b"abc"):
                check_match(m, nid, want, head + rest + b"\x00", len(head))
    assert m.match(target, b"abc" + label + b"\x00", 3, 3 + len(label)) == 3
    assert m.match(empty_id, b"k\x00", 1, 1) == NO_VALUE
    # the first byte alone decides these: an empty residual against every
    # non-empty label, a non-empty one against the empty label, and the
    # escaped label against a residual that differs from it at byte 0
    for nid in (0, long_id, target):
        assert m.match(nid, b"abc\x00", 3, 3) == ~3
    assert m.match(empty_id, b"abc\x00", 1, 3) == ~1
    assert m.match(long_id, b"\x02" + long_label[1:] + b"\x00", 0, len(long_label)) == ~0
    # agreeing on byte 0 takes the full comparison, which finds byte 1
    assert m.match(target, b"eX\x00", 0, 2) == ~1
    assert m.match(long_id, b"ab\x01X\x00", 2, 4) == ~3
    for nid in (step_id, unwritten, 1000):
        assert m.match(nid, label + b"\x00", 0, len(label)) is None


@pytest.mark.parametrize("ell", ELLS)
def test_unwritten_ids_and_second_writes(ell):
    # a group written out of order holds unwritten ids between its records
    m = LabelMap(ell)
    written = {6: (b"six", 6), 2: (b"", None), 5: (b"five", 5)}
    m.associate(6, b"six", 6)
    m.associate_step(2)
    m.associate(5, b"five", 5)
    for nid in (0, 3, 4, 7):
        assert m.access(nid) is None
        with pytest.raises(ContractViolation):
            m.update_value(nid, 1)
    for nid in written:
        with pytest.raises(ContractViolation):
            m.associate(nid, b"again", 1)
        with pytest.raises(ContractViolation):
            m.associate_step(nid)
    assert records(m) == written


def test_update_value_in_place():
    for ell in ELLS:
        m = LabelMap(ell)
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
    m = LabelMap(16)
    order = [7, 0, 15, 3, 12, 1, 14, 8]
    for nid in order:
        m.associate(nid, bytes([65 + nid]) * nid, nid)
    for nid in order:
        got = m.access(nid)
        assert got.label == bytes([65 + nid]) * nid
        assert got.value == nid
    assert len(m._groups) == 1


@pytest.mark.parametrize("ell", [1, 8, 16, 32, 64])
def test_bonsai_differential(ell):
    rng = random.Random(ell)
    cap = 512
    m = LabelMap(ell)
    model = {}
    free = list(range(cap))
    rng.shuffle(free)
    for _ in range(400):
        if free and (len(model) < 10 or rng.random() < 0.6):
            nid = free.pop()
            if rng.random() < 0.2:
                m.associate_step(nid)
                model[nid] = (b"", None)
            else:
                label = bytes(rng.choices(range(1, 256), k=rng.randrange(20)))
                value = rng.randrange(NO_VALUE)
                m.associate(nid, label, value)
                model[nid] = (label, value)
        else:
            nid = rng.randrange(cap)
            want = model.get(nid)
            got = m.access(nid)
            if want is None:
                assert got is None
            else:
                assert (got.label, got.value) == want
    assert records(m) == model


def test_remap_moves_everything():
    for ell in ELLS:
        m = LabelMap(ell)
        for nid in range(0, 40, 3):
            m.associate(nid, bytes([nid + 1]) * 3, nid)
        m.associate_step(41)
        remap = array("q", [-1]) * 64  # -1: no node at that old id
        for nid in range(0, 40, 3):
            remap[nid] = 127 - nid
        remap[41] = 64
        remap[50] = 5  # a node with no record stays without one
        m.remap(remap, 128)
        moved = {127 - nid: (bytes([nid + 1]) * 3, nid) for nid in range(0, 40, 3)}
        moved[64] = (b"", None)
        for new, want in moved.items():
            got = m.access(new)
            assert (got.label, got.value) == want
        for nid in range(128):
            if nid not in moved:
                assert m.access(nid) is None
        assert records(m) == moved
        assert len(m._groups) == 128 // ell  # presized to the new capacity


@pytest.mark.parametrize("make", MAKERS)
def test_remap_rejects_an_unmapped_record(make):
    # read as an index, the -1 left at id 9 would name the last new slot;
    # a new id given twice would silently drop one of its two records
    m = make()
    for nid in (3, 9, 40):
        m.associate(nid, b"ab", nid)
    for new_of_9 in (-1, 126):
        remap = array("q", [-1]) * 64
        remap[3] = 70
        remap[9] = new_of_9
        remap[40] = 126
        with pytest.raises(CorruptionError):
            m.remap(remap, 128)
        for nid in (3, 9, 40):  # a refused remap leaves every record in place
            got = m.access(nid)
            assert (got.label, got.value) == (b"ab", nid)
        assert [nid for nid, _ in m.iter_items()] == [3, 9, 40]


@pytest.mark.parametrize("ell", [16, 64])
def test_records_are_exact_size_bytes(ell):
    # every group is an immutable bytes object, so it holds its data inline
    # at exactly its length, through inserts, value rewrites and growth alike
    long_label = b"L" * 200  # length field 202: two VByte bytes
    maps = [LabelMap(1), LabelMap(ell)]
    model = {nid: (b"", None) if nid % 5 == 4 else
             (long_label if nid == 17 else b"w" * (nid % 9), nid) for nid in range(40)}
    for nid, (label, value) in model.items():
        for m in maps:
            if value is None:
                m.associate_step(nid)
            else:
                m.associate(nid, label, value)
    for nid in (0, 17, 21, 38):
        for m in maps:
            m.update_value(nid, NO_VALUE)
            m.update_value(nid, 1000 + nid)
        model[nid] = (model[nid][0], 1000 + nid)
    for m in maps:
        assert all(type(buf) is bytes for buf in m._groups)
        assert records(m) == model
    remap = array("q", [-1]) * 64
    for nid in range(40):
        remap[nid] = 127 - 2 * nid
    moved = {127 - 2 * nid: want for nid, want in model.items()}
    for m in maps:
        m.remap(remap, 128)
        assert all(type(buf) is bytes for buf in m._groups)
        assert records(m) == moved
        for nid in (127, 93):  # ids 0 and 17 before the remap
            m.update_value(nid, 7)
        assert all(type(buf) is bytes for buf in m._groups)


@pytest.mark.parametrize("ids", [
    # the id patterns of the two node-table families: slot ids leave gaps,
    # so a record's rank differs from its id's offset among the records
    [1, 2, 4, 6, 9, 11, 14],
    list(range(16)),
], ids=["bonsai", "fk"])
def test_update_value_inside_shared_group(ids):
    for ell in ELLS:
        m = LabelMap(ell)
        step, long_id = ids[1], ids[-2]
        want = {}
        for nid in ids + [16, 17]:  # 16 and 17 open the next group
            if nid == step:
                m.associate_step(nid)
                want[nid] = (b"", None)
            else:
                label = b"x" * 200 if nid == long_id else bytes([97 + nid % 26]) * (nid % 5)
                m.associate(nid, label, nid)
                want[nid] = (label, nid)
        sizes = [len(buf) for buf in m._groups]
        for nid in (ids[0], ids[len(ids) // 2], ids[-1], long_id):  # first, middle, last rank
            for value in (NO_VALUE, 500 + nid):
                m.update_value(nid, value)
                want[nid] = (want[nid][0], value)
                assert [len(buf) for buf in m._groups] == sizes
                assert records(m) == want


def test_factory_wires_families():
    assert make_label_map(Config(label_map="plm", group_size=64))._ell == 1
    for repr_ in REPRS:
        for group_size in (8, 64):
            d = Dictionary(Config(trie_repr=repr_, label_map="plm", group_size=group_size))
            assert d._nlm._ell == 1
            d = Dictionary(Config(trie_repr=repr_, label_map="slm", group_size=group_size))
            assert d._nlm._ell == group_size


def test_plain_step_records_take_no_space():
    # at l = 1 a step node's group is the one shared step record
    m = LabelMap(1)
    m.associate(0, b"root", 1)
    labels = m.memory_bytes() - sys.getsizeof(m._groups)
    for nid in range(1, 101):
        m.associate_step(nid)
    assert m.memory_bytes() - sys.getsizeof(m._groups) == labels


def test_sparse_beats_plain_on_memory():
    # one honest corpus, three layouts; wider groups amortize better
    rng = random.Random(3)
    rows = [(nid, bytes(rng.choices(range(97, 123), k=rng.randint(2, 14))), nid)
            for nid in range(0, 4096, 2)]
    plain, narrow, wide = LabelMap(1), LabelMap(8), LabelMap(64)
    for m in (plain, narrow, wide):
        for nid, label, value in rows:
            m.associate(nid, label, value)
    assert wide.memory_bytes() < narrow.memory_bytes() < plain.memory_bytes()


class LabelMapMachine(RuleBasedStateMachine):
    """A LabelMap against a dict model, through every operation and growth."""

    def __init__(self, ell):
        super().__init__()
        self.m = LabelMap(ell)
        self.model = {}
        self.cap = 16

    # labels from 251 bytes on take the escape code and a VByte length
    @rule(nid=st.integers(0, 1 << 16),
          label=st.binary(max_size=12) | st.binary(min_size=120, max_size=140)
          | st.binary(min_size=245, max_size=260),
          value=st.integers(0, NO_VALUE - 1))
    def associate(self, nid, label, value):
        nid %= self.cap
        if nid in self.model:
            with pytest.raises(ContractViolation):
                self.m.associate(nid, label, value)
        else:
            self.m.associate(nid, label, value)
            self.model[nid] = (label, value)

    @rule(nid=st.integers(0, 1 << 16))
    def associate_step(self, nid):
        nid %= self.cap
        if nid in self.model:
            with pytest.raises(ContractViolation):
                self.m.associate_step(nid)
        else:
            self.m.associate_step(nid)
            self.model[nid] = (b"", None)

    @rule(nid=st.integers(0, 1 << 16), value=st.integers(0, NO_VALUE))
    def update_value(self, nid, value):
        nid %= self.cap
        want = self.model.get(nid)
        if want is None or want[1] is None:
            with pytest.raises(ContractViolation):
                self.m.update_value(nid, value)
        else:
            self.m.update_value(nid, value)
            self.model[nid] = (want[0], value)

    @rule(nid=st.integers(0, 1 << 16))
    def access(self, nid):
        nid %= 2 * self.cap  # half of these lie past every written id
        got = self.m.access(nid)
        want = self.model.get(nid)
        assert (got if got is None else (got.label, got.value)) == want

    @rule(data=st.data(), head=st.binary(max_size=3), cut=st.integers(0, 260),
          tail=st.binary(max_size=3))
    def match(self, data, head, cut, tail):
        # mostly an id that has a record, with a residual sharing up to cut
        # bytes with its label; s[:pos] is anything, and s ends at its only
        # 0x00
        ids = st.integers(0, 2 * self.cap - 1)
        nid = data.draw(st.sampled_from(sorted(self.model)) | ids if self.model else ids)
        want = self.model.get(nid)
        label = want[0] if want else b""
        s = head + (label[:cut] + tail).replace(b"\x00", b"\x01") + b"\x00"
        check_match(self.m, nid, want, s, len(head))

    @precondition(lambda self: self.cap < 1024)
    @rule(data=st.data())
    def remap(self, data):
        new_cap = 2 * self.cap
        new_ids = data.draw(st.permutations(range(new_cap)))[:self.cap]
        remap = array("q", [new if old in self.model else -1
                            for old, new in enumerate(new_ids)])
        self.m.remap(remap, new_cap)
        self.model = {remap[old]: want for old, want in self.model.items()}
        self.cap = new_cap

    @precondition(lambda self: self.model)
    @rule(data=st.data(), collide=st.booleans())
    def refused_remap(self, data, collide):
        # one record is left without a new id or sent to another's; the
        # invariant then finds every record where it was
        olds = sorted(self.model)
        remap = array("q", [-1]) * self.cap
        for new, old in enumerate(olds):
            remap[old] = new
        bad = data.draw(st.sampled_from(olds))
        remap[bad] = remap[olds[0]] if collide and bad != olds[0] else -1
        with pytest.raises(CorruptionError):
            self.m.remap(remap, 2 * self.cap)

    @invariant()
    def records_match(self):
        assert records(self.m) == self.model
        for nid, want in self.model.items():
            got = self.m.access(nid)
            assert (got.label, got.value) == want
        assert all(type(buf) is bytes for buf in self.m._groups)


@pytest.mark.parametrize("ell", [1, 8, 64])
def test_label_map_state_machine(ell):
    run_state_machine_as_test(
        lambda: LabelMapMachine(ell),
        settings=settings(derandomize=True, max_examples=40, stateful_step_count=30,
                          deadline=None))
