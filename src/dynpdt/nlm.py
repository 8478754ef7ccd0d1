"""Node label maps: node id -> (label suffix, payload value).

Records are immutable, exact-size bytes objects laid out as

    VByte(stored length + 1) | label bytes | 4-byte little-endian value

where the stored label omits the trailing terminator byte. The +1 shift
keeps a field value of 0 free to mark step nodes, whose records are the
single byte 0x00 and carry no value. Without the shift a step record would
be indistinguishable from a keyword whose remaining suffix is empty.

Two layouts are provided. The plain map holds one record reference per node
id. The sparse map packs records for a bucket of group_size consecutive ids
into one shared bytes object; locating a record skips over its predecessors
using the VByte lengths. Slot-addressed backends pair the sparse map with an
occupancy bitmap and rank queries, while dense-id backends allocate ids
contiguously so the rank is just id modulo group_size.

Every map places records through its own _insert(nid, record), and an
update_value replaces the record or group with a rebuilt one. Dense ids
are stable under growth, so their maps only extend as ids arrive. Slot ids
move when the table doubles: the plain map then moves its references, and
the sparse map re-inserts each record at its new id into a fresh map.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .bitarrays import BitVector
from .core import ContractViolation, CorruptionError
from .hashing import vbyte_decode, vbyte_encode


class Payload(NamedTuple):
    label: bytes  # suffix without the trailing terminator
    value: int | None  # None for step nodes


_STEP = Payload(b"", None)
_new = tuple.__new__  # builds a Payload without NamedTuple.__new__'s frame
_STEP_RECORD = b"\x00"


def _encode_record(label: bytes, value: int) -> bytes:
    return vbyte_encode(len(label) + 1) + label + value.to_bytes(4, "little")


def _skip_records(buf, pos: int, count: int) -> int:
    while count:
        field = buf[pos]
        if field < 0x80:
            pos += field + 4 if field else 1
        else:
            field, used = vbyte_decode(buf, pos)
            pos += used + field - 1 + 4
        count -= 1
    return pos


class _LabelMap:
    """The record-creating entry points, over the subclass's _insert."""

    def associate(self, nid: int, label: bytes, value: int) -> None:
        self._insert(nid, _encode_record(label, value))

    def associate_step(self, nid: int) -> None:
        self._insert(nid, _STEP_RECORD)


class PlainLabelMap(_LabelMap):
    """One record per node id, indexed by a reference table.

    Slot-addressed backends size the table to their capacity; dense-id
    backends start it empty and append one reference per new id.
    """

    def __init__(self, capacity: int) -> None:
        self._refs: list[bytes | None] = [None] * capacity

    def _insert(self, nid: int, record: bytes) -> None:
        refs = self._refs
        if nid == len(refs):
            refs.append(None)  # the next dense id
        elif refs[nid] is not None:
            raise ContractViolation("id already has a record")
        refs[nid] = record

    def access(self, nid: int) -> Payload | None:
        refs = self._refs
        if nid >= len(refs):
            return None
        buf = refs[nid]
        if buf is None:
            return None
        field = buf[0]
        start = 1
        if field >= 0x80:
            field, start = vbyte_decode(buf, 0)
        if field == 0:
            return _STEP
        end = start + field - 1
        return _new(Payload, (buf[start:end], int.from_bytes(buf[end:end + 4], "little")))

    def update_value(self, nid: int, value: int) -> None:
        buf = self._refs[nid] if nid < len(self._refs) else None
        if buf is None or len(buf) < 4:
            raise ContractViolation(f"id {nid} has no keyword record")
        self._refs[nid] = buf[:-4] + value.to_bytes(4, "little")

    def remap(self, remap, new_capacity: int) -> None:
        """Move every record to its new id.

        remap is indexed by old id and holds -1 where no node was, as
        _HashTrie._refill builds it; a record there, or two records sent to
        one new id, is corruption and leaves the map as it was.
        """
        moved: list[bytes | None] = [None] * new_capacity
        for old, buf in enumerate(self._refs):
            if buf is not None:
                new = remap[old]
                if new < 0:
                    raise CorruptionError(f"id {old} has a record but no new id")
                if moved[new] is not None:
                    raise CorruptionError(f"two records map to new id {new}")
                moved[new] = buf
        self._refs = moved

    def iter_items(self):
        for nid, buf in enumerate(self._refs):
            if buf is not None:
                yield nid, self.access(nid)

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self._refs)
        for buf in self._refs:
            if buf is not None:
                total += sys.getsizeof(buf)
        return total


class SparseLabelMapBonsai(_LabelMap):
    """Bucketed label map for slot-addressed ids, with an occupancy bitmap.

    A record's position inside its bucket is the rank of its id among the
    set bits of the bucket, computed with one popcount since group_size
    divides the bitmap word width.
    """

    def __init__(self, capacity: int, group_size: int) -> None:
        if 64 % group_size:
            raise ContractViolation("group_size must divide 64")
        self._ell = group_size
        self._shift = group_size.bit_length() - 1
        self._group_floor = ~(group_size - 1)  # bit & floor: first bit of its group
        self._capacity = capacity
        # rounded up: a table smaller than one group still needs that group
        self._groups: list[bytes | None] = [None] * -(-capacity >> self._shift)
        self._bits = BitVector(capacity)

    def _insert(self, nid: int, record: bytes) -> None:
        words = self._bits._words
        bit = nid & 63
        word = words[nid >> 6]
        if (word >> bit) & 1:
            raise ContractViolation("id already has a record")
        g = nid >> self._shift
        buf = self._groups[g]
        if buf is None:
            self._groups[g] = record
        else:
            # set bits of the group below nid, as in _record
            rank = ((word & ((1 << bit) - 1)) >> (bit & self._group_floor)).bit_count()
            pos = _skip_records(buf, 0, rank)
            self._groups[g] = buf[:pos] + record + buf[pos:]
        words[nid >> 6] = word | (1 << bit)

    def _record(self, nid: int, new_value: int | None = None) -> Payload | None:
        """Decode nid's record, or rewrite it with new_value as its value.

        This is access() when new_value is None and update_value()
        otherwise, so both find records through the same code. One frame:
        the occupancy test and the rank read the bitmap word directly.
        """
        bit = nid & 63
        word = self._bits._words[nid >> 6] if nid < self._capacity else 0
        if not (word >> bit) & 1:
            if new_value is None:
                return None
            raise ContractViolation(f"id {nid} has no record")
        # set bits of the group below nid; the group never straddles a word
        rank = ((word & ((1 << bit) - 1)) >> (bit & self._group_floor)).bit_count()
        g = nid >> self._shift
        buf = self._groups[g]
        pos = 0
        while rank:
            field = buf[pos]
            if field < 0x80:
                pos += field + 4 if field else 1
            else:
                field, used = vbyte_decode(buf, pos)
                pos += used + field - 1 + 4
            rank -= 1
        field = buf[pos]
        start = pos + 1
        if field >= 0x80:
            field, used = vbyte_decode(buf, pos)
            start = pos + used
        if field == 0:
            if new_value is None:
                return _STEP
            raise ContractViolation("step records carry no value")
        end = start + field - 1
        if new_value is None:
            return _new(Payload, (buf[start:end], int.from_bytes(buf[end:end + 4], "little")))
        self._groups[g] = buf[:end] + new_value.to_bytes(4, "little") + buf[end + 4:]
        return None

    access = _record

    def update_value(self, nid: int, value: int) -> None:
        self._record(nid, value)

    def remap(self, remap, new_capacity: int) -> None:
        """Move every record to its new id.

        remap is indexed by old id and holds -1 where no node was, as
        _HashTrie._refill builds it. Each old group is read once, and each
        of its records is inserted at its new id into a fresh map, whose
        storage replaces this one only after every record has moved. A
        record with no new id, or two records sent to one, is corruption
        and leaves the map as it was.
        """
        fresh = SparseLabelMapBonsai(new_capacity, self._ell)
        insert = fresh._insert
        shift = self._shift
        words = self._bits._words
        ones = (1 << self._ell) - 1
        for g, buf in enumerate(self._groups):
            if buf is None:
                continue
            base = g << shift
            live = (words[base >> 6] >> (base & 63)) & ones
            pos = 0
            while live:
                low = live & -live
                old = base + low.bit_length() - 1
                new = remap[old]
                if new < 0:
                    raise CorruptionError(f"id {old} has a record but no new id")
                end = _skip_records(buf, pos, 1)
                try:
                    insert(new, buf[pos:end])
                except ContractViolation:
                    raise CorruptionError(f"two records map to new id {new}") from None
                pos = end
                live ^= low
        self._capacity = fresh._capacity
        self._groups = fresh._groups
        self._bits = fresh._bits

    def iter_items(self):
        for nid in self._bits.iter_set():
            yield nid, self.access(nid)

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self._groups) + self._bits.allocated_bytes
        for buf in self._groups:
            if buf is not None:
                total += sys.getsizeof(buf)
        return total


class SparseLabelMapFK(_LabelMap):
    """Bucketed label map for dense ids assigned in insertion order.

    Ids arrive contiguously, so each new record is appended to the last
    bucket and rank queries need no bitmap.
    """

    def __init__(self, group_size: int) -> None:
        if 64 % group_size:
            raise ContractViolation("group_size must divide 64")
        self._ell = group_size
        self._shift = group_size.bit_length() - 1
        self._groups: list[bytes] = []
        self._count = 0

    def _insert(self, nid: int, record: bytes) -> None:
        if nid != self._count:
            raise ContractViolation(f"dense ids must arrive in order, expected {self._count}")
        g = nid >> self._shift
        if g == len(self._groups):
            self._groups.append(record)
        else:
            self._groups[g] = self._groups[g] + record
        self._count += 1

    def _record(self, nid: int, new_value: int | None = None) -> Payload | None:
        """Decode nid's record, or rewrite it with new_value as its value.

        This is access() when new_value is None and update_value()
        otherwise, so both find records through the same code. One frame:
        ids are dense, so the rank is nid modulo group_size.
        """
        if nid >= self._count:
            if new_value is None:
                return None
            raise ContractViolation(f"id {nid} has no record")
        g = nid >> self._shift
        buf = self._groups[g]
        rank = nid & (self._ell - 1)
        pos = 0
        while rank:
            field = buf[pos]
            if field < 0x80:
                pos += field + 4 if field else 1
            else:
                field, used = vbyte_decode(buf, pos)
                pos += used + field - 1 + 4
            rank -= 1
        field = buf[pos]
        start = pos + 1
        if field >= 0x80:
            field, used = vbyte_decode(buf, pos)
            start = pos + used
        if field == 0:
            if new_value is None:
                return _STEP
            raise ContractViolation("step records carry no value")
        end = start + field - 1
        if new_value is None:
            return _new(Payload, (buf[start:end], int.from_bytes(buf[end:end + 4], "little")))
        self._groups[g] = buf[:end] + new_value.to_bytes(4, "little") + buf[end + 4:]
        return None

    access = _record

    def update_value(self, nid: int, value: int) -> None:
        self._record(nid, value)

    def iter_items(self):
        for nid in range(self._count):
            yield nid, self.access(nid)

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self._groups)
        for buf in self._groups:
            total += sys.getsizeof(buf)
        return total


def make_label_map(config, family: str):
    """Build the label map matching a backend family ('bonsai' or 'fk')."""
    if config.label_map == "plm":
        return PlainLabelMap(config.initial_capacity if family == "bonsai" else 0)
    if family == "bonsai":
        return SparseLabelMapBonsai(config.initial_capacity, config.group_size)
    return SparseLabelMapFK(config.group_size)
