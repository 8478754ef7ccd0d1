"""Node label maps: node id -> (label suffix, payload value).

Records are byte buffers laid out as

    VByte(stored length + 1) | label bytes | 4-byte little-endian value

where the stored label omits the trailing terminator byte. The +1 shift
keeps a field value of 0 free to mark step nodes, whose records are the
single byte 0x00 and carry no value. Without the shift a step record would
be indistinguishable from a keyword whose remaining suffix is empty.

Two layouts are provided. The plain map holds one buffer reference per node
id. The sparse map packs records for a bucket of group_size consecutive ids
into one shared buffer; locating a record skips over its predecessors using
the VByte lengths. Slot-addressed backends pair the sparse map with an
occupancy bitmap and rank queries, while dense-id backends allocate ids
contiguously so the rank is just id modulo group_size.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .bitarrays import BitVector
from .core import NO_VALUE, ContractViolation, CorruptionError
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


def _check_new(existing) -> None:
    if existing is not None:
        raise ContractViolation("id already has a record")


class PlainLabelMap:
    """One owned buffer per node id, indexed by a reference table."""

    def __init__(self, capacity: int) -> None:
        self._refs: list[bytearray | None] = [None] * capacity

    def associate(self, nid: int, label: bytes, value: int) -> None:
        _check_new(self._refs[nid])
        self._refs[nid] = bytearray(_encode_record(label, value))

    def associate_step(self, nid: int) -> None:
        _check_new(self._refs[nid])
        self._refs[nid] = bytearray(_STEP_RECORD)

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
        return _new(Payload, (bytes(buf[start:end]), int.from_bytes(buf[end:end + 4], "little")))

    def update_value(self, nid: int, value: int) -> None:
        buf = self._refs[nid]
        if buf is None or len(buf) < 4:
            raise ContractViolation(f"id {nid} has no keyword record")
        buf[-4:] = value.to_bytes(4, "little")

    def remap(self, old_to_new: dict[int, int], new_capacity: int) -> None:
        refs = self._refs
        moved: list[bytearray | None] = [None] * new_capacity
        for old, new in old_to_new.items():
            moved[new] = refs[old]
        self._refs = moved

    def ensure_capacity(self, capacity: int) -> None:
        if capacity > len(self._refs):
            self._refs.extend([None] * (capacity - len(self._refs)))

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


class SparseLabelMapBonsai:
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
        self._groups: list[bytearray | None] = [None] * (capacity >> self._shift)
        self._bits = BitVector(capacity)

    def _insert(self, nid: int, record: bytes) -> None:
        if self._bits.get(nid):
            raise ContractViolation("id already has a record")
        g = nid >> self._shift
        base = g << self._shift
        buf = self._groups[g]
        if buf is None:
            self._groups[g] = bytearray(record)
        else:
            chunk = self._bits.chunk(base, self._ell)
            before = (chunk & ((1 << (nid - base)) - 1)).bit_count()
            pos = _skip_records(buf, 0, before)
            # splice by rebuilding: records never straddle bucket buffers
            self._groups[g] = bytearray(b"".join((bytes(buf[:pos]), record, bytes(buf[pos:]))))
        self._bits.set_true(nid)

    def associate(self, nid: int, label: bytes, value: int) -> None:
        self._insert(nid, _encode_record(label, value))

    def associate_step(self, nid: int) -> None:
        self._insert(nid, _STEP_RECORD)

    def _record(self, nid: int, new_value: int | None = None) -> Payload | None:
        """Decode nid's record, or overwrite its value with new_value.

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
        buf = self._groups[nid >> self._shift]
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
            return _new(Payload, (bytes(buf[start:end]), int.from_bytes(buf[end:end + 4], "little")))
        buf[end:end + 4] = new_value.to_bytes(4, "little")
        return None

    access = _record

    def update_value(self, nid: int, value: int) -> None:
        self._record(nid, value)

    def remap(self, old_to_new: dict[int, int], new_capacity: int) -> None:
        records = []
        ell = self._ell
        bits = self._bits
        for g, buf in enumerate(self._groups):
            if buf is None:
                continue
            base = g << self._shift
            chunk = bits.chunk(base, ell)
            pos = 0
            while chunk:
                low = chunk & -chunk
                end = _skip_records(buf, pos, 1)
                records.append((old_to_new[base + low.bit_length() - 1], bytes(buf[pos:end])))
                pos = end
                chunk ^= low
        self._capacity = new_capacity
        self._groups = [None] * (new_capacity >> self._shift)
        self._bits = BitVector(new_capacity)
        for nid, record in records:
            self._insert(nid, record)

    def iter_items(self):
        for nid in self._bits.iter_set():
            yield nid, self.access(nid)

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self._groups) + self._bits.allocated_bytes
        for buf in self._groups:
            if buf is not None:
                total += sys.getsizeof(buf)
        return total


class SparseLabelMapFK:
    """Bucketed label map for dense ids assigned in insertion order.

    Ids arrive contiguously, so each new record is appended to the last
    bucket and rank queries need no bitmap.
    """

    def __init__(self, group_size: int) -> None:
        if 64 % group_size:
            raise ContractViolation("group_size must divide 64")
        self._ell = group_size
        self._shift = group_size.bit_length() - 1
        self._groups: list[bytearray] = []
        self._count = 0

    def _append(self, nid: int, record: bytes) -> None:
        if nid != self._count:
            raise ContractViolation(f"dense ids must arrive in order, expected {self._count}")
        g = nid >> self._shift
        if g == len(self._groups):
            self._groups.append(bytearray(record))
        else:
            self._groups[g] += record
        self._count += 1

    def associate(self, nid: int, label: bytes, value: int) -> None:
        self._append(nid, _encode_record(label, value))

    def associate_step(self, nid: int) -> None:
        self._append(nid, _STEP_RECORD)

    def _record(self, nid: int, new_value: int | None = None) -> Payload | None:
        """Decode nid's record, or overwrite its value with new_value.

        This is access() when new_value is None and update_value()
        otherwise, so both find records through the same code. One frame:
        ids are dense, so the rank is nid modulo group_size.
        """
        if nid >= self._count:
            if new_value is None:
                return None
            raise ContractViolation(f"id {nid} has no record")
        buf = self._groups[nid >> self._shift]
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
            return _new(Payload, (bytes(buf[start:end]), int.from_bytes(buf[end:end + 4], "little")))
        buf[end:end + 4] = new_value.to_bytes(4, "little")
        return None

    access = _record

    def update_value(self, nid: int, value: int) -> None:
        self._record(nid, value)

    def ensure_capacity(self, capacity: int) -> None:
        pass  # buckets extend on demand

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
        return PlainLabelMap(config.initial_capacity)
    if family == "bonsai":
        return SparseLabelMapBonsai(config.initial_capacity, config.group_size)
    return SparseLabelMapFK(config.group_size)
