"""Node label maps: node id -> (label suffix, payload value).

Records are immutable, exact-size bytes objects laid out as

    VByte(stored length + 2) | label bytes | 4-byte little-endian value

where the stored label omits the trailing terminator byte. The +2 shift
keeps two one-byte records free: 0x01 is a step node, which carries no
value, and 0x00 marks an id that has no record. Without the shift a step
record would be indistinguishable from a keyword whose remaining suffix is
empty.

One layout serves both of the paper's maps and all four node tables. Ids
are bucketed into groups of group_size consecutive ids, and each group is
one bytes object holding one entry per id, so a record's rank inside its
group is nid mod group_size; locating it skips over its predecessors using
the VByte lengths. The sparse map (slm) takes config.group_size, and the
plain map (plm) is group_size 1, where every group is a single record. A
group no id has written is a shared run of group_size 0x00 bytes, and an
unwritten id inside a written group costs one byte.

Every record is placed through _insert(nid, record), which rebuilds its
group, and an update_value replaces the group with a rebuilt one. The group
list extends when an id lands past its end, so dense ids, which are stable
under growth, need nothing more. Slot ids move when the table doubles:
remap then reads each old group once and re-inserts each record at its new
id into a fresh map.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .core import ContractViolation, CorruptionError
from .hashing import vbyte_decode, vbyte_encode


class Payload(NamedTuple):
    label: bytes  # suffix without the trailing terminator
    value: int | None  # None for step nodes


_STEP = Payload(b"", None)
_new = tuple.__new__  # builds a Payload without NamedTuple.__new__'s frame
_STEP_RECORD = b"\x01"
# the group no id has written yet, one per width, shared by every map
_EMPTY = {1 << i: bytes(1 << i) for i in range(7)}


def _skip_records(buf: bytes, pos: int, count: int) -> int:
    while count:
        field = buf[pos]
        if field < 0x80:
            pos += field + 3 if field > 1 else 1
        else:
            field, used = vbyte_decode(buf, pos)
            pos += used + field + 2
        count -= 1
    return pos


class LabelMap:
    """Label records of group_size consecutive ids per bytes object."""

    def __init__(self, group_size: int) -> None:
        if group_size not in _EMPTY:
            raise ContractViolation("group_size must divide 64")
        self._ell = group_size
        self._shift = group_size.bit_length() - 1
        self._mask = group_size - 1
        self._empty = _EMPTY[group_size]
        self._groups: list[bytes] = []

    def associate(self, nid: int, label: bytes, value: int) -> None:
        self._insert(nid, vbyte_encode(len(label) + 2) + label + value.to_bytes(4, "little"))

    def associate_step(self, nid: int) -> None:
        self._insert(nid, _STEP_RECORD)

    def _insert(self, nid: int, record: bytes) -> None:
        groups = self._groups
        g = nid >> self._shift
        if g >= len(groups):
            groups.extend([self._empty] * (g + 1 - len(groups)))
        buf = groups[g]
        pos = _skip_records(buf, 0, nid & self._mask)
        if buf[pos]:
            raise ContractViolation(f"id {nid} already has a record")
        # at group_size 1 both slices are empty: the group is the record
        groups[g] = buf[:pos] + record + buf[pos + 1:]

    def _record(self, nid: int, new_value: int | None = None) -> Payload | None:
        """Decode nid's record, or rewrite it with new_value as its value.

        This is access() when new_value is None and update_value()
        otherwise, so both find records through the same code in one frame.
        """
        g = nid >> self._shift
        try:
            buf = self._groups[g]
        except IndexError:  # past the last group, which reads as unwritten
            buf = self._empty
        rank = nid & self._mask
        pos = 0
        while rank:
            field = buf[pos]
            if field < 0x80:
                pos += field + 3 if field > 1 else 1
            else:
                field, used = vbyte_decode(buf, pos)
                pos += used + field + 2
            rank -= 1
        field = buf[pos]
        if field < 2:
            if new_value is not None:
                raise ContractViolation(f"id {nid} has no keyword record")
            return _STEP if field else None
        start = pos + 1
        if field >= 0x80:
            field, used = vbyte_decode(buf, pos)
            start = pos + used
        end = start + field - 2
        if new_value is None:
            return _new(Payload, (buf[start:end], int.from_bytes(buf[end:end + 4], "little")))
        self._groups[g] = buf[:end] + new_value.to_bytes(4, "little") + buf[end + 4:]
        return None

    access = _record

    def update_value(self, nid: int, value: int) -> None:
        self._record(nid, value)

    def _spans(self):
        """(id, group, start, end) of every record, in id order."""
        shift, empty = self._shift, self._empty
        for g, buf in enumerate(self._groups):
            if buf is empty:
                continue
            pos = 0
            for nid in range(g << shift, (g + 1) << shift):
                if buf[pos]:
                    end = _skip_records(buf, pos, 1)
                    yield nid, buf, pos, end
                    pos = end
                else:
                    pos += 1

    def remap(self, remap, new_capacity: int) -> None:
        """Move every record to its new id.

        remap is indexed by old id and holds -1 where no node was, as
        _HashTrie._refill builds it. Each old group is read once, and each
        of its records is inserted at its new id into a fresh map, presized
        to the new capacity, whose groups replace this map's only after
        every record has moved. A record with no new id, or two records
        sent to one, is corruption and leaves the map as it was.
        """
        fresh = LabelMap(self._ell)
        fresh._groups = [self._empty] * -(-new_capacity >> self._shift)
        insert = fresh._insert
        for old, buf, pos, end in self._spans():
            new = remap[old]
            if new < 0:
                raise CorruptionError(f"id {old} has a record but no new id")
            try:
                insert(new, buf[pos:end])
            except ContractViolation:
                raise CorruptionError(f"two records map to new id {new}") from None
        self._groups = fresh._groups

    def iter_items(self):
        for nid, buf, pos, end in self._spans():
            if buf[pos] == 1:
                yield nid, _STEP
            else:
                start = pos + vbyte_decode(buf, pos)[1]
                yield nid, Payload(buf[start:end - 4], int.from_bytes(buf[end - 4:end], "little"))

    def memory_bytes(self) -> int:
        # the empty groups and, at group_size 1, the step record are shared
        total = sys.getsizeof(self._groups)
        for buf in self._groups:
            if buf is not self._empty and buf is not _STEP_RECORD:
                total += sys.getsizeof(buf)
        return total


def make_label_map(config) -> LabelMap:
    """plm is the one-record-per-group case of the sparse map."""
    return LabelMap(1 if config.label_map == "plm" else config.group_size)
