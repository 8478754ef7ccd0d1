"""Node label maps: node id -> (label suffix, payload value).

One layout serves both of the paper's maps and all four node tables. Ids
are bucketed into groups of group_size consecutive ids, and each group is
one immutable, exact-size bytes object laid out lengths first:

    one code byte per id | the payloads of the ids that have one, in id order

Code 0 marks an id with no record and 1 a step node, which carries no
value; neither has a payload. A keyword's payload is its label, stored
without the trailing terminator byte, then its value in 4 little-endian
bytes, and its code is the payload's size: 4-254, for labels of up to 250
bytes. A longer label takes the escape code 255, and its payload starts
with the label length in VByte. An empty label is code 4, so it is never
mistaken for a step.

A record's rank inside its group is nid mod group_size, and with h the
codes before it, buf[:rank], its payload starts at
group_size + sum(h) - h.count(1): two passes in C. Only a group with an
escape among those codes steps over its payloads one by one. The sparse map
(slm) takes config.group_size, and the plain map (plm) is group_size 1,
where a group is a single record, its code and then its payload. A group
no id has written is a shared run of zero codes, an unwritten id inside a
written group costs its code byte, and at group_size 1 every step node
shares one b"\\x01" group.

The trie walk asks match() whether a node's label equals the rest of the
keyword and gets the value or the first differing byte, with no label or
Payload built; access() decodes a whole record for everything else. A
non-empty label whose first byte differs from the keyword's next byte is
answered from that byte alone, before any slice: no label starts with the
0x00 terminator, so this also decides an empty rest of the keyword.

Every record is placed through _insert(nid, record), which takes it in its
one-id form, code then payload, and rebuilds its group around it; at group
size 1 the record becomes the group as it is. An update_value replaces the
group with a rebuilt one. The group list extends when an id lands past its
end, so dense ids, which are stable under growth, need nothing more. Slot
ids move when the table doubles: remap then reads each old group once and
re-inserts each record at its new id into a fresh map, which at group size
1 moves each group object itself.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .core import ContractViolation, CorruptionError


class Payload(NamedTuple):
    label: bytes  # suffix without the trailing terminator
    value: int | None  # None for step nodes


_STEP = Payload(b"", None)
_STEP_RECORD = b"\x01"
_ESCAPE = 255  # the code of a label too long for a one-byte size
_LONG = _ESCAPE - 4  # the shortest label that takes the escape
# the group no id has written yet, one per width, shared by every map
_EMPTY = {1 << i: bytes(1 << i) for i in range(7)}


def vbyte_encode(n: int) -> bytes:
    """Encode a non-negative integer, 7 data bits per byte, low group first.

    The high bit of each byte marks continuation. 0 encodes as a single
    0x00 byte.
    """
    if n < 0:
        raise ContractViolation("vbyte encodes non-negative integers only")
    out = bytearray()
    while n >= 0x80:
        out.append(0x80 | (n & 0x7F))
        n >>= 7
    out.append(n)
    return bytes(out)


def vbyte_decode(buf, offset: int = 0) -> tuple[int, int]:
    """Decode one integer from buf at offset. Returns (value, bytes consumed)."""
    n = 0
    shift = 0
    pos = offset
    end = len(buf)
    while True:
        if pos >= end:
            raise CorruptionError("vbyte ran past the end of the buffer")
        b = buf[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if b < 0x80:
            return n, pos - offset
        shift += 7


def _payload_start(buf: bytes, ell: int, rank: int) -> int:
    """Offset of the payload of the id at rank in group buf of width ell."""
    if not rank:
        return ell
    h = buf[:rank]
    if _ESCAPE not in h:
        return ell + sum(h) - h.count(1)
    pos = ell
    for code in h:
        if code == _ESCAPE:
            m, used = vbyte_decode(buf, pos)
            pos += used + m + 4
        elif code > 1:
            pos += code
    return pos


def _label_span(buf: bytes, code: int, start: int) -> tuple[int, int]:
    """(start, end) of the label in the keyword payload at start."""
    if code == _ESCAPE:
        m, used = vbyte_decode(buf, start)
        return start + used, start + used + m
    return start, start + code - 4


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
        # the group count remap sized the list to; past it, the last group
        # always holds a record
        self._floor = 0

    def associate(self, nid: int, label: bytes, value: int) -> None:
        m = len(label)
        code = bytes((m + 4,)) if m < _LONG else bytes((_ESCAPE,)) + vbyte_encode(m)
        self._insert(nid, code + label + value.to_bytes(4, "little"))

    def associate_step(self, nid: int) -> None:
        self._insert(nid, _STEP_RECORD)

    def drop_step(self, nid: int) -> None:
        """Remove nid's step record, if it has one, by zeroing its code byte.

        Trailing groups left with no record go, down to the size remap
        gave the list, so dropping the newest records restores the list
        they were added to.
        """
        groups = self._groups
        g = nid >> self._shift
        rank = nid & self._mask
        if g >= len(groups) or groups[g][rank] != 1:
            return
        buf = groups[g][:rank] + b"\x00" + groups[g][rank + 1:]
        groups[g] = self._empty if buf == self._empty else buf
        while len(groups) > self._floor and groups[-1] is self._empty:
            groups.pop()

    def _insert(self, nid: int, record: bytes) -> None:
        groups = self._groups
        g = nid >> self._shift
        if g >= len(groups):
            groups.extend([self._empty] * (g + 1 - len(groups)))
        buf = groups[g]
        rank = nid & self._mask
        if buf[rank]:
            raise ContractViolation(f"id {nid} already has a record")
        if self._ell == 1:  # the record is the group, shared or moved as it is
            groups[g] = record
            return
        start = _payload_start(buf, self._ell, rank)
        groups[g] = b"".join((buf[:rank], record[:1], buf[rank + 1:start],
                              record[1:], buf[start:]))

    def access(self, nid: int) -> Payload | None:
        """nid's record decoded: a Payload, _STEP for a step, None for no record."""
        try:
            buf = self._groups[nid >> self._shift]
        except IndexError:  # past the last group, which reads as unwritten
            return None
        rank = nid & self._mask
        code = buf[rank]
        if code < 2:
            return _STEP if code else None
        start, end = _label_span(buf, code, _payload_start(buf, self._ell, rank))
        return Payload(buf[start:end], int.from_bytes(buf[end:end + 4], "little"))

    def update_value(self, nid: int, value: int) -> None:
        """Rewrite the value of nid's keyword record; its group is rebuilt."""
        g = nid >> self._shift
        groups = self._groups
        buf = groups[g] if g < len(groups) else self._empty
        rank = nid & self._mask
        code = buf[rank]
        if code < 2:
            raise ContractViolation(f"id {nid} has no keyword record")
        end = _label_span(buf, code, _payload_start(buf, self._ell, rank))[1]
        groups[g] = buf[:end] + value.to_bytes(4, "little") + buf[end + 4:]

    def match(self, nid: int, s: bytes, pos: int, n: int) -> int | None:
        """Compare nid's label with s[pos:n] in place, where s[n] ends s.

        Returns the stored value (NO_VALUE included) when they are equal,
        ~i when s[i] is the first byte at which s[pos:] and the terminated
        label differ, and None when nid has no keyword record. Only a match
        decodes the value. A non-empty label that differs from s at s[pos]
        returns ~pos from that one byte; the rest are compared whole. This
        is the trie walk's one call per labeled node, so the rank skip of
        _payload_start is inlined.
        """
        try:
            buf = self._groups[nid >> self._shift]
        except IndexError:  # past the last group, which reads as unwritten
            return None
        rank = nid & self._mask
        code = buf[rank]
        if code < 2:
            return None
        start = self._ell
        if rank:
            h = buf[:rank]
            if _ESCAPE in h:
                start = _payload_start(buf, start, rank)
            else:
                start += sum(h) - h.count(1)
        if code == _ESCAPE:
            m, used = vbyte_decode(buf, start)
            start += used
        else:
            m = code - 4
        # a non-empty label never starts with 0x00, the byte at s[n], so a
        # differing first byte decides a mismatch, an empty residual included
        if m and s[pos] != buf[start]:
            return ~pos
        end = start + m
        r = n - pos
        if m == r and s.startswith(buf[start:end], pos):
            return int.from_bytes(buf[end:end + 4], "little")
        # the label is stored without its terminator, so when the common
        # window matches the strings diverge where the shorter one ends
        w = m if m <= r else r + 1
        x = int.from_bytes(s[pos:pos + w], "big") ^ int.from_bytes(buf[start:start + w], "big")
        if x:
            return ~(pos + w - ((x.bit_length() + 7) >> 3))
        if m < r:
            return ~(pos + m)
        raise CorruptionError("terminated strings cannot nest")

    def _records(self):
        """(id, record) of every record in id order, each in its one-id form.

        At group_size 1 the record is the group object itself.
        """
        ell, shift, empty = self._ell, self._shift, self._empty
        for g, buf in enumerate(self._groups):
            if buf is empty:
                continue
            if ell == 1:
                yield g, buf
                continue
            pos = ell
            for rank, code in enumerate(buf[:ell]):
                if code == 1:
                    yield (g << shift) + rank, _STEP_RECORD
                elif code:
                    end = pos + code if code != _ESCAPE else _label_span(buf, code, pos)[1] + 4
                    yield (g << shift) + rank, buf[rank:rank + 1] + buf[pos:end]
                    pos = end

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
        for old, record in self._records():
            new = remap[old]
            if new < 0:
                raise CorruptionError(f"id {old} has a record but no new id")
            try:
                insert(new, record)
            except ContractViolation:
                raise CorruptionError(f"two records map to new id {new}") from None
        self._groups = fresh._groups
        self._floor = len(fresh._groups)

    def iter_items(self):
        for nid, record in self._records():
            code = record[0]
            if code == 1:
                yield nid, _STEP
            else:
                start, end = _label_span(record, code, 1)
                yield nid, Payload(record[start:end], int.from_bytes(record[end:], "little"))

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
