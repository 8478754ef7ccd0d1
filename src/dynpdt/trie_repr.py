"""Hash-table trie backends.

A trie is stored as a closed hash table over packed edge keys
``key = parent_id * symbol_space + edge_code`` with linear probing. Four
interchangeable layouts implement the same contract:

* ``pbt``  stores packed keys verbatim; node ids are slot indices.
* ``cbt``  stores only the key's quotient under an invertible transform,
  plus a 4-bit probe displacement per slot whose large values escape to
  a side map (the m-Bonsai layout); node ids are slot indices.
* ``pfkt`` / ``cfkt`` wrap the two layouts above with a dense id space:
  ids are assigned in creation order and survive growth unchanged, held
  in one slot-to-id array.

One multiply by the golden-ratio constant homes every node table. All
four home key k at the high bits of hv = BijectiveTransform.forward(k),
which truncates the constant to the key's width; the compact layouts store
hv's low symbol_bits as the quotient. So ``pbt`` and ``cbt`` put every node
in the same slot, as do ``pfkt`` and ``cfkt``.

All four grow through ``_HashTrie._grow``, which refills an empty larger
table through the layout's placement and key-decoding hooks, never probing
the old one. Slot ids move, so the slot-id layouts relocate nodes top-down,
placing the slots each climb recorded under their parents' new slots, and
hand ``on_grow`` the old-to-new id map so label storage can follow: one
flat ``array("q")`` indexed by old slot, -1 at vacant slots, so a doubling
holds no Python object per node. Dense ids stay, so the dense-id layouts
rehash every key and pass None.

Every node table marks a vacant slot with an all-ones entry: in the key
array of the plain layouts, in the 4-bit displacement array of the compact
ones. There nibble 15 is vacant, 0-13 are the displacement itself and 14
escapes: the displacement is then held in one small map from slot id to
displacement, SpillTable, searched by bisection.

The per-node hooks (placement, key decoding, id claims, the slot scan and
the refills) read and write the packed IntVector words in place, with no
method call per entry, and each write is one bit operation on the words
the entry spans. Two facts make that so. A vacant key or nibble entry is
all ones, so the stored value goes in with an XOR against all ones. Slots
are never freed, so the quotient or id entry of a slot not yet placed is
still zero and the value goes in with an OR. Only an escaped displacement
goes through the map; IntVector.get and set serve the cold paths.

Parent links serve only enumeration: ``parent_keys`` reads every node's
packed key, indexed by node id, in one pass over the used slots.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from time import perf_counter_ns

from .bitarrays import IntVector
from .core import (
    MAX_CAPACITY,
    Config,
    ContractViolation,
    CorruptionError,
    ResourceExhausted,
)
from .hashing import BijectiveTransform

_VACANT = (1 << 4) - 1                 # the nibble of an empty slot
_SMALL_ESCAPE = _VACANT - 1            # displacement >= 14 leaves the 4-bit array
_MID_LIMIT = _SMALL_ESCAPE + (1 << 7)  # m-Bonsai's mid/spill tier boundary
_WORD = (1 << 64) - 1


class SpillTable:
    """Map from slot ids to the rare escaped displacements.

    Two parallel sequences kept in slot order, the ids and one byte per
    value, so a lookup is one binary search and an insert shifts the tail
    of both. A value of 255 or more stores the byte 255 and goes whole into
    a third array, at the rank of that byte among the 255s: such values
    come only from long clusters near full load, too few to widen every
    value for.
    """

    __slots__ = ("_keys", "_vals", "_wide")

    def __init__(self, key_bits: int) -> None:
        code = "I" if key_bits <= 32 else "Q"
        self._keys = array(code)
        self._vals = bytearray()
        self._wide = array(code)

    def insert(self, key: int, value: int) -> None:
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            raise ContractViolation("key already present")
        if value >= 255:
            self._wide.insert(self._vals.count(255, 0, i), value)
            value = 255
        keys.insert(i, key)
        self._vals.insert(i, value)

    def get(self, key: int) -> int:
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            v = self._vals[i]
            return v if v < 255 else self._wide[self._vals.count(255, 0, i)]
        raise CorruptionError(f"slot {key} escaped with no overflow entry")

    def __len__(self) -> int:
        return len(self._keys)

    # the sizes m-Bonsai's mid and spill tiers would have; the benchmark
    # trace still reports them
    @property
    def mid_count(self) -> int:
        return sum(1 for v in self._vals if v < _MID_LIMIT)

    @property
    def spill_count(self) -> int:
        return sum(1 for v in self._vals if v >= _MID_LIMIT)

    def memory_bytes(self) -> int:
        return (sys.getsizeof(self._keys) + sys.getsizeof(self._vals) +
                sys.getsizeof(self._wide))


class _HashTrie:
    """Shared shell: capacity bookkeeping, growth, id plumbing.

    Each layout supplies the storage hooks: ``_init_storage`` allocates an
    empty table and points ``_marks`` at the vector whose all-ones entries
    mark its vacant slots, ``_place(k)`` stores packed key k and returns its
    slot, ``_find_slot(u, c)`` returns the slot holding edge (u, c) or None
    and underlies ``getchild``, ``_slot_key(j)`` decodes the key stored at
    slot j, and ``_node_at(j)`` names the node at slot j. growth_ns sums
    the wall time of the doublings done so far.
    """

    def __init__(self, config: Config, on_grow=None) -> None:
        self._sym_bits = config.symbol_bits
        self._sym_space = config.symbol_space
        self._root_key = config.symbol_space - 1  # reserved code, never a real edge
        self.on_grow = on_grow
        self.growth_events = 0
        self.growth_ns = 0
        self._init_storage(config.initial_capacity)
        root_slot = self._place(self._root_key)
        self.node_count = 1
        self.root_id = self._claim_child(root_slot)

    def _init_storage(self, capacity: int) -> None:
        cap_bits = capacity.bit_length() - 1
        if cap_bits + self._sym_bits > 64:
            raise ResourceExhausted("packed keys would exceed 64 bits")
        self.capacity = capacity
        self._cap_bits = cap_bits
        self._cap_mask = capacity - 1
        self._tf = BijectiveTransform(cap_bits + self._sym_bits)

    def _claim_child(self, slot: int) -> int:
        return slot

    def _node_at(self, j: int) -> int:
        return j

    def _used_slots(self):
        """The occupied slots, in increasing order."""
        marks = self._marks  # IntVector.get, inlined
        words = marks._words
        width = marks.width
        vacant = marks._mask
        bit = 0
        for j in range(self.capacity):
            w = bit >> 6
            off = bit & 63
            h = words[w] >> off
            if off + width > 64:
                h |= words[w + 1] << (64 - off)
            if h & vacant != vacant:
                yield j
            bit += width

    # contract surface ----------------------------------------------
    def addchild(self, u: int, c: int) -> int:
        """Create the child of u along edge code c and return its id.

        The caller guarantees no such child exists. May grow the table
        first; slot-addressed ids are then remapped, including u.
        """
        u = self.reserve(u, 1)
        slot = self._place((u << self._sym_bits) | c)
        self.node_count += 1
        return self._claim_child(slot)

    def reserve(self, u: int, extra: int) -> int:
        """Make room for extra more nodes; returns u's id afterwards.

        Grows the table in one refill to the smallest doubling that keeps
        the load <= 0.9, or raises and leaves it as it was.
        """
        capacity = self.capacity
        while 10 * (self.node_count + extra) > 9 * capacity:
            capacity *= 2
        if capacity == self.capacity:
            return u
        remap = self._grow(capacity)
        return u if remap is None else remap[u]

    def parent_keys(self) -> array:
        """Every node's packed key (parent << symbol_bits) | code, by node id.

        One pass over the used slots fills an array("Q") of capacity
        entries. The root, and every id no node holds, reads the reserved
        root key. The array is a snapshot: it goes stale on the next
        addchild, and a doubling renumbers the slot-addressed ids.
        """
        keys = array("Q", [self._root_key]) * self.capacity
        node_at = self._node_at
        slot_key = self._slot_key
        for j in self._used_slots():
            keys[node_at(j)] = slot_key(j)
        return keys

    # growth ----------------------------------------------------------
    def _grow(self, capacity: int):
        """Refill the table at a larger capacity; returns the id remap or None."""
        if capacity > MAX_CAPACITY:
            raise ResourceExhausted(f"table would exceed {MAX_CAPACITY} slots")
        t0 = perf_counter_ns()
        # build the new storage on a bare instance, then move it over
        # attribute by attribute: reading self.__dict__ (as copy() would)
        # makes CPython 3.11 take its slower lookup for self's attributes
        new = object.__new__(type(self))
        new._sym_bits = self._sym_bits
        new._init_storage(capacity)
        remap = self._refill(new)
        for name, value in vars(new).items():
            setattr(self, name, value)
        self.growth_events += 1
        if self.on_grow is not None:
            self.on_grow(remap, capacity)
        self.growth_ns += perf_counter_ns() - t0
        return remap

    def _refill(self, new) -> array:
        """Relocate every node top-down into new; returns the id remap.

        The remap is an array("q") indexed by old slot holding each node's
        new slot, and -1 at the slots no node used. Scan the slots left to
        right. From each unmoved node, climb to its nearest relocated
        ancestor recording each slot and its edge code, then walk back down,
        placing each recorded edge in new under the parent's new slot. The
        remap doubles as the relocated set: remap[u] >= 0 once u has moved.
        """
        zs = self._sym_bits
        sym_mask = self._sym_space - 1
        place = new._place
        slot_key = self._slot_key
        new.root_id = place(self._root_key)
        remap = array("q", [-1]) * self.capacity
        remap[self.root_id] = new.root_id
        moved = 0
        for i in self._used_slots():
            if remap[i] >= 0:
                continue
            path = []
            u = i
            while remap[u] < 0:
                k = slot_key(u)
                path.append((u, k & sym_mask))
                u = k >> zs
            nu = remap[u]
            while path:
                j, c = path.pop()
                nu = remap[j] = place((nu << zs) | c)
                moved += 1
        if moved != self.node_count - 1:
            raise CorruptionError("relocation did not visit every node exactly once")
        return remap


class PlainBonsaiTrie(_HashTrie):
    """Packed keys stored verbatim; ids are slots, remapped on growth."""

    def _init_storage(self, capacity: int) -> None:
        super()._init_storage(capacity)
        width = self._cap_bits + self._sym_bits
        self._table = self._marks = IntVector(width, capacity, fill_ones=True)

    def _place(self, k: int) -> int:
        # forward() and the entry reads are inlined; k goes into the
        # all-ones vacant entry with one XOR per word it spans
        mask = self._cap_mask
        j = (k * self._tf._mult >> self._sym_bits) & mask
        table = self._table
        words = table._words
        width = table.width
        vacant = table._mask
        while True:
            bit = j * width
            w = bit >> 6
            off = bit & 63
            h = words[w] >> off
            if off + width > 64:
                h |= words[w + 1] << (64 - off)
            if h & vacant == vacant:
                break
            j = (j + 1) & mask
        flip = (k ^ vacant) << off
        words[w] ^= flip & _WORD
        if off + width > 64:
            words[w + 1] ^= flip >> 64
        return j

    def _find_slot(self, u: int, c: int) -> int | None:
        # one frame: BijectiveTransform.forward and IntVector.get are inlined
        zs = self._sym_bits
        k = (u << zs) | c
        mask = self._cap_mask
        j = (k * self._tf._mult >> zs) & mask
        table = self._table
        words = table._words
        width = table.width
        vacant = table._mask  # also the entry mask
        while True:
            bit = j * width
            w = bit >> 6
            off = bit & 63
            h = words[w] >> off
            if off + width > 64:
                h |= words[w + 1] << (64 - off)
            h &= vacant
            if h == k:
                return j
            if h == vacant:
                return None
            j = (j + 1) & mask

    getchild = _find_slot

    def _slot_key(self, j: int) -> int:
        table = self._table  # IntVector.get, inlined
        words = table._words
        width = table.width
        bit = j * width
        w = bit >> 6
        off = bit & 63
        k = words[w] >> off
        if off + width > 64:
            k |= words[w + 1] << (64 - off)
        return k & table._mask

    def memory_bytes(self) -> int:
        return self._table.allocated_bytes


class CompactBonsaiTrie(_HashTrie):
    """Quotient-only key storage: 4-bit displacements, escapes in one map."""

    def _init_storage(self, capacity: int) -> None:
        super()._init_storage(capacity)
        self._quot = IntVector(self._sym_bits, capacity)
        self._marks = IntVector(4, capacity, fill_ones=True)
        self._disp = SpillTable(self._cap_bits)

    def _place(self, k: int) -> int:
        # forward() and the nibble reads are inlined; the quotient goes into
        # its zero entry with an OR, the displacement, or the escape value
        # for one the map holds, into its all-ones nibble with an XOR
        hv = k * self._tf._mult
        zs = self._sym_bits
        mask = self._cap_mask
        i = (hv >> zs) & mask
        nibbles = self._marks._words
        j = i
        while (nibbles[j >> 4] >> ((j & 15) << 2)) & 15 != _VACANT:
            j = (j + 1) & mask
        quot = self._quot
        width = quot.width
        bit = j * width
        w = bit >> 6
        off = bit & 63
        q = (hv & quot._mask) << off
        qwords = quot._words
        qwords[w] |= q & _WORD
        if off + width > 64:
            qwords[w + 1] |= q >> 64
        d = (j - i) & mask
        if d >= _SMALL_ESCAPE:
            self._disp.insert(j, d)
            d = _SMALL_ESCAPE
        nibbles[j >> 4] ^= (_VACANT ^ d) << ((j & 15) << 2)
        return j

    def _find_slot(self, u: int, c: int) -> int | None:
        # one frame: BijectiveTransform.forward and the quotient and 4-bit
        # displacement reads are inlined; only an escaped displacement is
        # read from the map
        zs = self._sym_bits
        quot = self._quot
        qmask = quot._mask
        hv = ((u << zs) | c) * self._tf._mult
        mask = self._cap_mask
        j = (hv >> zs) & mask
        q = hv & qmask
        qwords = quot._words
        width = quot.width
        disp = self._disp
        nibbles = self._marks._words
        vacant = _VACANT
        esc = _SMALL_ESCAPE
        d = 0
        while (nib := (nibbles[j >> 4] >> ((j & 15) << 2)) & 15) != vacant:
            # below the escape value the nibble is the displacement itself;
            # at it, the displacement is some d >= 14 held in the map
            if nib == d or nib == esc <= d:
                bit = j * width
                w = bit >> 6
                off = bit & 63
                v = qwords[w] >> off
                if off + width > 64:
                    v |= qwords[w + 1] << (64 - off)
                if v & qmask == q and (nib < esc or disp.get(j) == d):
                    return j
            j = (j + 1) & mask
            d += 1
        return None

    getchild = _find_slot

    def _slot_key(self, j: int) -> int:
        # the nibble and quotient reads and BijectiveTransform.inverse are
        # inlined; only an escaped displacement is read from the map
        d = (self._marks._words[j >> 4] >> ((j & 15) << 2)) & 15
        if d >= _SMALL_ESCAPE:
            d = self._disp.get(j)
        quot = self._quot
        words = quot._words
        width = quot.width
        bit = j * width
        w = bit >> 6
        off = bit & 63
        q = words[w] >> off
        if off + width > 64:
            q |= words[w + 1] << (64 - off)
        tf = self._tf
        i = (j - d) & self._cap_mask
        return ((i << self._sym_bits) | (q & quot._mask)) * tf._mult_inv & tf._mask

    def memory_bytes(self) -> int:
        return (self._quot.allocated_bytes + self._marks.allocated_bytes +
                self._disp.memory_bytes())


class _DenseIdMixin:
    """Dense creation-order ids held in one slot-to-id array.

    The array answers getchild and keeps ids stable while slots move under
    growth; parent_keys reads it slot by slot, so it has no inverse.
    """

    def _init_storage(self, capacity: int) -> None:
        super()._init_storage(capacity)
        self._ids = IntVector(self._cap_bits, capacity)

    def _claim_child(self, slot: int) -> int:
        # the new id's entry was never written, so it is still zero: the
        # write is an OR per word the entry spans
        nid = self.node_count - 1
        ids = self._ids
        width = ids.width
        bit = slot * width
        w = bit >> 6
        off = bit & 63
        v = nid << off
        words = ids._words
        words[w] |= v & _WORD
        if off + width > 64:
            words[w + 1] |= v >> 64
        return nid

    def getchild(self, u: int, c: int) -> int | None:
        j = self._find_slot(u, c)
        if j is None:
            return None
        ids = self._ids  # IntVector.get, inlined
        width = ids.width
        bit = j * width
        w = bit >> 6
        off = bit & 63
        v = ids._words[w] >> off
        if off + width > 64:
            v |= ids._words[w + 1] << (64 - off)
        return v & ids._mask

    def _node_at(self, j: int) -> int:
        return self._ids.get(j)

    def _refill(self, new) -> None:
        """Rehash every key into new in slot order; ids stay, so no remap."""
        place = new._place
        slot_key = self._slot_key
        old = self._ids  # IntVector.get, inlined, and the zero-entry OR
        old_words = old._words
        old_width = old.width
        id_mask = old._mask
        words = new._ids._words
        width = new._ids.width
        for j in self._used_slots():
            bit = j * old_width
            w = bit >> 6
            off = bit & 63
            nid = old_words[w] >> off
            if off + old_width > 64:
                nid |= old_words[w + 1] << (64 - off)
            bit = place(slot_key(j)) * width
            w = bit >> 6
            off = bit & 63
            v = (nid & id_mask) << off
            words[w] |= v & _WORD
            if off + width > 64:
                words[w + 1] |= v >> 64

    def memory_bytes(self) -> int:
        return super().memory_bytes() + self._ids.allocated_bytes


class PlainFKTrie(_DenseIdMixin, PlainBonsaiTrie):
    """Verbatim key table plus growth-stable dense node ids."""


class CompactFKTrie(_DenseIdMixin, CompactBonsaiTrie):
    """Quotiented key table plus growth-stable dense node ids."""


_BACKENDS = {
    "pbt": PlainBonsaiTrie,
    "cbt": CompactBonsaiTrie,
    "pfkt": PlainFKTrie,
    "cfkt": CompactFKTrie,
}


def make_backend(config: Config, on_grow=None):
    return _BACKENDS[config.trie_repr](config, on_grow)
