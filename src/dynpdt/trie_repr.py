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

This module defines what the node tables store. One multiply by the
golden-ratio constant homes every table: golden_multipliers(w) truncates
the constant to the key width w, and all four layouts home key k at the
high bits of hv = k * m mod 2**w; the compact layouts store hv's low
symbol_bits as the quotient, and multiplying by the inverse recovers k. So
``pbt`` and ``cbt`` put every node in the same slot, as do ``pfkt`` and
``cfkt``.

All four grow through ``_HashTrie._grow``, which refills an empty larger
table through the layout's placement and key-decoding hooks, never probing
the old one. Slot ids move, so the slot-id layouts relocate nodes top-down,
placing the slots each climb recorded under their parents' new slots, and
hand ``on_grow`` the old-to-new id map so label storage can follow: one
flat ``array("q")`` indexed by old slot, -1 at vacant slots, so a doubling
holds no Python object per node. Dense ids stay, so the dense-id layouts
rehash every key and pass None. ``on_grow`` runs before the new storage
replaces the old, so a doubling that raises leaves the table as it was.

Every node table marks a vacant slot with an all-ones entry: in the key
array of the plain layouts, in the 4-bit displacement array of the compact
ones. There nibble 15 is vacant, 0-13 are the displacement itself and 14
escapes: the displacement is then held in one small map, SpillTable,
written before any word of the placement and searched by bisection both
from the slot and from the home slot it is the displacement from.

Every table is built of ``array("Q")`` words holding fixed-width entries
packed low bit first: entry i spans bits [i * width, (i + 1) * width) and
may straddle two words. Widths and masks come from the table's geometry: a
plain key is cap_bits + symbol_bits wide, a quotient symbol_bits, a nibble
4 and a dense id cap_bits. The per-node hooks (placement, key decoding, id
claims, the slot scan and the refills) read and write those words in
place, with no method call per entry, and each write is one bit operation
on the words the entry spans. Two facts make that so. A vacant key or
nibble entry is all ones, so the stored value goes in with an XOR against
all ones. Slots are never freed, so the quotient or id entry of a slot not
yet placed is still zero and the value goes in with an OR. Only an escaped
displacement goes through the map.

A search runs in two gears. Its first probes read one entry per slot,
which is all most successful searches need: a trie walk's hits take 1.02
to 1.05 probes on average. A failed search scans its whole cluster, and
near the 0.9 load cap clusters run to hundreds of slots. A scan still
going at displacement 14 changes gear there.

The compact layouts ask the map. A key 14 or more slots from its home
can only sit at an escaped slot, and the map lists the escaped
displacements homed at each slot, so the search reads the quotients of
those slots alone: the key is present exactly when one of them matches.
A search that fails there still records the first vacant slot, found by
reading the nibbles as runs (below).

The plain layouts read the rest of the cluster as runs of up to 64 slots,
each one int built from the words the run spans, stopping at the table's
last slot and resuming at slot 0. Entries equal to some value v are the
zero fields of the run XORed with v repeated, found together by the test
(x - low) & ~x & high. Its lowest set bit is exact and the bits above it
may be borrows, so a run yields only the first vacant entry and the first
entry equal to the packed key. The compact nibble runs find the first
vacant nibble the same way. The answers, the slot a failed search records
and every stored word are those of the slot-by-slot scan.

An insert scans each new node's cluster once. A search that fails records
the packed key it looked for and the vacant slot where it stopped, and
placing that key starts its scan there instead of at the home slot. That
is exact because slots are never freed: every slot from the home slot to
the recorded one stays occupied, and a placement that took the recorded
slot in the meantime only moves the scan on. A doubling starts a fresh
record with the fresh storage.

Parent links serve only enumeration: ``parent_keys`` reads every node's
packed key, indexed by node id, in one pass over the used slots.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from time import perf_counter_ns

from .core import (
    MAX_CAPACITY,
    Config,
    ContractViolation,
    CorruptionError,
    ResourceExhausted,
)

GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # the odd integer nearest 2**64 / golden ratio

_VACANT = (1 << 4) - 1                 # the nibble of an empty slot
_SMALL_ESCAPE = _VACANT - 1            # displacement >= 14 leaves the 4-bit array
_MID_LIMIT = _SMALL_ESCAPE + (1 << 7)  # m-Bonsai's mid/spill tier boundary
_WORD = (1 << 64) - 1
_RUN = 64  # slots a scan past its first probes reads at once
_BIG_ENDIAN = sys.byteorder == "big"


def _write_entry(words: array, width: int, i: int, value: int) -> None:
    """Set entry i of the width-bit entries packed into words to value."""
    bit = i * width
    w = bit >> 6
    off = bit & 63
    ones = ((1 << width) - 1) << off
    value <<= off
    words[w] = (words[w] & ~ones | value) & _WORD
    if off + width > 64:
        words[w + 1] = (words[w + 1] & ~(ones >> 64) | value >> 64) & _WORD


def _run_masks(width: int) -> tuple[int, int]:
    """(low, high): bit 0 and the top bit of each of _RUN width-bit fields."""
    low = ((1 << _RUN * width) - 1) // ((1 << width) - 1)
    return low, low << (width - 1)


_NIB_LOW, _NIB_HIGH = _run_masks(4)
_NIB_ONES = _NIB_LOW * _VACANT


def _run_bits(words: array, lo: int, hi: int) -> int:
    """Bits [lo, hi) of the packed words as one int shifted down to bit 0,
    with the rest of the last word they span above them."""
    run = words[lo >> 6:(hi + 63) >> 6]
    if _BIG_ENDIAN:
        run.byteswap()
    return int.from_bytes(run.tobytes(), "little") >> (lo & 63)


def golden_multipliers(bits: int) -> tuple[int, int]:
    """The odd multiplier m that homes keys of the given width, and m**-1.

    m is the golden-ratio constant truncated to bits and forced odd, so
    x -> x * m mod 2**bits is a bijection over [0, 2**bits) that fixes 0
    and y -> y * m**-1 mod 2**bits undoes it (Knuth's multiplicative
    hashing). The high bits of the product depend on every bit of x.
    """
    mult = (GOLDEN_GAMMA & ((1 << bits) - 1)) | 1
    return mult, pow(mult, -1, 1 << bits)


def packed_words(width: int, size: int, ones: bool = False) -> array:
    """The words of size width-bit entries, each 0 or, with ones, all ones.

    Repeating a one-word array allocates the words once, at their size.
    """
    return array("Q", [_WORD if ones else 0]) * ((width * size + 63) >> 6)


class SpillTable:
    """Map from slot ids to the rare escaped displacements, and back from
    home slots to the displacements homed there.

    Two sorted arrays hold one entry per escaped slot: ``slot << 8 | byte``
    in slot order, and ``home << 8 | byte`` in home order, where the home
    is the slot less the displacement, modulo the table's size. A lookup
    either way is one binary search, an insert one ``array.insert`` in
    each. A value of 255 or more (long clusters near full load) stores the
    byte 255 and goes whole into a dict keyed by slot; its home entries
    sort after the home's byte values, and ``homed_at`` reads those values
    from the dict. The dict is written first, and an array insert that
    raises undoes the writes before it. Entries are 32-bit up to 2**24
    slots and 64-bit past that, a size only tables of over ~15 million
    nodes reach (0.9 * 2**24).
    """

    __slots__ = ("_entries", "_homes", "_wide", "_mask")

    def __init__(self, key_bits: int) -> None:
        typecode = "I" if key_bits + 8 <= 32 else "Q"
        self._entries = array(typecode)
        self._homes = array(typecode)
        self._wide = {}
        self._mask = (1 << key_bits) - 1

    def insert(self, key: int, value: int) -> None:
        entries = self._entries
        i = bisect_left(entries, key << 8)
        if i < len(entries) and entries[i] >> 8 == key:
            raise ContractViolation("key already present")
        byte = min(value, 255)
        home = ((key - value) & self._mask) << 8 | byte
        if value >= 255:
            self._wide[key] = value
        try:
            entries.insert(i, key << 8 | byte)
            try:
                self._homes.insert(bisect_left(self._homes, home), home)
            except BaseException:
                del entries[i]
                raise
        except BaseException:
            self._wide.pop(key, None)
            raise

    def get(self, key: int) -> int:
        entries = self._entries
        i = bisect_left(entries, key << 8)
        if i < len(entries) and entries[i] >> 8 == key:
            v = entries[i] & 255
            return v if v < 255 else self._wide[key]
        raise CorruptionError(f"slot {key} escaped with no overflow entry")

    def homed_at(self, home: int) -> list[int]:
        """The escaped displacements of the slots homed at home."""
        homes = self._homes
        n = len(homes)
        i = bisect_left(homes, home << 8)
        end = home + 1 << 8
        found = []
        while i < n and homes[i] < end:
            v = homes[i] & 255
            if v == 255:  # the home's wide values, which sort last
                mask = self._mask
                found += [v for j, v in self._wide.items() if (j - v) & mask == home]
                break
            found.append(v)
            i += 1
        return found

    def remove(self, key: int) -> None:
        # both entries are found before either goes, and deleting from an
        # array never reallocates it, so a removal that raises changes nothing
        value = self.get(key)
        entries = self._entries
        homes = self._homes
        home = ((key - value) & self._mask) << 8 | min(value, 255)
        h = bisect_left(homes, home)
        if h == len(homes) or homes[h] != home:
            raise CorruptionError(f"slot {key} escaped with no home entry")
        del homes[h]
        del entries[bisect_left(entries, key << 8)]
        self._wide.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)

    # the sizes m-Bonsai's mid and spill tiers would have; the benchmark
    # trace still reports them
    @property
    def mid_count(self) -> int:
        return sum(1 for e in self._entries if e & 255 < _MID_LIMIT)

    @property
    def spill_count(self) -> int:
        return sum(1 for e in self._entries if e & 255 >= _MID_LIMIT)

    def memory_bytes(self) -> int:
        return (sys.getsizeof(self._entries) + sys.getsizeof(self._homes) +
                sys.getsizeof(self._wide) +
                sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in self._wide.items()))


class _HashTrie:
    """Shared shell: capacity bookkeeping, growth, id plumbing.

    Each layout supplies the storage hooks: ``_init_storage`` allocates an
    empty table and points ``_marks`` at the word array whose all-ones
    entries, ``_mark_bits`` wide, mark its vacant slots, ``_place(k)``
    stores packed key k and returns its slot, ``_find_slot(u, c)`` returns
    the slot holding edge (u, c) or None and underlies ``getchild``; a
    None records the key in ``_miss_key`` and the vacant slot where the
    scan stopped in ``_miss_slot``, and ``_place`` of that key starts
    there. ``_find_slot`` runs in two gears: slot by slot for its first
    probes, then from displacement 14 by runs of up to 64 slots read as
    one int each (plain layouts) or through the escape map's entries for
    the home slot (compact layouts; module docstring). ``_slot_key(j)``
    decodes the key stored at slot j, ``_node_at(j)`` names the node at
    slot j, and ``_unplace(j)`` returns slot j's entries to those of a slot
    never placed. growth_ns sums the wall time of the doublings done so far.
    """

    def __init__(self, config: Config, on_grow=None) -> None:
        self._sym_bits = config.symbol_bits
        # reserved code, never a real edge; all ones, so also the symbol mask
        self._root_key = config.symbol_space - 1
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
        key_bits = cap_bits + self._sym_bits
        self._key_mask = (1 << key_bits) - 1
        self._mult, self._mult_inv = golden_multipliers(key_bits)
        # the packed key of the last failed search and the vacant slot it
        # stopped at; -1 is no key, so a fresh table has no record
        self._miss_key = -1
        self._miss_slot = 0

    def _claim_child(self, slot: int) -> int:
        return slot

    def _node_at(self, j: int) -> int:
        return j

    def _used_slots(self):
        """The occupied slots, in increasing order."""
        words = self._marks
        width = self._mark_bits
        vacant = (1 << width) - 1
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

    def removechild(self, u: int, c: int) -> None:
        """Remove the child of u along edge code c, the latest node added.

        Only the latest can go: a later placement may have probed past its
        slot, which reads as vacant again. A failed search recorded since
        may have passed it too, so the record goes.
        """
        j = self._find_slot(u, c)
        if j is None:
            raise ContractViolation(f"node {u} has no child along {c}")
        self._unplace(j)
        self.node_count -= 1
        self._miss_key = -1

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

    def edges_above(self, keys, u: int) -> list[tuple[int, int]]:
        """(node, incoming edge code) from u up to the root, bottom-up.

        keys is a parent_keys() snapshot. Reaching the reserved root key
        anywhere but at the root means the snapshot or the table is broken.
        """
        root = self.root_id
        root_key = code_mask = self._root_key
        zs = self._sym_bits
        chain = []
        while u != root:
            k = keys[u]
            if k == root_key:
                raise CorruptionError(f"node {u} has no parent edge")
            chain.append((u, k & code_mask))
            u = k >> zs
        return chain

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
        new._root_key = self._root_key
        new._init_storage(capacity)
        remap = self._refill(new)
        # the labels move before the table commits, so a doubling that
        # raises anywhere leaves both as they were
        if self.on_grow is not None:
            self.on_grow(remap, capacity)
        for name, value in vars(new).items():
            setattr(self, name, value)
        self.growth_events += 1
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
        sym_mask = self._root_key
        place = new._place
        slot_key = self._slot_key
        new.root_id = place(self._root_key)
        remap = array("q", [-1]) * self.capacity
        remap[self.root_id] = new.root_id
        # each climbed node is placed once: a looping parent chain climbs
        # past the node count, and a node never climbed leaves climb above 0
        climb = self.node_count - 1
        for i in self._used_slots():
            if remap[i] >= 0:
                continue
            path = []
            u = i
            while remap[u] < 0:
                climb -= 1
                if climb < 0:
                    raise CorruptionError(f"parent chain from slot {i} does not reach the root")
                k = slot_key(u)
                path.append((u, k & sym_mask))
                u = k >> zs
            nu = remap[u]
            while path:
                j, c = path.pop()
                nu = remap[j] = place((nu << zs) | c)
        if climb != 0:
            raise CorruptionError("relocation did not visit every node exactly once")
        return remap


class PlainBonsaiTrie(_HashTrie):
    """Packed keys stored verbatim; ids are slots, remapped on growth."""

    def _init_storage(self, capacity: int) -> None:
        super()._init_storage(capacity)
        self._table = self._marks = packed_words(self._mark_bits, capacity, ones=True)
        self._run_low, self._run_high = _run_masks(self._mark_bits)
        self._run_ones = self._run_low * self._key_mask

    @property
    def _mark_bits(self) -> int:
        return self._cap_bits + self._sym_bits  # the key width

    def _place(self, k: int) -> int:
        # the entry reads are inlined; k goes into the all-ones vacant
        # entry with one XOR per word it spans. A failed search for k
        # already scanned its cluster: start where it stopped
        zs = self._sym_bits
        mask = self._cap_mask
        j = self._miss_slot if k == self._miss_key else (k * self._mult >> zs) & mask
        words = self._table
        width = self._cap_bits + zs
        vacant = self._key_mask
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

    def _unplace(self, j: int) -> None:
        _write_entry(self._table, self._mark_bits, j, self._key_mask)

    def _find_slot(self, u: int, c: int) -> int | None:
        # one frame: the entry reads are inlined. The home slot is read
        # before the loop, so a search that ends there sets up no count;
        # at displacement 14 the rest of the cluster is read by runs
        zs = self._sym_bits
        k = (u << zs) | c
        mask = self._cap_mask
        j = (k * self._mult >> zs) & mask
        words = self._table
        width = self._cap_bits + zs
        vacant = self._key_mask  # also the entry mask
        bit = j * width
        w = bit >> 6
        off = bit & 63
        h = words[w] >> off
        if off + width > 64:
            h |= words[w + 1] << (64 - off)
        h &= vacant
        if h == k:
            return j
        # the compact tables' escape threshold, so both layouts turn to runs
        # at one displacement; at the table's end they wrap to slot 0 by runs
        runs_from = j + _SMALL_ESCAPE
        if runs_from > mask:
            runs_from = mask + 1
        while h != vacant:
            j += 1
            if j == runs_from:
                return self._scan_runs(k, j & mask)
            bit = j * width
            w = bit >> 6
            off = bit & 63
            h = words[w] >> off
            if off + width > 64:
                h |= words[w + 1] << (64 - off)
            h &= vacant
            if h == k:
                return j
        self._miss_key = k
        self._miss_slot = j
        return None

    getchild = _find_slot

    def _scan_runs(self, k: int, j: int) -> int | None:
        """_find_slot from slot j on, up to _RUN slots at a time."""
        width = self._cap_bits + self._sym_bits
        low = self._run_low
        high = self._run_high
        ones = self._run_ones
        keys = k * low
        words = self._table
        capacity = self.capacity
        whole = ones + 1  # above every top bit of a whole run
        while True:
            n = capacity - j
            if n < _RUN:  # the run stops at the table's last slot
                end = 1 << n * width
            else:
                n = _RUN
                end = whole
            y = _run_bits(words, j * width, (j + n) * width)
            # the top bits of the first vacant field and of the first field
            # holding k: both exact, being the lowest zero fields. Past the
            # table's last slot only the ones that pad its last word can
            # read as vacant, and only above end
            x = y ^ ones
            x = (x - low) & ~x & high
            stop = x & -x or end
            x = y ^ keys
            x = (x - low) & ~x & high
            x &= -x
            if x and x < stop:
                return j + x.bit_length() // width - 1
            if stop < end:
                self._miss_key = k
                self._miss_slot = j + stop.bit_length() // width - 1
                return None
            j = (j + n) & self._cap_mask

    def _slot_key(self, j: int) -> int:
        words = self._table
        width = self._cap_bits + self._sym_bits
        bit = j * width
        w = bit >> 6
        off = bit & 63
        k = words[w] >> off
        if off + width > 64:
            k |= words[w + 1] << (64 - off)
        return k & self._key_mask

    def memory_bytes(self) -> int:
        return sys.getsizeof(self._table)


class CompactBonsaiTrie(_HashTrie):
    """Quotient-only key storage: 4-bit displacements, escapes in one map
    that also finds them from their home slot."""

    _mark_bits = 4

    def _init_storage(self, capacity: int) -> None:
        super()._init_storage(capacity)
        self._quot = packed_words(self._sym_bits, capacity)
        self._marks = packed_words(4, capacity, ones=True)
        self._disp = SpillTable(self._cap_bits)

    def _place(self, k: int) -> int:
        # the nibble reads are inlined. An escaped displacement goes into
        # the map first, so a store that raises changes no word; then the
        # quotient goes into its zero entry with an OR and the displacement,
        # or the escape value, into its all-ones nibble with an XOR. The scan
        # starts where a failed search for k stopped; d is from home slot i
        hv = k * self._mult
        zs = self._sym_bits
        mask = self._cap_mask
        i = (hv >> zs) & mask
        nibbles = self._marks
        j = self._miss_slot if k == self._miss_key else i
        while (nibbles[j >> 4] >> ((j & 15) << 2)) & 15 != _VACANT:
            j = (j + 1) & mask
        d = (j - i) & mask
        if d >= _SMALL_ESCAPE:
            self._disp.insert(j, d)
            d = _SMALL_ESCAPE
        bit = j * zs
        w = bit >> 6
        off = bit & 63
        q = (hv & self._root_key) << off
        qwords = self._quot
        qwords[w] |= q & _WORD
        if off + zs > 64:
            qwords[w + 1] |= q >> 64
        nibbles[j >> 4] ^= (_VACANT ^ d) << ((j & 15) << 2)
        return j

    def _unplace(self, j: int) -> None:
        if (self._marks[j >> 4] >> ((j & 15) << 2)) & 15 == _SMALL_ESCAPE:
            self._disp.remove(j)
        _write_entry(self._quot, self._sym_bits, j, 0)
        _write_entry(self._marks, 4, j, _VACANT)

    def _find_slot(self, u: int, c: int) -> int | None:
        # one frame: the quotient and 4-bit displacement reads are inlined.
        # Below displacement 14 the nibble is the displacement itself; from
        # 14 on the key can only sit at an escaped slot, and the map names
        # every escaped slot homed where the search started
        zs = self._sym_bits
        qmask = self._root_key
        hv = ((u << zs) | c) * self._mult
        mask = self._cap_mask
        j = (hv >> zs) & mask
        q = hv & qmask
        qwords = self._quot
        nibbles = self._marks
        vacant = _VACANT
        esc = _SMALL_ESCAPE
        d = 0
        while (nib := (nibbles[j >> 4] >> ((j & 15) << 2)) & 15) != vacant:
            if d == esc:
                i = (j - esc) & mask
                for e in self._disp.homed_at(i):
                    s = (i + e) & mask
                    bit = s * zs
                    w = bit >> 6
                    off = bit & 63
                    v = qwords[w] >> off
                    if off + zs > 64:
                        v |= qwords[w + 1] << (64 - off)
                    if v & qmask == q:
                        return s
                return self._scan_vacant((u << zs) | c, j)
            if nib == d:
                bit = j * zs
                w = bit >> 6
                off = bit & 63
                v = qwords[w] >> off
                if off + zs > 64:
                    v |= qwords[w + 1] << (64 - off)
                if v & qmask == q:
                    return j
            j = (j + 1) & mask
            d += 1
        self._miss_key = (u << zs) | c
        self._miss_slot = j
        return None

    getchild = _find_slot

    def _scan_vacant(self, k: int, j: int) -> None:
        """Record the failed search for k at the first vacant slot from j
        on, reading up to _RUN nibbles at a time."""
        nibbles = self._marks
        capacity = self.capacity
        while True:
            n = capacity - j
            if n > _RUN:
                n = _RUN
            # the first vacant nibble is exact, being the lowest zero field
            x = _run_bits(nibbles, j << 2, (j + n) << 2) ^ _NIB_ONES
            x = (x - _NIB_LOW) & ~x & _NIB_HIGH
            t = ((x & -x).bit_length() >> 2) - 1 if x else n
            if t < n:
                self._miss_key = k
                self._miss_slot = j + t
                return None
            j = (j + n) & self._cap_mask

    def _slot_key(self, j: int) -> int:
        # the nibble and quotient reads are inlined; only an escaped
        # displacement is read from the map
        d = (self._marks[j >> 4] >> ((j & 15) << 2)) & 15
        if d >= _SMALL_ESCAPE:
            d = self._disp.get(j)
        zs = self._sym_bits
        words = self._quot
        bit = j * zs
        w = bit >> 6
        off = bit & 63
        q = words[w] >> off
        if off + zs > 64:
            q |= words[w + 1] << (64 - off)
        i = (j - d) & self._cap_mask
        return ((i << zs) | (q & self._root_key)) * self._mult_inv & self._key_mask

    def memory_bytes(self) -> int:
        return (sys.getsizeof(self._quot) + sys.getsizeof(self._marks) +
                self._disp.memory_bytes())


class _DenseIdMixin:
    """Dense creation-order ids held in one slot-to-id array.

    The array answers getchild and keeps ids stable while slots move under
    growth; parent_keys reads it slot by slot, so it has no inverse.
    """

    def _init_storage(self, capacity: int) -> None:
        super()._init_storage(capacity)
        self._ids = packed_words(self._cap_bits, capacity)

    def _claim_child(self, slot: int) -> int:
        # the new id's entry was never written, so it is still zero: the
        # write is an OR per word the entry spans
        nid = self.node_count - 1
        width = self._cap_bits
        bit = slot * width
        w = bit >> 6
        off = bit & 63
        v = nid << off
        words = self._ids
        words[w] |= v & _WORD
        if off + width > 64:
            words[w + 1] |= v >> 64
        return nid

    def _unplace(self, j: int) -> None:
        _write_entry(self._ids, self._cap_bits, j, 0)
        super()._unplace(j)

    def getchild(self, u: int, c: int) -> int | None:
        j = self._find_slot(u, c)
        if j is None:
            return None
        ids = self._ids
        width = self._cap_bits
        bit = j * width
        w = bit >> 6
        off = bit & 63
        v = ids[w] >> off
        if off + width > 64:
            v |= ids[w + 1] << (64 - off)
        return v & self._cap_mask

    def _node_at(self, j: int) -> int:
        ids = self._ids
        width = self._cap_bits
        bit = j * width
        w = bit >> 6
        off = bit & 63
        v = ids[w] >> off
        if off + width > 64:
            v |= ids[w + 1] << (64 - off)
        return v & self._cap_mask

    def _refill(self, new) -> None:
        """Rehash every key into new in slot order; ids stay, so no remap."""
        place = new._place
        slot_key = self._slot_key
        node_at = self._node_at
        words = new._ids  # the zero-entry OR, inlined
        width = new._cap_bits
        for j in self._used_slots():
            bit = place(slot_key(j)) * width
            w = bit >> 6
            off = bit & 63
            v = node_at(j) << off
            words[w] |= v & _WORD
            if off + width > 64:
                words[w + 1] |= v >> 64

    def memory_bytes(self) -> int:
        return super().memory_bytes() + sys.getsizeof(self._ids)


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
