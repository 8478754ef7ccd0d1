"""Hash-table trie backends.

A trie is stored as a closed hash table over packed edge keys
``key = parent_id * symbol_space + edge_code`` with linear probing. Four
interchangeable layouts implement the same contract:

* ``pbt``  stores packed keys verbatim; node ids are slot indices.
* ``cbt``  stores only the key's quotient under an invertible transform,
  plus per-slot probe displacements kept in a three-tier side structure;
  node ids are slot indices.
* ``pfkt`` / ``cfkt`` wrap the two layouts above with a dense id space:
  ids are assigned in creation order and survive growth unchanged.

Slot-addressed ids are invalidated whenever the table doubles. Growth
relocates nodes top-down in a single left-to-right scan: climb from each
unmoved node to its nearest relocated ancestor, then walk back down
re-adding one edge at a time. The relocation map (old id to new id) is
handed to the ``on_grow`` callback so label storage can follow; dense-id
layouts rehash slots directly and pass no map.

Displacements for the compact layouts live in a 4-bit array whose top
value escapes to an overflow table (quotiented, 7-bit values) and, past
that, to a plain spill table holding full-width entries.
"""

from __future__ import annotations

from collections import deque

from .bitarrays import BitVector, IntVector
from .core import (
    MAX_CAPACITY,
    Config,
    ContractViolation,
    CorruptionError,
    ResourceExhausted,
)
from .hashing import GOLDEN_GAMMA, _MIX1, _MIX2, _U64, BijectiveTransform, scramble

_SMALL_ESCAPE = (1 << 4) - 1          # displacement >= 15 leaves the 4-bit array
_MID_LIMIT = _SMALL_ESCAPE + (1 << 7)  # displacement >= 143 goes to the spill table


class QuotientTable:
    """Closed hash map keyed by [0, 2**key_bits) storing small values.

    Keys are passed through an invertible transform; the low bits address a
    slot and only the high bits (the quotient) are stored. Entries sharing a
    home address form one contiguous group, groups within a probe cluster
    appear in home-address order, and three bit arrays (home occupied, group
    continuation, element shifted) recover each element's home address
    without storing it.
    """

    __slots__ = ("_key_bits", "_tf", "_cap", "_cap_bits", "_cap_mask",
                 "_quot", "_vals", "_val_bits", "_occ", "_cont", "_shift", "_count")

    def __init__(self, key_bits: int, capacity: int, val_bits: int = 7) -> None:
        self._key_bits = key_bits
        self._val_bits = val_bits
        self._tf = BijectiveTransform(key_bits)
        self._init_storage(capacity)

    def _init_storage(self, capacity: int) -> None:
        self._cap = capacity
        self._cap_bits = capacity.bit_length() - 1
        self._cap_mask = capacity - 1
        self._quot = IntVector(max(1, self._key_bits - self._cap_bits), capacity)
        self._vals = IntVector(self._val_bits, capacity)
        self._occ = BitVector(capacity)
        self._cont = BitVector(capacity)
        self._shift = BitVector(capacity)
        self._count = 0

    def _group_start(self, q: int) -> int:
        # walk left to the cluster start, then replay group boundaries and
        # occupied home addresses in lockstep until q's group is reached
        mask = self._cap_mask
        shift = self._shift
        cont = self._cont
        occ = self._occ
        b = q
        while shift.get(b):
            b = (b - 1) & mask
        s = b
        while b != q:
            s = (s + 1) & mask
            while cont.get(s):
                s = (s + 1) & mask
            b = (b + 1) & mask
            while not occ.get(b):
                b = (b + 1) & mask
        return s

    def insert(self, key: int, value: int) -> None:
        """Add a key that is not already present."""
        if 10 * (self._count + 1) > 9 * self._cap:
            self._grow()
        hv = self._tf.forward(key)
        q = hv & self._cap_mask
        rem = hv >> self._cap_bits
        occ = self._occ
        shift = self._shift
        if not occ.get(q) and not shift.get(q):
            self._quot.set(q, rem)
            self._vals.set(q, value)
            occ.set_true(q)
            self._count += 1
            return
        had_group = bool(occ.get(q))
        occ.set_true(q)
        s = self._group_start(q)
        mask = self._cap_mask
        e = s
        while occ.get(e) or shift.get(e):
            e = (e + 1) & mask
        quot = self._quot
        vals = self._vals
        cont = self._cont
        j = e
        while j != s:
            p = (j - 1) & mask
            quot.set(j, quot.get(p))
            vals.set(j, vals.get(p))
            cont.set(j, cont.get(p))
            shift.set_true(j)
            j = p
        quot.set(s, rem)
        vals.set(s, value)
        if had_group:
            cont.set_true((s + 1) & mask)  # displaced old group head
        cont.set(s, False)
        shift.set(s, s != q)
        self._count += 1

    def get(self, key: int) -> int | None:
        hv = self._tf.forward(key)
        q = hv & self._cap_mask
        if not self._occ.get(q):
            return None
        rem = hv >> self._cap_bits
        s = self._group_start(q)
        quot = self._quot
        cont = self._cont
        mask = self._cap_mask
        while True:
            if quot.get(s) == rem:
                return self._vals.get(s)
            s = (s + 1) & mask
            if not cont.get(s):
                return None

    def items(self):
        """Decode all (key, value) pairs by replaying clusters."""
        if self._count == 0:
            return
        occ = self._occ
        shift = self._shift
        cont = self._cont
        mask = self._cap_mask
        start = 0
        while occ.get(start) or shift.get(start):
            start += 1
        pending: deque[int] = deque()
        for off in range(1, self._cap + 1):
            j = (start + off) & mask
            if occ.get(j):
                pending.append(j)
            if not (occ.get(j) or shift.get(j)):
                if pending:
                    raise CorruptionError("group bookkeeping out of sync")
                continue
            if not cont.get(j):
                home = pending.popleft()
            hv = (self._quot.get(j) << self._cap_bits) | home
            yield self._tf.inverse(hv), self._vals.get(j)

    def _grow(self) -> None:
        pairs = list(self.items())
        self._init_storage(self._cap * 2)
        for key, value in pairs:
            self.insert(key, value)

    def __len__(self) -> int:
        return self._count

    def memory_bytes(self) -> int:
        return (self._quot.allocated_bytes + self._vals.allocated_bytes +
                self._occ.allocated_bytes + self._cont.allocated_bytes +
                self._shift.allocated_bytes)


class SpillTable:
    """Plain closed hash map for the rare full-width displacement entries."""

    __slots__ = ("_cap", "_count", "_keys", "_vals", "_used", "_key_bits", "_val_bits")

    def __init__(self, key_bits: int, val_bits: int, capacity: int = 64) -> None:
        self._key_bits = key_bits
        self._val_bits = val_bits
        self._init_storage(capacity)

    def _init_storage(self, capacity: int) -> None:
        self._cap = capacity
        self._keys = IntVector(self._key_bits, capacity)
        self._vals = IntVector(self._val_bits, capacity)
        self._used = BitVector(capacity)
        self._count = 0

    def insert(self, key: int, value: int) -> None:
        if 10 * (self._count + 1) > 9 * self._cap:
            pairs = [(self._keys.get(j), self._vals.get(j)) for j in self._used.iter_set()]
            self._init_storage(self._cap * 2)
            for k, v in pairs:
                self.insert(k, v)
        mask = self._cap - 1
        j = scramble(key) & mask
        used = self._used
        while used.get(j):
            if self._keys.get(j) == key:
                raise ContractViolation("key already present")
            j = (j + 1) & mask
        self._keys.set(j, key)
        self._vals.set(j, value)
        used.set_true(j)
        self._count += 1

    def get(self, key: int) -> int | None:
        mask = self._cap - 1
        j = scramble(key) & mask
        used = self._used
        keys = self._keys
        while used.get(j):
            if keys.get(j) == key:
                return self._vals.get(j)
            j = (j + 1) & mask
        return None

    def __len__(self) -> int:
        return self._count

    def memory_bytes(self) -> int:
        return (self._keys.allocated_bytes + self._vals.allocated_bytes +
                self._used.allocated_bytes)


class DisplacementStore:
    """Per-slot probe displacements in three tiers by magnitude."""

    __slots__ = ("_base", "_mid", "_spill")

    def __init__(self, capacity: int, key_bits: int) -> None:
        self._base = IntVector(4, capacity)
        self._mid = QuotientTable(key_bits, min(1 << 12, capacity))
        self._spill = SpillTable(key_bits, key_bits, 1 << 6)

    def get(self, j: int) -> int:
        v = self._base.get(j)
        if v < _SMALL_ESCAPE:
            return v
        w = self._mid.get(j)
        if w is not None:
            return _SMALL_ESCAPE + w
        w = self._spill.get(j)
        if w is None:
            raise CorruptionError(f"slot {j} escaped with no overflow entry")
        return w

    def set(self, j: int, d: int) -> None:
        if d < _SMALL_ESCAPE:
            self._base.set(j, d)
        elif d < _MID_LIMIT:
            self._base.set(j, _SMALL_ESCAPE)
            self._mid.insert(j, d - _SMALL_ESCAPE)
        else:
            self._base.set(j, _SMALL_ESCAPE)
            self._spill.insert(j, d)

    @property
    def mid_count(self) -> int:
        return len(self._mid)

    @property
    def spill_count(self) -> int:
        return len(self._spill)

    def memory_bytes(self) -> int:
        return (self._base.allocated_bytes + self._mid.memory_bytes() +
                self._spill.memory_bytes())


class _HashTrie:
    """Shared shell: capacity bookkeeping, growth trigger, id plumbing."""

    family = "bonsai"

    def __init__(self, config: Config, on_grow=None) -> None:
        self._sym_bits = config.symbol_bits
        self._sym_space = config.symbol_space
        self._root_key = config.symbol_space - 1  # reserved code, never a real edge
        self.on_grow = on_grow
        self.growth_events = 0
        self.node_count = 0
        self._init_storage(config.initial_capacity)
        root_slot = self._place(0, self._root_key)
        self.node_count = 1
        self._claim_root(root_slot)

    # storage hooks -------------------------------------------------
    def _init_storage(self, capacity: int) -> None:
        self.capacity = capacity
        self._cap_bits = capacity.bit_length() - 1
        self._cap_mask = capacity - 1
        if self._cap_bits + self._sym_bits > 64:
            raise ResourceExhausted("packed keys would exceed 64 bits")

    def _place(self, u: int, c: int) -> int:
        raise NotImplementedError

    def _claim_root(self, slot: int) -> None:
        self.root_id = slot

    def _claim_child(self, slot: int) -> int:
        return slot

    # contract surface ----------------------------------------------
    def addchild(self, u: int, c: int) -> int:
        """Create the child of u along edge code c and return its id.

        The caller guarantees no such child exists. May double the table
        first; slot-addressed ids are then remapped, including u.
        """
        n = self.node_count
        if 10 * (n + 1) > 9 * self.capacity:
            remap = self._grow()
            if remap is not None:
                u = remap[u]
        slot = self._place(u, c)
        self.node_count = n + 1
        return self._claim_child(slot)

    def memory_bytes(self) -> int:
        raise NotImplementedError

    def _check_inner(self, u: int) -> None:
        if u == self.root_id:
            raise ContractViolation("the root has no parent edge")
        if not self._is_live(u):
            raise ContractViolation(f"id {u} is not a live node")


class PlainBonsaiTrie(_HashTrie):
    """Packed keys stored verbatim; ids are slots, remapped on growth."""

    def __init__(self, config: Config, on_grow=None) -> None:
        self._inplace_map = config.trie_repr == "pbt" and config.pbt_inplace_map
        super().__init__(config, on_grow)

    def _init_storage(self, capacity: int) -> None:
        super()._init_storage(capacity)
        width = self._cap_bits + self._sym_bits
        self._table = IntVector(width, capacity, fill_ones=True)
        self._sentinel = (1 << width) - 1

    def _place(self, u: int, c: int) -> int:
        k = (u << self._sym_bits) | c
        mask = self._cap_mask
        table = self._table
        sent = self._sentinel
        j = scramble(k) & mask
        while table.get(j) != sent:
            j = (j + 1) & mask
        table.set(j, k)
        return j

    def _find_slot(self, u: int, c: int) -> int | None:
        # one frame: scramble() and IntVector.get are inlined
        k = (u << self._sym_bits) | c
        z = (k + GOLDEN_GAMMA) & _U64
        z = ((z ^ (z >> 30)) * _MIX1) & _U64
        z = ((z ^ (z >> 27)) * _MIX2) & _U64
        mask = self._cap_mask
        j = (z ^ (z >> 31)) & mask
        table = self._table
        words = table._words
        width = table.width
        sent = self._sentinel  # also the entry mask
        while True:
            bit = j * width
            w = bit >> 6
            off = bit & 63
            h = words[w] >> off
            if off + width > 64:
                h |= words[w + 1] << (64 - off)
            h &= sent
            if h == k:
                return j
            if h == sent:
                return None
            j = (j + 1) & mask

    getchild = _find_slot

    def _is_live(self, u: int) -> bool:
        return 0 <= u < self.capacity and self._table.get(u) != self._sentinel

    def _slot_key(self, j: int) -> int:
        return self._table.get(j)

    def getparent(self, u: int) -> int:
        self._check_inner(u)
        return self._parent_of_slot(u)

    def getedge(self, u: int) -> int:
        self._check_inner(u)
        return self._slot_key(self._slot_of(u)) & (self._sym_space - 1)

    def _parent_of_slot(self, u: int) -> int:
        return self._slot_key(u) >> self._sym_bits

    def _slot_of(self, u: int) -> int:
        return u

    def _grow(self):
        """Relocate every node into a doubled table; returns the id remap.

        Single scan: climb from each unmoved node to its nearest relocated
        ancestor recording edge codes, then walk back down re-adding the
        edges. A bitmap marks relocated slots; their new ids live either in
        a side array or, when configured, in the vacated key slots
        themselves (new ids are far below the vacancy sentinel, so probe
        runs over vacated slots still terminate correctly).
        """
        old_m = self.capacity
        new_m = old_m * 2
        if new_m > MAX_CAPACITY:
            raise ResourceExhausted(f"table would exceed {MAX_CAPACITY} slots")
        old_table = self._table
        old_sent = self._sentinel
        old_mask = self._cap_mask
        old_root = self.root_id
        zs = self._sym_bits
        sym_mask = self._sym_space - 1
        inplace = self._inplace_map

        new_width = new_m.bit_length() - 1 + zs
        if new_width > 64:
            raise ResourceExhausted("packed keys would exceed 64 bits")
        new_table = IntVector(new_width, new_m, fill_ones=True)
        new_sent = (1 << new_width) - 1
        new_mask = new_m - 1

        t = scramble(self._root_key) & new_mask
        new_table.set(t, self._root_key)
        new_root = t

        done = BitVector(old_m)
        side = None if inplace else IntVector(new_m.bit_length() - 1, old_m)
        done.set_true(old_root)
        if inplace:
            old_table.set(old_root, new_root)
        else:
            side.set(old_root, new_root)

        moved = 0
        for i0 in range(old_m):
            if done.get(i0) or old_table.get(i0) == old_sent:
                continue
            path = []
            u = i0
            while not done.get(u):
                k = old_table.get(u)
                path.append(k & sym_mask)
                u = k >> zs
            nu = old_table.get(u) if inplace else side.get(u)
            while path:
                c = path.pop()
                ku = (u << zs) | c
                j = scramble(ku) & old_mask
                while True:
                    h = old_table.get(j)
                    if h == ku and not (inplace and done.get(j)):
                        break
                    if h == old_sent:
                        raise CorruptionError("edge vanished during relocation")
                    j = (j + 1) & old_mask
                kn = (nu << zs) | c
                t = scramble(kn) & new_mask
                while new_table.get(t) != new_sent:
                    t = (t + 1) & new_mask
                new_table.set(t, kn)
                done.set_true(j)
                if inplace:
                    old_table.set(j, t)
                else:
                    side.set(j, t)
                moved += 1
                u = j
                nu = t
        if moved != self.node_count - 1:
            raise CorruptionError("relocation did not visit every node exactly once")

        if inplace:
            remap = {o: old_table.get(o) for o in done.iter_set()}
        else:
            remap = {o: side.get(o) for o in done.iter_set()}

        super()._init_storage(new_m)
        self._table = new_table
        self._sentinel = new_sent
        self.root_id = new_root
        self.growth_events += 1
        if self.on_grow is not None:
            self.on_grow(remap, new_m)
        return remap

    def memory_bytes(self) -> int:
        return self._table.allocated_bytes


class CompactBonsaiTrie(_HashTrie):
    """Quotient-only key storage with a tiered displacement side structure."""

    def _init_storage(self, capacity: int) -> None:
        super()._init_storage(capacity)
        self._tf = BijectiveTransform(self._cap_bits + self._sym_bits)
        self._quot = IntVector(self._sym_bits, capacity)
        self._occ = BitVector(capacity)
        self._disp = DisplacementStore(capacity, self._cap_bits)

    def _place(self, u: int, c: int) -> int:
        hv = self._tf.forward((u << self._sym_bits) | c)
        mask = self._cap_mask
        i = hv & mask
        occ = self._occ
        j = i
        while occ.get(j):
            j = (j + 1) & mask
        self._quot.set(j, hv >> self._cap_bits)
        occ.set_true(j)
        self._disp.set(j, (j - i) & mask)
        return j

    def _find_slot(self, u: int, c: int) -> int | None:
        # one frame: BijectiveTransform.forward and the occupancy, quotient
        # and 4-bit displacement reads are inlined; only an escaped
        # displacement goes through DisplacementStore.get
        x = (u << self._sym_bits) | c
        tf = self._tf
        x ^= x >> tf._shift
        hv = (x * tf._mult) & tf._mask
        mask = self._cap_mask
        j = hv & mask
        q = hv >> self._cap_bits
        occ = self._occ._words
        quot = self._quot
        qwords = quot._words
        width = quot.width
        qmask = quot._mask
        disp = self._disp
        nibbles = disp._base._words
        esc = _SMALL_ESCAPE
        d = 0
        while (occ[j >> 6] >> (j & 63)) & 1:
            nib = (nibbles[j >> 4] >> ((j & 15) << 2)) & 15
            # below the escape value the nibble is the displacement itself;
            # at it, the displacement is some d >= 15 held in mid or spill
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

    def _is_live(self, u: int) -> bool:
        return 0 <= u < self.capacity and bool(self._occ.get(u))

    def _slot_key(self, j: int) -> int:
        i = (j - self._disp.get(j)) & self._cap_mask
        return self._tf.inverse((self._quot.get(j) << self._cap_bits) | i)

    def getparent(self, u: int) -> int:
        self._check_inner(u)
        return self._slot_key(self._slot_of(u)) >> self._sym_bits

    def getedge(self, u: int) -> int:
        self._check_inner(u)
        return self._slot_key(self._slot_of(u)) & (self._sym_space - 1)

    def _slot_of(self, u: int) -> int:
        return u

    def _grow(self):
        old_m = self.capacity
        new_m = old_m * 2
        if new_m > MAX_CAPACITY:
            raise ResourceExhausted(f"table would exceed {MAX_CAPACITY} slots")
        old_tf = self._tf
        old_quot = self._quot
        old_occ = self._occ
        old_disp = self._disp
        old_mask = self._cap_mask
        old_cap_bits = self._cap_bits
        old_root = self.root_id
        zs = self._sym_bits
        sym_mask = self._sym_space - 1

        new_cap_bits = new_m.bit_length() - 1
        if new_cap_bits + zs > 64:
            raise ResourceExhausted("packed keys would exceed 64 bits")
        new_tf = old_tf.rescale(new_cap_bits + zs)
        new_quot = IntVector(zs, new_m)
        new_occ = BitVector(new_m)
        new_disp = DisplacementStore(new_m, new_cap_bits)
        new_mask = new_m - 1

        def old_key(j: int) -> int:
            i = (j - old_disp.get(j)) & old_mask
            return old_tf.inverse((old_quot.get(j) << old_cap_bits) | i)

        def old_child(u: int, c: int) -> int:
            hv = old_tf.forward((u << zs) | c)
            i = hv & old_mask
            q = hv >> old_cap_bits
            j = i
            d = 0
            while old_occ.get(j):
                if old_quot.get(j) == q and old_disp.get(j) == d:
                    return j
                j = (j + 1) & old_mask
                d += 1
            raise CorruptionError("edge vanished during relocation")

        def new_place(u: int, c: int) -> int:
            hv = new_tf.forward((u << zs) | c)
            i = hv & new_mask
            j = i
            while new_occ.get(j):
                j = (j + 1) & new_mask
            new_quot.set(j, hv >> new_cap_bits)
            new_occ.set_true(j)
            new_disp.set(j, (j - i) & new_mask)
            return j

        new_root = new_place(0, self._root_key)
        done = BitVector(old_m)
        side = IntVector(new_cap_bits, old_m)
        done.set_true(old_root)
        side.set(old_root, new_root)

        moved = 0
        for i0 in range(old_m):
            if done.get(i0) or not old_occ.get(i0):
                continue
            path = []
            u = i0
            while not done.get(u):
                k = old_key(u)
                path.append(k & sym_mask)
                u = k >> zs
            nu = side.get(u)
            while path:
                c = path.pop()
                j = old_child(u, c)
                t = new_place(nu, c)
                done.set_true(j)
                side.set(j, t)
                moved += 1
                u = j
                nu = t
        if moved != self.node_count - 1:
            raise CorruptionError("relocation did not visit every node exactly once")

        remap = {o: side.get(o) for o in done.iter_set()}

        _HashTrie._init_storage(self, new_m)
        self._tf = new_tf
        self._quot = new_quot
        self._occ = new_occ
        self._disp = new_disp
        self.root_id = new_root
        self.growth_events += 1
        if self.on_grow is not None:
            self.on_grow(remap, new_m)
        return remap

    def memory_bytes(self) -> int:
        return (self._quot.allocated_bytes + self._occ.allocated_bytes +
                self._disp.memory_bytes())


class _DenseIdMixin:
    """Dense creation-order ids held beside the slot table.

    A slot-to-id array answers getchild; an id-to-slot array answers
    getparent/getedge and keeps ids stable while slots move under growth.
    """

    family = "fk"

    def _init_ids(self, capacity: int) -> None:
        width = max(1, capacity.bit_length() - 1)
        self._ids = IntVector(width, capacity)
        self._slots = IntVector(width, capacity)

    def _claim_root(self, slot: int) -> None:
        self._init_ids(self.capacity)
        self._ids.set(slot, 0)
        self._slots.set(0, slot)
        self._next_id = 1
        self.root_id = 0

    def _claim_child(self, slot: int) -> int:
        nid = self._next_id
        self._ids.set(slot, nid)
        self._slots.set(nid, slot)
        self._next_id = nid + 1
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

    def _is_live(self, u: int) -> bool:
        return 0 <= u < self._next_id

    def _slot_of(self, u: int) -> int:
        return self._slots.get(u)

    def getparent(self, u: int) -> int:
        self._check_inner(u)
        return self._slot_key(self._slots.get(u)) >> self._sym_bits

    def _ids_memory(self) -> int:
        return self._ids.allocated_bytes + self._slots.allocated_bytes


class PlainFKTrie(_DenseIdMixin, PlainBonsaiTrie):
    """Verbatim key table plus growth-stable dense node ids."""

    def _grow(self):
        old_m = self.capacity
        new_m = old_m * 2
        if new_m > MAX_CAPACITY:
            raise ResourceExhausted(f"table would exceed {MAX_CAPACITY} slots")
        old_table = self._table
        old_sent = self._sentinel
        old_ids = self._ids

        new_width = new_m.bit_length() - 1 + self._sym_bits
        if new_width > 64:
            raise ResourceExhausted("packed keys would exceed 64 bits")
        new_table = IntVector(new_width, new_m, fill_ones=True)
        new_sent = (1 << new_width) - 1
        new_mask = new_m - 1

        _HashTrie._init_storage(self, new_m)
        self._init_ids(new_m)
        for j in range(old_m):
            k = old_table.get(j)
            if k == old_sent:
                continue
            t = scramble(k) & new_mask
            while new_table.get(t) != new_sent:
                t = (t + 1) & new_mask
            new_table.set(t, k)
            nid = old_ids.get(j)
            self._ids.set(t, nid)
            self._slots.set(nid, t)
        self._table = new_table
        self._sentinel = new_sent
        self.growth_events += 1
        if self.on_grow is not None:
            self.on_grow(None, new_m)
        return None

    def memory_bytes(self) -> int:
        return self._table.allocated_bytes + self._ids_memory()


class CompactFKTrie(_DenseIdMixin, CompactBonsaiTrie):
    """Quotiented key table plus growth-stable dense node ids."""

    def _grow(self):
        old_m = self.capacity
        new_m = old_m * 2
        if new_m > MAX_CAPACITY:
            raise ResourceExhausted(f"table would exceed {MAX_CAPACITY} slots")
        old_tf = self._tf
        old_quot = self._quot
        old_occ = self._occ
        old_disp = self._disp
        old_mask = self._cap_mask
        old_cap_bits = self._cap_bits
        old_ids = self._ids

        new_cap_bits = new_m.bit_length() - 1
        if new_cap_bits + self._sym_bits > 64:
            raise ResourceExhausted("packed keys would exceed 64 bits")
        new_tf = old_tf.rescale(new_cap_bits + self._sym_bits)
        new_quot = IntVector(self._sym_bits, new_m)
        new_occ = BitVector(new_m)
        new_disp = DisplacementStore(new_m, new_cap_bits)
        new_mask = new_m - 1

        _HashTrie._init_storage(self, new_m)
        self._init_ids(new_m)
        for j in range(old_m):
            if not old_occ.get(j):
                continue
            i = (j - old_disp.get(j)) & old_mask
            k = old_tf.inverse((old_quot.get(j) << old_cap_bits) | i)
            hv = new_tf.forward(k)
            i2 = hv & new_mask
            t = i2
            while new_occ.get(t):
                t = (t + 1) & new_mask
            new_quot.set(t, hv >> new_cap_bits)
            new_occ.set_true(t)
            new_disp.set(t, (t - i2) & new_mask)
            nid = old_ids.get(j)
            self._ids.set(t, nid)
            self._slots.set(nid, t)
        self._tf = new_tf
        self._quot = new_quot
        self._occ = new_occ
        self._disp = new_disp
        self.growth_events += 1
        if self.on_grow is not None:
            self.on_grow(None, new_m)
        return None

    def memory_bytes(self) -> int:
        return (self._quot.allocated_bytes + self._occ.allocated_bytes +
                self._disp.memory_bytes() + self._ids_memory())


_BACKENDS = {
    "pbt": PlainBonsaiTrie,
    "cbt": CompactBonsaiTrie,
    "pfkt": PlainFKTrie,
    "cfkt": CompactFKTrie,
}


def make_backend(config: Config, on_grow=None):
    return _BACKENDS[config.trie_repr](config, on_grow)
