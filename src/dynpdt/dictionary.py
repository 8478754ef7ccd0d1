"""Keyword dictionary over an incrementally path-decomposed trie.

Each stored keyword owns exactly one labeled node: the root holds the
first keyword in full, and every later keyword branches off an existing
label at its first differing byte. The branch edge carries that byte plus
its position within the parent label; positions at or past the offset
limit are reached through a chain of synthetic step nodes, each standing
for a fixed-size hop. Lookups therefore compare one label per labeled
node on the path and never rescan shared prefixes.

All three operations share one descent, _walk(). It keeps the terminated
keyword whole and advances an offset into it: at each labeled node one
call to the label map's match() compares the stored label with the rest
of the keyword in place and returns either the node's value, on an exact
match, or the first differing byte, which the walk follows through the
step hops and the branch edge. No label is copied out and no value is
decoded before the last node. The walk ends either at the keyword's node,
reported with its value, or at the first missing child, reported as the
node it stopped at, the step hops still owed, the branch edge code and
the keyword offset of the branching byte. lookup() and delete() read that
result; insert() creates just the missing tail from it.

Deletion clears a node's value but keeps the node, so the trie only ever
grows; re-inserting a deleted keyword revives it in place. An insert that
raises after placing nodes, in a label write say, removes them again,
newest first, and leaves the dictionary as it was; a doubling it finished
stays.
"""

from __future__ import annotations

import operator
from typing import Iterator, Optional

from .core import (
    NO_VALUE,
    Config,
    CorruptionError,
    InvalidKeyword,
    validate_keyword,
)
from .nlm import make_label_map
from .trie_repr import make_backend


class Dictionary:
    """Mutable map from byte keywords to 32-bit unsigned values."""

    def __init__(self, config: Config | None = None) -> None:
        self._config = config or Config()
        self._lam = self._config.offset_limit
        self._lam_bits = self._lam.bit_length() - 1
        self._step_code = self._config.step_code
        self._backend = make_backend(self._config, self._on_grow)
        self._nlm = make_label_map(self._config)
        self._live = 0
        # the node an insert adds its nodes below, kept current through
        # doublings so that a failed insert can find and remove them
        self._tail = self._backend.root_id

    def _on_grow(self, remap, new_capacity: int) -> None:
        """Let the labels follow a doubling of the node table.

        remap is None when ids stay (dense-id tables): their label maps
        extend as new ids arrive, so there is nothing to do. Otherwise it
        is the array("q") _HashTrie._refill returns, the new id at each old
        id and -1 where no node was, and the label map moves its records.
        nlm.remap is looked up on each call, so a wrapper set on the
        instance later is honoured.
        """
        if remap is not None:
            self._nlm.remap(remap, new_capacity)
            self._tail = remap[self._tail]

    def _walk(self, s: bytes):
        """Descend along terminated keyword s; the one walk of all operations.

        Returns (node, value, hops, code, pos). When s has a node, value is
        the value its record holds, NO_VALUE if the keyword was deleted, and
        the rest is unused. Otherwise value is None and node is where the
        path stops: below it, hops step nodes and then the edge code are
        missing, and s[pos] is the branching byte, so s[pos + 1:-1] is the
        label a new node would take. A code of None means the root has no
        label yet: the dictionary is empty.
        """
        backend = self._backend
        getchild = backend.getchild
        match = self._nlm.match
        n = len(s) - 1  # s[n] is the terminator
        u = backend.root_id
        hit = match(u, s, 0, n)
        if hit is None:
            return u, None, 0, None, 0
        lam_bits = self._lam_bits
        off_mask = self._lam - 1
        step = self._step_code
        pos = 0  # the residual keyword is s[pos:]
        while hit < 0:
            i = ~hit  # s[i] is the first byte where s[pos:] and the label differ
            hops = (i - pos) >> lam_bits
            c = (s[i] << lam_bits) | ((i - pos) & off_mask)
            while hops:
                v = getchild(u, step)
                if v is None:
                    return u, None, hops, c, i
                u = v
                hops -= 1
            v = getchild(u, c)
            if v is None:
                return u, None, 0, c, i
            u = v
            # an edge can carry the terminator itself; the residual after
            # it is the empty keyword, which s[n:] spells
            pos = i + 1 if i < n else n
            hit = match(u, s, pos, n)
            if hit is None:
                raise CorruptionError(f"node {u} has no label record")
        return u, hit, 0, None, 0

    def insert(self, keyword, value: int) -> bool:
        """Map keyword to value; False if it is already present.

        A keyword removed by delete() is revived in place and counts as
        inserted. Present keywords keep their old value.
        """
        s = validate_keyword(keyword)
        value = operator.index(value)
        if not 0 <= value < NO_VALUE:
            raise ValueError(f"value must be in [0, {NO_VALUE})")
        u, held, hops, c, i = self._walk(s)
        nlm = self._nlm
        if held is not None:
            if held != NO_VALUE:
                return False
            nlm.update_value(u, value)
        elif c is None:
            # very first keyword: the root takes it whole
            nlm.associate(u, s[:-1], value)
        else:
            backend = self._backend
            step = self._step_code
            if hops:  # room for the whole tail before any of it is made
                u = backend.reserve(u, hops + 1)
            self._tail = u
            owed = hops
            try:
                while owed:
                    u = backend.addchild(u, step)
                    nlm.associate_step(u)
                    owed -= 1
                u = backend.addchild(u, c)
                nlm.associate(u, s[i + 1:-1], value)
            except BaseException:
                self._undo_tail(hops, c)
                raise
        self._live += 1
        return True

    def _undo_tail(self, hops: int, c: int) -> None:
        """Remove what a failed insert added below self._tail, newest first.

        The tail had no child along the first edge the insert added, so the
        nodes found along hops step edges and then c are all the insert's.
        A doubling it finished stays.
        """
        backend = self._backend
        step = self._step_code
        chain = []
        u = self._tail
        for code in [step] * hops + [c]:
            v = backend.getchild(u, code)
            if v is None:
                break
            chain.append((u, code, v))
            u = v
        for u, code, v in reversed(chain):
            self._nlm.drop_step(v)
            backend.removechild(u, code)

    def lookup(self, keyword) -> Optional[int]:
        """Value stored for keyword, or None. Malformed keywords are absent."""
        try:
            s = validate_keyword(keyword)
        except InvalidKeyword:
            return None
        value = self._walk(s)[1]
        return None if value is None or value == NO_VALUE else value

    def delete(self, keyword) -> bool:
        """Remove keyword; False if it was not present."""
        try:
            s = validate_keyword(keyword)
        except InvalidKeyword:
            return False
        u, held = self._walk(s)[:2]
        if held is None or held == NO_VALUE:
            return False
        self._nlm.update_value(u, NO_VALUE)
        self._live -= 1
        return True

    def items(self) -> Iterator[tuple[bytes, int]]:
        """All (keyword, value) pairs, in label-storage order.

        Keywords are respelled by climbing to the root through one
        parent_keys() snapshot and replaying the path downward. Raises
        RuntimeError, as a dict does, if an insert adds nodes while the
        pairs are being iterated.
        """
        backend = self._backend
        keys = backend.parent_keys()
        nodes = backend.node_count
        for nid, payload in self._nlm.iter_items():
            if payload.value is None or payload.value == NO_VALUE:
                continue
            yield self._spell(keys, nid, payload.label), payload.value
            if backend.node_count != nodes:
                raise RuntimeError("dictionary changed size during iteration")

    def _spell(self, keys, nid: int, label: bytes) -> bytes:
        nlm = self._nlm
        lam = self._lam
        step = self._step_code
        chain = self._backend.edges_above(keys, nid)
        parts = []
        pending = 0
        cur_label = nlm.access(self._backend.root_id).label
        for node, c in reversed(chain):
            if c == step:
                pending += lam
                continue
            char, off = divmod(c, lam)
            parts.append(cur_label[:pending + off])
            parts.append(bytes((char,)))
            pending = 0
            cur_label = nlm.access(node).label
        parts.append(label)
        raw = b"".join(parts)
        # an edge can carry the terminator itself (one keyword prefixing
        # another); everything after it is padding by construction
        if raw and raw[-1] == 0:
            raw = raw[:-1]
        return raw

    @property
    def key_count(self) -> int:
        return self._live

    def __len__(self) -> int:
        return self._live

    def __contains__(self, keyword) -> bool:
        return self.lookup(keyword) is not None

    @property
    def config(self) -> Config:
        return self._config

    @property
    def node_count(self) -> int:
        return self._backend.node_count

    @property
    def capacity(self) -> int:
        return self._backend.capacity

    @property
    def growth_events(self) -> int:
        return self._backend.growth_events

    @property
    def growth_ns(self) -> int:
        """Wall ns spent in the node table's doublings, label moves included."""
        return self._backend.growth_ns

    def memory_bytes(self) -> int:
        """Bytes held by the trie table(s) and label storage."""
        return self._backend.memory_bytes() + self._nlm.memory_bytes()
