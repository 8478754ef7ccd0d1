"""Keyword dictionary over an incrementally path-decomposed trie.

Each stored keyword owns exactly one labeled node: the root holds the
first keyword in full, and every later keyword branches off an existing
label at its first differing byte. The branch edge carries that byte plus
its position within the parent label; positions at or past the offset
limit are reached through a chain of synthetic step nodes, each standing
for a fixed-size hop. Lookups therefore compare one label per labeled
node on the path and never rescan shared prefixes.

All three operations share one descent, _walk(). It keeps the terminated
keyword whole and advances an offset into it: at each labeled node it
tests for an exact match in place, otherwise computes the first
differing byte and follows the step hops and the branch edge. It ends
either at the keyword's node or at the first missing child, reported as
the node it stopped at, the step hops still owed, the branch edge code
and the keyword offset of the branching byte. lookup() and delete() read
that result; insert() creates just the missing tail from it.

Deletion clears a node's value but keeps the node, so the trie only ever
grows; re-inserting a deleted keyword revives it in place.
"""

from __future__ import annotations

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
        self._nlm = make_label_map(self._config, self._backend.family)
        self._live = 0

    def _on_grow(self, remap, new_capacity: int) -> None:
        if remap is None:
            self._nlm.ensure_capacity(new_capacity)
        else:
            self._nlm.remap(remap, new_capacity)

    def _walk(self, s: bytes):
        """Descend along terminated keyword s; the one walk of all operations.

        Returns (node, payload, hops, code, pos). When s has a node, payload
        is its label record and the rest is unused. Otherwise payload is
        None and node is where the path stops: below it, hops step nodes
        and then the edge code are missing, and s[pos] is the branching
        byte, so s[pos + 1:-1] is the label a new node would take. A code
        of None means the root has no label yet: the dictionary is empty.
        """
        backend = self._backend
        getchild = backend.getchild
        access = self._nlm.access
        u = backend.root_id
        payload = access(u)
        if payload is None:
            return u, None, 0, None, 0
        lam_bits = self._lam_bits
        off_mask = self._lam - 1
        step = self._step_code
        n = len(s) - 1  # s[n] is the terminator
        pos = 0  # the residual keyword is s[pos:]
        while True:
            stored = payload.label
            m = len(stored)
            r = n - pos
            if m == r and s.startswith(stored, pos):
                return u, payload, 0, None, 0
            # the label is stored without its terminator, so when the common
            # window matches the strings diverge where the shorter one ends
            w = m if m <= r else r + 1
            x = int.from_bytes(s[pos:pos + w], "big") ^ int.from_bytes(stored[:w], "big")
            if x:
                i = pos + w - ((x.bit_length() + 7) >> 3)
            elif m < r:
                i = pos + m
            else:
                raise CorruptionError("terminated strings cannot nest")
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
            payload = access(u)
            if payload is None:
                raise CorruptionError(f"node {u} has no label record")

    def insert(self, keyword, value: int) -> bool:
        """Map keyword to value; False if it is already present.

        A keyword removed by delete() is revived in place and counts as
        inserted. Present keywords keep their old value.
        """
        s = validate_keyword(keyword)
        if not 0 <= value < NO_VALUE:
            raise ValueError(f"value must be in [0, {NO_VALUE})")
        u, payload, hops, c, i = self._walk(s)
        nlm = self._nlm
        if payload is not None:
            if payload.value != NO_VALUE:
                return False
            nlm.update_value(u, value)
        elif c is None:
            # very first keyword: the root takes it whole
            nlm.associate(u, s[:-1], value)
        else:
            backend = self._backend
            step = self._step_code
            while hops:
                u = backend.addchild(u, step)
                nlm.associate_step(u)
                hops -= 1
            u = backend.addchild(u, c)
            nlm.associate(u, s[i + 1:-1], value)
        self._live += 1
        return True

    def _locate(self, s: bytes):
        """Walk a terminated keyword to its node; (node, payload) or None.

        Purely structural: a located node may still hold the cleared-value
        marker left behind by delete().
        """
        u, payload = self._walk(s)[:2]
        return None if payload is None else (u, payload)

    def lookup(self, keyword) -> Optional[int]:
        """Value stored for keyword, or None. Malformed keywords are absent."""
        try:
            s = validate_keyword(keyword)
        except InvalidKeyword:
            return None
        payload = self._walk(s)[1]
        if payload is None:
            return None
        value = payload.value
        return None if value == NO_VALUE else value

    def delete(self, keyword) -> bool:
        """Remove keyword; False if it was not present."""
        try:
            s = validate_keyword(keyword)
        except InvalidKeyword:
            return False
        u, payload = self._walk(s)[:2]
        if payload is None or payload.value == NO_VALUE:
            return False
        self._nlm.update_value(u, NO_VALUE)
        self._live -= 1
        return True

    def items(self) -> Iterator[tuple[bytes, int]]:
        """All (keyword, value) pairs, in label-storage order.

        Keywords are respelled by climbing to the root and replaying the
        path downward. Do not mutate while iterating.
        """
        nlm = self._nlm
        for nid, payload in nlm.iter_items():
            if payload.value is None or payload.value == NO_VALUE:
                continue
            yield self._spell(nid, payload.label), payload.value

    def _spell(self, nid: int, label: bytes) -> bytes:
        backend = self._backend
        nlm = self._nlm
        lam = self._lam
        step = self._step_code
        root = backend.root_id
        chain = []  # (node, incoming edge code), bottom-up
        u = nid
        while u != root:
            chain.append((u, backend.getedge(u)))
            u = backend.getparent(u)
        parts = []
        pending = 0
        cur_label = nlm.access(root).label
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

    def memory_bytes(self) -> int:
        """Bytes held by the trie table(s) and label storage."""
        return self._backend.memory_bytes() + self._nlm.memory_bytes()
