"""Reference models the implementation is tested against.

OracleDictionary mirrors the facade semantics with a plain dict.
OracleTrie mirrors the backend contract with adjacency maps, tracking the
correspondence between its own stable node handles and whatever ids the
backend under test currently uses (which move when bonsai tables grow).
packed_entry reads a node table's word arrays without the library's code.
"""

from __future__ import annotations

from array import array


def packed_entry(words, width: int, i: int) -> int:
    """Entry i of width-bit entries packed low bit first into 64-bit words:
    bits [i * width, (i + 1) * width) of the two words around it, read as
    one 128-bit integer."""
    w, off = divmod(i * width, 64)
    pair = words[w] | (words[w + 1] << 64 if w + 1 < len(words) else 0)
    return pair >> off & (1 << width) - 1


def parent_edges(backend) -> dict[int, tuple[int, int]]:
    """(parent id, incoming edge code) of every non-root node, by node id."""
    zs = backend._sym_bits
    code_mask = (1 << zs) - 1
    return {u: (k >> zs, k & code_mask)
            for u, k in enumerate(backend.parent_keys()) if k != backend._root_key}


class OracleDictionary:
    """Ground-truth keyword map with the facade's exact semantics."""

    def __init__(self) -> None:
        self._map: dict[bytes, int] = {}

    def insert(self, key: bytes, value: int) -> bool:
        if key in self._map:
            return False
        self._map[key] = value
        return True

    def lookup(self, key: bytes):
        return self._map.get(key)

    def delete(self, key: bytes) -> bool:
        return self._map.pop(key, None) is not None

    def items(self):
        return self._map.items()

    @property
    def key_count(self) -> int:
        return len(self._map)


class OracleTrie:
    """Adjacency-map trie keyed by its own immortal node handles."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.children: dict[tuple[int, int], int] = {}
        self.parent: dict[int, tuple[int, int]] = {}
        self.n_nodes = 1
        self.root = 0
        self._next = 1
        # oracle handle -> current backend id, maintained through growths
        self.bid = {0: backend.root_id}
        self._hooked(backend)

    def _hooked(self, backend) -> None:
        previous = backend.on_grow

        def follow(remap, new_capacity):
            if remap is not None:
                self.bid = {h: remap[b] for h, b in self.bid.items()}
            if previous is not None:
                previous(remap, new_capacity)

        backend.on_grow = follow

    def addchild(self, handle: int, code: int) -> int:
        assert (handle, code) not in self.children
        new = self._next
        self._next += 1
        self.children[(handle, code)] = new
        self.parent[new] = (handle, code)
        self.n_nodes += 1
        got = self.backend.addchild(self.bid[handle], code)
        self.bid[new] = got
        return new

    def getchild(self, handle: int, code: int):
        mine = self.children.get((handle, code))
        got = self.backend.getchild(self.bid[handle], code)
        if mine is None:
            assert got is None
        else:
            assert got == self.bid[mine]
        return mine

    def check_parent(self, handle: int) -> None:
        parent, code = self.parent[handle]
        edge = parent_edges(self.backend)[self.bid[handle]]
        assert edge == (self.bid[parent], code)

    def check_all(self) -> None:
        """Compare the backend's whole parent_keys() array with the edges
        held here: the root and every id no node holds read the root key.
        Then compare every node's edges_above() climb with its chain of
        parents here."""
        b = self.backend
        assert b.node_count == self.n_nodes
        ids = set(self.bid.values())
        assert len(ids) == self.n_nodes
        want = array("Q", [b._root_key]) * b.capacity
        for handle, (parent, code) in self.parent.items():
            want[self.bid[handle]] = (self.bid[parent] << b._sym_bits) | code
        keys = b.parent_keys()
        assert keys == want
        for handle, u in self.bid.items():
            chain = []
            while handle != self.root:
                parent, code = self.parent[handle]
                chain.append((self.bid[handle], code))
                handle = parent
            assert b.edges_above(keys, u) == chain
