"""Seeded benchmark inputs: corpora, operation streams and expected answers.

The generators have the same shapes as the ones in tests/conftest.py but
live here, so that editing a test can never change what the benchmark
measures. Everything is derived from the workload name, the seed and the
key count; string seeds make random.Random independent of hash
randomization, so one seed gives byte-identical inputs on every run.
Expected answers come from a plain dict; the library sees only keys and
values.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

# Operation kinds of a stream. HIT and MISS are lookups; REVIVE and FRESH
# are inserts of a deleted and of a never-seen key.
HIT, MISS, DELETE, REVIVE, FRESH = range(5)
KIND_NAMES = ("hit", "miss", "delete", "revive", "fresh")

N_KEYS = 100_000
WRITE_BLOCK = 100
INITIAL_CAPACITY = 16  # 13 doublings on the way to 10^5 keys
NO_VALUE = (1 << 32) - 1  # the library rejects this value


@dataclass(frozen=True)
class Workload:
    name: str
    trie_repr: str
    label_map: str
    corpus: str
    stream: str  # "read" or "churn"
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("urls-read", "cbt", "slm", "urls", "read",
             "the paper's compact default on prefix-heavy keys: loads slm label "
             "access and the slot-addressed growth with its slm remap"),
    Workload("kmers-read", "pbt", "plm", "kmers", "read",
             "4-letter alphabet, ~7.4 labels per hit in plain storage: loads the "
             "hash probe, bypasses sparse label access"),
    Workload("words-churn", "cfkt", "slm", "words", "churn",
             "writes beside reads on short keys: loads update_value, dense-id "
             "appends and the cfkt rehash with its displacement tiers"),
    Workload("urls-fk", "pfkt", "plm", "urls", "read",
             "the only pfkt probe and growth; its bytes_per_key next to "
             "urls-read's is the compact-versus-plain comparison"),
)}

# churn mix in percent; revivals fall back to deletes while nothing is deleted
CHURN_MIX = ((HIT, 50), (MISS, 10), (DELETE, 15), (REVIVE, 15), (FRESH, 10))


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


_LOWER = b"abcdefghijklmnopqrstuvwxyz"


def random_words(n: int, rng: random.Random, min_len: int = 4,
                 max_len: int = 12) -> list[bytes]:
    """n distinct lowercase words, in generation order."""
    seen: set[bytes] = set()
    out: list[bytes] = []
    while len(out) < n:
        w = bytes(rng.choices(_LOWER, k=rng.randint(min_len, max_len)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def dna_kmers(n: int, rng: random.Random, k: int = 16) -> list[bytes]:
    """n distinct k-mers over ACGT, in generation order."""
    seen: set[bytes] = set()
    out: list[bytes] = []
    while len(out) < n:
        w = bytes(rng.choices(b"ACGT", k=k))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


_HOSTS = [b"www.%s.%s" % (w, t)
          for w in (b"acme", b"globex", b"initech", b"umbrella", b"stark",
                    b"wayne", b"tyrell", b"cyberdyne", b"aperture", b"hooli")
          for t in (b"com", b"org", b"net")]

_SEGMENTS = [w.encode() for w in (
    "about", "api", "archive", "assets", "blog", "cart", "catalog", "docs",
    "download", "events", "faq", "forum", "help", "images", "index", "legal",
    "login", "media", "news", "orders", "pages", "posts", "press", "products",
    "profile", "search", "shop", "static", "status", "store", "support",
    "tags", "team", "terms", "users", "videos", "wiki", "account")]


def synthetic_urls(n: int, rng: random.Random) -> list[bytes]:
    """n distinct URLs with heavy prefix sharing, each at most 60 bytes."""
    out = []
    for idx in range(n):
        host = _HOSTS[rng.randrange(len(_HOSTS))]
        depth = rng.randint(1, 2)
        segs = b"/".join(_SEGMENTS[rng.randrange(len(_SEGMENTS))] for _ in range(depth))
        out.append(b"http://%s/%s/%06d" % (host, segs, idx))
    return out


GENERATORS = {"urls": synthetic_urls, "kmers": dna_kmers, "words": random_words}


@dataclass
class Stream:
    """Parallel sequences of operations and the expected result of each:
    the value or None for a lookup, True for a delete or an insert."""

    kinds: bytes
    keys: list[bytes]
    values: array  # insert values; unused for lookups and deletes
    expected: list

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass
class Inputs:
    """Everything a run needs, built before the first timed operation.

    The build inserts keys[i] with value i, then the stream runs. Read
    workloads also get write blocks, each deleting WRITE_BLOCK present keys
    and then re-inserting them with their old values, so a block leaves
    the map as it found it; on churn the stream holds the writes.
    """

    workload: Workload
    seed: int
    keys: list[bytes]
    stream: Stream
    writes: list[Stream]


def build_stream(keys: list[bytes]) -> Stream:
    """The build as a stream: keys[i] -> i, each a fresh insert."""
    n = len(keys)
    return Stream(bytes([FRESH]) * n, keys, array("L", range(n)), [True] * n)


def absent_keys(w: Workload, seed: int, count: int, present: set[bytes]) -> list[bytes]:
    """count distinct keys from the corpus generator under another seed, none present."""
    gen = GENERATORS[w.corpus]
    rng = _rng(w.name, seed, "absent")
    out: list[bytes] = []
    seen = set(present)
    while len(out) < count:
        for k in gen(count, rng):
            if k not in seen:
                seen.add(k)
                out.append(k)
    del out[count:]
    return out


def _read_stream(w: Workload, seed: int, keys: list[bytes], present: set[bytes]):
    """Every key once and as many absent keys, shuffled; write blocks over
    2% of the keys."""
    n = len(keys)
    rng = _rng(w.name, seed, "stream")
    misses = absent_keys(w, seed, n, present)
    ops = [2 * i + kind for i in range(n) for kind in (HIT, MISS)]
    rng.shuffle(ops)
    kinds = bytes(op & 1 for op in ops)
    stream_keys = [misses[op >> 1] if op & 1 else keys[op >> 1] for op in ops]
    expected = [None if op & 1 else op >> 1 for op in ops]
    stream = Stream(kinds, stream_keys, array("L", bytes(4 * len(ops))), expected)
    picked = rng.sample(range(n), n // 50)
    writes = []
    for b in range(0, len(picked), WRITE_BLOCK):
        block = picked[b:b + WRITE_BLOCK]
        writes.append(Stream(bytes([DELETE] * len(block) + [REVIVE] * len(block)),
                             [keys[i] for i in block] * 2,
                             array("L", [0] * len(block) + block),
                             [True] * (2 * len(block))))
    return stream, writes


def _pop_random(items: list[bytes], rng: random.Random) -> bytes:
    """Remove and return a uniformly chosen item in O(1), moving the last
    item into its place."""
    i = rng.randrange(len(items))
    k = items[i]
    items[i] = items[-1]
    items.pop()
    return k


def _churn_stream(w: Workload, seed: int, keys: list[bytes], present: set[bytes]):
    """1.5 ops per build key, drawn from CHURN_MIX against a simulated dict.

    Fresh inserts stay within the headroom the last build doubling leaves
    (about 0.15 n nodes at 10^5 keys), so the stream never grows the table.
    """
    n = len(keys)
    length = 3 * n // 2
    rng = _rng(w.name, seed, "stream")
    n_miss = length // 10
    extra = absent_keys(w, seed, n_miss + length // 5, present)
    misses, fresh = extra[:n_miss], extra[n_miss:]
    live = {k: i for i, k in enumerate(keys)}
    alive, dead = list(keys), []
    mix_kinds, weights = zip(*CHURN_MIX)
    kinds = bytearray()
    stream_keys: list[bytes] = []
    values = array("L")
    expected: list = []
    for kind in rng.choices(mix_kinds, weights, k=length):
        if kind == REVIVE and not dead:
            kind = DELETE
        value = 0
        if kind == HIT:
            k = alive[rng.randrange(len(alive))]
            result = live[k]
        elif kind == MISS:
            if dead and rng.random() < 0.5:
                k = dead[rng.randrange(len(dead))]
            else:
                k = misses[rng.randrange(n_miss)]
            result = None
        elif kind == DELETE:
            k = _pop_random(alive, rng)
            dead.append(k)
            del live[k]
            result = True
        else:
            k = _pop_random(dead, rng) if kind == REVIVE else fresh.pop()
            value = rng.randrange(NO_VALUE)
            live[k] = value
            alive.append(k)
            result = True
        kinds.append(kind)
        stream_keys.append(k)
        values.append(value)
        expected.append(result)
    return Stream(bytes(kinds), stream_keys, values, expected), []


def make_inputs(name: str, seed: int, n: int = N_KEYS) -> Inputs:
    w = WORKLOADS[name]
    keys = GENERATORS[w.corpus](n, _rng(w.name, seed, "corpus"))
    _rng(w.name, seed, "order").shuffle(keys)
    present = set(keys)
    if len(present) != n:
        raise ValueError(f"{w.corpus} generator repeated a key")
    make_stream = _read_stream if w.stream == "read" else _churn_stream
    return Inputs(w, seed, keys, *make_stream(w, seed, keys, present))


def final_map(inp: Inputs, executed: int) -> dict[bytes, int]:
    """The expected key -> value map after the build and the first
    `executed` stream operations; write blocks leave it unchanged."""
    live = {k: i for i, k in enumerate(inp.keys)}
    s = inp.stream
    for i in range(executed):
        if s.kinds[i] == DELETE:
            del live[s.keys[i]]
        elif s.kinds[i] in (REVIVE, FRESH):
            live[s.keys[i]] = s.values[i]
    return live
