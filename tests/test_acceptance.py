"""Acceptance gate: eleven end-to-end checks over the whole stack.

Each check is one test; the terminal summary prints an ACCEPTANCE line
per passed criterion (see conftest). Shared builds live in module-scoped
fixtures so the runs stay within their time targets.
"""

import functools
import random
import time

import pytest

from conftest import TECH_WORDS, dna_kmers, random_words, synthetic_urls
from dynpdt import Config, Dictionary
from dynpdt.analysis import (
    decomposition_bounds,
    nonstep_path_nodes,
    shape_stats,
)
from dynpdt.cli import shuffle_keys
from dynpdt.core import LABEL_MAPS, REPRS, validate_keyword
from dynpdt.hashing import BijectiveTransform, vbyte_decode, vbyte_encode
from oracles import OracleDictionary, parent_edges

ALL_COMBOS = [(r, m) for r in REPRS for m in LABEL_MAPS]


@functools.lru_cache(maxsize=None)
def corpora() -> dict:
    return {
        "words": random_words(10_000, seed=101),
        "kmers": dna_kmers(10_000, seed=102),
        "urls": synthetic_urls(10_000, seed=103),
    }


def records(d):
    """(label, edge code or None-for-root, parent id, is step) per node."""
    edges = parent_edges(d._backend)
    out = []
    for nid, p in d._nlm.iter_items():
        parent, edge = edges.get(nid, (None, None))
        out.append((nid, p.label, p.value, edge, parent))
    return out


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    for r, m in ALL_COMBOS:
        d = Dictionary(Config(trie_repr=r, label_map=m, initial_capacity=256))
        for i, w in enumerate(TECH_WORDS):
            d.insert(w, i)
        lam = d.config.offset_limit
        by_label = {rec[1]: rec for rec in records(d)}
        assert set(by_label) == {b"technology", b"cs", b"ue", b"lly"}
        root = d._backend.root_id
        assert by_label[b"technology"][0] == root
        assert divmod(by_label[b"cs"][3], lam) == (ord("i"), 5)
        assert divmod(by_label[b"ue"][3], lam) == (ord("q"), 0)
        assert divmod(by_label[b"lly"][3], lam) == (ord("a"), 1)
        assert by_label[b"cs"][4] == root
        assert by_label[b"ue"][4] == by_label[b"cs"][0]
        assert by_label[b"lly"][4] == by_label[b"cs"][0]

        # with the offset limit at 8, the mismatch at offset 9 takes one
        # hop node and the edge restarts its offset count
        d8 = Dictionary(Config(trie_repr=r, label_map=m, offset_limit=8,
                               initial_capacity=256))
        for i, w in enumerate(TECH_WORDS + [b"technological"]):
            d8.insert(w, i)
        hops = [rec for rec in records(d8) if rec[2] is None]
        assert len(hops) == 1
        assert hops[0][3] == d8.config.step_code
        assert hops[0][4] == d8._backend.root_id
        (cal,) = [rec for rec in records(d8) if rec[1] == b"cal"]
        assert divmod(cal[3], 8) == (ord("i"), 1)
        assert cal[4] == hops[0][0]
        for i, w in enumerate(TECH_WORDS + [b"technological"]):
            assert d8.lookup(w) == i
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_oracle_differential():
    t0 = time.perf_counter()
    rng = random.Random(0)
    pool = sorted(
        {bytes(rng.choices(b"ab", k=rng.randint(1, 10))) for _ in range(900)} |
        {bytes(rng.choices(b"abcdefghij", k=rng.randint(1, 12))) for _ in range(900)})
    cells = [(r, m, lam, ell)
             for r, m in ALL_COMBOS for lam in (4, 64) for ell in (8, 64)]
    assert len(cells) == 32
    for seed, (r, m, lam, ell) in enumerate(cells):
        d = Dictionary(Config(trie_repr=r, label_map=m, offset_limit=lam,
                              group_size=ell, initial_capacity=256))
        oracle = OracleDictionary()
        opr = random.Random(seed)
        deleted: set[bytes] = set()
        revived = 0
        for step in range(100_000):
            w = pool[opr.randrange(len(pool))]
            op = opr.random()
            if op < 0.45:
                got = d.insert(w, step)
                assert got == oracle.insert(w, step)
                if got and w in deleted:
                    revived += 1
                    deleted.discard(w)
            elif op < 0.8:
                assert d.lookup(w) == oracle.lookup(w)
            else:
                got = d.delete(w)
                assert got == oracle.delete(w)
                if got:
                    deleted.add(w)
            if step % 50_000 == 49_999:
                assert sorted(d.items()) == sorted(oracle.items())
        assert len(d) == oracle.key_count
        assert revived > 0  # resurrections genuinely exercised
    assert time.perf_counter() - t0 < 300


@pytest.fixture(scope="module")
def growth_run():
    """120k-key builds from 2^16 slots, instrumented per operation."""
    keys = synthetic_urls(120_000, seed=31)
    out = {}
    for repr_ in ("cbt", "cfkt"):
        d = Dictionary(Config(trie_repr=repr_, label_map="slm",
                              initial_capacity=1 << 16))
        forward = d._backend.on_grow
        remap_events = []

        def spy(remap, new_cap, _fwd=forward, _ev=remap_events, _d=d):
            if remap is not None:
                moved = [v for v in remap if v >= 0]  # -1 marks a vacant slot
                _ev.append((len(moved), len(set(moved)), min(moved), max(moved),
                            _d._backend.node_count, new_cap))
            else:
                _ev.append(None)
            _fwd(remap, new_cap)

        d._backend.on_grow = spy
        load_violations = 0
        early_ids = {}
        for i, k in enumerate(keys):
            d.insert(k, i)
            if 10 * d.node_count > 9 * d.capacity:
                load_violations += 1
            if i == 999 and repr_ == "cfkt":
                for k2 in keys[:1000]:
                    u, held = d._walk(validate_keyword(k2))[:2]
                    assert held is not None
                    early_ids[k2] = u
        misses = sum(1 for i, k in enumerate(keys) if d.lookup(k) != i)
        out[repr_] = {
            "dict": d,
            "events": remap_events,
            "load_violations": load_violations,
            "early_ids": early_ids,
            "misses": misses,
        }
    return out


def test_criterion_03_growth_preservation(growth_run):
    for repr_, run in growth_run.items():
        d = run["dict"]
        assert d.growth_events >= 2
        assert d.capacity >= 1 << 18
        assert run["misses"] == 0

    # slot-addressed ids move through a bijection covering every node
    for event in growth_run["cbt"]["events"]:
        size, distinct, lo_id, hi_id, nodes_then, new_cap = event
        assert size == distinct == nodes_then
        assert 0 <= lo_id and hi_id < new_cap

    # dense ids never move
    assert all(e is None for e in growth_run["cfkt"]["events"])
    d = growth_run["cfkt"]["dict"]
    early = growth_run["cfkt"]["early_ids"]
    assert len(early) == 1000
    for k, nid in early.items():
        u, held = d._walk(validate_keyword(k))[:2]
        assert held is not None
        assert u == nid


def test_criterion_04_load_factor(growth_run):
    for run in growth_run.values():
        assert run["load_violations"] == 0
        d = run["dict"]
        assert 10 * d.node_count <= 9 * d.capacity


def test_criterion_05_bijective_transform():
    for z in range(1, 17):
        tf = BijectiveTransform(z)
        size = 1 << z
        seen = bytearray(size)
        for x in range(size):
            y = tf.forward(x)
            assert tf.inverse(y) == x
            seen[y] = 1
        assert all(seen)
    tf = BijectiveTransform(48)
    rng = random.Random(5)
    for _ in range(1_000_000):
        x = rng.getrandbits(48)
        assert tf.inverse(tf.forward(x)) == x


def test_criterion_06_vbyte_codec():
    for n in range((1 << 20) + 1):
        enc = vbyte_encode(n)
        assert vbyte_decode(enc) == (n, len(enc))
    for n, length in [(0, 1), (127, 1), (128, 2), (16383, 2),
                      (16384, 3), (2**32 - 1, 5)]:
        enc = vbyte_encode(n)
        assert len(enc) == length
        assert vbyte_decode(enc) == (n, length)


@pytest.fixture(scope="module")
def sandwich_runs():
    """Per corpus: the bound pair, then 20 shuffled builds' measurements."""
    runs = []
    for name, keys in corpora().items():
        n, lo, hi = decomposition_bounds(keys)
        assert n == len(keys)
        for seed in range(20):
            order = list(keys)
            shuffle_keys(order, seed)
            d = Dictionary(Config(initial_capacity=1 << 14))
            for i, w in enumerate(order):
                d.insert(w, i)
            st = shape_stats(d)
            in_bound = sum(1 for w in keys
                           if nonstep_path_nodes(d, w) - 1 <= len(w) + 1)
            runs.append((name, seed, n, lo, hi, st, in_bound))
    return runs


def test_criterion_07_height_sandwich(sandwich_runs):
    assert len(sandwich_runs) == 60
    for name, seed, n, lo, hi, st, _ in sandwich_runs:
        assert st.nonstep_count == n
        assert lo <= st.height_sum <= hi
        assert lo / n <= st.ave_height <= hi / n


def test_criterion_08_offset_limit_monotone():
    for name, keys in corpora().items():
        terminated_max = max(len(k) for k in keys) + 1
        fractions = []
        for lam in (4, 8, 16, 32, 64, 128):
            d = Dictionary(Config(offset_limit=lam, initial_capacity=1 << 14))
            for i, w in enumerate(keys):
                d.insert(w, i)
            st = shape_stats(d)
            fractions.append(st.steps_pct)
            if lam >= terminated_max:
                assert st.steps_pct == 0.0
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] > 0  # the low limit really creates hop nodes


def test_criterion_09_space_direction():
    keys = synthetic_urls(100_000, seed=9)

    def built_size(repr_, nlm):
        d = Dictionary(Config(trie_repr=repr_, label_map=nlm, group_size=16,
                              initial_capacity=1 << 16))
        for i, w in enumerate(keys):
            d.insert(w, i)
        return d.memory_bytes()

    cbt_slm = built_size("cbt", "slm")
    pbt_plm = built_size("pbt", "plm")
    cfkt_slm = built_size("cfkt", "slm")
    pfkt_plm = built_size("pfkt", "plm")
    assert cbt_slm <= 0.6 * pbt_plm
    assert cbt_slm <= cfkt_slm <= pfkt_plm


def test_criterion_10_path_length_bound(sandwich_runs):
    # labeled edges per keyword never exceed its terminated length
    for name, seed, n, lo, hi, st, in_bound in sandwich_runs:
        assert in_bound == n


def test_criterion_11_determinism():
    keys = synthetic_urls(20_000, seed=77)
    for repr_, nlm in (("cbt", "slm"), ("pfkt", "plm")):
        def build():
            order = list(keys)
            shuffle_keys(order, 123)
            d = Dictionary(Config(trie_repr=repr_, label_map=nlm,
                                  initial_capacity=1 << 12))
            for i, w in enumerate(order):
                d.insert(w, i)
            return d

        a, b = build(), build()
        assert a.memory_bytes() == b.memory_bytes()
        assert shape_stats(a) == shape_stats(b)
        assert list(a.items()) == list(b.items())
        assert (a.node_count, a.capacity, a.growth_events) == \
               (b.node_count, b.capacity, b.growth_events)
