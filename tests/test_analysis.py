"""Shape census and decomposition-bound checks.

The greedy bound computation gets an independent oracle here: for tiny
keyword sets we enumerate every attainable height sum over all path
decompositions of the byte trie and compare the extremes.
"""

import gc
import itertools
import os
import random
import sys
import tracemalloc

import pytest

import dynpdt
from conftest import TECH_WORDS, dna_kmers, random_words, synthetic_urls
from dynpdt import (
    Config,
    Dictionary,
    EmptyCorpus,
    anticentroid_bound,
    centroid_bound,
    decomposition_bounds,
    match_profile,
    nonstep_path_nodes,
    probe_stats,
    shape_stats,
)
from dynpdt.core import REPRS
from test_trie_repr import shared_home_edges


def build(words, lam=64, capacity=256):
    d = Dictionary(Config(offset_limit=lam, initial_capacity=capacity))
    for i, w in enumerate(words):
        d.insert(w, i)
    return d


def attainable_height_sums(node):
    """(leaf count, set of every reachable height sum) for a byte-trie dict.

    A decomposition continues the current path into exactly one child and
    hangs the others one level deeper, charging each its full leaf count.
    Exponential, so keep inputs tiny.
    """
    if not node:
        return 1, {0}
    kids = [attainable_height_sums(c) for c in node.values()]
    leaves = sum(k[0] for k in kids)
    sums = set()
    for star in range(len(kids)):
        for pick in itertools.product(*(k[1] for k in kids)):
            total = sum(t + kids[i][0] for i, t in enumerate(pick))
            sums.add(total - kids[star][0])
    return leaves, sums


def byte_trie(words):
    root: dict = {}
    for w in words:
        node = root
        for b in w + b"\x00":
            node = node.setdefault(b, {})
    return root


def test_single_key_stats():
    st = shape_stats(build([b"alone"]))
    assert st.node_count == 1
    assert st.step_count == 0
    assert st.height_sum == 0
    assert st.ave_height == 0.0
    assert st.steps_pct == 0.0
    assert st.ave_nll == 6.0  # terminated length


def test_worked_example_stats():
    st = shape_stats(build(TECH_WORDS))
    assert st.node_count == 4
    assert st.step_count == 0
    assert st.height_sum == 5
    assert st.ave_height == 1.25
    assert st.label_sum == 11 + 3 + 3 + 4
    assert st.ave_nll == 21 / 4


def test_step_nodes_in_census():
    st = shape_stats(build(TECH_WORDS + [b"technological"], lam=8))
    assert st.node_count == 6
    assert st.step_count == 1
    assert st.nonstep_count == 5
    assert st.steps_pct == pytest.approx(1 / 6)
    assert st.height_sum == 6
    assert st.ave_height == 1.2


@pytest.mark.parametrize("repr_", REPRS)
def test_probe_stats_on_hand_placed_slots(repr_):
    # the root sits at slot 0 of 64. Edges homed at 62 and 63 fill 62, 63,
    # then 1-3 past the table's end; edges homed at 10 and 11 fill 10-14
    d = Dictionary(Config(trie_repr=repr_, initial_capacity=64))
    b = d._backend
    for home, n in ((62, 3), (63, 2), (10, 3), (11, 2)):
        for e in shared_home_edges(b, home, n):
            b.addchild(*e)
    assert sorted(b._used_slots()) == [0, 1, 2, 3, 10, 11, 12, 13, 14, 62, 63]
    ps = probe_stats(d)
    assert ps.max_cluster == 6  # 62, 63, 0, 1, 2, 3
    # a failed search from the p-th slot of a cluster of L slots scans
    # L - p + 1 slots, 27 over the 6-slot cluster and 20 over the 5-slot
    # one; from each of the 53 vacant slots it scans 1
    assert ps.miss_probes_mean == (27 + 20 + 53) / 64
    # displacements: the root 0; from 62: 0, 1, 3; from 63: 3, 4; from
    # 10: 0, 1, 2; from 11: 2, 3. A hit scans one slot more
    assert ps.hit_probes_mean == (11 + 0 + 4 + 7 + 3 + 5) / 11


def test_empty_inputs_raise():
    with pytest.raises(EmptyCorpus):
        shape_stats(Dictionary(Config(initial_capacity=256)))
    with pytest.raises(EmptyCorpus):
        decomposition_bounds([])


def test_two_sibling_keys_bounds():
    n, lo, hi = decomposition_bounds([b"ab", b"ac"])
    assert (n, lo, hi) == (2, 1, 1)
    assert centroid_bound([b"ab", b"ac"]) == 0.5
    assert anticentroid_bound([b"ab", b"ac"]) == 0.5


def test_duplicates_ignored_in_bounds():
    assert decomposition_bounds([b"ab", b"ac", b"ab"]) == (2, 1, 1)


TINY_SETS = [
    [b"a"],
    [b"a", b"b"],
    [b"a", b"ab"],
    [b"ab", b"ac", b"b"],
    [b"aa", b"ab", b"ba", b"bb"],
    [b"a", b"ab", b"abc", b"b"],
    [b"ca", b"cb", b"cc", b"cd", b"ce"],
    [b"aa", b"ab", b"abb", b"b", b"ba", b"c"],
]


@pytest.mark.parametrize("keys", TINY_SETS, ids=lambda ks: b"/".join(ks).decode())
def test_bounds_match_exhaustive_oracle(keys):
    leaves, sums = attainable_height_sums(byte_trie(keys))
    n, lo, hi = decomposition_bounds(keys)
    assert n == leaves == len(keys)
    assert lo == min(sums)
    assert hi == max(sums)


def test_bounds_match_exhaustive_oracle_on_random_sets():
    # besides the shapes above: corpora of a single key, whose one range
    # is never split, and keys that are prefixes of others, whose runs
    # split on the terminator; duplicates in the input are ignored
    rng = random.Random(23)
    singles = prefixed = 0
    for _ in range(400):
        words = [bytes(rng.choices(b"abc", k=rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 7))]
        keys = set(words)
        singles += len(keys) == 1
        prefixed += any(a != b and b.startswith(a) for a in keys for b in keys)
        leaves, sums = attainable_height_sums(byte_trie(words))
        assert decomposition_bounds(words) == (leaves, min(sums), max(sums))
    assert singles >= 20 and prefixed >= 100


@pytest.mark.parametrize("corpus", [synthetic_urls, random_words, dna_kmers])
def test_bounds_memory_near_the_keys_size(corpus):
    # the bounds hold the sorted keys and a stack of ranges, not a trie
    keys = corpus(10_000)
    own = sum(sys.getsizeof(k) + 1 for k in keys)
    tracemalloc.start()
    try:
        decomposition_bounds(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * own


def test_every_permutation_lands_in_bounds():
    keys = [b"aa", b"ab", b"abb", b"b", b"ba"]
    n, lo, hi = decomposition_bounds(keys)
    seen = set()
    for order in itertools.permutations(keys):
        st = shape_stats(build(list(order)))
        assert st.nonstep_count == n
        assert lo <= st.height_sum <= hi
        seen.add(st.height_sum)
    # the band is not vacuous: different orders really move the sum
    assert len(seen) > 1


def test_bounds_are_order_independent(small_words):
    want = decomposition_bounds(small_words)
    for seed in range(3):
        order = list(small_words)
        random.Random(seed).shuffle(order)
        assert decomposition_bounds(order) == want


def test_build_sandwich_on_words(small_words):
    n, lo, hi = decomposition_bounds(small_words)
    for seed in range(5):
        order = list(small_words)
        random.Random(seed).shuffle(order)
        st = shape_stats(build(order, capacity=64))
        assert st.nonstep_count == n
        assert lo <= st.height_sum <= hi
        assert lo / n <= st.ave_height <= hi / n


def test_steps_fraction_monotone_in_offset_limit():
    # two-letter alphabet so mismatches land deep enough to need hop nodes
    rng = random.Random(8)
    pool = {bytes(rng.choices(b"ab", k=rng.randint(20, 40))) for _ in range(500)}
    words = sorted(pool)
    fractions = []
    for lam in (4, 8, 16, 32, 64, 128):
        st = shape_stats(build(words, lam=lam, capacity=64))
        assert 0 <= st.steps_pct < 1
        fractions.append(st.steps_pct)
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[0] > 0
    assert fractions[-1] == 0.0  # limit beyond the longest keyword


def test_path_nodes_bounded_by_key_length(small_words):
    d = build(small_words, lam=8, capacity=64)
    for w in small_words:
        n = nonstep_path_nodes(d, w)
        # labeled edges consume distinct bytes of the terminated keyword
        assert 1 <= n <= len(w) + 2


def test_path_nodes_terminator_edge_case():
    # "a" branches off "az" on the terminator itself: three labeled nodes
    d = build([b"z", b"az", b"a"])
    assert nonstep_path_nodes(d, b"z") == 1
    assert nonstep_path_nodes(d, b"az") == 2
    assert nonstep_path_nodes(d, b"a") == 3  # == len + 2, the tight case


def test_path_nodes_absent_key_raises():
    d = build([b"here"])
    with pytest.raises(KeyError):
        nonstep_path_nodes(d, b"gone")


def test_match_profile_counts_path_labels(combo, small_words):
    # a hit compares one label per labeled node on its path, and every one
    # but its own node's returns a differing byte
    r, m = combo
    d = Dictionary(Config(trie_repr=r, label_map=m, offset_limit=8,
                          initial_capacity=64))
    for i, w in enumerate(small_words):
        d.insert(w, i)
    prof = match_profile(d, small_words)
    assert prof.lookups == len(small_words)
    # the labeled nodes on each path, read off the parent chain instead
    keys = d._backend.parent_keys()
    paths = []
    for w in small_words:
        u, held = d._walk(w + b"\0")[:2]
        assert held is not None
        edges = d._backend.edges_above(keys, u)
        paths.append(1 + sum(c != d._step_code for _, c in edges))
        assert nonstep_path_nodes(d, w) == paths[-1]
    assert prof.labels == sum(paths)
    st = shape_stats(d)  # every labeled node holds one of small_words
    assert prof.labels == st.nonstep_count + st.height_sum
    assert prof.mismatches == prof.labels - prof.lookups
    assert 0 < prof.first_byte <= prof.mismatches
    assert "match" not in vars(d._nlm)  # the class's method serves again


def test_match_profile_first_byte_worked_example():
    # below the root, "technique", "technix" and "techni" reach the node
    # labeled "cs" with residuals "que", "x" and "" (the terminator), all
    # differing at byte 0; "technically"'s residual "cally" differs at byte 1
    d = build(TECH_WORDS)
    prof = match_profile(d, TECH_WORDS + [b"technix", b"techni"])
    assert (prof.lookups, prof.labels, prof.mismatches, prof.first_byte) == (6, 13, 9, 3)
    assert prof.labels_per_lookup == 13 / 6 and prof.first_byte_pct == 100 * 3 / 9
    with pytest.raises(EmptyCorpus):
        match_profile(d, [])


def test_match_profile_restores_the_wrapped_match():
    d = build(TECH_WORDS)

    def broken(*args):
        raise RuntimeError("label map fault")

    d._nlm.match = broken
    with pytest.raises(RuntimeError):
        match_profile(d, [b"technology"])
    assert vars(d._nlm)["match"] is broken


def test_census_counts_deleted_keywords(small_words):
    # deletion clears the value and keeps the node, so the census and a
    # deleted keyword's path count stay as they were
    d = build(small_words, lam=8, capacity=64)
    before = shape_stats(d)
    counts = {w: nonstep_path_nodes(d, w) for w in small_words[::5]}
    for w in counts:
        assert d.delete(w)
    assert shape_stats(d) == before
    for w, n in counts.items():
        assert nonstep_path_nodes(d, w) == n


def test_reads_leave_memory_unchanged(combo, small_words):
    # items() and shape_stats climb through a parent_keys() snapshot they
    # drop on return, so no table keeps an index on the side. memory_bytes
    # could not see such an index; tracemalloc does. It counts what the
    # library's own files still hold, after a first pass over a second
    # dictionary warms whatever the interpreter caches on first use. A full
    # collection empties the free lists, which keep freed tuples allocated
    r, m = combo
    library = [tracemalloc.Filter(True, os.path.join(os.path.dirname(dynpdt.__file__), "*"))]

    def held():
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(library)
        return sum(trace.size for trace in snapshot.traces)

    def build():
        d = Dictionary(Config(trie_repr=r, label_map=m, offset_limit=8,
                              initial_capacity=64))
        for i, w in enumerate(small_words):
            d.insert(w, i)
        return d

    warm, d = build(), build()
    before = d.memory_bytes()
    tracemalloc.start()
    try:
        assert len(list(warm.items())) == len(small_words)
        shape_stats(warm)
        start = held()
        assert len(list(d.items())) == len(small_words)
        after_items = held()
        assert shape_stats(d).node_count == d.node_count
        after_stats = held()
    finally:
        tracemalloc.stop()
    assert (after_items, after_stats) == (start, start)
    assert d.memory_bytes() == before


def test_census_consistent_across_backends(small_words):
    from conftest import ALL_COMBOS
    stats = set()
    for r, m in ALL_COMBOS:
        d = Dictionary(Config(trie_repr=r, label_map=m, offset_limit=8,
                              initial_capacity=64))
        for i, w in enumerate(small_words):
            d.insert(w, i)
        stats.add(shape_stats(d))
    assert len(stats) == 1  # same decomposition regardless of storage layout
