"""Trie shape measurements and decomposition bounds.

The average height of the labeled (non-step) nodes is the search-time
proxy for a path-decomposed trie: it counts how many labels a lookup
compares, averaged over stored keywords. Any insertion order yields some
decomposition of the keyword set's byte trie, so the minimum and maximum
of that average over all decompositions bracket what a build can produce.
Both extremes factor per node: a decomposition picks one child branch to
continue the current path, and extending into the child with the most
(fewest) leaves minimizes (maximizes) the total, because the off-path
subtrees each pay their full leaf count in extra depth.

The bounds never build that trie. In the sorted list of terminated
keywords, a trie node is a run of keywords sharing a prefix, and its
children are the runs that share the next byte as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CorruptionError, EmptyCorpus, validate_keyword
from .dictionary import Dictionary


@dataclass(frozen=True)
class ShapeStats:
    """Node census of a built dictionary; sums are exact integers."""

    node_count: int
    step_count: int
    height_sum: int  # labeled proper ancestors, summed over labeled nodes
    label_sum: int   # terminated label lengths, summed over labeled nodes

    @property
    def nonstep_count(self) -> int:
        return self.node_count - self.step_count

    @property
    def steps_pct(self) -> float:
        """Step-node share of all nodes, as a fraction in [0, 1)."""
        return self.step_count / self.node_count

    @property
    def ave_height(self) -> float:
        return self.height_sum / self.nonstep_count

    @property
    def ave_nll(self) -> float:
        """Mean terminated label length over labeled nodes."""
        return self.label_sum / self.nonstep_count


def shape_stats(d: Dictionary) -> ShapeStats:
    """Census every node by climbing its parent chain in parent_keys().

    Deletion keeps a keyword's node and only clears its value, so a
    deleted keyword is still counted here, and deleting leaves the
    census unchanged.
    """
    node_count = 0
    step_count = 0
    height_sum = 0
    label_sum = 0
    backend = d._backend
    keys = backend.parent_keys()
    step = d._step_code
    for nid, payload in d._nlm.iter_items():
        node_count += 1
        if payload.value is None:
            step_count += 1
            continue
        label_sum += len(payload.label) + 1
        # each non-step edge ends at a labeled node
        height_sum += sum(c != step for _, c in backend.edges_above(keys, nid))
    if node_count == 0:
        raise EmptyCorpus("dictionary holds no keywords")
    if node_count != d.node_count:
        raise CorruptionError("label records out of sync with the trie")
    return ShapeStats(node_count, step_count, height_sum, label_sum)


@dataclass(frozen=True)
class ProbeStats:
    """Probe lengths of the node table's linear probing, in slots scanned."""

    max_cluster: int         # longest run of used slots, across the table's end
    miss_probes_mean: float  # a failed search, over every home slot
    hit_probes_mean: float   # a successful search, over the used slots


def probe_stats(d: Dictionary) -> ProbeStats:
    """Census the node table's clusters and its nodes' displacements.

    The clusters come from the vacancy marks: a failed search from a home
    slot scans the used slots from there to the end of its cluster, then
    one vacant slot. A successful search scans its node's displacement from
    the home slot of the key it stores, plus one slot.
    """
    b = d._backend
    capacity = b.capacity
    used = bytearray(capacity)
    hit_sum = 0
    for j in b._used_slots():
        used[j] = 1
        home = (b._slot_key(j) * b._mult >> b._sym_bits) & b._cap_mask
        hit_sum += ((j - home) & b._cap_mask) + 1
    # the load stays <= 0.9, so some slot is vacant: start the clusters there
    start = used.index(0)
    longest = run = 0
    miss_sum = capacity - sum(used)  # homes at a vacant slot scan just it
    for j in range(start + 1, start + capacity + 1):
        if used[j % capacity]:
            run += 1
            continue
        # a home at the p-th slot of this cluster of run slots scans
        # run - p of them and then the vacant one: run(run + 1)/2 + run
        miss_sum += run * (run + 1) // 2 + run
        longest = max(longest, run)
        run = 0
    return ProbeStats(longest, miss_sum / capacity, hit_sum / b.node_count)


def nonstep_path_nodes(d: Dictionary, keyword) -> int:
    """Labeled nodes on the keyword's path, its own node included.

    Every labeled edge consumes at least one byte of the terminated
    keyword (the terminator itself at most once, as the last edge), so
    this count is at most the terminated length plus one. A deleted
    keyword keeps its node and is still counted; only a keyword never
    inserted raises KeyError. The count is the match() calls of one walk
    to the keyword, one per labeled node, as match_profile counts them.
    """
    def walk(s):
        if d._walk(s)[1] is None:
            raise KeyError(bytes(keyword))

    return _count_matches(d, [validate_keyword(keyword)], walk).labels


@dataclass(frozen=True)
class MatchProfile:
    """Label comparisons made by a run of lookups; counts are exact."""

    lookups: int
    labels: int      # label-map match() calls, one per labeled node reached
    mismatches: int  # calls that returned a differing byte, not a value
    first_byte: int  # mismatches at the first byte of the residual keyword

    @property
    def labels_per_lookup(self) -> float:
        return self.labels / self.lookups

    @property
    def first_byte_pct(self) -> float:
        """Share of mismatches the residual's first byte decided, in percent."""
        return 100 * self.first_byte / self.mismatches if self.mismatches else 0.0


def match_profile(d: Dictionary, keywords) -> MatchProfile:
    """Look up every keyword and count the label comparisons on the way.

    For keywords that are all present, labels_per_lookup is the mean of
    nonstep_path_nodes over them.
    """
    return _count_matches(d, keywords, d.lookup)


def _count_matches(d: Dictionary, keywords, probe) -> MatchProfile:
    """Run probe on every keyword, counting d's label-map match() calls.

    match() is wrapped on the label map's instance, and the previous
    attribute is restored afterwards, even when probe raises.
    """
    nlm = d._nlm
    saved = vars(nlm).get("match")
    inner = nlm.match
    lookups = labels = mismatches = first_byte = 0

    def match(nid, s, pos, n):
        nonlocal labels, mismatches, first_byte
        got = inner(nid, s, pos, n)
        labels += 1
        if got is not None and got < 0:
            mismatches += 1
            if ~got == pos:
                first_byte += 1
        return got

    nlm.match = match
    try:
        for keyword in keywords:
            probe(keyword)
            lookups += 1
    finally:
        if saved is None:
            del nlm.match
        else:
            nlm.match = saved
    if not lookups:
        raise EmptyCorpus("no keywords given")
    return MatchProfile(lookups, labels, mismatches, first_byte)


def centroid_bound(keywords) -> float:
    """Least attainable ave_height for the keyword set.

    Realized by always continuing the current path into the child with
    the most leaves; the tie-break among equally heavy children does not
    move the total.
    """
    n, lo, _ = decomposition_bounds(keywords)
    return lo / n


def anticentroid_bound(keywords) -> float:
    """Greatest attainable ave_height: always continue into the lightest child."""
    n, _, hi = decomposition_bounds(keywords)
    return hi / n


def decomposition_bounds(keywords) -> tuple[int, int, int]:
    """(distinct keywords, min height sum, max height sum).

    The sums range over all path decompositions of the keyword set's byte
    trie; dividing by the keyword count gives the attainable band for
    ShapeStats.ave_height. Duplicates in the input are ignored.
    """
    keys = sorted(set(map(validate_keyword, keywords)))
    if not keys:
        raise EmptyCorpus("no keywords given")
    lo = hi = 0
    # the terminator makes the keys prefix-free, so the first and last keys
    # of a range of two or more differ at a depth inside both
    stack = [(0, len(keys), 0)] if len(keys) > 1 else []
    while stack:
        start, end, depth = stack.pop()
        first, last = keys[start], keys[end - 1]
        while first[depth] == last[depth]:  # sorted: the range's common prefix
            depth += 1
        # the range branches at depth: each run sharing that byte is a child
        runs = []
        i = start
        while i < end:
            b = keys[i][depth]
            j = i + 1
            while j < end and keys[j][depth] == b:
                j += 1
            runs.append(j - i)
            if j - i > 1:
                stack.append((i, j, depth + 1))
            i = j
        # continuing the path into the heaviest (lightest) child spares its
        # keys the one level every other child's keys pay
        lo += end - start - max(runs)
        hi += end - start - min(runs)
    return len(keys), lo, hi
