"""Per-layer spans recorded from outside the library.

Tracing wraps the public methods of one Dictionary's layer objects at
instance level (the class is untouched, so other dictionaries in the same
process run unwrapped) plus the module-level validate_keyword that
dynpdt.dictionary calls. Spans are not kept one by one: each is added on
close to totals per span name and tag, where the tag is the kind of
operation the benchmark is running (an index into TAGS). After each timed
window the benchmark folds what the window added into `scaled`, with its
times scaled to the reference pace like every other timing. A span's self
time is its duration minus the durations of the spans it encloses.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns as now

from workloads import KIND_NAMES as TAGS

_MISSING = object()


class Tracer:
    def __init__(self, d) -> None:
        self.cur = [TAGS.index("fresh")]  # tag of the operation in progress
        self._inner = [0]  # time of spans closed inside the open span
        # span name -> one [calls, total ns, self ns, extra] per tag, where
        # extra is the label bytes nlm.access returned
        self.stats: dict[str, list[list[int]]] = {}
        self.scaled: dict[str, list[list[float]]] = {}  # the same, times folded
        self._patches: list[tuple[object, str, object, object]] = []
        backend, nlm = d._backend, d._nlm
        dictionary_module = sys.modules[type(d).__module__]
        self._patch(dictionary_module, "validate_keyword", "core.validate_keyword")
        for op in ("insert", "lookup", "delete"):
            self._patch(d, op, "dictionary." + op)
        self._patch(backend, "getchild", "trie_repr.getchild")
        self._patch(backend, "addchild", "trie_repr.addchild")
        self._patch(nlm, "access", "nlm.access")
        self._patch(nlm, "associate", "nlm.associate")
        self._patch(nlm, "associate_step", "nlm.associate")
        self._patch(nlm, "update_value", "nlm.update_value")
        for regrow in ("remap", "ensure_capacity"):
            if hasattr(nlm, regrow):
                self._patch(nlm, regrow, "nlm.regrow")

    def _table(self, name: str) -> list[list[int]]:
        return self.stats.setdefault(name, [[0, 0, 0, 0] for _ in TAGS])

    def _patch(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        if name == "trie_repr.addchild":
            wrapper = self._addchild_span(owner, fn)
        else:
            wrapper = self._span(name, fn)
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING), wrapper))

    def _span(self, name: str, fn):
        cur, inner, table = self.cur, self._inner, self._table(name)
        label_bytes = name == "nlm.access"

        def traced(*args):
            outer = inner[0]
            inner[0] = 0
            t0 = now()
            try:
                result = fn(*args)
            finally:
                dt = now() - t0
                rec = table[cur[0]]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner[0]
                inner[0] = outer + dt
            if label_bytes and result is not None:
                rec[3] += len(result.label)
            return result
        return traced

    def _addchild_span(self, backend, fn):
        """addchild, filed as trie_repr.grow when the call doubled the table."""
        cur, inner = self.cur, self._inner
        table, grow_table = self._table("trie_repr.addchild"), self._table("trie_repr.grow")

        def traced(u, c):
            before = backend.growth_events
            outer = inner[0]
            inner[0] = 0
            t0 = now()
            try:
                return fn(u, c)
            finally:
                dt = now() - t0
                rec = (table if backend.growth_events == before else grow_table)[cur[0]]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner[0]
                inner[0] = outer + dt
        return traced

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, saved, _ in self._patches:
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def snapshot(self) -> dict[str, list[list[int]]]:
        return {name: [rec[:] for rec in recs] for name, recs in self.stats.items()}

    def fold(self, before: dict, scale: float) -> None:
        """Add what was recorded since the snapshot `before` to self.scaled,
        with times multiplied by scale."""
        zero = [0, 0, 0, 0]
        for name, recs in self.stats.items():
            old = before.get(name, [zero] * len(TAGS))
            acc = self.scaled.setdefault(name, [[0, 0.0, 0.0, 0] for _ in TAGS])
            for a, rec, o in zip(acc, recs, old):
                a[0] += rec[0] - o[0]
                a[1] += (rec[1] - o[1]) * scale
                a[2] += (rec[2] - o[2]) * scale
                a[3] += rec[3] - o[3]

    def total(self, name: str, tags=None) -> list:
        """[calls, total ns, self ns, extra] of a span name from the folded
        records, summed over the given tags or all of them."""
        out = [0, 0, 0, 0]
        for tag, rec in zip(TAGS, self.scaled.get(name, ())):
            if tags is None or tag in tags:
                for i in range(4):
                    out[i] += rec[i]
        return out
