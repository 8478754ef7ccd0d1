"""Self-test of the benchmark at a small size.

    python3 perfbench/selftest.py

For every workload, at 2,000 keys: one seed gives identical inputs; an
untraced and a traced run report exactly the metrics BENCHMARK.json
declares and answer every operation as expected (the traced run also
checks that its traced and untraced dictionaries answered alike and that
items() and len() match the expected map); two traced runs with one seed
repeat every count metric exactly. Exits nonzero at the first failure.
"""

from __future__ import annotations

import json
import math

import run
import workloads as wl

N = 2000
SEED = 7
COUNTS = ("trie_repr.grow.count", "trie_repr.disp.mid", "trie_repr.disp.spill",
          "trie_repr.load", "trie_repr.bytes_per_key", "trie_repr.getchild.per_op",
          "nlm.bytes_per_key", "nlm.access.label_bytes", "dictionary.labels_per_hit",
          "dictionary.labels_per_miss", "analysis.ave_height")


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def clean(name: str, kind: str, res: dict, declared: set[str]) -> None:
    check(res["failed"] == 0 and not res["errors"],
          f"{name} {kind}: {res['failed']} failed, {res['errors']}")
    check(set(res["metrics"]) == declared,
          f"{name} {kind}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(res['metrics']) ^ declared)}")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]} - {"setup_s"}  # set in main()
    per_layer = {m["name"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS),
          "workloads differ from BENCHMARK.json")
    dynpdt = run.load_library()
    for name in wl.WORKLOADS:
        inp = wl.make_inputs(name, SEED, N)
        again = wl.make_inputs(name, SEED, N)
        check(inp == again, f"{name}: one seed gave two different inputs")
        plain = run.run_untraced(dynpdt, inp, 0.0, run.Pace())
        clean(name, "untraced", plain, end_to_end)
        first = run.run_traced(dynpdt, inp, run.Pace())
        second = run.run_traced(dynpdt, again, run.Pace())
        for res in (first, second):
            clean(name, "traced", res, per_layer)
        for metric in COUNTS:
            a, b = first["metrics"][metric][0], second["metrics"][metric][0]
            check(a == b, f"{name}: {metric} read {a} and then {b}")
        if inp.workload.stream == "read":  # both runs end with the map they built
            split = (first["metrics"]["trie_repr.bytes_per_key"][0]
                     + first["metrics"]["nlm.bytes_per_key"][0])
            check(math.isclose(plain["metrics"]["bytes_per_key"][0], split),
                  f"{name}: bytes_per_key differs between the untraced and traced runs")
        print(f"{name}: ok")


if __name__ == "__main__":
    main()
