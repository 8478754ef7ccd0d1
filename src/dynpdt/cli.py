"""Command-line harness: build, bench, stats, and bounds over a corpus.

A corpus is a newline-separated file of byte keywords. Lines are kept
verbatim apart from a stripped trailing CR; blank lines and lines
containing NUL are skipped and counted. Reports are flat key/value
mappings printed as JSON or TSV.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from .analysis import decomposition_bounds, match_profile, probe_stats, shape_stats
from .core import Config, DynPdtError, EmptyCorpus, GROUP_SIZES, LABEL_MAPS, REPRS
from .dictionary import Dictionary


def load_corpus(path, dedupe: bool = False) -> tuple[list[bytes], dict]:
    data = Path(path).read_bytes()
    keys: list[bytes] = []
    blank = invalid = dup = 0
    seen: set[bytes] | None = set() if dedupe else None
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line starts no line
    for line in lines:
        if line.endswith(b"\r"):
            line = line[:-1]
        if not line:
            blank += 1
            continue
        if 0 in line:
            invalid += 1
            continue
        if seen is not None:
            if line in seen:
                dup += 1
                continue
            seen.add(line)
        keys.append(line)
    counts = {"lines_blank": blank, "lines_invalid": invalid, "lines_duplicate": dup}
    return keys, counts


def shuffle_keys(keys: list[bytes], seed: int) -> None:
    """Shuffle keys in place; a given seed always gives the same order."""
    random.Random(seed).shuffle(keys)


def _config(args) -> Config:
    return Config(
        trie_repr=args.repr,
        label_map=args.nlm,
        offset_limit=args.offset_limit,
        group_size=args.ell,
        initial_capacity=args.capacity,
    )


def _load_and_build(args) -> tuple[list[bytes], Dictionary, dict]:
    """Load, optionally shuffle and build the corpus; start its report."""
    keys, counts = load_corpus(args.corpus, args.dedupe)
    if not keys:
        raise EmptyCorpus(f"{args.corpus} holds no usable lines")
    if args.seed is not None:
        shuffle_keys(keys, args.seed)
    d = Dictionary(_config(args))
    inserted = 0
    t0 = time.perf_counter_ns()
    for idx, key in enumerate(keys):
        if d.insert(key, idx):
            inserted += 1
    elapsed = time.perf_counter_ns() - t0
    rep = {
        "command": args.command,
        "corpus": str(args.corpus),
        "n_keys": len(keys),
        "repr": args.repr,
        "nlm": args.nlm,
        "offset_limit": args.offset_limit,
        "group_size": args.ell,
        "initial_capacity": args.capacity,
        "seed": args.seed,
        **counts,
        "n_unique": inserted,
        "build_ns_per_key": elapsed // len(keys),
        "node_count": d.node_count,
        "capacity": d.capacity,
        "load_factor": round(d.node_count / d.capacity, 4),
        "growth_events": d.growth_events,
        "growth_ms": round(d.growth_ns / 1e6, 3),
        "memory_bytes": d.memory_bytes(),
        "bytes_per_key": round(d.memory_bytes() / inserted, 2),
    }
    return keys, d, rep


def run_build(args) -> tuple[dict, int]:
    keys, d, rep = _load_and_build(args)
    expected: dict[bytes, int] = {}
    for idx, key in enumerate(keys):
        expected.setdefault(key, idx)
    failures = sum(1 for key, idx in expected.items() if d.lookup(key) != idx)
    rep["verify_failures"] = failures
    return rep, 0 if failures == 0 else 1


def _unused_byte(keys: list[bytes]) -> int | None:
    present: set[int] = set()
    for key in keys:
        present.update(key)
        if len(present) >= 255:
            return None
    for b in range(1, 256):
        if b not in present:
            return b
    return None


def _time_lookups(lookup, queries: list[bytes], repeats: int) -> tuple[int, int]:
    """Best ns over repeats passes of lookup(q) for every q, and the count found."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        found = 0
        for key in queries:
            if lookup(key) is not None:
                found += 1
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best, found


def run_bench(args) -> tuple[dict, int]:
    keys, d, rep = _load_and_build(args)

    sample = keys[:min(args.queries, len(keys))]
    ub = _unused_byte(keys)
    if ub is None:
        misses = [key + b"\x01" for key in sample]
    else:
        tail = bytes((ub,))
        misses = [key[:-1] + tail for key in sample]

    best_hit, hit_found = _time_lookups(d.lookup, sample, args.repeats)
    best_miss, miss_found = _time_lookups(d.lookup, misses, args.repeats)
    # every sampled key was inserted, and a miss that holds a byte no key
    # holds cannot have been: either answer going wrong is a failed run
    wrong = hit_found < len(sample) or (ub is not None and miss_found > 0)
    rep.update({
        "queries": len(sample),
        "repeats": args.repeats,
        "hit_ns_per_op": best_hit // len(sample),
        "miss_ns_per_op": best_miss // len(sample),
        "hit_rate": round(hit_found / len(sample), 6),
        "miss_hit_rate": round(miss_found / len(sample), 6),
    })
    return rep, 1 if wrong else 0


def run_stats(args) -> tuple[dict, int]:
    keys, d, rep = _load_and_build(args)
    st = shape_stats(d)
    mp = match_profile(d, keys)
    ps = probe_stats(d)
    rep.update({
        "step_count": st.step_count,
        "steps_pct": round(st.steps_pct, 6),
        "nonstep_count": st.nonstep_count,
        "ave_height": round(st.ave_height, 4),
        "ave_nll": round(st.ave_nll, 4),
        "labels_per_hit": round(mp.labels_per_lookup, 4),
        "first_byte_pct": round(mp.first_byte_pct, 2),
        "max_cluster": ps.max_cluster,
        "miss_probes_mean": round(ps.miss_probes_mean, 4),
        "hit_probes_mean": round(ps.hit_probes_mean, 4),
    })
    return rep, 0


def run_bounds(args) -> tuple[dict, int]:
    keys, counts = load_corpus(args.corpus, dedupe=True)
    if not keys:
        raise EmptyCorpus(f"{args.corpus} holds no usable lines")
    n, lo, hi = decomposition_bounds(keys)
    rep = {
        "command": args.command,
        "corpus": str(args.corpus),
        "n_keys": n,
        "height_sum_min": lo,
        "height_sum_max": hi,
        "ave_height_min": round(lo / n, 4),
        "ave_height_max": round(hi / n, 4),
    }
    rep.update(counts)
    return rep, 0


def emit(rep: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rep, indent=2, sort_keys=True)
    return "\n".join(f"{k}\t{rep[k]}" for k in sorted(rep))


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("corpus", help="newline-separated keyword file")
    corpus.add_argument("--format", choices=("json", "tsv"), default="json",
                        help="report format (default: json)")
    shared = argparse.ArgumentParser(add_help=False, parents=[corpus])
    default = Config()
    shared.add_argument("--repr", choices=REPRS, default=default.trie_repr,
                        help="trie backend (default: %(default)s)")
    shared.add_argument("--nlm", choices=LABEL_MAPS, default=default.label_map,
                        help="label map layout (default: %(default)s)")
    shared.add_argument("--lambda", dest="offset_limit", type=int, default=default.offset_limit,
                        metavar="N", help="edge offset limit (default: %(default)s)")
    shared.add_argument("--ell", type=int, choices=GROUP_SIZES, default=default.group_size,
                        help="sparse label map group size (default: %(default)s)")
    shared.add_argument("--capacity", type=int, default=default.initial_capacity, metavar="N",
                        help="initial table slots, power of two (default: %(default)s)")
    shared.add_argument("--seed", type=int, default=None, metavar="N",
                        help="shuffle keys with this seed before building")
    shared.add_argument("--dedupe", action="store_true",
                        help="drop repeated keywords, keeping the first")

    top = argparse.ArgumentParser(prog="dynpdt",
                                  description="dynamic keyword dictionary harness")
    sub = top.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[shared],
                   help="insert the corpus and verify every keyword")
    bench = sub.add_parser("bench", parents=[shared],
                           help="time hit and miss lookups after a build")
    bench.add_argument("--queries", type=_positive_int, default=1_000_000, metavar="N",
                       help="max sampled queries (default: 1000000)")
    bench.add_argument("--repeats", type=_positive_int, default=3, metavar="N",
                       help="timing passes, best taken (default: 3)")
    sub.add_parser("stats", parents=[shared],
                   help="build and census the trie shape")
    sub.add_parser("bounds", parents=[corpus],
                   help="decomposition band for the average height")
    return top


_RUNNERS = {
    "build": run_build,
    "bench": run_bench,
    "stats": run_stats,
    "bounds": run_bounds,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rep, rc = _RUNNERS[args.command](args)
    except (OSError, DynPdtError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(emit(rep, args.format))
    return rc


if __name__ == "__main__":
    sys.exit(main())
