"""dynpdt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload urls-read --seed 1 --seconds 20 --trace 0

Drives the public Dictionary API from one process and one thread in a
closed loop: each operation starts when the previous one returns. A run
builds a dictionary of 10^5 seeded keys from initial_capacity 16, then
runs the workload's operation stream until --seconds have passed since
the build started (a read stream starts over when it ends; a churn
stream does not). Operations are timed one by one in windows of WINDOW;
between windows a probe measures the host's pace (see Pace). Every
result is compared with the answer computed in set-up, after the timed
loops. --trace 0 reports the end-to-end metrics; --trace 1 builds twice,
once with per-layer spans (tracer.py), and reports the per-layer split.
The last line of stdout is one JSON object; the exit code is nonzero when
an operation failed or the library is missing. perfbench/README.md
describes every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import random
import statistics
import sys
import traceback
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter_ns as now

import workloads as wl
from tracer import Tracer
from workloads import DELETE, HIT, KIND_NAMES, MISS, REVIVE

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WINDOW = 1000  # operations per timed window
MIN_WINDOWS = 20  # stream windows run even after the deadline
BLOCK = 10  # windows per block of the stream percentiles
WRITE_EVERY = 4  # stream windows per write block, on read workloads
TRACE_OPS = 30_000  # stream operations of a traced run, per 10^5 keys
REF_PROBE_NS = 100_000  # probe() at the reference pace
PACE_AGREE = 1.2  # probes around a steady window differ by less

_PROBE_BUF = bytes(range(256)) * 4096
_PROBE_AT = [random.Random(0).randrange(len(_PROBE_BUF)) for _ in range(3000)]


def probe() -> int:
    """The quicker of two passes of 3,000 reads from a fixed 1 MiB buffer,
    in ns: interpreter work of the kind the library does, none of its code."""
    best = math.inf
    for _ in range(2):
        t0 = now()
        s = 0
        for i in _PROBE_AT:
            s += _PROBE_BUF[i]
        best = min(best, now() - t0)
    return best


class Pace:
    """Scales each timed window to a fixed reference pace.

    On a shared host the same pure-Python work runs ~1.6x slower for
    stretches of 1-10 s, and the quick pace itself drifts by ~10% over
    minutes, so raw timings of one workload differ by a third between
    runs. Every latency is therefore multiplied by REF_PROBE_NS over the
    pace of its window: the mean of the probe() timings taken just before
    and just after it. Scaled hit latencies repeat within ~2% where raw
    ones spread over 30%. The probe uses nothing of the library, so a
    faster library still shows in full.
    """

    def __init__(self) -> None:
        self.last = probe()

    def scale_after(self) -> tuple[float, bool]:
        """Probe; the scale of the window that just ended, and whether the
        probes on either side of it agree within PACE_AGREE."""
        p = probe()
        scale = 2 * REF_PROBE_NS / (self.last + p)
        steady = max(p, self.last) <= PACE_AGREE * min(p, self.last)
        self.last = p
        return scale, steady


class Raised:
    """Recorded in place of a result when an operation raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


class Window:
    """Operations s[lo:hi], timed: their latencies and results, the
    window's wall time and its pace scale."""

    __slots__ = ("s", "lo", "hi", "lat", "out", "wall", "scale", "steady", "peak_mb")

    def __init__(self, s: wl.Stream, lo: int, hi: int) -> None:
        self.s, self.lo, self.hi = s, lo, hi
        self.lat = array("q", bytes(8 * (hi - lo)))
        self.out = [None] * (hi - lo)
        self.peak_mb = None


def load_library():
    """Import dynpdt from this checkout's src/ only."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import dynpdt
        import dynpdt.analysis
    except ImportError as exc:
        sys.exit(f"cannot import dynpdt from {ROOT / 'src'}: {exc}")
    if ROOT / "src" not in Path(dynpdt.__file__).resolve().parents:
        sys.exit(f"dynpdt came from {dynpdt.__file__}, not from {ROOT / 'src'}")
    return dynpdt


def proc_status_kb() -> dict[str, int]:
    out = {}
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(("VmRSS:", "VmHWM:")):
                key, val = line.split(":")
                out[key] = int(val.split()[0])
    return out


def release_free_memory() -> None:
    """Hand the allocator's free pages back to the OS (glibc only), so that
    a later peak is measured from live memory, not from whatever set-up
    left free for reuse; without it build_peak_mb moves by megabytes."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0))}


def config_for(dynpdt, w: wl.Workload):
    return dynpdt.Config(trie_repr=w.trie_repr, label_map=w.label_map,
                         initial_capacity=wl.INITIAL_CAPACITY)


# --- timed loops ------------------------------------------------------------

def run_ops(d, w: Window, tracer=None) -> None:
    """Run the window's operations against d, timing each one."""
    lookup, delete, insert = d.lookup, d.delete, d.insert
    s, lo, lat, out = w.s, w.lo, w.lat, w.out
    kinds, keys, values = s.kinds, s.keys, s.values
    for j in range(w.hi - lo):
        kind = kinds[lo + j]
        key = keys[lo + j]
        if tracer is not None:
            tracer.cur[0] = kind
        try:
            if kind <= MISS:
                t0 = now()
                r = lookup(key)
                t1 = now()
            elif kind == DELETE:
                t0 = now()
                r = delete(key)
                t1 = now()
            else:
                v = values[lo + j]
                t0 = now()
                r = insert(key, v)
                t1 = now()
        except Exception as exc:  # recorded, counted as failed
            t1 = now()
            r = Raised(exc)
        lat[j] = t1 - t0
        out[j] = r


def run_build_ops(d, w: Window, peak_capacity: int) -> None:
    """run_ops for a build window, with tracemalloc running only around
    the insert predicted to double the table to peak_capacity; its peak
    allocation goes to w.peak_mb."""
    backend = d._backend
    insert = d.insert
    s, lo, lat, out = w.s, w.lo, w.lat, w.out
    for j in range(w.hi - lo):
        key = s.keys[lo + j]
        v = s.values[lo + j]
        watched = (10 * (backend.node_count + 1) > 9 * backend.capacity
                   and 2 * backend.capacity == peak_capacity)
        if watched:
            tracemalloc.start()
        try:
            t0 = now()
            r = insert(key, v)
            t1 = now()
        except Exception as exc:  # recorded, counted as failed
            t1 = now()
            r = Raised(exc)
        if watched:
            w.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        lat[j] = t1 - t0
        out[j] = r


def timed(d, w: Window, pace: Pace, tracer=None, peak_capacity: int = 0) -> Window:
    """Run a window and record its wall time and pace scale. Traced spans
    are folded into the tracer's scaled totals with the same scale."""
    before = tracer.snapshot() if tracer else None
    t0 = now()
    if peak_capacity:
        run_build_ops(d, w, peak_capacity)
    else:
        run_ops(d, w, tracer)
    w.wall = now() - t0
    w.scale, w.steady = pace.scale_after()
    if tracer:
        tracer.fold(before, w.scale)
    return w


def timed_build(d, build: wl.Stream, pace: Pace, tracer=None, peak_capacity: int = 0):
    return [timed(d, Window(build, lo, min(lo + WINDOW, len(build))), pace, tracer,
                  peak_capacity) for lo in range(0, len(build), WINDOW)]


# --- checking and summarising -----------------------------------------------

def mismatches(windows: list[Window], errors: list) -> int:
    """Results that differ from the expected answer, in value or type."""
    bad = 0
    for w in windows:
        for r, e in zip(w.out, w.s.expected[w.lo:w.hi]):
            if r != e or type(r) is not type(e):
                bad += 1
                if len(errors) < 5:
                    errors.append(r.text if isinstance(r, Raised)
                                  else f"got {r!r}, expected {e!r}")
    return bad


def pct(sorted_ns, p: float) -> float:
    """Nearest-rank percentile of sorted nanoseconds, in microseconds."""
    return sorted_ns[max(0, math.ceil(p * len(sorted_ns)) - 1)] / 1e3


def blocked(windows: list[Window], kind: int, p: float, raw: bool) -> float:
    """Median, over blocks of BLOCK consecutive windows, of each block's
    p-th percentile latency of `kind`, in microseconds. A few blocks that
    the host disturbed, or that were scaled wrongly, cannot move it."""
    per_block = []
    for b in range(0, len(windows), BLOCK):
        group = latencies(windows[b:b + BLOCK], raw)[0][kind]
        if group:
            per_block.append(pct(group, p))
    return statistics.median(per_block)


def steady(windows: list[Window]) -> list[Window]:
    """The windows the pace held steady through, or all if under half did:
    the scale of a window during which the pace changed is unreliable."""
    kept = [w for w in windows if w.steady]
    return kept if 2 * len(kept) >= len(windows) else windows


def latencies(windows: list[Window], raw: bool) -> tuple[dict[int, list], float]:
    """Sorted latencies per operation kind, and the windows' total wall
    time, in ns scaled to the reference pace unless raw."""
    groups: dict[int, list] = {k: [] for k in range(len(KIND_NAMES))}
    total = 0.0
    for w in windows:
        f = 1.0 if raw else w.scale
        for kind, t in zip(w.s.kinds[w.lo:w.hi], w.lat):
            groups[kind].append(t * f)
        total += w.wall * f
    for v in groups.values():
        v.sort()
    return groups, total


# --- the two kinds of run ---------------------------------------------------

def run_untraced(dynpdt, inp: wl.Inputs, seconds: float, pace: Pace) -> dict:
    """The build, then the stream until the deadline, with a write block
    after every WRITE_EVERY stream windows on read workloads."""
    keys, s = inp.keys, inp.stream
    n = len(keys)
    errors: list[str] = []
    d = dynpdt.Dictionary(config_for(dynpdt, inp.workload))
    t_start = now()
    rss_before = proc_status_kb()["VmRSS"]
    build = timed_build(d, wl.build_stream(keys), pace)
    peak_mb = (proc_status_kb()["VmHWM"] - rss_before) / 1024

    cyclic = inp.workload.stream == "read"  # reads leave the map as it was
    stream: list[Window] = []
    writes: list[Window] = []
    deadline = t_start + int(seconds * 1e9)
    min_ops = min(len(s), MIN_WINDOWS * WINDOW)
    done = 0
    while (done < min_ops or now() < deadline) and (cyclic or done < len(s)):
        lo = done % len(s)
        stream.append(timed(d, Window(s, lo, min(lo + WINDOW, len(s))), pace))
        done += stream[-1].hi - lo
        if inp.writes and len(stream) % WRITE_EVERY == 0:
            block = inp.writes[len(stream) // WRITE_EVERY % len(inp.writes)]
            writes.append(timed(d, Window(block, 0, len(block)), pace))
    failed = mismatches(build, errors) + mismatches(stream, errors) + mismatches(writes, errors)
    expected_len = len(wl.final_map(inp, done if not cyclic else 0))
    if len(d) != expected_len:
        errors.append(f"len(d) = {len(d)}, expected {expected_len}")

    reads, writes_ = steady(stream), steady(writes)

    def timings(raw: bool) -> dict:
        ins, build_ns = latencies(build, raw)
        ins = ins[wl.FRESH]
        _, stream_ns = latencies(reads, raw)
        return {
            "grow_pause_max_ms": (ins[-1] / 1e6, "ms"),
            "build_keys_per_s": (n / (build_ns / 1e9), "keys/s"),
            "insert_p50_us": (pct(ins, 0.50), "us"),
            "insert_p99_us": (pct(ins, 0.99), "us"),
            "ops_per_s": (sum(w.hi - w.lo for w in reads) / (stream_ns / 1e9), "ops/s"),
            "hit_p50_us": (blocked(reads, HIT, 0.50, raw), "us"),
            "hit_p99_us": (blocked(reads, HIT, 0.99, raw), "us"),
            "miss_p50_us": (blocked(reads, MISS, 0.50, raw), "us"),
            "miss_p99_us": (blocked(reads, MISS, 0.99, raw), "us"),
            "delete_p50_us": (blocked(reads + writes_, DELETE, 0.50, raw), "us"),
            "revive_p50_us": (blocked(reads + writes_, REVIVE, 0.50, raw), "us"),
        }

    metrics, raw = timings(raw=False), timings(raw=True)
    # one event per run, which differs by a fifth between runs even when
    # scaled: reported, but too unsteady to gate a change on
    notes = {"grow_pause_max_ms": (metrics.pop("grow_pause_max_ms")[0],
                                   raw.pop("grow_pause_max_ms")[0], "ms")}
    metrics["bytes_per_key"] = (d.memory_bytes() / len(d), "B")
    metrics["build_peak_mb"] = (peak_mb, "MB")
    counts, _ = latencies(reads + writes_, True)
    write_ops = sum(w.hi - w.lo for w in writes)
    samples = {"build inserts": n, "stream ops": done,
               "steady stream windows": f"{len(steady(stream))} of {len(stream)}",
               "write ops": write_ops, **{KIND_NAMES[k]: len(v) for k, v in counts.items() if v}}
    return {"metrics": metrics, "raw": raw, "notes": notes, "samples": samples,
            "attempted": n + done + write_ops, "failed": failed, "errors": errors}


def run_traced(dynpdt, inp: wl.Inputs, pace: Pace) -> dict:
    """Per-layer split: a traced build and an untraced one of the same keys,
    then a fixed stream prefix and every write block run on both, in
    alternating order window by window."""
    keys, s = inp.keys, inp.stream
    n = len(keys)
    cfg = config_for(dynpdt, inp.workload)
    build = wl.build_stream(keys)
    traced = dynpdt.Dictionary(cfg)
    tracer = Tracer(traced)
    tracer.enable()
    try:
        t_build = timed_build(traced, build, pace, tracer)
    finally:
        tracer.disable()
    plain = dynpdt.Dictionary(cfg)
    p_build = timed_build(plain, build, pace, peak_capacity=traced.capacity)
    peaks = [w.peak_mb for w in p_build if w.peak_mb is not None]
    shape = dynpdt.analysis.shape_stats(traced)

    prefix = min(len(s), TRACE_OPS * n // wl.N_KEYS)
    chunks = [(s, lo, min(lo + WINDOW, prefix)) for lo in range(0, prefix, WINDOW)]
    chunks += [(b, 0, len(b)) for b in inp.writes]
    p_ops: list[Window] = []
    t_ops: list[Window] = []
    for c, (stream, lo, hi) in enumerate(chunks):
        for name in ("plain", "traced") if c % 2 == 0 else ("traced", "plain"):
            if name == "plain":
                p_ops.append(timed(plain, Window(stream, lo, hi), pace))
                continue
            tracer.enable()
            try:
                t_ops.append(timed(traced, Window(stream, lo, hi), pace, tracer))
            finally:
                tracer.disable()

    errors: list[str] = []
    failed = sum(mismatches(ws, errors) for ws in (p_build, t_build, p_ops, t_ops))
    if [w.out for w in p_ops] != [w.out for w in t_ops]:
        errors.append("traced and untraced dictionaries answered differently")
    final = wl.final_map(inp, prefix)
    if len(traced) != len(final) or sorted(traced.items()) != sorted(final.items()):
        errors.append("traced dictionary's items() differ from the expected map")

    t = tracer.total
    reads = ("hit", "miss")
    lookups = t("dictionary.lookup", reads)[0]
    hits = t("dictionary.lookup", ("hit",))[0]
    misses = t("dictionary.lookup", ("miss",))[0]

    def per_call(name, tags=None, field=1, scale=1.0):
        rec = t(name, tags)
        return rec[field] / rec[0] / scale if rec[0] else 0.0

    def overhead(traced_windows, plain_windows, kind):
        a = pct(latencies(traced_windows, False)[0][kind], .5)
        return (a / pct(latencies(plain_windows, False)[0][kind], .5) - 1) * 100

    backend, nlm = traced._backend, traced._nlm
    disp = getattr(backend, "_disp", None)
    grow = t("trie_repr.grow")
    live = len(traced)
    metrics = {
        "dictionary.lookup.self_us": (per_call("dictionary.lookup", reads, 2, 1e3), "us"),
        "dictionary.insert.self_us": (per_call("dictionary.insert", None, 2, 1e3), "us"),
        "dictionary.labels_per_hit": (t("nlm.access", ("hit",))[0] / hits, "count"),
        "dictionary.labels_per_miss": (t("nlm.access", ("miss",))[0] / misses, "count"),
        "core.validate_keyword.ns": (per_call("core.validate_keyword"), "ns"),
        "trie_repr.getchild.ns": (per_call("trie_repr.getchild", reads), "ns"),
        "trie_repr.getchild.per_op": (t("trie_repr.getchild", reads)[0] / lookups, "count"),
        "trie_repr.addchild.ns": (per_call("trie_repr.addchild"), "ns"),
        "trie_repr.grow.count": (grow[0], "count"),
        "trie_repr.grow.ms": (grow[2] / 1e6, "ms"),
        "trie_repr.grow.peak_extra_mb": (peaks[-1] if peaks else 0.0, "MB"),
        "trie_repr.disp.mid": (disp.mid_count if disp else 0, "count"),
        "trie_repr.disp.spill": (disp.spill_count if disp else 0, "count"),
        "trie_repr.load": (backend.node_count / backend.capacity, "ratio"),
        "trie_repr.bytes_per_key": (backend.memory_bytes() / live, "B"),
        "nlm.access.ns": (per_call("nlm.access", reads), "ns"),
        "nlm.access.label_bytes": (per_call("nlm.access", reads, 3), "B"),
        "nlm.associate.ns": (per_call("nlm.associate"), "ns"),
        "nlm.update_value.ns": (per_call("nlm.update_value"), "ns"),
        "nlm.regrow.ms": (t("nlm.regrow")[2] / 1e6, "ms"),
        "nlm.bytes_per_key": (nlm.memory_bytes() / live, "B"),
        "analysis.ave_height": (shape.ave_height, "count"),
        "trace.hit_overhead_pct": (overhead(t_ops, p_ops, HIT), "%"),
        "trace.insert_overhead_pct": (overhead(t_build, p_build, wl.FRESH), "%"),
    }
    ops = sum(w.hi - w.lo for w in p_ops)
    samples = {"build inserts": 2 * n, "stream and write ops": 2 * ops}
    return {"metrics": metrics, "raw": {}, "notes": {}, "samples": samples,
            "attempted": 2 * (n + ops), "failed": failed, "errors": errors}


# --- command line -----------------------------------------------------------

def report(inp: wl.Inputs, cfg, res: dict, extra: dict) -> bool:
    """Print the human-readable report and the result line; True if correct."""
    w = inp.workload
    info = machine_info()
    print(f"# dynpdt benchmark: workload {w.name}, seed {inp.seed}")
    print(f"# python {info['python']}, cpu {info['cpu']}, nproc {info['nproc']}")
    print(f"# {cfg}")
    print(f"# keys {len(inp.keys)}, stream {len(inp.stream)} ops, "
          f"write blocks {len(inp.writes)} of {2 * wl.WRITE_BLOCK} ops")
    print(f"# why: {w.why}")
    print("# samples: " + ", ".join(f"{k} {v}" for k, v in res["samples"].items()))
    if res["raw"]:
        print(f"# timings at the reference pace (probe = {REF_PROBE_NS} ns); raw in brackets")
    metrics = {**extra, **res["metrics"]}
    for name, (value, unit) in metrics.items():
        raw = f"  [{res['raw'][name][0]:.6g}]" if name in res["raw"] else ""
        print(f"{name} {value:.6g} {unit}{raw}")
    for name, (value, raw, unit) in res["notes"].items():
        print(f"{name} {value:.6g} {unit}  [{raw:.6g}]  (not in the JSON: too unsteady)")
    print(f"failed_op_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']})  (not in the JSON: 0 when correct)")
    for e in res["errors"]:
        print(f"# error: {e}")
    correct = res["failed"] == 0 and not res["errors"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pace = Pace()
    t0 = now()
    dynpdt = load_library()
    import_raw = now() - t0
    import_ns = import_raw * pace.scale_after()[0]
    setup_ns, setup_raw = [], []
    inp = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        inp = None
        t0 = now()
        inp = wl.make_inputs(args.workload, args.seed)
        setup_raw.append(now() - t0)
        setup_ns.append(setup_raw[-1] * pace.scale_after()[0])
    extra = {}
    if not args.trace:
        extra["setup_s"] = ((import_ns + statistics.median(setup_ns)) / 1e9, "s")
    # keep the collector off the inputs, and measure in a child so that
    # its peak resident size starts from the size at the fork
    gc.collect()
    gc.freeze()
    release_free_memory()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        # the child must never return into the parent's code path
        code = 1
        try:
            if args.trace:
                res = run_traced(dynpdt, inp, pace)
            else:
                res = run_untraced(dynpdt, inp, args.seconds, pace)
                res["raw"]["setup_s"] = ((import_raw + statistics.median(setup_raw)) / 1e9, "s")
            code = 0 if report(inp, config_for(dynpdt, inp.workload), res, extra) else 1
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return 0 if os.waitstatus_to_exitcode(status) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
