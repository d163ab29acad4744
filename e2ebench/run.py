"""End-to-end wall-clock benchmark of the Pangea reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload tpch-query --seed 1 --seconds 10 --trace 0

``--trace 0`` times set-up and operations untraced and reports the
end-to-end metrics.  ``--trace 1`` spends half the run untraced (for the
tracing overhead and the phase rates), then re-binds every layer's entry
points to wall-clock spans and spends the other half traced, reporting the
per-layer metrics per round and writing every span to
``.e2ebench/spans-<workload>-seed<seed>.npz``.  Either way every output is
checked, a table with wall and simulated seconds is printed, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names, units and bounds are in ``BENCHMARK.json``; README.md in
this directory explains them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT_DIR / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

_now = time.perf_counter

#: (workload, phase) -> the phase-rate metric reported by the traced run.
PHASE_RATES = {
    ("tpch-load", "load"): "e2e.load_rows_per_s",
    ("tpch-load", "recover"): "e2e.recover_rows_per_s",
    ("tpch-query", "query"): "e2e.query_qps",
    ("kmeans-paging", "load"): "e2e.kmeans_load_points_per_s",
    ("kmeans-paging", "run"): "e2e.kmeans_run_points_per_s",
    ("shuffle-spill", "write"): "e2e.shuffle_write_objects_per_s",
    ("shuffle-spill", "read"): "e2e.shuffle_read_objects_per_s",
}

#: Entry points whose call counts and self times are reported.
SPAN_METRICS = {
    "placement.partition_set": ("calls", "self_s"),
    "placement.register_replica": ("self_s",),
    "placement.recover_node": ("self_s",),
    "services.sequential.add_object": ("calls", "self_s"),
    "services.sequential.flush": ("self_s",),
    "services.shuffle.add_object": ("calls", "self_s"),
    "services.shuffle.finish_writing": ("self_s",),
    "services.scan": ("calls", "self_s"),
    "services.hashsvc.insert": ("calls", "self_s"),
    "services.hashsvc.insert_many": ("calls", "self_s"),
    "fs.page_checksum": ("calls", "self_s"),
    "fs.write_page": ("calls", "self_s"),
    "fs.write_many": ("calls", "self_s"),
    "fs.read_page": ("calls", "self_s"),
    "buffer.place": ("calls", "self_s"),
    "core.make_room": ("calls", "self_s"),
    "query.execute": ("calls", "self_s"),
    "query.batch": ("calls", "self_s"),
    "compute.stage": ("calls", "self_s"),
    "ml.kmeans.load_points": ("self_s",),
    "ml.kmeans.run": ("self_s",),
    "util.stable_hash": ("calls", "self_s"),
}

#: Program counters summed over the first traced round's operations.
COUNTERS = (
    "placement.colliding_objects",
    "placement.objects_recovered",
    "placement.lost_after_recovery",
    "buffer.pool.pageins",
    "buffer.pool.evictions",
    "core.paging.eviction_rounds",
    "core.paging.pages_evicted",
    "core.paging.index_rebuilds",
    "query.batches_processed",
    "query.replica_substitutions",
    "query.copartitioned_joins",
    "query.broadcast_joins",
    "query.shuffled_bytes",
    "sim.disk.bytes_read",
    "sim.disk.bytes_written",
    "sim.net.bytes",
    "sim.sim_s",
)


#: The traced half ends early once this many spans are held in memory.
MAX_TRACED_SPANS = 1_000_000

#: The host's speed is probed before a round once this long has passed
#: since the last probe, and once more after the last round.
PROBE_EVERY_S = 0.5

#: Objects the speed probe builds, and how many of them it then reads in a
#: fixed random order (about 35 ms on a 2-vCPU Xeon virtual machine).
PROBE_OBJECTS = 60_000
PROBE_READS = 30_000
_PROBE_ORDER = random.Random(0).sample(range(PROBE_OBJECTS), PROBE_READS)


@dataclass
class Op:
    name: str
    wall_s: float
    ok: bool
    phases: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: perf_counter reading halfway through the operation's timed part.
    mid: float = 0.0


class _ProbeObject:
    __slots__ = ("key", "text")

    def __init__(self, key: int, text: str) -> None:
        self.key = key
        self.text = text


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes on this host now.

    The work builds a heap of small objects about the size of an
    operation's and reads them in a fixed random order, so the host's
    neighbours slow it much as they slow the program (a probe that stayed
    in cache over-corrected by a third).  It calls none of the program's
    code and runs with the collector off, so its time does not depend on
    the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = _now()
        objects = [_ProbeObject(i, str(i)) for i in range(PROBE_OBJECTS)]
        total = 0
        for i in _PROBE_ORDER:
            total += hash(objects[i].text) & 7
        del objects
        return _now() - start
    finally:
        if enabled:
            gc.enable()


def timed_setup(workload: Workload) -> float:
    gc.collect()
    start = _now()
    workload.setup()
    return _now() - start


def run_op(workload: Workload, name: str, tracer: "tracing.Tracer | None") -> Op:
    start = _now()
    try:
        if tracer is None:
            state = workload.execute(name)
        else:
            tracer.start()
            try:
                state = tracer.span(tracing.ROOT, workload.execute, name)
            finally:
                tracer.stop()
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        traceback.print_exc()
        return Op(name, _now() - start, ok=False, mid=(start + _now()) / 2)
    wall = _now() - start
    counters = workload.counters(name, state)
    try:
        ok = bool(workload.check(name, state))
    except Exception:  # noqa: BLE001 - a failed check is counted, not fatal
        traceback.print_exc()
        ok = False
    counters.update(state.extra)
    phases = state.phases
    mid = start + wall / 2
    if workload.collect_after_op:
        # The operation's cluster is garbage now; collecting it here charges
        # each operation its own teardown instead of a later one's.
        del state
        start = _now()
        gc.collect()
        wall += _now() - start
    return Op(name, wall, ok, phases, counters, mid)


@dataclass
class Loop:
    """What one closed loop ran: the warm-up round and the measured rounds."""

    warmup: list
    #: One list of operations per measured round.
    rounds: list
    #: Per measured round of a traced loop, what ``Tracer.take`` returned.
    traces: list
    #: (perf_counter reading, :func:`speed_probe` seconds) around the rounds.
    probes: list

    @property
    def ops(self) -> list:
        return [op for ops in self.rounds for op in ops]

    @property
    def all_ops(self) -> list:
        return self.warmup + self.ops

    def probe_s(self) -> np.ndarray:
        """The host's probe time at each measured operation, interpolated."""
        times, seconds = zip(*self.probes)
        return np.interp([op.mid for op in self.ops], times, seconds)

    def scaled(self) -> np.ndarray:
        """Each measured operation's wall time in probe times."""
        return np.array([op.wall_s for op in self.ops]) / self.probe_s()


def run_rounds(workload: Workload, seconds: float, tracer=None,
               setup_times: "list | None" = None) -> Loop:
    """Closed loop of whole rounds for about ``seconds``.

    Round 0 warms caches and the allocator and is not measured; at least
    one measured round follows.  No round starts that would, at the median
    round time so far, end after ``seconds``, so the run's length does not
    depend on the machine's speed.  A traced loop also ends once
    :data:`MAX_TRACED_SPANS` spans are held.

    With ``setup_times``, set-up is repeated until there are
    ``workload.setup_repeats`` timings, spread evenly over the run so that
    they see the same machine conditions as the operations.  Set-up time
    counts towards ``seconds``.
    """
    loop = Loop([], [], [], [])
    walls: list = []
    start = _now()
    index = 0
    while index < 2 or (_now() - start + statistics.median(walls) <= seconds and (
            tracer is None or tracer.spans_taken < MAX_TRACED_SPANS)):
        if setup_times is not None and len(setup_times) < workload.setup_repeats \
                and _now() - start >= len(setup_times) * seconds / workload.setup_repeats:
            setup_times.append(timed_setup(workload))
        if index == 1 or index > 1 and _now() - loop.probes[-1][0] >= PROBE_EVERY_S:
            loop.probes.append((_now(), speed_probe()))
        round_start = _now()
        ops = [run_op(workload, name, tracer) for name in workload.round(index)]
        walls.append(_now() - round_start)
        taken = tracer.take(f"round{index}") if tracer is not None else None
        if index == 0:
            loop.warmup = ops
        else:
            loop.rounds.append(ops)
            if taken is not None:
                taken["ops"] = ops
                loop.traces.append(taken)
        index += 1
    loop.probes.append((_now(), speed_probe()))
    while setup_times is not None and len(setup_times) < workload.setup_repeats:
        setup_times.append(timed_setup(workload))
    return loop


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop: Loop, setup_times: list) -> dict:
    """The bounded metrics.

    Operation timings are in speed-probe times (:meth:`Loop.scaled`): the
    neighbours on a shared host slow every operation by up to 1.7x for
    stretches longer than a run, which moves wall-clock medians from run
    to run far more than a change to the program would.
    """
    scaled = loop.scaled()
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_probes": (float(np.median(scaled)), "probes"),
        "op_mean_probes": (float(np.mean(scaled)), "probes"),
    }


def wall_clock(loop: Loop) -> dict:
    """Wall-clock throughput and latency, and the host's speed, unbounded."""
    walls = [op.wall_s for op in loop.ops]
    p50, p95 = np.percentile(walls, [50, 95])
    return {
        "e2e.ops_per_s": (len(walls) / sum(walls), "1/s"),
        "e2e.op_p50_ms": (float(p50) * 1000, "ms"),
        "e2e.op_p95_ms": (float(p95) * 1000, "ms"),
        "e2e.probe_ms": (float(np.median(loop.probe_s())) * 1000, "ms"),
    }


def phase_rates(workload: Workload, ops: list) -> dict:
    rates = {}
    for (name, phase), metric in PHASE_RATES.items():
        items = seconds = 0.0
        if name == workload.name:
            for op in ops:
                if phase in op.phases:
                    items += op.phases[phase][0]
                    seconds += op.phases[phase][1]
        rates[metric] = items / seconds if seconds else 0.0
    return rates


def _median(rounds: list, fn) -> float:
    return statistics.median(fn(r) for r in rounds)


def _self(r: dict, label: str) -> float:
    return r["spans"].get(label, {}).get("self_s", 0.0)


def per_layer(workload: Workload, untraced: Loop, traced: Loop, setup_spans: dict) -> dict:
    out: dict = {}
    rounds = traced.traces
    first = rounds[0]
    first_spans = first["spans"]

    def calls(label: str) -> int:
        return first_spans.get(label, {}).get("calls", 0)

    def wall(r: dict) -> float:
        return r["spans"][tracing.ROOT]["total_s"]

    out["tpch.datagen.self_s"] = (setup_spans.get("tpch.datagen", {}).get("self_s", 0.0), "s")
    for label, kinds in SPAN_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                out[f"{label}.calls"] = (calls(label), "count")
            else:
                out[f"{label}.self_s"] = (_median(rounds, lambda r, l=label: _self(r, l)), "s")
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (_median(rounds, lambda r, p=layer + ".": sum(
            v["self_s"] for k, v in r["spans"].items() if k.startswith(p))), "s")

    counts = {key: 0 for key in COUNTERS}
    for key in ("core.paging.cost_cache_hits", "core.paging.cost_cache_misses",
                "query.batch_records"):
        counts[key] = 0
    # Summed in name order, so float totals do not depend on the round's order.
    for op in sorted(first["ops"], key=lambda op: op.name):
        for key, value in op.counters.items():
            if key in counts:
                counts[key] += value
    for key in COUNTERS:
        unit = "s" if key.endswith("_s") else "bytes" if "bytes" in key else "count"
        out[key] = (counts[key], unit)

    pins = calls("core.pin_page")
    out["buffer.pool.pins"] = (pins, "count")
    out["buffer.pool.hit_ratio"] = (
        (pins - counts["buffer.pool.pageins"]) / pins if pins else 0.0, "ratio")
    lookups = counts["core.paging.cost_cache_hits"] + counts["core.paging.cost_cache_misses"]
    out["core.paging.cost_cache_hit_ratio"] = (
        counts["core.paging.cost_cache_hits"] / lookups if lookups else 0.0, "ratio")
    batches = counts["query.batches_processed"]
    out["query.mean_batch_fill"] = (
        counts["query.batch_records"] / batches if batches else 0.0, "records")
    out["compute.stage.threads"] = (first["threads"], "count")
    out["sim.cpu.charges"] = (calls("sim.cpu"), "count")
    out["fs.checksum_share"] = (
        _median(rounds, lambda r: _self(r, "fs.page_checksum") / wall(r)), "ratio")
    out["trace.unclaimed_share"] = (
        _median(rounds, lambda r: _self(r, tracing.ROOT) / wall(r)), "ratio")
    untraced_rate = len(untraced.ops) / sum(op.wall_s for op in untraced.ops)
    traced_rate = len(traced.ops) / sum(wall(r) for r in rounds)
    out["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    for metric, rate in phase_rates(workload, untraced.ops).items():
        out[metric] = (rate, "1/s")
    out.update(wall_clock(untraced))
    ops = untraced.all_ops + traced.all_ops
    out["error_rate"] = (sum(not op.ok for op in ops) / len(ops), "ratio")
    return out


def print_table(workload: Workload, loop: Loop, setup_times: list, title: str) -> None:
    ops = loop.ops
    walls = [op.wall_s for op in ops]
    sims = [op.counters.get("sim.sim_s", 0.0) for op in ops if op.counters]
    scaled = loop.scaled()
    print(f"== {workload.name} seed={workload.seed} {title}: {len(ops)} ops in "
          f"{len(loop.rounds)} rounds after a warm-up round, "
          f"{sum(not op.ok for op in loop.all_ops)} failed")
    print(f"   setup      median {statistics.median(setup_times):9.4f} s "
          f"over {len(setup_times)} repeats")
    p50, p95 = np.percentile(walls, [50, 95]) * 1000
    print(f"   op wall    p50 {p50:10.2f} ms   p95 {p95:10.2f} ms   "
          f"{len(walls) / sum(walls):.2f} ops/s")
    print(f"   op scaled  p50 {np.median(scaled):10.2f}      mean {np.mean(scaled):10.2f}      "
          f"probe times (median probe {np.median(loop.probe_s()) * 1000:.3f} ms, "
          f"{len(loop.probes)} probes)")
    if sims:
        print(f"   op sim     p50 {statistics.median(sims):10.4f} s (simulated)")
    for metric, rate in phase_rates(workload, ops).items():
        if rate:
            print(f"   {metric:34s} {rate:12.1f} /s wall")


def print_layers(rounds: list) -> None:
    labels = sorted({k for r in rounds for k in r["spans"]},
                    key=lambda k: -_median(rounds, lambda r: _self(r, k)))
    print(f"   {'span (median per round)':34s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s}")
    for label in labels:
        spans = [r["spans"].get(label, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                 for r in rounds]
        print(f"   {label:34s} {statistics.median(s['calls'] for s in spans):9.0f} "
              f"{statistics.median(s['self_s'] for s in spans):10.4f} "
              f"{statistics.median(s['total_s'] for s in spans):10.4f}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One CPU for the whole process: the program's stage threads hand the
    # interpreter lock to each other, and hand-offs across the CPUs of a
    # shared machine made query latency swing by a quarter between runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](args.seed)
    setup_times = [timed_setup(workload)]
    workload.prepare_checks()
    gc.collect()
    if not args.trace:
        loop = run_rounds(workload, args.seconds, setup_times=setup_times)
        print_table(workload, loop, setup_times, "untraced")
        metrics = end_to_end(loop, setup_times)
        all_ops = loop.all_ops
    else:
        untraced = run_rounds(workload, args.seconds / 2)
        print_table(workload, untraced, setup_times, "untraced half")
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, callers=(workloads,))
        try:
            tracer.start()
            workload.setup()
            tracer.stop()
            setup_spans = tracer.take("setup")["spans"]
            gc.collect()
            traced = run_rounds(workload, args.seconds / 2, tracer)
        finally:
            tracing.uninstall(undo)
        print_table(workload, traced, setup_times, "traced half")
        print_layers(traced.traces)
        path = ROOT_DIR / ".e2ebench" / f"spans-{workload.name}-seed{workload.seed}.npz"
        print(f"   {tracer.dump(path)} spans written to {path.relative_to(ROOT_DIR)}")
        all_ops = untraced.all_ops + traced.all_ops
        metrics = per_layer(workload, untraced, traced, setup_spans)
    failed = sum(not op.ok for op in all_ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
