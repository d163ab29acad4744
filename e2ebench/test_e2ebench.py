"""Tests of the benchmark itself: span arithmetic, entry-point re-binding,
and a tiny-size run of every workload that checks each metric named in
``BENCHMARK.json`` is reported with its unit.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the program's src/ on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _raw(tracer: tracing.Tracer) -> list:
    """(label, start, end, self) of every span recorded so far."""
    spans = tracer._spans
    return [
        (tracer.labels[spans[i]], spans[i + 1], spans[i + 2], spans[i + 3])
        for i in range(0, len(spans), 4)
    ]


def test_union_merges_overlaps_and_clips():
    assert tracing.union_ns([(0, 10), (5, 15), (20, 30)], 0, 40) == 25
    assert tracing.union_ns([(20, 30), (0, 10)], 0, 40) == 20
    assert tracing.union_ns([(-5, 3), (8, 50)], 0, 10) == 5
    assert tracing.union_ns([(2, 4), (2, 4)], 0, 10) == 2
    assert tracing.union_ns([], 0, 10) == 0


def test_nested_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("layer.inner", lambda: time.sleep(0.002))

    def outer_body():
        inner()
        time.sleep(0.001)
        inner()

    outer = tracer.wrap("layer.outer", outer_body)
    tracer.start()
    outer()
    spans = _raw(tracer)
    inners = [s for s in spans if s[0] == "layer.inner"]
    (_, start, end, own), = [s for s in spans if s[0] == "layer.outer"]
    assert len(inners) == 2
    for _, s, e, own_inner in inners:
        assert own_inner == e - s
    assert own == (end - start) - sum(e - s for _, s, e, _ in inners)
    stats = tracer.take("t")["spans"]
    assert stats["layer.outer"]["calls"] == 1
    assert stats["layer.inner"]["calls"] == 2


def test_recursive_calls_fold_into_one_span():
    tracer = tracing.Tracer()

    def countdown(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap("util.countdown", countdown)
    tracer.start()
    assert traced(5) == 5
    assert tracer.take("t")["spans"]["util.countdown"]["calls"] == 1


def test_inactive_tracer_records_nothing():
    tracer = tracing.Tracer()
    assert tracer.wrap("layer.f", lambda x: x + 1)(1) == 2
    assert tracer.take("t")["spans"] == {}


def test_stage_thread_spans_take_the_stage_span_as_parent(monkeypatch):
    from repro import MachineProfile, PangeaCluster
    from repro.compute.stages import StageExecutor
    from repro.sim.devices import MB

    tracer = tracing.Tracer()
    monkeypatch.setattr(StageExecutor, "run",
                        tracer.wrap("compute.stage", StageExecutor.run))
    work = tracer.wrap("query.batch", lambda: time.sleep(0.05))
    cluster = PangeaCluster(num_nodes=2, profile=MachineProfile.tiny(pool_bytes=4 * MB))
    executor = StageExecutor(cluster)
    tracer.start()
    tracer.span(tracing.ROOT, executor.run, "s", {0: work, 1: work})
    assert executor.last_parallel
    spans = _raw(tracer)
    children = [(s, e) for label, s, e, _ in spans if label == "query.batch"]
    (_, start, end, own), = [s for s in spans if s[0] == "compute.stage"]
    assert len(children) == 2
    # The two per-node tasks overlap, so the stage loses their union, once.
    assert own == (end - start) - tracing.union_ns(children, start, end)
    assert own < (end - start) - 0.04e9
    (_, root_start, root_end, root_own), = [s for s in spans if s[0] == tracing.ROOT]
    assert root_own == (root_end - root_start) - (end - start)
    assert tracer.take("t")["threads"] == 2


def test_cross_thread_spans_without_a_stage_are_roots():
    tracer = tracing.Tracer()
    work = tracer.wrap("layer.work", lambda: None)
    tracer.start()
    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    (label, start, end, own), = _raw(tracer)
    assert own == end - start


def test_install_rebinds_imported_names_and_uninstall_restores():
    import repro.query.batch
    import repro.util

    original = repro.util.stable_hash
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, callers=(workloads,))
    try:
        assert repro.util.stable_hash is not original
        assert repro.query.batch.stable_hash is repro.util.stable_hash
        assert workloads.recover_node.__wrapped__ is not None
        want = original((1, "a"))
        tracer.start()
        assert repro.query.batch.stable_hash((1, "a")) == want
        tracer.stop()
        assert tracer.take("t")["spans"]["util.stable_hash"]["calls"] == 1
    finally:
        tracing.uninstall(undo)
    assert repro.util.stable_hash is original
    assert repro.query.batch.stable_hash is original
    assert not hasattr(workloads.recover_node, "__wrapped__")


def test_kmeans_reference_matches_the_program_on_a_small_job():
    import numpy as np
    from repro import MachineProfile, PangeaCluster
    from repro.ml.kmeans import PangeaKMeans, generate_points
    from repro.sim.devices import MB

    points = generate_points(200, seed=3)
    cluster = PangeaCluster(num_nodes=4, profile=MachineProfile.tiny(pool_bytes=64 * MB))
    km = PangeaKMeans(cluster, k=5, dims=10, workers=2, page_size=1 * MB)
    result = km.run(km.load_points(points), iterations=3)
    want = workloads.kmeans_reference(points, 5, 4, 3)
    assert np.allclose(result.centroids, want, rtol=1e-9, atol=1e-9)


@pytest.fixture
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(workloads.TpchLoad, "SCALE", 0.0005)
    monkeypatch.setattr(workloads.TpchQuery, "SCALE", 0.0005)
    monkeypatch.setattr(workloads.TpchQuery, "setup_repeats", 1)
    # A fifth of the points against a fifth of the pool: still pages.
    monkeypatch.setattr(workloads.KMeansPaging, "LOGICAL_POINTS", 600_000_000)
    monkeypatch.setattr(workloads.KMeansPaging, "POOL", 6 * workloads.GB)
    monkeypatch.setattr(workloads.ShuffleSpill, "OBJECTS_PER_WORKER", 2_000)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(tiny_sizes, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7",
                     "--seconds", "0.05", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in want]
    for metric in want:
        assert got[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(got[metric["name"]]["value"], (int, float))
    if not trace:
        assert all(got[m["name"]]["value"] > 0 for m in want)
    elif workload == "tpch-query":
        # The query workload never pages, writes pages or checksums them.
        assert got["core.make_room.calls"]["value"] == 0
        assert got["fs.page_checksum.calls"]["value"] == 0
        assert got["query.execute.calls"]["value"] >= 9


def test_same_seed_repeats_simulated_seconds_and_plan_counts(tiny_sizes, capsys):
    results = []
    for _ in range(2):
        run.main(["--workload", "tpch-query", "--seed", "3", "--seconds", "0.05",
                  "--trace", "1"])
        results.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
    exact = [k for k in results[0]["metrics"] if k.startswith(("sim.", "query."))
             and not k.endswith("self_s")]
    assert "sim.sim_s" in exact and "query.copartitioned_joins" in exact
    for key in exact:
        assert results[0]["metrics"][key] == results[1]["metrics"][key], key
