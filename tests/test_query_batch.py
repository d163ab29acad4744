"""Unit tests for the batch kernels, the stage executor, and the query
scheduler's stage plumbing.

The end-to-end bit-exactness story lives in ``test_query_golden.py``;
here each kernel is checked in isolation against per-record reference
code, on identically-built twin clusters.
"""

import threading
import time

import pytest

from repro import MachineProfile, PangeaCluster
from repro.compute.stages import StageExecutor
from repro.query.batch import (
    DEFAULT_BATCH_SIZE,
    BatchStepRunner,
    RecordBatch,
    build_batch,
    build_hash_table,
    iter_chunks,
    probe_batch,
)
from repro.query.operators import ScanNode
from repro.query.pipeline import run_steps
from repro.query.scheduler import QueryScheduler, StageResult
from repro.sim.clock import TICKS_PER_SECOND
from repro.sim.devices import KB, MB
from repro.sim.faults import FaultInjector
from repro.sim.metrics import format_scheduler_table
from repro.util import stable_hash


def tiny_cluster(num_nodes=1, pool_bytes=64 * MB):
    return PangeaCluster(
        num_nodes=num_nodes, profile=MachineProfile.tiny(pool_bytes=pool_bytes)
    )


class TestRecordBatch:
    def test_key_and_hash_columns_cached(self):
        calls = []

        def key_fn(r):
            calls.append(r)
            return r["k"]

        batch = RecordBatch([{"k": i} for i in range(8)])
        keys = batch.keys(key_fn)
        assert keys == list(range(8))
        batch.hashes(key_fn)
        parts = batch.partitions(key_fn, 3)
        assert parts == [stable_hash(i) % 3 for i in range(8)]
        assert len(calls) == 8  # key_fn ran once per record total

    def test_new_key_fn_invalidates_cache(self):
        batch = RecordBatch([{"k": i, "j": -i} for i in range(4)])
        assert batch.keys(lambda r: r["k"]) == [0, 1, 2, 3]
        assert batch.keys(lambda r: r["j"]) == [0, -1, -2, -3]
        assert batch.hashes(lambda r: r["j"]) == [stable_hash(-i) for i in range(4)]

    def test_iter_chunks(self):
        assert [len(c) for c in iter_chunks(list(range(10)), 4)] == [4, 4, 2]
        assert list(iter_chunks([], 4)) == []
        with pytest.raises(ValueError):
            list(iter_chunks([1], 0))


class TestBatchStepRunnerEquivalence:
    """Same outputs and same clock as run_steps for any chunking."""

    STEPS = [
        ("filter", lambda r: r["v"] % 3 != 0),
        ("map", lambda r: {"v": r["v"], "sq": r["v"] * r["v"]}),
        ("flatmap", lambda r: [r] * (r["v"] % 2 + 1)),
    ]

    @pytest.mark.parametrize("count,chunk", [(0, 16), (1500, 64), (2048, 1024), (700, 1000)])
    def test_matches_run_steps(self, count, chunk):
        records = [{"v": i} for i in range(count)]
        legacy_node = tiny_cluster().nodes[0]
        batch_node = tiny_cluster().nodes[0]
        legacy_out = list(run_steps(iter(records), self.STEPS, legacy_node))
        runner = BatchStepRunner(batch_node, self.STEPS)
        batch_out = []
        for piece in iter_chunks(records, chunk):
            batch_out.extend(runner.feed(piece))
        runner.finish()
        assert batch_out == legacy_out
        assert batch_node.clock.now == legacy_node.clock.now

    def test_finish_twice_is_idempotent(self):
        node = tiny_cluster().nodes[0]
        runner = BatchStepRunner(node, [])
        runner.feed([{"v": 1}])
        runner.finish()
        before = node.clock.now
        runner.finish()
        assert node.clock.now == before
        with pytest.raises(RuntimeError):
            runner.feed([{"v": 2}])


class TestRunStepsAccounting:
    """Satellite: pin down run_steps' CPU charging exactly."""

    def expected(self, node, charge_counts):
        """The clock after ``per_object`` charges of these unit counts,
        summed as integer ticks."""
        per = node.cpu.record_ticks()
        ticks = node.clock.ticks + sum(n * per for n in charge_counts)
        return ticks / TICKS_PER_SECOND

    def test_full_block_plus_remainder(self):
        node = tiny_cluster().nodes[0]
        steps = [("map", lambda r: r), ("filter", lambda r: True)]
        start_records = [{"v": i} for i in range(1500)]
        expected = self.expected(node, [1024 * 2, 476 * 2])
        out = list(run_steps(iter(start_records), steps, node))
        assert len(out) == 1500
        assert node.clock.now == expected

    def test_exact_block_boundary_has_zero_remainder(self):
        node = tiny_cluster().nodes[0]
        expected = self.expected(node, [1024, 0])
        list(run_steps(iter([{"v": i} for i in range(1024)]), [], node))
        assert node.clock.now == expected

    def test_empty_steps_still_charge_one_unit_per_record(self):
        node = tiny_cluster().nodes[0]
        expected = self.expected(node, [100])  # max(1, len(steps)) == 1
        list(run_steps(iter([{"v": i} for i in range(100)]), [], node))
        assert node.clock.now == expected

    def test_apply_steps_empty_short_circuit(self):
        cluster = tiny_cluster(num_nodes=2)
        scheduler = QueryScheduler(cluster, object_bytes=64)
        stage = StageResult(per_node={0: [{"v": 1}], 1: [{"v": 2}]})
        clocks = [n.clock.now for n in cluster.nodes]
        out = scheduler._apply_steps(stage, [])
        assert out is stage  # the short circuit returns the same object
        assert [n.clock.now for n in cluster.nodes] == clocks

    def test_flatmap_fanout_charges_input_count(self):
        node = tiny_cluster().nodes[0]
        steps = [("flatmap", lambda r: [r, r, r])]
        expected = self.expected(node, [10])  # 10 inputs, not 30 outputs
        out = list(run_steps(iter([{"v": i} for i in range(10)]), steps, node))
        assert len(out) == 30
        assert node.clock.now == expected


def probe_records(join, left_records, table) -> list:
    """Record-at-a-time probe semantics: the reference for probe_batch."""
    out: list = []
    for record in left_records:
        matches = table.get(join.left_key(record))
        if join.how == "inner":
            out.extend(join.merge(record, m) for m in matches or ())
        elif join.how == "left_semi":
            if matches:
                out.append(record)
        elif join.how == "left_anti":
            if not matches:
                out.append(record)
        elif matches:  # left_outer
            out.extend(join.merge(record, m) for m in matches)
        else:
            out.append(join.merge(record, None))
    return out


class TestJoinKernels:
    def make_join(self, how="inner"):
        return ScanNode("l").join(
            ScanNode("r"),
            left_key=lambda r: r["k"],
            right_key=lambda r: r["k"],
            merge=lambda l, r: (l, r),
            how=how,
        )

    @pytest.mark.parametrize("how", ["inner", "left_semi", "left_anti", "left_outer"])
    def test_probe_matches_record_path(self, how):
        join = self.make_join(how)
        left = [{"k": i % 5, "side": "l", "i": i} for i in range(40)]
        right = [{"k": i % 3, "side": "r", "i": i} for i in range(9)]
        legacy_node = tiny_cluster().nodes[0]
        batch_node = tiny_cluster().nodes[0]
        table_legacy: dict = {}
        for record in right:
            table_legacy.setdefault(join.right_key(record), []).append(record)
        legacy = probe_records(join, left, table_legacy)
        # One build charge over the right side, one probe charge over the left.
        legacy_node.cpu.per_object(len(right), factor=1.5)
        legacy_node.cpu.per_object(len(left), factor=2.0)
        table_batch = build_batch(right, join.right_key, batch_node)
        batch = probe_batch(join, left, table_batch, batch_node)
        assert table_batch == table_legacy
        assert batch == legacy
        assert batch_node.clock.now == legacy_node.clock.now

    def test_build_hash_table_groups_in_order(self):
        table = build_hash_table([{"k": 1, "i": 0}, {"k": 2, "i": 1}, {"k": 1, "i": 2}], lambda r: r["k"])
        assert [r["i"] for r in table[1]] == [0, 2]
        assert [r["i"] for r in table[2]] == [1]


class TestShuffleWriteBatch:
    def _make(self):
        from repro.services.shuffle import ShuffleService

        cluster = tiny_cluster(num_nodes=2)
        service = ShuffleService(
            cluster,
            "shuf",
            num_partitions=3,
            page_size=64 * KB,
            small_page_size=4 * KB,
            object_bytes=64,
        )
        return cluster, service

    def _partition_payloads(self, service):
        return [
            [list(p.records) for p in ds.shards[sorted(ds.shards)[0]].pages]
            for ds in service.partition_sets
        ]

    def test_no_worker_node_falls_back(self):
        _cluster, service = self._make()
        service.write_batch(0, [{"i": 1}, {"i": 2}], [0, 1], nbytes=64)
        service.finish_writing()
        payloads = self._partition_payloads(service)
        assert payloads[0] == [[{"i": 1}]]
        assert payloads[1] == [[{"i": 2}]]


class TestInsertMany:
    def _run(self, batched):
        from repro.services.hashsvc import VirtualHashBuffer

        cluster = tiny_cluster(num_nodes=1, pool_bytes=2 * MB)
        dataset = cluster.create_set(
            "hash", durability="write-back", page_size=64 * KB, object_bytes=64
        )
        buffer = VirtualHashBuffer(
            dataset, num_root_partitions=4, combiner=lambda a, b: a + b
        )
        keys = [i % 300 for i in range(2000)]
        values = [1] * 2000
        if batched:
            for start in range(0, 2000, 256):
                buffer.insert_many(
                    keys[start:start + 256], values[start:start + 256], nbytes=64
                )
        else:
            for key, value in zip(keys, values):
                buffer.insert(key, value, nbytes=64)
        pairs = sorted(buffer.items())
        buffer.release()
        return pairs, cluster.nodes[0].clock.now, buffer.stats

    def test_matches_per_record_inserts(self):
        legacy_pairs, legacy_clock, legacy_stats = self._run(batched=False)
        batch_pairs, batch_clock, batch_stats = self._run(batched=True)
        assert batch_pairs == legacy_pairs
        assert batch_clock == legacy_clock
        assert batch_stats == legacy_stats
        assert legacy_stats.combines > 0  # the fast path was exercised

    def test_insert_many_without_nbytes_falls_back(self):
        from repro.services.hashsvc import VirtualHashBuffer

        cluster = tiny_cluster()
        dataset = cluster.create_set("h2", durability="write-back", page_size=4 * MB)
        buffer = VirtualHashBuffer(dataset, num_root_partitions=2)
        buffer.insert_many(["a", "b", "a"], [1, 2, 3])
        assert dict(buffer.items()) == {"a": 3, "b": 2}
        buffer.release()


class TestShuffleHomeMerge:
    """Satellite: partitions sharing a home node merge instead of
    overwriting when num_partitions > num_nodes."""

    def test_merge_not_overwrite(self):
        # Pool must hold several pinned 64MB shuffle big pages per node
        # (three partitions home to each of the two nodes).
        cluster = tiny_cluster(num_nodes=2, pool_bytes=512 * MB)
        scheduler = QueryScheduler(cluster, object_bytes=64)
        stage = StageResult(per_node={0: [{"k": i} for i in range(200)], 1: []})
        out = scheduler._shuffle(stage, lambda r: r["k"], num_partitions=6)
        assert out.total_records() == 200
        # Every record keyed k lands on home (stable_hash(k) % 6) % 2.
        for home_id, records in out.per_node.items():
            for record in records:
                assert stable_hash(record["k"]) % 6 % 2 == home_id
        keys = sorted(r["k"] for rs in out.per_node.values() for r in rs)
        assert keys == list(range(200))


class TestStageExecutor:
    def test_results_in_node_order(self):
        cluster = tiny_cluster(num_nodes=3)
        executor = StageExecutor(cluster)
        results = executor.run(
            "t", {nid: (lambda n=nid: n * 10) for nid in range(3)}
        )
        assert list(results.items()) == [(0, 0), (1, 10), (2, 20)]
        assert executor.last_parallel

    def test_single_task_runs_serial(self):
        executor = StageExecutor(tiny_cluster(num_nodes=3))
        assert executor.run("t", {1: lambda: "x"}) == {1: "x"}
        assert not executor.last_parallel

    def test_exception_propagates_lowest_node_first(self):
        executor = StageExecutor(tiny_cluster(num_nodes=3))

        def boom(which):
            raise RuntimeError(f"boom-{which}")

        with pytest.raises(RuntimeError, match="boom-1"):
            executor.run(
                "t",
                {2: lambda: boom(2), 1: lambda: boom(1), 0: lambda: "fine"},
            )

    def test_faults_force_serial(self):
        cluster = tiny_cluster(num_nodes=3)
        FaultInjector(seed=1).attach(cluster)
        executor = StageExecutor(cluster)
        results = executor.run("t", {nid: (lambda n=nid: n) for nid in range(3)})
        assert results == {0: 0, 1: 1, 2: 2}
        assert not executor.last_parallel

    def test_stage_spans_emitted_when_tracing(self):
        cluster = tiny_cluster(num_nodes=2)
        tracer = cluster.enable_tracing()
        executor = StageExecutor(cluster)
        executor.run("probe", {nid: (lambda: None) for nid in range(2)})
        spans = [e for e in tracer.events if e.name == "query.stage"]
        assert len(spans) == 2
        assert {e.args["stage"] for e in spans} == {"probe"}


class _Halt(BaseException):
    """A non-``Exception`` failure, like ``KeyboardInterrupt``."""


class TestStageExecutorThreads:
    """The lowest node's task runs on the calling thread, every other task
    on a thread of its own, and a failure surfaces only once all joined."""

    @staticmethod
    def _recording_tasks(node_ids, fail=(), error=RuntimeError, delay=0.05):
        """Tasks that record their thread; the threaded ones finish late,
        so a failure raised before the joins would find them unfinished."""
        caller = threading.current_thread()
        ran, finished = {}, []

        def task(node_id):
            ran[node_id] = threading.current_thread()
            if ran[node_id] is not caller:
                time.sleep(delay)
            if node_id in fail:
                raise error(f"boom-{node_id}")
            finished.append(node_id)
            return node_id * 10

        return {nid: (lambda n=nid: task(n)) for nid in node_ids}, ran, finished

    @staticmethod
    def _started_alive(ran) -> bool:
        """Whether a thread the executor started is still running."""
        caller = threading.current_thread()
        return any(t.is_alive() for t in ran.values() if t is not caller)

    def test_lowest_node_runs_on_the_calling_thread(self):
        executor = StageExecutor(tiny_cluster(num_nodes=4))
        tasks, ran, _ = self._recording_tasks([3, 1, 2])
        results = executor.run("t", tasks)
        assert list(results.items()) == [(1, 10), (2, 20), (3, 30)]
        assert executor.last_parallel
        caller = threading.current_thread()
        assert ran[1] is caller
        others = [ran[2], ran[3]]
        assert all(thread is not caller for thread in others)
        assert others[0] is not others[1]
        assert [thread.name for thread in others] == ["stage-t-n2", "stage-t-n3"]
        assert not self._started_alive(ran)

    @pytest.mark.parametrize(
        "fail, raised",
        [((0,), "boom-0"), ((2,), "boom-2"), ((0, 2), "boom-0"), ((1, 2), "boom-1")],
        ids=["inline", "threaded", "both", "two-threaded"],
    )
    def test_lowest_failure_reraised_after_every_join(self, fail, raised):
        executor = StageExecutor(tiny_cluster(num_nodes=3))
        tasks, ran, finished = self._recording_tasks(range(3), fail=fail)
        with pytest.raises(RuntimeError, match=raised):
            executor.run("t", tasks)
        assert sorted(ran) == [0, 1, 2]
        assert sorted(finished) == sorted(set(range(3)) - set(fail))
        assert not self._started_alive(ran)

    def test_inline_base_exception_waits_for_the_joins(self):
        executor = StageExecutor(tiny_cluster(num_nodes=3))
        tasks, ran, finished = self._recording_tasks(range(3), fail=(0,), error=_Halt)
        with pytest.raises(_Halt, match="boom-0"):
            executor.run("t", tasks)
        assert sorted(finished) == [1, 2]
        assert not self._started_alive(ran)

    def test_faults_run_every_task_on_the_calling_thread_in_node_order(self):
        cluster = tiny_cluster(num_nodes=3)
        FaultInjector(seed=1).attach(cluster)
        executor = StageExecutor(cluster)
        tasks, ran, finished = self._recording_tasks([2, 0, 1])
        assert executor.run("t", tasks) == {0: 0, 1: 10, 2: 20}
        assert not executor.last_parallel
        assert finished == [0, 1, 2]
        assert all(thread is threading.current_thread() for thread in ran.values())


class TestBroadcastBuildOnce:
    def test_right_key_called_once_per_record(self):
        cluster = tiny_cluster(num_nodes=3)
        orders = cluster.create_set("orders", page_size=1 * MB, object_bytes=64)
        items = cluster.create_set("items", page_size=1 * MB, object_bytes=64)
        orders.add_data([{"o_id": i} for i in range(60)])
        items.add_data([{"i_id": i, "i_order": i % 60} for i in range(240)])
        calls = []

        def right_key(record):
            calls.append(record)
            return record["o_id"]

        plan = ScanNode("items").join(
            ScanNode("orders"),
            left_key=lambda r: r["i_order"],
            right_key=right_key,
            merge=lambda l, r: {**l, **r},
        )
        scheduler = QueryScheduler(cluster, object_bytes=64)
        rows = scheduler.execute(plan)
        assert scheduler.metrics.broadcast_joins == 1
        assert len(rows) == 240
        # One build over the broadcast set, not one per node.
        assert len(calls) == 60


class TestSchedulerMetricsSurface:
    def test_counters_and_table(self):
        cluster = tiny_cluster(num_nodes=3)
        data = cluster.create_set("d", page_size=1 * MB, object_bytes=64)
        data.add_data([{"k": i} for i in range(500)])
        scheduler = QueryScheduler(cluster, object_bytes=64, broadcast_threshold=0)
        plan = ScanNode("d").join(
            ScanNode("d"),
            left_key=lambda r: r["k"],
            right_key=lambda r: r["k"],
            merge=lambda l, r: l,
        )
        scheduler.execute(plan)
        m = scheduler.metrics
        assert m.batches_processed > 0
        assert m.batch_records >= 500
        assert 0 < m.mean_batch_fill <= DEFAULT_BATCH_SIZE
        assert m.stages_run >= m.parallel_stages > 0
        assert 1.0 <= m.mean_stage_parallelism <= cluster.num_nodes
        table = format_scheduler_table(m)
        header, row = table.splitlines()
        assert len(header) == len(row)
        assert "batches" in header
        # Every cell right-aligned into its column width.
        for line in (header, row):
            assert not line.startswith(" " * 2) or line.strip()
