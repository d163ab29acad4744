"""Per-node stage execution: the driver thread plus one thread per other node.

The query scheduler's stages are embarrassingly parallel across nodes:
every task touches only its own node's shards, clock, CPU and network
(remote shuffle flushes credit the peer's *stats*, never its clock), and
the storage path is thread-safe.  The executor starts one thread for
every node but the lowest, runs the lowest node's task on the calling
thread, then joins the others.  Each node's charge sequence is untouched,
only the wall-clock interleaving changes, so this charges exactly the
simulated costs of the serial loop — which is what the golden suite pins
down.

The executor runs the serial loop, in node order, when any node has an
enabled fault injector: rate-based faults draw from one shared seeded RNG
whose draw order is defined by the *global* event order, which threads
would scramble.  This is the only place the query engine changes its
behaviour under faults.
"""

from __future__ import annotations

import threading
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import PangeaCluster


class StageExecutor:
    """Run one thunk per worker node, concurrently when that is safe.

    ``run`` takes ``{node_id: thunk}`` and returns ``{node_id: result}``
    in sorted node order.  The lowest node's thunk runs on the calling
    thread and every other one on a thread of its own.  Exceptions
    propagate: the lowest-node failure re-raises after every thread has
    joined, also when it is the calling thread's own task that failed.
    When a node has a tracer attached, each task is wrapped in one
    ``query.stage`` span stamped off that node's simulated clock.
    """

    def __init__(self, cluster: "PangeaCluster") -> None:
        self.cluster = cluster
        #: Whether the most recent :meth:`run` ran tasks concurrently.
        self.last_parallel = False

    def _faults_active(self) -> bool:
        for node in self.cluster.nodes:
            injector = getattr(node, "fault_injector", None)
            if injector is not None and injector.enabled:
                return True
        return False

    def run(self, stage: str, tasks: dict) -> dict:
        order = sorted(tasks)
        use_threads = len(order) > 1 and not self._faults_active()
        self.last_parallel = use_threads
        if not use_threads:
            return {
                node_id: self._run_one(stage, node_id, tasks[node_id])
                for node_id in order
            }
        results: dict = {}
        errors: dict = {}
        lock = threading.Lock()

        def work(node_id, thunk):
            try:
                value = self._run_one(stage, node_id, thunk)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                with lock:
                    errors[node_id] = exc
            else:
                with lock:
                    results[node_id] = value

        threads = [
            threading.Thread(
                target=work,
                args=(node_id, tasks[node_id]),
                name=f"stage-{stage}-n{node_id}",
            )
            for node_id in order[1:]
        ]
        for thread in threads:
            thread.start()
        work(order[0], tasks[order[0]])
        for thread in threads:
            thread.join()
        if errors:
            raise errors[min(errors)]
        return {node_id: results[node_id] for node_id in order}

    def _run_one(self, stage: str, node_id: int, thunk):
        tracer = self.cluster.nodes[node_id].tracer
        if tracer is None:
            return thunk()
        start = tracer.now
        value = thunk()
        tracer.span(
            "query.stage", "query", start, tracer.now - start, stage=stage
        )
        return value
