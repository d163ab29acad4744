"""Wall-clock spans around the public entry points of every ``repro`` layer.

Nothing inside ``src/`` is edited: :func:`install` re-binds each entry point
from outside, on its class or, for a module-level function, in every
``repro`` module that imported it by name.  Each call then records one span
(label, start, end, self time) in memory; :meth:`Tracer.take` aggregates and
clears them, and :meth:`Tracer.dump` writes every span taken to one file.

Self time is a span's duration minus the union of its child spans.  A span
opened on a thread that has no open span of its own (a ``StageExecutor``
worker) takes the enclosing ``StageExecutor.run`` span as its parent, so
per-node work running in parallel is subtracted once, by its union, from the
stage span.  A call into the entry point that is already the innermost open
span on the same thread (``stable_hash`` recursing into a tuple) folds into
that span instead of opening a new one.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

_now = time.perf_counter_ns

#: label -> entry points, each "module:qualname".  The label's first dotted
#: component is the layer it belongs to.
ENTRY_POINTS = {
    "tpch.datagen": ["repro.tpch.datagen:TpchGenerator.all_tables"],
    "tpch.register_replicas": ["repro.tpch.queries:register_tpch_replicas"],
    "tpch.query": [
        f"repro.tpch.queries:run_{q}"
        for q in ("q01", "q02", "q04", "q06", "q12", "q13", "q14", "q17", "q22")
    ],
    "placement.partition_set": ["repro.placement.partitioner:partition_set"],
    "placement.register_replica": ["repro.placement.replication:register_replica"],
    "placement.recover_node": ["repro.placement.recovery:recover_node"],
    "services.sequential.add_object": ["repro.services.sequential:SequentialWriter.add_object"],
    "services.sequential.add_data": ["repro.services.sequential:SequentialWriter.add_data"],
    "services.sequential.flush": ["repro.services.sequential:SequentialWriter.flush"],
    "services.scan": ["repro.services.sequential:PageIterator.next"],
    "services.shuffle.add_object": ["repro.services.shuffle:VirtualShuffleBuffer.add_object"],
    "services.shuffle.write_batch": ["repro.services.shuffle:ShuffleService.write_batch"],
    "services.shuffle.finish_writing": ["repro.services.shuffle:ShuffleService.finish_writing"],
    "services.hashsvc.insert": ["repro.services.hashsvc:VirtualHashBuffer.insert"],
    "services.hashsvc.insert_many": ["repro.services.hashsvc:VirtualHashBuffer.insert_many"],
    "services.hashsvc.finalize": ["repro.services.hashsvc:VirtualHashBuffer.finalize"],
    "fs.page_checksum": ["repro.fs.page_file:page_checksum"],
    "fs.write_page": ["repro.fs.page_file:SetFile.write_page"],
    "fs.write_many": ["repro.fs.page_file:SetFile.write_many"],
    "fs.read_page": ["repro.fs.page_file:SetFile.read_page"],
    "buffer.place": ["repro.buffer.pool:BufferPool.place"],
    "buffer.release": ["repro.buffer.pool:BufferPool.release"],
    "core.pin_page": ["repro.core.locality_set:LocalShard.pin_page"],
    "core.seal_page": ["repro.core.locality_set:LocalShard.seal_page"],
    "core.make_room": ["repro.core.paging:PagingSystem.make_room"],
    "query.execute": ["repro.query.scheduler:QueryScheduler.execute"],
    "query.batch": [
        "repro.query.batch:build_hash_table",
        "repro.query.batch:build_batch",
        "repro.query.batch:probe_batch",
        "repro.query.batch:BatchStepRunner.feed",
        "repro.query.batch:BatchStepRunner.finish",
        "repro.query.batch:RecordBatch.keys",
        "repro.query.batch:RecordBatch.hashes",
        "repro.query.batch:RecordBatch.partitions",
    ],
    "query.pipeline": ["repro.query.pipeline:run_steps"],
    "compute.stage": ["repro.compute.stages:StageExecutor.run"],
    "ml.kmeans.load_points": ["repro.ml.kmeans:PangeaKMeans.load_points"],
    "ml.kmeans.run": ["repro.ml.kmeans:PangeaKMeans.run"],
    "sim.cpu": ["repro.sim.devices:CpuProfile.parallel"],
    "sim.disk": [
        "repro.sim.devices:DiskArray.read",
        "repro.sim.devices:DiskArray.write",
        "repro.sim.devices:DiskArray.write_many",
    ],
    "sim.net": [
        "repro.sim.network:NetworkLink.transfer",
        "repro.sim.network:NetworkLink.message",
    ],
    "util.stable_hash": ["repro.util:stable_hash"],
    "util.estimate_bytes": ["repro.util:estimate_bytes"],
}

LAYERS = (
    "tpch", "placement", "services", "fs", "buffer", "core",
    "query", "compute", "ml", "sim", "util",
)

#: Spans with this label are the benchmark's own: one per operation.  Their
#: self time is the wall time no layer claims.
ROOT = "bench.op"

#: Labels whose spans adopt the top-level spans of threads they start.
_ADOPTING = {"compute.stage"}


def union_ns(intervals: list, start: int, end: int) -> int:
    """Length of the union of ``intervals``, clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class _Frame:
    __slots__ = ("label", "start", "children", "cross")

    def __init__(self, label: int) -> None:
        self.label = label
        self.start = 0
        self.children: list = []
        self.cross = False


class Tracer:
    """In-memory span recorder; inactive until :meth:`start`."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self._spans = array("q")
        self._taken: list[tuple[str, array]] = []
        self._local = threading.local()
        self._adopter: _Frame | None = None
        self.active = False
        self.threads_started = 0

    def label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open(self, label: int) -> tuple:
        stack = self._stack()
        if stack:
            parent, cross = stack[-1], False
        else:
            parent, cross = self._adopter, True
        frame = _Frame(label)
        stack.append(frame)
        frame.start = _now()
        return frame, parent, cross

    def close(self, frame: _Frame, parent: "_Frame | None", cross: bool) -> None:
        end = _now()
        self._stack().pop()
        start = frame.start
        children = frame.children
        if not children:
            covered = 0
        elif frame.cross:
            covered = union_ns(children, start, end)
        else:
            # Same-thread children are nested calls: disjoint and ordered.
            covered = sum(hi - lo for lo, hi in children)
        if parent is not None:
            parent.children.append((start, end))
            if cross:
                parent.cross = True
        self._spans.extend((frame.label, start, end, end - start - covered))

    def span(self, label: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span (used for the benchmark's root spans)."""
        frame, parent, cross = self.open(self.label_id(label))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame, parent, cross)

    def wrap(self, label: str, fn):
        lid = self.label_id(label)
        adopting = label in _ADOPTING
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1].label == lid:
                return fn(*args, **kwargs)
            frame, parent, cross = tracer.open(lid)
            if adopting:
                previous, tracer._adopter = tracer._adopter, frame
            try:
                result = fn(*args, **kwargs)
                if adopting and args[0].last_parallel:
                    tracer.threads_started += len(args[2])
                return result
            finally:
                if adopting:
                    tracer._adopter = previous
                tracer.close(frame, parent, cross)

        return functools.update_wrapper(traced, fn)

    def take(self, phase: str) -> dict:
        """Aggregate and clear what was recorded since the last take.

        Returns ``{"spans": {label: {"calls", "total_s", "self_s"}},
        "threads": stage threads started}``.
        """
        spans, self._spans = self._spans, array("q")
        threads, self.threads_started = self.threads_started, 0
        self._taken.append((phase, spans))
        table = np.frombuffer(spans, dtype=np.int64).reshape(-1, 4)
        n = len(self.labels)
        calls = np.bincount(table[:, 0], minlength=n)
        total = np.bincount(table[:, 0], weights=table[:, 2] - table[:, 1], minlength=n)
        own = np.bincount(table[:, 0], weights=table[:, 3], minlength=n)
        stats = {
            self.labels[i]: {
                "calls": int(calls[i]),
                "total_s": float(total[i]) / 1e9,
                "self_s": float(own[i]) / 1e9,
            }
            for i in np.flatnonzero(calls)
        }
        return {"spans": stats, "threads": threads}

    @property
    def spans_taken(self) -> int:
        return sum(len(spans) for _phase, spans in self._taken) // 4

    def dump(self, path: Path) -> int:
        """Write every span taken to one ``.npz`` file; returns the span count.

        ``spans`` holds (label id, start ns, end ns, self ns) rows, ``phase``
        each row's index into ``phases``, and ``labels`` the label names.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        tables = [np.frombuffer(spans, dtype=np.int64).reshape(-1, 4)
                  for _phase, spans in self._taken]
        spans = np.concatenate(tables) if tables else np.zeros((0, 4), np.int64)
        np.savez(
            path, spans=spans,
            phase=np.repeat(np.arange(len(tables)), [len(t) for t in tables]),
            phases=np.array([phase for phase, _spans in self._taken]),
            labels=np.array(self.labels),
        )
        return len(spans)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    holder = sys.modules[module_name]
    *owners, attr = qualname.split(".")
    for owner in owners:
        holder = getattr(holder, owner)
    return holder, attr


def install(tracer: Tracer, callers: tuple = ()) -> list:
    """Re-bind every entry point in :data:`ENTRY_POINTS` to a traced wrapper.

    Module-level functions are replaced in every loaded ``repro`` module and
    in each module of ``callers`` that holds them, so call sites written as
    ``from repro.util import stable_hash`` are traced too.  Returns the undo
    list for :func:`uninstall`.
    """
    import repro.compute.stages  # noqa: F401 - load every module we patch
    import repro.ml.kmeans  # noqa: F401
    import repro.placement  # noqa: F401
    import repro.query  # noqa: F401
    import repro.services  # noqa: F401
    import repro.tpch  # noqa: F401

    undo: list = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "repro" or name.startswith("repro."))]
    modules.extend(callers)
    for label, targets in ENTRY_POINTS.items():
        for target in targets:
            holder, attr = _resolve(target)
            original = holder.__dict__[attr]
            wrapped = tracer.wrap(label, original)
            if isinstance(holder, type):
                setattr(holder, attr, wrapped)
                undo.append((holder, attr, original))
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        undo.append((module, name, original))
            # Dicts of entry points (``QUERIES``) hold the function too.
            for module in modules:
                for value in list(vars(module).values()):
                    if isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapped
                                undo.append((value, key, original))
    return undo


def uninstall(undo: list) -> None:
    for holder, name, original in reversed(undo):
        if isinstance(holder, dict):
            holder[name] = original
        else:
            setattr(holder, name, original)
