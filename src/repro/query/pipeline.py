"""Pipelined per-node execution of record-at-a-time steps."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import WorkerNode


def run_steps(
    records: typing.Iterable[dict],
    steps: list,
    node: "WorkerNode",
    workers: int = 1,
) -> typing.Iterator[dict]:
    """Stream ``records`` through filter/map/flatmap steps on ``node``.

    Each step application charges per-object CPU work; nothing is
    materialized, matching the paper's pipelined job stages.
    """
    count = 0
    for record in records:
        count += 1
        out: "list[dict] | None" = [record]
        for kind, fn in steps:
            if out is None:
                break
            next_out: list = []
            for item in out:
                if kind == "filter":
                    if fn(item):
                        next_out.append(item)
                elif kind == "map":
                    next_out.append(fn(item))
                else:  # flatmap
                    next_out.extend(fn(item))
            out = next_out or None
        if count % 1024 == 0:
            node.cpu.per_object(1024 * max(1, len(steps)), workers=workers)
        if out:
            yield from out
    node.cpu.per_object((count % 1024) * max(1, len(steps)), workers=workers)


def scan_shard_records(shard) -> typing.Iterator[dict]:
    """Stream one shard's records through the sequential read service."""
    from repro.services.sequential import make_shard_iterators

    for iterator in make_shard_iterators(shard, 1):
        for page in iterator:
            yield from page.records
