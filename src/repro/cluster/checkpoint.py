"""Cluster checkpoint/restore: the restart durability story.

A checkpoint captures the manager's catalog plus every **write-through**
locality set's pages, preserving per-node placement and page boundaries.
Transient (write-back) sets are deliberately excluded — their lifetime
does not span restarts, exactly as the paper's durability model says.

Callables (partitioners, object-id functions) cannot be serialized; the
checkpoint stores partition-scheme *metadata*, and recovery-capable
groups need their functions re-attached after restore.
"""

from __future__ import annotations

import json
import os
import pickle
import typing

from repro.core.attributes import DurabilityType
from repro.placement.partitioner import PartitionScheme

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import PangeaCluster

MANIFEST = "manifest.json"
PAYLOADS = "payloads.pkl"
FORMAT_VERSION = 1


def checkpoint(cluster: "PangeaCluster", directory: str) -> dict:
    """Write the catalog + durable data to ``directory``; returns the manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest: dict = {
        "version": FORMAT_VERSION,
        "num_nodes": cluster.num_nodes,
        "sets": [],
    }
    payloads: dict = {}
    for name in cluster.manager.set_names():
        dataset = cluster.get_set(name)
        if dataset.attributes.durability is not DurabilityType.WRITE_THROUGH:
            continue
        scheme = dataset.partition_scheme
        manifest["sets"].append(
            {
                "name": name,
                "page_size": dataset.page_size,
                "object_bytes": dataset.object_bytes,
                "nodes": sorted(dataset.shards),
                "partition_scheme": (
                    {
                        "kind": scheme.kind,
                        "key_name": scheme.key_name,
                        "num_partitions": scheme.num_partitions,
                    }
                    if scheme is not None
                    else None
                ),
                "replica_group_id": dataset.replica_group_id,
            }
        )
        shard_payloads: dict = {}
        for node_id in sorted(dataset.shards):
            shard = dataset.shards[node_id]
            shard_payloads[node_id] = [
                {
                    "records": list(shard.read_records(page)),
                    "used_bytes": page.used_bytes,
                }
                for page in shard.pages
            ]
        payloads[name] = shard_payloads
    with open(os.path.join(directory, MANIFEST), "w") as handle:
        json.dump(manifest, handle, indent=2)
    with open(os.path.join(directory, PAYLOADS), "wb") as handle:
        pickle.dump(payloads, handle)
    return manifest


def restore(cluster: "PangeaCluster", directory: str) -> list:
    """Recreate checkpointed sets into a fresh cluster; returns set names.

    The target cluster must have at least as many nodes as the
    checkpoint used and must not already contain same-named sets.
    """
    with open(os.path.join(directory, MANIFEST)) as handle:
        manifest = json.load(handle)
    if manifest.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {manifest.get('version')!r}"
        )
    if cluster.num_nodes < manifest["num_nodes"]:
        raise ValueError(
            f"checkpoint spans {manifest['num_nodes']} nodes; the target "
            f"cluster has only {cluster.num_nodes}"
        )
    with open(os.path.join(directory, PAYLOADS), "rb") as handle:
        payloads = pickle.load(handle)
    restored = []
    for meta in manifest["sets"]:
        name = meta["name"]
        dataset = cluster.create_set(
            name,
            durability="write-through",
            page_size=meta["page_size"],
            object_bytes=meta["object_bytes"],
            nodes=meta["nodes"],
        )
        if meta["partition_scheme"] is not None:
            dataset.partition_scheme = PartitionScheme(**meta["partition_scheme"])
        for node_id_str, pages in payloads[name].items():
            node_id = int(node_id_str)
            shard = dataset.shards[node_id]
            for page_payload in pages:
                page = shard.new_page(pin=True)
                records = page_payload["records"]
                used = page_payload["used_bytes"]
                per_record = used // max(1, len(records)) if records else 0
                for index, record in enumerate(records):
                    # Give the last record the rounding remainder so the
                    # page's logical fill level is restored exactly.
                    nbytes = (
                        used - per_record * (len(records) - 1)
                        if index == len(records) - 1
                        else per_record
                    )
                    page.append(record, max(0, nbytes) or 0)
                page.used_bytes = used
                shard.seal_page(page)
                shard.unpin_page(page)
        cluster.manager.update_statistics(dataset)
        restored.append(name)
    cluster.barrier()
    return restored
