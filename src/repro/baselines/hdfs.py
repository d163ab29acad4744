"""HDFS baseline (paper Fig. 8 and the Spark storage backend).

Models the Hadoop Distributed File System accessed through a native
client (libhdfs3, as the paper uses for fairness): files are 128MB
blocks, writes pipeline through ``replication`` datanodes, and every
transfer crosses two memory copies (client buffer ↔ socket ↔ datanode)
on top of the datanode's OS file system — the layering Pangea removes.
"""

from __future__ import annotations

from repro.baselines.host import BaselineHost
from repro.baselines.os_fs import OsFileSystem
from repro.sim.clock import synchronize
from repro.sim.devices import MB

BLOCK_BYTES = 128 * MB


class HdfsCluster:
    """One namenode (metadata only) plus datanodes co-located with hosts."""

    def __init__(
        self,
        hosts: list[BaselineHost],
        replication: int = 1,
        datanode_cache_bytes: int | None = None,
        per_block_latency: float = 2e-3,
    ) -> None:
        if not hosts:
            raise ValueError("HDFS needs at least one datanode host")
        if replication < 1 or replication > len(hosts):
            raise ValueError("replication must be between 1 and the host count")
        self.hosts = hosts
        self.replication = replication
        self.per_block_latency = per_block_latency
        cache = datanode_cache_bytes or max(1, hosts[0].memory_bytes // 2)
        self._datanode_fs = [OsFileSystem(host, cache) for host in hosts]
        self._file_sizes: dict[str, int] = {}
        self._next_host = 0

    # ------------------------------------------------------------------
    # client operations (charged to the client's host)
    # ------------------------------------------------------------------

    def write(self, name: str, nbytes: int, client: BaselineHost, workers: int = 1) -> None:
        """Write a file: per-block pipeline through ``replication`` replicas."""
        if nbytes < 0:
            raise ValueError("cannot write a negative number of bytes")
        self._file_sizes[name] = self._file_sizes.get(name, 0) + nbytes
        num_blocks = max(1, (nbytes + BLOCK_BYTES - 1) // BLOCK_BYTES)
        # Client-side copy into packet buffers plus the socket hop; only
        # replicas pipelined to *other* nodes cross the network.
        client.cpu.memcpy(nbytes, workers)
        remote_replicas = max(0, self.replication - 1) if len(self.hosts) > 1 else 0
        if remote_replicas:
            client.network.transfer(nbytes * remote_replicas, num_messages=num_blocks)
        client.clock.advance(num_blocks * self.per_block_latency)
        local = self._local_datanode(client)
        for replica_index in range(self.replication):
            datanode = (local + replica_index) % len(self.hosts)
            fs = self._datanode_fs[datanode]
            fs.host.cpu.memcpy(nbytes, workers)  # socket receive copy
            fs.write(f"{name}#r{replica_index}", nbytes, workers)
            fs.flush(f"{name}#r{replica_index}")
        # The client blocks on every participant of the replicated write.
        synchronize([client.clock] + [fs.host.clock for fs in self._datanode_fs])

    def read(self, name: str, nbytes: int, client: BaselineHost, workers: int = 1) -> None:
        """Read a file, preferring the replica co-located with the client.

        Spark's scheduler is locality-optimized, so reads usually hit the
        local datanode; the two socket copies remain even then (the
        short-circuit path still crosses the client/server boundary via
        the paper's measurement setup).
        """
        size = self._file_sizes.get(name)
        if size is None:
            raise KeyError(f"no HDFS file named {name!r}")
        if nbytes > size:
            raise ValueError(f"file {name!r} holds {size} bytes, cannot read {nbytes}")
        num_blocks = max(1, (nbytes + BLOCK_BYTES - 1) // BLOCK_BYTES)
        datanode = self._local_datanode(client)
        fs = self._datanode_fs[datanode]
        fs.read(f"{name}#r0", nbytes, workers)
        fs.host.cpu.memcpy(nbytes, workers)  # datanode → socket copy
        if fs.host is not client:
            client.network.transfer(nbytes, num_messages=num_blocks)
        client.cpu.memcpy(nbytes, workers)  # socket → client buffer copy
        client.clock.advance(num_blocks * self.per_block_latency)
        synchronize([client.clock, fs.host.clock])  # synchronous API

    def delete(self, name: str) -> None:
        self._file_sizes.pop(name, None)
        for replica_index in range(self.replication):
            for fs in self._datanode_fs:
                fs.delete(f"{name}#r{replica_index}")

    def file_bytes(self, name: str) -> int:
        return self._file_sizes.get(name, 0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _pick_datanode(self, replica_index: int) -> int:
        return (self._next_host + replica_index) % len(self.hosts)

    def _local_datanode(self, client: BaselineHost) -> int:
        for index, host in enumerate(self.hosts):
            if host is client:
                return index
        return self._pick_datanode(0)
