"""The computation-process side of Pangea (paper Sec. 5, Fig. 2).

A computation process does not read files: its *data proxy* exchanges
page metadata with the storage process over a socket, the metadata lands
in a circular buffer, and **long-living workers** pull pages from that
buffer and access the data through shared memory.  This contrasts with
the "waves of tasks" model of Spark/Hadoop, where a task is scheduled
per block of data — and with it the all-or-nothing caching concern of
PACMan, which Pangea's model sidesteps entirely.
"""

from repro.compute.circular import CircularBuffer
from repro.compute.proxy import DataProxy
from repro.compute.stages import StageExecutor
from repro.compute.workers import StageResult, WavesOfTasks, WorkerPool

__all__ = [
    "CircularBuffer",
    "DataProxy",
    "WorkerPool",
    "WavesOfTasks",
    "StageResult",
    "StageExecutor",
]
