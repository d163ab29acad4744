"""Extension: long-living workers vs waves of tasks (paper Sec. 5).

Not a numbered figure — the paper argues qualitatively that Pangea's
long-living workers (pulling page metadata from a circular buffer) avoid
the per-task scheduling cost and the PACMan-style all-or-nothing caching
concern of the waves-of-tasks model.  This benchmark quantifies the claim
on growing inputs: the waves model's driver overhead grows with the
number of blocks, while the worker pool's cost tracks only the data.
"""

from conftest import record_report

from repro import MachineProfile, PangeaCluster
from repro.compute import WavesOfTasks, WorkerPool
from repro.sim.devices import GB, MB

PAGE = 64 * MB
SIZES_GB = [1, 4, 16, 64]


def run_one(total_gb: int) -> dict:
    cluster = PangeaCluster(
        num_nodes=4, profile=MachineProfile.r4_2xlarge(pool_bytes=32 * GB)
    )
    data = cluster.create_set(
        "blocks", durability="write-back", page_size=PAGE,
        object_bytes=16 * MB,
    )
    data.add_data(list(range(total_gb * GB // (16 * MB))))
    workers = WorkerPool(cluster, workers_per_node=8).run_stage(
        data, page_fn=lambda p: None, seconds_per_object=1e-4
    )
    waves = WavesOfTasks(cluster, cores_per_node=8).run_stage(
        data, page_fn=lambda p: None, seconds_per_object=1e-4
    )
    return {
        "pages": data.num_pages,
        "workers": workers.seconds,
        "waves": waves.seconds,
        "tasks": waves.tasks_scheduled,
    }


def _run_all():
    return {gb: run_one(gb) for gb in SIZES_GB}


def test_ext_threading_models(benchmark):
    table = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    lines = [f"{'GB':>4s} {'blocks':>7s} {'workers':>9s} {'waves':>9s} {'overhead':>9s}"]
    for gb in SIZES_GB:
        row = table[gb]
        overhead = (row["waves"] - row["workers"]) / max(row["workers"], 1e-9)
        lines.append(
            f"{gb:4d} {row['pages']:7d} {row['workers']:8.2f}s "
            f"{row['waves']:8.2f}s {100 * overhead:8.1f}%"
        )
    lines.append("")
    lines.append("waves-of-tasks pays driver scheduling per block; the long-")
    lines.append("living worker model pays one GetSetPages per stage")
    record_report("Extension: long-living workers vs waves of tasks", lines)

    for gb in SIZES_GB:
        assert table[gb]["waves"] > table[gb]["workers"]
    # The relative overhead does not vanish as data (and blocks) grow.
    small = table[SIZES_GB[0]]
    large = table[SIZES_GB[-1]]
    assert large["tasks"] > small["tasks"]
