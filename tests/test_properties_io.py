"""Property-based tests for the I/O layers: checkpoints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineProfile, PangeaCluster
from repro.cluster.checkpoint import checkpoint, restore
from repro.sim.devices import MB


@settings(max_examples=10, deadline=None)
@given(
    payloads=st.lists(
        st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
        min_size=1,
        max_size=200,
    ),
    object_bytes=st.integers(min_value=10, max_value=4096),
)
def test_checkpoint_round_trip_property(payloads, object_bytes, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("ckptprop"))
    cluster = PangeaCluster(
        num_nodes=2, profile=MachineProfile.tiny(pool_bytes=8 * MB)
    )
    data = cluster.create_set(
        "d", durability="write-through", page_size=256 * 1024,
        object_bytes=object_bytes,
    )
    data.add_data(payloads)
    checkpoint(cluster, directory)
    fresh = PangeaCluster(
        num_nodes=2, profile=MachineProfile.tiny(pool_bytes=8 * MB)
    )
    restore(fresh, directory)
    restored = fresh.get_set("d")
    assert sorted(restored.scan_records()) == sorted(payloads)
    assert restored.logical_bytes == data.logical_bytes
