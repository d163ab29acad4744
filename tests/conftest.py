"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import FaultInjector, MachineProfile, PangeaCluster
from repro.services.sequential import NodeFailedError
from repro.sim.devices import MB


@pytest.fixture
def tiny_profile() -> MachineProfile:
    return MachineProfile.tiny(pool_bytes=16 * MB)


@pytest.fixture
def cluster(tiny_profile) -> PangeaCluster:
    """A 2-node cluster with small pools (evictions are easy to trigger)."""
    return PangeaCluster(num_nodes=2, profile=tiny_profile)


@pytest.fixture
def single_node() -> PangeaCluster:
    return PangeaCluster(num_nodes=1, profile=MachineProfile.tiny(pool_bytes=16 * MB))


def rows_match(got: list, want: list, rel: float = 1e-6, abs_tol: float = 1e-2) -> bool:
    """Compare result rows field-by-field with float tolerance.

    Distributed execution sums floats in a different order than the
    reference, so penny-level drift on large monetary sums is expected.
    """
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if set(g) != set(w):
            return False
        for key in w:
            gv, wv = g[key], w[key]
            if isinstance(wv, float) or isinstance(gv, float):
                scale = max(abs(float(wv)), 1.0)
                if abs(float(gv) - float(wv)) > max(abs_tol, rel * scale) + 1e-9:
                    return False
            elif gv != wv:
                return False
    return True


def flip_bit(handle, page_id: int, bit: int) -> None:
    """Flip bit ``bit`` (from the first byte's least significant bit) of
    the stored image of one page of the ``SetFile`` ``handle``, leaving
    its meta-file checksum as it was."""
    image = handle._images[page_id]
    flipped = int.from_bytes(image, "little") ^ (1 << bit)
    handle._images[page_id] = flipped.to_bytes(len(image), "little")


class AbortingInjector(FaultInjector):
    """A fault injector whose scheduled crash also raises
    :class:`NodeFailedError` to the code at the fault point, as a crash
    of the caller's own process would abort it there."""

    def fire(self, point, node, nbytes=0):
        extra = super().fire(point, node, nbytes)
        if node.failed:
            raise NodeFailedError(f"node {node.node_id} crashed at {point}",
                                  node_id=node.node_id)
        return extra
