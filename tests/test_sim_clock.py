"""Tests for the simulated clocks."""

import pytest

from repro.sim.clock import SimClock, TickCounter, synchronize


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == pytest.approx(4.0)

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(3.0) == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_synchronize_moves_clocks_forward(self):
        early, late = SimClock(), SimClock(10.0)
        assert synchronize([early, late]) == 10.0
        assert early.now == 10.0

    def test_synchronize_never_rewinds(self):
        clock = SimClock(10.0)
        synchronize([clock, SimClock(5.0)])
        assert clock.now == 10.0

    def test_charges_add_as_whole_ticks(self):
        clock = SimClock()
        for _ in range(10):
            clock.advance(0.1)
        assert clock.ticks == 10**12
        assert clock.now == 1.0

    def test_reset(self):
        clock = SimClock()
        clock.advance(7.0)
        clock.reset()
        assert clock.now == 0.0


class TestTickCounter:
    def test_starts_at_zero(self):
        assert TickCounter().now == 0

    def test_next_increments(self):
        ticks = TickCounter()
        assert ticks.next() == 1
        assert ticks.next() == 2
        assert ticks.now == 2

    def test_reset(self):
        ticks = TickCounter()
        ticks.next()
        ticks.reset()
        assert ticks.now == 0
