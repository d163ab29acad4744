"""Network cost model for the distributed benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import TICKS_PER_SECOND, SimClock, charge, to_ticks
from repro.sim.devices import CHARGE_CACHE_ENTRIES, GB
from repro.sim.faults import RetryPolicy, TransientNetworkError


@dataclass
class NetworkStats:
    bytes_sent: int = 0
    num_messages: int = 0
    #: Receive-side accounting, credited by the *sender's* ``transfer``
    #: call when it names the destination link via ``peer=``.
    bytes_received: int = 0
    messages_received: int = 0

    def reset(self) -> None:
        self.bytes_sent = 0
        self.num_messages = 0
        self.bytes_received = 0
        self.messages_received = 0


class NetworkLink:
    """A full-duplex link between a node and the cluster fabric.

    AWS r4.2xlarge instances have "up to 10 Gigabit" networking; we default
    to an effective 1.0 GB/s with a per-message latency.  Shuffle and
    broadcast services charge transfers here; the data proxy's metadata
    messages (paper Sec. 5) charge only the latency term.

    :meth:`message` takes its ticks from a cache keyed by the message
    count, filled with the ``to_ticks(num_messages * latency)`` value the
    formula gives, so a cached charge is exactly the uncached one; a
    fault hook's extra seconds are charged as ``to_ticks(num_messages *
    latency + extra)``.  ``latency`` is fixed once the link has charged a
    message.
    """

    def __init__(
        self,
        bandwidth: float = 1.0 * GB,
        latency: float = 150e-6,
        clock: SimClock | None = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("network bandwidth must be positive")
        if latency < 0:
            raise ValueError("network latency cannot be negative")
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.clock = clock
        self.stats = NetworkStats()
        #: Optional fault hook ``(point, nbytes) -> extra_seconds``; installed
        #: by :meth:`repro.sim.faults.FaultInjector.attach`.  May raise
        #: :class:`~repro.sim.faults.TransientNetworkError`, which the
        #: built-in bounded retry loop absorbs (charging backoff time).
        self.fault_hook = None
        self.retry_policy: RetryPolicy | None = None
        #: The owning node's RobustnessStats (set at injector attach time)
        #: so network retries are counted on the node that performed them.
        self.robustness = None
        #: Optional :class:`~repro.obs.tracer.NodeTracer`; installed by
        #: :meth:`repro.cluster.node.WorkerNode.attach_tracer`.
        self.tracer = None
        #: num_messages -> ticks of one :meth:`message` charge.
        self._message_ticks: dict = {}

    def _fire_with_retries(self, point: str, nbytes: int) -> float:
        """Fire the fault hook, retrying dropped sends with backoff."""
        if self.fault_hook is None:
            return 0.0
        policy = self.retry_policy or RetryPolicy()
        attempt = 0
        while True:
            try:
                return self.fault_hook(point, nbytes)
            except TransientNetworkError:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                if self.robustness is not None:
                    self.robustness.retries += 1
                # Backoff is charged immediately; the successful attempt's
                # extra latency (if any) is returned to the caller.
                charge(self.clock, policy.backoff(attempt - 1))

    def transfer(
        self,
        nbytes: int,
        num_messages: int = 1,
        peer: "NetworkLink | None" = None,
    ) -> float:
        """Charge a bulk transfer of ``nbytes`` in ``num_messages`` messages.

        Transfers survive injected transient drops transparently: each
        dropped attempt charges exponential backoff as simulated time and
        is retried up to the attached :class:`RetryPolicy`'s bound.

        ``peer`` names the destination node's link when the caller knows
        it; the receiver's ``bytes_received``/``messages_received``
        counters are credited (no extra time is charged — the link cost
        model already covers the full transfer).
        """
        if nbytes < 0:
            raise ValueError("cannot transfer a negative number of bytes")
        extra = self._fire_with_retries("net.transfer", nbytes)
        num_messages = max(1, num_messages)
        self.stats.bytes_sent += nbytes
        self.stats.num_messages += num_messages
        if peer is not None and peer is not self:
            peer.stats.bytes_received += nbytes
            peer.stats.messages_received += num_messages
        tracer = self.tracer
        start = tracer.now if tracer is not None else 0.0
        cost = charge(
            self.clock, num_messages * self.latency + nbytes / self.bandwidth + extra
        )
        if tracer is not None:
            tracer.span("net.transfer", "network", start, cost,
                        nbytes=nbytes, num_messages=num_messages)
        return cost

    def message(self, num_messages: int = 1) -> float:
        """Charge control-plane messages (page pin/unpin metadata etc.).

        A negative count is rejected before the fault hook fires or any
        counter moves.
        """
        if num_messages < 0:
            raise ValueError("cannot send a negative number of messages")
        extra = self._fire_with_retries("net.message", 0)
        self.stats.num_messages += num_messages
        tracer = self.tracer
        start = tracer.now if tracer is not None else 0.0
        if extra:
            ticks = to_ticks(num_messages * self.latency + extra)
        else:
            ticks = self._message_ticks.get(num_messages)
            if ticks is None:
                ticks = to_ticks(num_messages * self.latency)
                if len(self._message_ticks) < CHARGE_CACHE_ENTRIES:
                    self._message_ticks[num_messages] = ticks
        if self.clock is not None:
            self.clock.advance_ticks(ticks)
        cost = ticks / TICKS_PER_SECOND
        if tracer is not None:
            tracer.span("net.message", "network", start, cost,
                        num_messages=num_messages)
        return cost
