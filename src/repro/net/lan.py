"""The switched fast-ethernet LAN model.

The paper's testbed connects every node with 100 Mbps fast ethernet,
"in order to allow enough throughput to show the clustered server's
capabilities".  The experiments depend on two properties of that network:

* per-node NIC bandwidth is finite, so a node pushing many large responses
  serializes them (this is what melts the NFS server in Figure 2);
* the switch itself is not the bottleneck (switched, not shared, ethernet).

We model each NIC as a full-duplex pair of transmit/receive channels with a
byte rate; a transfer holds the sender's TX channel and the receiver's RX
channel for ``bytes / min(rates)`` plus propagation latency.  Acquiring TX
before RX is deadlock-free because RX holders never wait on anything.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from ..sim import Resource, RngStream, SimEvent, Simulator

__all__ = ["Nic", "Lan"]

#: Protocol framing overhead (ethernet + IP + TCP headers per MSS).
WIRE_OVERHEAD = 1.055


class Nic:
    """A full-duplex network interface with a fixed line rate."""

    def __init__(self, sim: Simulator, mbps: float = 100.0, name: str = ""):
        if mbps <= 0:
            raise ValueError("line rate must be positive")
        self.sim = sim
        self.name = name
        self.mbps = mbps
        self.bytes_per_second = mbps * 1e6 / 8.0
        self.tx = Resource(sim, capacity=1, name=f"{name}.tx")
        self.rx = Resource(sim, capacity=1, name=f"{name}.rx")
        self.bytes_sent = 0
        self.bytes_received = 0

    def serialization_time(self, nbytes: int) -> float:
        """Wire time to clock ``nbytes`` (plus framing) through this NIC."""
        return nbytes * WIRE_OVERHEAD / self.bytes_per_second

    def utilization_out(self) -> float:
        return self.tx.utilization()

    def utilization_in(self) -> float:
        return self.rx.utilization()


class Lan:
    """A switched LAN: transfers contend only on the endpoints' NICs."""

    def __init__(self, sim: Simulator, latency: float = 0.2e-3):
        self.sim = sim
        self.latency = latency
        self.total_transfers = 0
        self.total_bytes = 0
        # -- fault-injection state (driven by repro.chaos) ------------------
        #: additional one-way latency per transfer (congestion / bad cable)
        self.extra_latency = 0.0
        #: probability that a transfer needs TCP retransmissions first
        self.loss_rate = 0.0
        #: delay one retransmission round costs (a short RTO)
        self.retransmit_delay = 0.05
        self._loss_rng: Optional[RngStream] = None
        #: node prefixes currently cut off from the rest of the switch
        self._partitioned: frozenset[str] = frozenset()
        self._heal_event: Optional[SimEvent] = None
        self.retransmissions = 0
        self.transfers_blocked = 0
        #: transfers completed via the single-event fast path (observability
        #: only -- never part of the golden/metrics equivalence surface)
        self.fast_transfers = 0

    # -- fault injection hooks (repro.chaos) --------------------------------
    def set_loss(self, rate: float, rng: RngStream,
                 retransmit_delay: float = 0.05) -> None:
        """Make transfers lossy: with probability ``rate`` a transfer pays
        one retransmission round (repeatedly, geometrically) before its
        bytes go through -- TCP semantics, so nothing is silently dropped.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        if retransmit_delay <= 0:
            raise ValueError("retransmit_delay must be positive")
        self.loss_rate = rate
        self._loss_rng = rng
        self.retransmit_delay = retransmit_delay

    def clear_loss(self) -> None:
        self.loss_rate = 0.0
        self._loss_rng = None

    def add_delay(self, extra: float) -> None:
        """Add ``extra`` seconds of one-way latency (additive, revertable)."""
        if extra < 0:
            raise ValueError("extra latency must be non-negative")
        self.extra_latency += extra

    def remove_delay(self, extra: float) -> None:
        self.extra_latency = max(0.0, self.extra_latency - extra)

    def set_partition(self, nodes: Iterable[str]) -> None:
        """Cut the named endpoints (NIC-name prefixes before the first
        ``.``) off from everyone else.  Cross-partition transfers block --
        TCP keeps retrying -- until :meth:`heal_partition`."""
        self._partitioned = frozenset(nodes)

    def heal_partition(self) -> None:
        """End the partition; every blocked transfer resumes."""
        self._partitioned = frozenset()
        event, self._heal_event = self._heal_event, None
        if event is not None:
            event.succeed()

    @property
    def partitioned_nodes(self) -> frozenset[str]:
        return self._partitioned

    @staticmethod
    def _endpoint(nic: Nic) -> str:
        return nic.name.split(".", 1)[0]

    def _crosses_partition(self, src: Nic, dst: Nic) -> bool:
        if not self._partitioned:
            return False
        return ((self._endpoint(src) in self._partitioned) !=
                (self._endpoint(dst) in self._partitioned))

    def _heal_wait(self) -> SimEvent:
        if self._heal_event is None:
            self._heal_event = SimEvent(self.sim)
        return self._heal_event

    def transfer_time(self, src: Nic, dst: Nic, nbytes: int) -> float:
        """Uncontended duration of a transfer (excluding queueing)."""
        a = src.bytes_per_second
        b = dst.bytes_per_second
        return nbytes * WIRE_OVERHEAD / (a if a <= b else b) + self.latency

    def _extra_latency_now(self) -> float:
        return self.extra_latency

    def transfer(self, src: Nic, dst: Nic,
                 nbytes: int) -> Generator:
        """Move ``nbytes`` from ``src`` to ``dst``; use ``yield from``.

        Blocks while either endpoint NIC is busy, then holds both channels
        for the serialization time.  Returns the completion time.

        Active faults are paid first; then one body serves every transfer.
        A fault-free transfer may take each idle channel synchronously and
        the receiver by grant-and-hold (``Resource.hold``); a faulted one,
        like every transfer on the event-accurate path, queues for both.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        fault_free = (self._loss_rng is None and not self._partitioned
                      and self.extra_latency == 0.0)
        if not fault_free:
            # Faults are paid *before* acquiring either channel: a
            # transfer stuck behind a partition must not hold the sender's
            # TX and head-of-line-block unrelated traffic.
            while self._crosses_partition(src, dst):
                self.transfers_blocked += 1
                yield self._heal_wait()
            # re-checked each round: the fault may revert mid-retransmission
            while (self._loss_rng is not None and
                   self._loss_rng.random() < self.loss_rate):
                self.retransmissions += 1
                yield sim.hot_timeout(self.retransmit_delay)
        tx, rx = src.tx, dst.rx
        tx_req = sim.take_now(tx.try_acquire) if fault_free else None
        idle = tx_req is not None
        if tx_req is None:
            tx_req = yield tx.request()
        try:
            # the RX wait is interruptible: TX must not leak if this
            # transfer is torn down while queued for the receiver
            synchronous = yield from rx.hold(
                self.transfer_time(src, dst, nbytes), collapse=fault_free,
                extra=self._extra_latency_now)
        finally:
            tx.release(tx_req)
        # a fast transfer found both channels idle and no fault at entry
        fast = idle and synchronous
        if fast:
            self.fast_transfers += 1
        sim.note_fast_path("lan", fast)
        self.total_transfers += 1
        self.total_bytes += nbytes
        src.bytes_sent += nbytes
        dst.bytes_received += nbytes
        return sim.now
