"""Per-node NIC model (LogGP-flavoured, with hardware rate ceilings).

An internode message passes through, in order:

1. the *sender process's injection pipeline* — a FIFO server per local
   process with per-message service ``max(1/proc_msg_rate,
   nbytes/proc_bandwidth)``.  This is the resource a **single** process
   saturates, and the reason multi-object designs win (Fig. 1);
2. the *node NIC transmit side* — a message-rate limiter (97 M msg/s for
   OPA) in series with a bandwidth server (``nbytes/nic_bandwidth``), both
   shared by every process on the node;
3. the *wire* — constant one-way latency;
4. the *destination NIC receive side* — rate limiter + bandwidth server,
   pipelined with the transmit side (the receive reservation starts when
   the head of the message arrives, so an uncontended transfer costs
   ``nbytes/B + L``, not ``2·nbytes/B + L``, while incast still queues).

All reservations are *eager*: a request made at simulated time ``t`` for
``service`` seconds is assigned its ``(start, end)`` window at once, FIFO
within the stage.  This is exact for work-conserving FIFO servers as long
as reservations are never cancelled — which holds everywhere in this
codebase — and avoids one event per queue transition, keeping large
sweeps (2304 ranks × log-depth algorithms) fast.  So each stage is one
float: a server's next-free time, or a rate limiter's next admission slot.
The function returns the two times the MPI layer needs: when the sender's
injection completed (local completion for nonblocking sends) and when the
full message is available at the destination.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.hw.params import MachineParams

__all__ = ["NodeNic", "Fabric", "BatchNic", "BatchFabric"]


class NodeNic:
    """NIC state for one node.

    The queue state is one float per stage, under the field names its
    vector twin :class:`BatchNic` uses.
    """

    __slots__ = (
        "params", "node", "fabric", "_inject_free", "_interval",
        "_tx_rate_next", "_rx_rate_next", "_tx_bw_next", "_rx_bw_next",
        "messages_sent", "bytes_sent",
    )

    def __init__(self, params: MachineParams, node: int, ppn: int,
                 fabric: "Fabric | None" = None):
        self.params = params
        self.node = node
        #: shared core-fabric bandwidth server (None = full bisection)
        self.fabric = fabric
        #: the NIC's message-rate ceiling as an admission spacing
        self._interval = 1.0 / params.nic_msg_rate
        self._inject_free: List[float] = [0.0] * ppn
        self.reset()

    def transfer(
        self, now: float, src_local: int, dst: "NodeNic", nbytes: int,
        dma: bool = False,
    ) -> Tuple[float, float]:
        """Reserve the full path for one message.

        Returns ``(inject_done, arrival)``: when the sending process's
        injection pipeline frees (local send completion) and when the last
        byte is available at ``dst``.
        """
        p = self.params
        self.messages_sent += 1
        self.bytes_sent += nbytes

        # All three stages are cut-through pipelined: a downstream stage
        # starts when the *head* of the message clears the upstream stage,
        # and a message cannot finish a stage before it finishes the
        # previous one.  An uncontended transfer therefore costs
        # ``nbytes / min(stage bandwidths) + wire latency``, while each
        # stage still serialises competing messages FIFO.
        #
        # Each stage's reservation is written out inline rather than
        # called: this function runs once per simulated message, and a
        # method call per stage dominated its cost.
        # 1. per-process injection: eager data is copied by the CPU into
        # bounce buffers (``proc_bandwidth``); rendezvous data is DMA-pulled
        # by the NIC (``proc_dma_bandwidth``) and only costs the process
        # its doorbell, floored by the per-process message rate
        inject_free = self._inject_free
        service = nbytes / (p.proc_dma_bandwidth if dma else p.proc_bandwidth)
        rate_floor = 1.0 / p.proc_msg_rate
        if service < rate_floor:
            service = rate_floor
        inj_start = inject_free[src_local]
        if now > inj_start:
            inj_start = now
        inj_done = inj_start + service
        inject_free[src_local] = inj_done
        # 2. node transmit side: rate ceiling then bandwidth
        tx_admit = self._tx_rate_next
        if inj_start > tx_admit:
            tx_admit = inj_start
        self._tx_rate_next = tx_admit + self._interval
        tx_start = self._tx_bw_next
        if tx_admit > tx_start:
            tx_start = tx_admit
        tx_end = tx_start + nbytes / p.nic_bandwidth
        self._tx_bw_next = tx_end
        if inj_done > tx_end:
            tx_end = inj_done
        # 2b. oversubscribed core fabric (optional), pipelined like the rest
        fabric = self.fabric
        if fabric is not None:
            fab_start = fabric._next_free
            if tx_start > fab_start:
                fab_start = tx_start
            fab_end = fab_start + nbytes / p.fabric_bandwidth
            fabric._next_free = fab_end
            if tx_end > fab_end:
                fab_end = tx_end
            head_start, tail_end = fab_start, fab_end
        else:
            head_start, tail_end = tx_start, tx_end
        # 3+4. wire + receive side
        head_arrival = head_start + p.wire_latency
        rx_admit = dst._rx_rate_next
        if head_arrival > rx_admit:
            rx_admit = head_arrival
        dst._rx_rate_next = rx_admit + dst._interval
        rx_start = dst._rx_bw_next
        if rx_admit > rx_start:
            rx_start = rx_admit
        rx_end = rx_start + nbytes / dst.params.nic_bandwidth
        dst._rx_bw_next = rx_end
        arrival = tail_end + p.wire_latency
        if rx_end > arrival:
            arrival = rx_end
        return inj_done, arrival

    def reset(self) -> None:
        """Empty every queue and zero the message accounting."""
        self._inject_free = [0.0] * len(self._inject_free)
        self._tx_rate_next = 0.0
        self._rx_rate_next = 0.0
        self._tx_bw_next = 0.0
        self._rx_bw_next = 0.0
        self.messages_sent = 0
        self.bytes_sent = 0


class Fabric:
    """Shared core-fabric bandwidth server: one FIFO next-free time.

    One per world, handed to every :class:`NodeNic`, whose
    :meth:`~NodeNic.transfer` reserves it inline.
    """

    __slots__ = ("_next_free",)

    def __init__(self):
        self._next_free = 0.0

    def reset(self) -> None:
        self._next_free = 0.0


#: conflict-resource key of the shared core fabric (one per world)
_FB_KEY = ("fb",)


class BatchFabric:
    """Shared core-fabric bandwidth server over the size axis.

    The vector twin of :class:`Fabric`, handed to every :class:`BatchNic`:
    a single FIFO next-free vector.
    """

    __slots__ = ("_next_free",)

    def __init__(self, width: int):
        self._next_free = np.zeros(width)


class BatchNic:
    """Vector-over-sizes mirror of :class:`NodeNic` for the batch engine.

    Every scalar queue field of :class:`NodeNic` becomes an ``(S,)`` array
    of the same name over the partition's size axis (``_interval`` stays a
    scalar); :meth:`transfer` replicates :meth:`NodeNic.transfer`'s
    arithmetic operation for operation (same operand order, same
    ``max`` placements) so each size's component is bit-identical to the
    scalar computation.  ``np.maximum`` stands in for the scalar
    compare-and-assign idiom — identical values for identical operands.

    There is no size-dependent branch here, so no uniformity check: byte
    counts may arrive as an int (uniform across the partition) or as an
    ``(S,)`` integer vector and flow straight through the arithmetic.
    Neither twin keeps utilisation accounting: the batch engine reports
    samples and message counts only.

    Each stage of the reservation pipeline is a resource for the
    timeline's conflict check (``tl.touch``): the per-process injection
    lane, the node transmit side (rate + bandwidth, always accessed
    together), the shared fabric, and the destination receive side.
    """

    __slots__ = (
        "params", "node", "tl", "fabric", "_inject_free", "_interval",
        "_tx_rate_next", "_rx_rate_next", "_tx_bw_next", "_rx_bw_next",
        "messages_sent", "_ni_keys", "_tx_key", "_rx_key",
    )

    def __init__(self, params: MachineParams, node: int, ppn: int,
                 width: int, tl, fabric: "BatchFabric | None" = None):
        self.params = params
        self.node = node
        self.tl = tl
        self.fabric = fabric
        self._inject_free = [np.zeros(width) for _ in range(ppn)]
        self._interval = 1.0 / params.nic_msg_rate
        self._tx_rate_next = np.zeros(width)
        self._rx_rate_next = np.zeros(width)
        self._tx_bw_next = np.zeros(width)
        self._rx_bw_next = np.zeros(width)
        self.messages_sent = 0
        # conflict-resource keys, interned once (transfer is the hot path)
        self._ni_keys = tuple(("ni", node, lr) for lr in range(ppn))
        self._tx_key = ("tx", node)
        self._rx_key = ("rx", node)

    def transfer(self, now: np.ndarray, src_local: int, dst: "BatchNic",
                 nbytes, dma: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Reserve the full path for one message, vectorized over sizes.

        Returns ``(inject_done, arrival)`` as ``(S,)`` arrays.  Fresh
        arrays are built at every step — state vectors are replaced, never
        mutated in place — so previously returned times stay valid.
        """
        p = self.params
        self.messages_sent += 1
        touch = self.tl.touch
        touch(self._ni_keys[src_local])
        touch(self._tx_key)
        touch(dst._rx_key)
        if self.fabric is not None:
            touch(_FB_KEY)
        # 1. per-process injection
        service = nbytes / (p.proc_dma_bandwidth if dma else p.proc_bandwidth)
        service = np.maximum(service, 1.0 / p.proc_msg_rate)
        inj_start = np.maximum(now, self._inject_free[src_local])
        inj_done = inj_start + service
        self._inject_free[src_local] = inj_done
        # 2. node transmit side: rate ceiling then bandwidth
        tx_admit = np.maximum(self._tx_rate_next, inj_start)
        self._tx_rate_next = tx_admit + self._interval
        wire_service = nbytes / p.nic_bandwidth
        tx_start = np.maximum(self._tx_bw_next, tx_admit)
        tx_end = tx_start + wire_service
        # the scalar path stores the pre-pipelining end before maxing with
        # inj_done; replicate that exactly
        self._tx_bw_next = tx_end
        tx_end = np.maximum(tx_end, inj_done)
        # 2b. oversubscribed core fabric (optional)
        if self.fabric is not None:
            fabric = self.fabric
            fab_start = np.maximum(tx_start, fabric._next_free)
            fab_end = fab_start + nbytes / p.fabric_bandwidth
            fabric._next_free = fab_end
            fab_end = np.maximum(fab_end, tx_end)
            head_start, tail_end = fab_start, fab_end
        else:
            head_start, tail_end = tx_start, tx_end
        # 3+4. wire + receive side
        head_arrival = head_start + p.wire_latency
        rx_admit = np.maximum(dst._rx_rate_next, head_arrival)
        dst._rx_rate_next = rx_admit + dst._interval
        rx_service = nbytes / dst.params.nic_bandwidth
        rx_start = np.maximum(dst._rx_bw_next, rx_admit)
        rx_end = rx_start + rx_service
        dst._rx_bw_next = rx_end
        arrival = tail_end + p.wire_latency
        arrival = np.maximum(arrival, rx_end)
        return inj_done, arrival
