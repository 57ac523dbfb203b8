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

All reservations are eager (see :mod:`repro.sim.resources`); the function
returns the two times the MPI layer needs: when the sender's injection
completed (local completion for nonblocking sends) and when the full message
is available at the destination.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.hw.params import MachineParams
from repro.sim.resources import RateLimiter, Server

__all__ = ["NodeNic", "BatchNic", "BatchFabric"]


class NodeNic:
    """NIC state for one node."""

    def __init__(self, params: MachineParams, node: int, ppn: int,
                 fabric: "Server | None" = None):
        self.params = params
        self.node = node
        #: shared core-fabric bandwidth server (None = full bisection)
        self.fabric = fabric
        self.inject: List[Server] = [
            Server(name=f"inject[{node}.{lr}]") for lr in range(ppn)
        ]
        self.tx_rate = RateLimiter(params.nic_msg_rate, name=f"txrate[{node}]")
        self.rx_rate = RateLimiter(params.nic_msg_rate, name=f"rxrate[{node}]")
        self.tx_bw = Server(name=f"txbw[{node}]")
        self.rx_bw = Server(name=f"rxbw[{node}]")
        #: messages / bytes sent (accounting)
        self.messages_sent = 0
        self.bytes_sent = 0

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
        # The Server/RateLimiter reservations are inlined here (same
        # arithmetic, same accounting fields): this function runs once per
        # simulated message and the method-call overhead of five reserve/
        # admit calls dominated its cost.
        # 1. per-process injection: eager data is copied by the CPU into
        # bounce buffers (``proc_bandwidth``); rendezvous data is DMA-pulled
        # by the NIC (``proc_dma_bandwidth``) and only costs the process
        # its doorbell, floored by the per-process message rate
        inj = self.inject[src_local]
        service = nbytes / (p.proc_dma_bandwidth if dma else p.proc_bandwidth)
        rate_floor = 1.0 / p.proc_msg_rate
        if service < rate_floor:
            service = rate_floor
        inj_start = inj._next_free
        if now > inj_start:
            inj_start = now
        inj_done = inj_start + service
        inj._next_free = inj_done
        inj.busy_time += service
        inj.served += 1
        # 2. node transmit side: rate ceiling then bandwidth
        tx_rate = self.tx_rate
        tx_admit = tx_rate._next_slot
        if inj_start > tx_admit:
            tx_admit = inj_start
        tx_rate._next_slot = tx_admit + tx_rate._interval
        tx_rate.admitted += 1
        wire_service = nbytes / p.nic_bandwidth
        tx_bw = self.tx_bw
        tx_start = tx_bw._next_free
        if tx_admit > tx_start:
            tx_start = tx_admit
        tx_end = tx_start + wire_service
        tx_bw._next_free = tx_end
        tx_bw.busy_time += wire_service
        tx_bw.served += 1
        if inj_done > tx_end:
            tx_end = inj_done
        # 2b. oversubscribed core fabric (optional), pipelined like the rest
        if self.fabric is not None:
            fab_start, fab_end = self.fabric.reserve(
                tx_start, nbytes / p.fabric_bandwidth
            )
            fab_end = max(fab_end, tx_end)
            head_start, tail_end = fab_start, fab_end
        else:
            head_start, tail_end = tx_start, tx_end
        # 3+4. wire + receive side
        head_arrival = head_start + p.wire_latency
        rx_rate = dst.rx_rate
        rx_admit = rx_rate._next_slot
        if head_arrival > rx_admit:
            rx_admit = head_arrival
        rx_rate._next_slot = rx_admit + rx_rate._interval
        rx_rate.admitted += 1
        rx_service = nbytes / dst.params.nic_bandwidth
        rx_bw = dst.rx_bw
        rx_start = rx_bw._next_free
        if rx_admit > rx_start:
            rx_start = rx_admit
        rx_end = rx_start + rx_service
        rx_bw._next_free = rx_end
        rx_bw.busy_time += rx_service
        rx_bw.served += 1
        arrival = tail_end + p.wire_latency
        if rx_end > arrival:
            arrival = rx_end
        return inj_done, arrival

    def reset(self) -> None:
        for s in self.inject:
            s.reset()
        self.tx_rate.reset()
        self.rx_rate.reset()
        self.tx_bw.reset()
        self.rx_bw.reset()
        self.messages_sent = 0
        self.bytes_sent = 0


#: conflict-resource key of the shared core fabric (one per world)
_FB_KEY = ("fb",)


class BatchFabric:
    """Shared core-fabric bandwidth server over the size axis.

    The vector counterpart of the fabric :class:`~repro.sim.resources.Server`
    one node hands every :class:`BatchNic`: a single FIFO next-free vector.
    """

    __slots__ = ("_next_free",)

    def __init__(self, width: int):
        self._next_free = np.zeros(width)


class BatchNic:
    """Vector-over-sizes mirror of :class:`NodeNic` for the batch engine.

    Every scalar ``_next_free`` / ``_next_slot`` field of the inlined
    reservation pipeline in :meth:`NodeNic.transfer` becomes an ``(S,)``
    array over the partition's size axis; :meth:`transfer` replicates that
    method's arithmetic operation for operation (same operand order, same
    ``max`` placements) so each size's component is bit-identical to the
    scalar computation.  ``np.maximum`` stands in for the scalar
    compare-and-assign idiom — identical values for identical operands.

    There is no size-dependent branch here, so no uniformity check: byte
    counts may arrive as an int (uniform across the partition) or as an
    ``(S,)`` integer vector and flow straight through the arithmetic.
    Utilisation accounting (busy_time/served) is not maintained — the
    batch engine reports samples and message counts only.

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
