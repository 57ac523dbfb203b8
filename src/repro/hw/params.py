"""Machine parameter sets for the simulated cluster.

Every scalar that enters the hardware model lives in :class:`MachineParams`.
The default preset, :func:`bebop_broadwell`, is calibrated to the paper's
testbed: dual-socket Intel Xeon E5-2695v4 (Broadwell, 36 cores) nodes with
an Intel Omni-Path (OPA) fabric — 100 Gbps, 97 M messages/s — running 18
MPI processes per node.

Calibration sources:

* OPA line rate and message rate are the paper's own numbers (§IV-A).
* Single-process injection rate / stream bandwidth are set so that Fig. 1's
  saturation knees reproduce: small-message rate scales nearly linearly to
  ~15 senders; 128 kB streams saturate the NIC with ~3 senders.
* memcpy and reduction bandwidths are typical single-thread Broadwell
  figures; node memory bandwidth is the DDR4-2400 4-channel × 2-socket
  aggregate derated for copy traffic.
* syscall / page-fault / XPMEM attach costs follow the measurements in the
  KNEM, CMA, and XPMEM literature cited by the paper (§II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

__all__ = ["MachineParams", "bebop_broadwell", "tiny_test_machine"]


@dataclass(frozen=True)
class MachineParams:
    """All hardware rate/latency constants, in seconds and bytes/second."""

    # ---- internode network (per node NIC) ------------------------------
    #: one-way wire latency between any two nodes (flat fabric assumed)
    wire_latency: float
    #: NIC hardware message-rate ceiling, messages/s (shared per node)
    nic_msg_rate: float
    #: NIC bandwidth, bytes/s (shared per node, each direction)
    nic_bandwidth: float
    #: per-process message injection rate, messages/s (software/doorbell)
    proc_msg_rate: float
    #: per-process injection stream bandwidth for the eager path, bytes/s
    #: (bounded by the CPU copy into NIC bounce buffers)
    proc_bandwidth: float
    #: per-process stream bandwidth for rendezvous DMA, bytes/s (the NIC
    #: pulls the data; a single process gets close to — but, per Fig. 1b,
    #: not quite — line rate)
    proc_dma_bandwidth: float
    #: sender CPU overhead per message (software stack)
    send_overhead: float
    #: receiver CPU overhead per message (match + completion)
    recv_overhead: float
    #: eager/rendezvous protocol switch for internode messages, bytes
    eager_threshold: int

    # ---- node memory system --------------------------------------------
    #: single-core memcpy bandwidth, bytes/s
    core_copy_bw: float
    #: aggregate node copy bandwidth, bytes/s (sets concurrent copy lanes)
    node_copy_bw: float
    #: fixed cost per intranode copy operation
    copy_latency: float
    #: single-core reduction throughput, bytes/s (γ = 1/reduce_bw)
    reduce_bw: float

    # ---- kernel-assisted shmem costs ------------------------------------
    #: one syscall (process_vm_readv / KNEM ioctl / LiMiC ioctl)
    syscall_time: float
    #: cost to fault one page on first touch of a mapped/attached region
    page_fault_time: float
    page_size: int
    #: XPMEM segment expose (once per exposed buffer)
    xpmem_expose_time: float
    #: XPMEM attach, first time a process attaches a given segment
    xpmem_attach_time: float
    #: XPMEM re-use of a cached attachment
    xpmem_reattach_time: float

    # ---- PiP costs -------------------------------------------------------
    #: per-message size-synchronisation handshake in PiP p2p (the overhead
    #: §II-B says PiP-MPICH pays on every message and PiP-MColl avoids)
    pip_sizesync_time: float
    #: posting one buffer address to the node's address board
    pip_post_time: float
    #: waiting on / checking one userspace flag
    pip_flag_time: float

    # ---- fabric (optional) ------------------------------------------------
    #: aggregate core-fabric bandwidth shared by ALL internode traffic,
    #: bytes/s; ``None`` models a full-bisection (non-blocking) fabric —
    #: the paper's flat-network assumption.  Set to ``nodes_per_uplink *
    #: nic_bandwidth / oversubscription`` to study oversubscribed fat trees.
    fabric_bandwidth: float | None = None

    def derived_copy_lanes(self) -> int:
        """Number of concurrent full-speed copy lanes the node memory allows."""
        return max(1, int(self.node_copy_bw / self.core_copy_bw))

    def with_overrides(self, **kwargs) -> "MachineParams":
        """A copy of these parameters with selected fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Raise ``ValueError`` on physically meaningless settings.

        Every field must be a number that is finite as a float, and not a
        bool (``fabric_bandwidth`` may also be None): NaN fails every
        ordering check below, and an infinite cost or rate turns
        simulated times into NaN.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "fabric_bandwidth":
                continue
            try:
                finite = math.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or huge
                finite = False
            if isinstance(value, bool) or not finite:
                raise ValueError(
                    f"{f.name} must be a finite number, got {value!r}"
                )
        positive = [
            "wire_latency", "nic_msg_rate", "nic_bandwidth", "proc_msg_rate",
            "proc_bandwidth", "proc_dma_bandwidth", "core_copy_bw",
            "node_copy_bw", "reduce_bw",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        nonneg = [
            "send_overhead", "recv_overhead", "copy_latency", "syscall_time",
            "page_fault_time", "xpmem_expose_time", "xpmem_attach_time",
            "xpmem_reattach_time", "pip_sizesync_time", "pip_post_time",
            "pip_flag_time",
        ]
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.page_size <= 0 or self.eager_threshold < 0:
            raise ValueError("page_size must be positive, eager_threshold >= 0")
        if self.proc_msg_rate > self.nic_msg_rate:
            raise ValueError("per-process message rate cannot exceed NIC rate")
        if self.proc_bandwidth > self.nic_bandwidth:
            raise ValueError("per-process bandwidth cannot exceed NIC bandwidth")
        if not (self.proc_bandwidth <= self.proc_dma_bandwidth <= self.nic_bandwidth):
            raise ValueError(
                "DMA bandwidth must sit between the eager per-process "
                "bandwidth and the NIC line rate"
            )
        if self.core_copy_bw > self.node_copy_bw:
            raise ValueError("core copy bandwidth cannot exceed node bandwidth")
        if self.fabric_bandwidth is not None and self.fabric_bandwidth <= 0:
            raise ValueError("fabric_bandwidth must be positive (or None)")


_US = 1e-6


def bebop_broadwell() -> MachineParams:
    """The paper's testbed: Bebop Broadwell nodes + Intel Omni-Path."""
    return MachineParams(
        # network — OPA: 100 Gbps, 97 M msg/s (paper §IV-A)
        wire_latency=1.0 * _US,
        nic_msg_rate=97e6,
        nic_bandwidth=12.5e9,
        proc_msg_rate=6.5e6,
        proc_bandwidth=4.5e9,
        proc_dma_bandwidth=9.0e9,
        send_overhead=0.25 * _US,
        recv_overhead=0.30 * _US,
        eager_threshold=64 * 1024,
        # memory — Broadwell single-thread memcpy / dual-socket DDR4
        core_copy_bw=5.0e9,
        node_copy_bw=60.0e9,
        copy_latency=0.05 * _US,
        reduce_bw=4.0e9,
        # kernel shmem
        syscall_time=0.50 * _US,
        page_fault_time=0.60 * _US,
        page_size=4096,
        xpmem_expose_time=1.0 * _US,
        xpmem_attach_time=1.5 * _US,
        xpmem_reattach_time=0.10 * _US,
        # PiP
        pip_sizesync_time=0.40 * _US,
        pip_post_time=0.20 * _US,
        pip_flag_time=0.10 * _US,
    )


def tiny_test_machine() -> MachineParams:
    """Round-number parameters for unit tests (easy hand arithmetic).

    1 µs wire latency, 1 GB/s everywhere per process, 10 GB/s shared,
    1 M msg/s per process, 10 M msg/s NIC, 0.1 µs fixed overheads.
    """
    return MachineParams(
        wire_latency=1.0 * _US,
        nic_msg_rate=10e6,
        nic_bandwidth=10e9,
        proc_msg_rate=1e6,
        proc_bandwidth=1e9,
        proc_dma_bandwidth=2e9,
        send_overhead=0.1 * _US,
        recv_overhead=0.1 * _US,
        eager_threshold=64 * 1024,
        core_copy_bw=1e9,
        node_copy_bw=10e9,
        copy_latency=0.1 * _US,
        reduce_bw=1e9,
        syscall_time=0.5 * _US,
        page_fault_time=0.5 * _US,
        page_size=4096,
        xpmem_expose_time=1.0 * _US,
        xpmem_attach_time=1.0 * _US,
        xpmem_reattach_time=0.1 * _US,
        pip_sizesync_time=0.4 * _US,
        pip_post_time=0.2 * _US,
        pip_flag_time=0.1 * _US,
    )
