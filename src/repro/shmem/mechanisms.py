"""Concrete intranode mechanisms: POSIX-SHMEM, CMA/KNEM/LiMiC, XPMEM, PiP.

Cost structure per §II of the paper:

=============  =======  =======================  ==========================
mechanism      copies   per-message fixed cost   notes
=============  =======  =======================  ==========================
POSIX-SHMEM    2        ~0 (no syscall)          eager: sender fire-&-forget
CMA/KNEM/LiMiC 1        syscall (+cold faults)   receiver-side kernel copy
XPMEM          1        attach syscall, cached   data *sharing*, not exchange
PiP            1        size-sync handshake      pure userspace
=============  =======  =======================  ==========================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set, Tuple

from repro.shmem.base import MsgInfo, ShmemMechanism
from repro.sim.batchline import uniform_bool

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.memory import MemoryModel

__all__ = [
    "PosixShmem",
    "KernelCopy",
    "Xpmem",
    "PipShmem",
    "HybridMechanism",
]


class PosixShmem(ShmemMechanism):
    """Double-copy through a preallocated shared-memory slab.

    The sender copies into the slab and completes immediately (no receiver
    participation, no syscalls — the slab is mapped once at init).  The
    receiver later copies out.  Fast for small messages, double-copy-bound
    for large ones.
    """

    name = "posix-shmem"
    eager = True
    warm_state = False  # the slab is mapped at init; nothing to warm

    def sender_occupy(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        # copy-in to the shared slab
        return mem.copy_occupy(mem.engine.now, msg.nbytes)

    def match_fixed(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        return 0.0


class KernelCopy(ShmemMechanism):
    """Single kernel-assisted copy (CMA / KNEM / LiMiC).

    The sender only posts a descriptor; the receiver performs one syscall
    per transfer (``process_vm_readv`` / ioctl) that copies directly from
    the sender's pages, faulting them on first touch.
    """

    name = "kernel-copy"
    eager = False

    def match_fixed(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        fault = mem.fault_cost((msg.dst_rank, msg.src_buffer_id), msg.nbytes)
        return mem.params.syscall_time + fault


class Xpmem(ShmemMechanism):
    """Data sharing via XPMEM segment expose/attach.

    Expose is paid once per sender allocation; attach once per (receiver,
    allocation) pair and then served from the attach cache; first touch of
    an attachment faults its pages.  After that, a single userspace copy.
    """

    name = "xpmem"
    eager = False

    def __init__(self) -> None:
        self._exposed: Set[Tuple[int, int]] = set()
        self._attached: Set[Tuple[int, int]] = set()

    def sender_occupy(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        key = (msg.src_rank, msg.src_buffer_id)
        extra = 0.0
        if key not in self._exposed:
            self._exposed.add(key)
            extra = mem.params.xpmem_expose_time
        return mem.copy_occupy(mem.engine.now, 0, extra_fixed=extra)

    def match_fixed(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        key = (msg.dst_rank, msg.src_buffer_id)
        if key not in self._attached:
            self._attached.add(key)
            fault = mem.fault_cost(key, msg.nbytes)
            return mem.params.xpmem_attach_time + fault
        return mem.params.xpmem_reattach_time


class PipShmem(ShmemMechanism):
    """Process-in-Process: direct userspace load/store, single copy.

    No syscalls, no page faults (one address space).  The cost PiP *does*
    pay — and the one the paper's baseline PiP-MPICH suffers from on every
    message — is the size-synchronisation handshake before any transfer
    (§II-B).
    """

    name = "pip"
    eager = False
    warm_state = False  # one address space: no faults, no attach cache

    def match_fixed(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        return mem.params.pip_sizesync_time


class HybridMechanism(ShmemMechanism):
    """Size-based dispatch, as production MPI libraries configure it.

    E.g. MVAPICH2 uses the POSIX slab for small messages and LiMiC/CMA
    kernel copies above a threshold; Open MPI pairs its shared-memory BTL
    with CMA the same way.
    """

    eager = False  # resolved per message; see below

    def __init__(
        self, small: ShmemMechanism, large: ShmemMechanism, threshold: int
    ):
        if threshold < 0:
            raise ValueError(f"negative threshold: {threshold}")
        self.small = small
        self.large = large
        self.threshold = threshold
        self.warm_state = small.warm_state or large.warm_state
        self.name = f"hybrid({small.name}<{threshold}B<={large.name})"

    def pick(self, nbytes) -> ShmemMechanism:
        """The mechanism serving a ``nbytes`` message.

        Under the batch engine ``nbytes`` is an array over the message-size
        axis; the pick must then be uniform across the partition — a mixed
        mask is a structural divergence (different mechanisms mean
        different cost closures and warm state), so
        :func:`~repro.sim.batchline.uniform_bool` raises
        :class:`~repro.sim.batchline.BatchDivergence` and the engine
        splits the size axis at this threshold.
        """
        return (self.small if uniform_bool(nbytes < self.threshold)
                else self.large)

    def eager_for(self, nbytes: int) -> bool:
        return self.pick(nbytes).eager

    def sender_occupy(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        return self.pick(msg.nbytes).sender_occupy(mem, msg)

    def match_fixed(self, mem: "MemoryModel", msg: MsgInfo) -> float:
        return self.pick(msg.nbytes).match_fixed(mem, msg)

    def receiver_copy_bytes(self, nbytes: int) -> int:
        return self.pick(nbytes).receiver_copy_bytes(nbytes)
