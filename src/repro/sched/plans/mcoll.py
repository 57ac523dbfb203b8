"""Planners for PiP-MColl's collectives.

The paper's three primary collectives (§III-A, §III-B) and the
multi-object extensions built from the same ingredients: alltoall,
bcast, gather, reduce and barrier.  Each ``plan_*`` emits one program
per global rank and tags the algorithm phases (``PhaseStep``) for
tracing and per-phase accounting.  The intranode and ring building
blocks are inlined through their shared ``emit_*`` helpers with
collective-scoped namespace keys.

Namespace layout per schedule (drawn by the executor in index order):

* ``Ns(0)`` — the collective's own namespace (message tags, board keys);
* ``Ns(1)`` — the namespace of the one nested intranode collective the
  allreduce and large reduce algorithms invoke
  (``intra_reduce_binomial`` / ``_chunked``).

The small reduce draws only its intranode reduce's namespace, as
``Ns(0)``; its leader phase is a group algorithm tagged with the
``"leader"`` symbol (see :mod:`repro.sched.plans.hierarchical`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.mpi.collectives.group import block_partition
from repro.sched.emit import Emitter
from repro.sched.ir import BufRef, Ns, Schedule, Sym, TagOffset
from repro.sched.plans.baseline import emit_reduce_binomial
from repro.sched.plans.intranode import (
    emit_intra_reduce_binomial,
    emit_intra_reduce_chunked,
)
from repro.sched.plans.ring import emit_ring_allgather_blocks
from repro.util.intmath import ilog

__all__ = [
    "plan_scatter",
    "plan_allgather_small",
    "plan_allgather_large",
    "plan_allreduce_small",
    "plan_allreduce_large",
    "plan_alltoall",
    "plan_bcast",
    "plan_gather",
    "plan_reduce_small",
    "plan_reduce_large",
    "plan_barrier",
]


def _tree_rounds(N: int, P: int, vnode: int):
    """The (P+1)-ary node-group tree of §III-A1, seen from virtual node
    ``vnode`` (the root's node is virtual node 0).

    Each round splits the current node group ``[lo, hi)`` into
    ``min(P + 1, hi - lo)`` near-equal consecutive chunks; the group-root
    node ``lo`` keeps chunk 0 and its local rank ``l`` serves chunk
    ``l + 1``.  Yields ``(lo, counts, displs, chunk)`` per round, where
    ``chunk`` is ``None`` on the group-root node and otherwise the chunk
    holding ``vnode``, whose first node receives this round.  The rounds
    narrow the group to ``vnode`` alone.
    """
    lo, hi = 0, N
    while hi - lo > 1:
        counts, displs = block_partition(hi - lo, min(P + 1, hi - lo))
        if vnode == lo:
            yield lo, counts, displs, None
            hi = lo + counts[0]
        else:
            rel = vnode - lo
            chunk = 0
            while not (displs[chunk] <= rel < displs[chunk] + counts[chunk]):
                chunk += 1
            yield lo, counts, displs, chunk
            lo += displs[chunk]
            hi = lo + counts[chunk]


@lru_cache(maxsize=None)
def plan_scatter(
    nodes: int, ppn: int, count: int, root: int, overlap: bool
) -> Schedule:
    """§III-A1 multi-object scatter (one algorithm across all sizes)."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    root_node = root // P
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        vnode = (node - root_node) % N  # virtual node id, root node first
        em = Emitter()

        # ---- root: stage data in virtual-node order and post it ----------
        if rank == root:
            em.phase("stage")
            block = P * C
            if root_node == 0 or N == 1:
                staging = BufRef("send")
            else:
                # one rotation copy so virtual node v's block sits at v*block
                staging = em.alloc("staging", N * block, dtype_of="send")
                head = (N - root_node) * block
                em.copy(
                    staging.view(0, head),
                    BufRef("send", root_node * block, head),
                )
                em.copy(
                    staging.view(head, N * block - head),
                    BufRef("send", 0, N * block - head),
                )
            em.post((ns, "stage"), staging)

        # ---- internode (P+1)-ary tree rounds -----------------------------
        em.phase("internode-scatter")
        staging_ref = None
        sbase = 0  # virtual node id of staging block 0
        copied_own = False
        for lo, counts, displs, chunk in _tree_rounds(N, P, vnode):
            if chunk is None:
                # I am on the group-root node: multi-object send phase
                if staging_ref is None:
                    staging_ref = em.lookup((ns, "stage"), "stage")
                    sbase = lo
                chunk = lr + 1
                req = None
                if chunk < len(counts) and counts[chunk] > 0:
                    dst_v = lo + displs[chunk]
                    dst_rank = ((root_node + dst_v) % N) * P
                    off = (dst_v - sbase) * P * C
                    req = em.isend(
                        dst_rank,
                        staging_ref.view(off, counts[chunk] * P * C),
                        tag,
                    )
                if overlap and not copied_own:
                    # overlapped intranode scatter of my own C elements
                    off = (vnode - sbase) * P * C + lr * C
                    em.copy(BufRef("recv"), staging_ref.view(off, C))
                    copied_own = True
                if req is not None:
                    em.wait(req)
            elif vnode == lo + displs[chunk] and lr == 0:
                # my node receives its sub-tree's data this round
                stg = em.alloc("stg", counts[chunk] * P * C, dtype_of="recv")
                src_rank = ((root_node + lo) % N) * P + (chunk - 1)
                rreq = em.irecv(src_rank, stg, tag)
                em.wait(rreq)
                em.post((ns, "stage"), stg)

        # ---- final intranode scatter for ranks that never sent ------------
        if not copied_own:
            em.phase("intra-scatter")
            if staging_ref is None:
                staging_ref = em.lookup((ns, "stage"), "stage")
                sbase = vnode  # the rounds narrowed to my own node
            off = (vnode - sbase) * P * C + lr * C
            em.copy(BufRef("recv"), staging_ref.view(off, C))
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-scatter {N}x{P} c{C} root{root}",
    )


@lru_cache(maxsize=None)
def plan_allgather_small(nodes: int, ppn: int, count: int) -> Schedule:
    """§III-A2 multi-object Bruck allgather, radix ``P + 1``."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    block = P * C  # one node block
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()

        # -- 1. intranode gather into the local root's staging buffer A ----
        em.phase("intra-gather")
        if lr == 0:
            A = em.alloc("A", N * block, dtype_of="send")
            em.post((ns, "A"), A)
        else:
            A = em.lookup((ns, "A"), "A")
        em.copy(A.view(lr * C, C), BufRef("send"))
        em.barrier((ns, "gathered"), P)

        # -- 2. multi-object Bruck rounds -----------------------------------
        em.phase("bruck")
        rnd = 0
        S = 1
        while S < N:
            offset = (lr + 1) * S
            cnt = max(0, min(S, N - S - lr * S))
            if cnt > 0:
                dst = ((node - offset) % N) * P + lr
                src = ((node + offset) % N) * P + lr
                rreq = em.irecv(src, A.view(offset * block, cnt * block), tag)
                sreq = em.isend(dst, A.view(0, cnt * block), tag)
                em.wait(rreq)
                em.wait(sreq)
            # next round's sends read blocks my peers received: synchronise
            em.barrier((ns, "round", rnd), P)
            S *= P + 1
            rnd += 1

        # -- 3. rotate into absolute order, into my receive buffer ---------
        em.phase("rotate")
        head = (N - node) * block
        em.copy(BufRef("recv", node * block, head), A.view(0, head))
        if node:
            em.copy(
                BufRef("recv", 0, node * block),
                A.view(head, N * block - head),
            )
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-allgather-small {N}x{P} c{C}",
    )


@lru_cache(maxsize=None)
def plan_allgather_large(
    nodes: int, ppn: int, count: int, overlap: bool = True
) -> Schedule:
    """§III-B1 multi-object ring allgather."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    block = P * C
    node_counts = tuple([block] * N)
    node_displs = tuple(b * block for b in range(N))
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()

        # -- 1. intranode gather into the local root's staging (absolute) --
        em.phase("intra-gather")
        if lr == 0:
            A = em.alloc("A", N * block, dtype_of="send")
            em.post((ns, "A"), A)
        else:
            A = em.lookup((ns, "A"), "A")
        em.copy(A.view(node * block + lr * C, C), BufRef("send"))
        em.barrier((ns, "gathered"), P)

        # -- 2+3. multi-object ring with overlapped intranode broadcast ----
        em.phase("ring-allgather")
        emit_ring_allgather_blocks(
            em, node, lr, N, P, (ns, "ring"), node_counts, node_displs,
            staging="A", recv="recv", overlap=overlap,
        )
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-allgather-large {N}x{P} c{C}",
    )


def _digits(value: int, base: int, ndigits: int) -> List[int]:
    """Base-``base`` digits of ``value``, least significant first."""
    out = []
    for _ in range(ndigits):
        value, d = divmod(value, base)
        out.append(d)
    return out


@lru_cache(maxsize=None)
def plan_allreduce_small(nodes: int, ppn: int, count: int) -> Schedule:
    """§III-A3 multi-object Bruck allreduce with digit-decomposition
    remainder handling."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    B = P + 1
    programs = []
    for rank in range(N * P):
        lr = rank % P
        node = rank // P
        em = Emitter()

        # -- 1. intranode binomial reduce into the local root's recvbuf ----
        em.phase("intranode-reduce")
        emit_intra_reduce_binomial(
            em, lr, P, C, 0, ("irb", Ns(1)), send="send", recv="recv"
        )
        if lr == 0:
            acc = BufRef("recv")
            em.post((ns, "acc"), acc)
        else:
            acc = em.lookup((ns, "acc"), "acc")

        if N > 1:
            em.phase("bruck")
            k = ilog(B, N)
            W = B**k
            R = N - W
            digits = _digits(R, B, k + 1)

            # persistent per-process receive temp, posted once (the real
            # implementation exchanges these addresses at communicator setup)
            temp = em.alloc("tmp", C, dtype_of="send")
            em.post((ns, "tmp", lr), temp)
            peer_temps: List[BufRef] = []
            for peer in range(P):
                if peer == lr:
                    peer_temps.append(temp)
                else:
                    peer_temps.append(
                        em.lookup((ns, "tmp", peer), f"tmp{peer}")
                    )

            my_counts, my_displs = block_partition(C, P)
            my_off, my_cnt = my_displs[lr], my_counts[lr]

            # snapshot buffers for non-zero remainder digits (paper's A_r)
            snaps: Dict[int, BufRef] = {}
            for j in range(k):
                if digits[j]:
                    if lr == 0:
                        s = em.alloc(f"snap{j}", C, dtype_of="send")
                        em.post((ns, "snap", j), s)
                    else:
                        s = em.lookup((ns, "snap", j), f"snap{j}")
                    snaps[j] = s

            # window-1 snapshot: acc before any internode round touches it
            if 0 in snaps:
                if my_cnt:
                    em.copy(
                        snaps[0].view(my_off, my_cnt),
                        acc.view(my_off, my_cnt),
                    )
                em.barrier((ns, "snap-bar", 0), P)

            # -- 2. full multi-object Bruck rounds --------------------------
            for j in range(k):
                S = B**j
                offset = (lr + 1) * S
                dst = ((node - offset) % N) * P + lr
                src = ((node + offset) % N) * P + lr
                rreq = em.irecv(src, temp, tag)
                sreq = em.isend(dst, acc, tag)
                em.wait(rreq)
                em.wait(sreq)
                em.barrier((ns, "recvd", j), P)
                # chunk-parallel fold of all P received partials into acc
                if my_cnt:
                    for t in peer_temps:
                        em.reduce(
                            acc.view(my_off, my_cnt), t.view(my_off, my_cnt)
                        )
                em.barrier((ns, "folded", j), P)
                if (j + 1) in snaps:
                    # window B^(j+1) snapshot, chunk-parallel copy
                    if my_cnt:
                        em.copy(
                            snaps[j + 1].view(my_off, my_cnt),
                            acc.view(my_off, my_cnt),
                        )
                    em.barrier((ns, "snap-bar", j + 1), P)

            # -- 3. remainder phase (digit decomposition) --------------------
            if R:
                em.phase("remainder")
                pairs: List[Tuple[int, int]] = []  # (node offset, window j)
                O = W
                for j in range(k, -1, -1):
                    for _ in range(digits[j]):
                        pairs.append((O, j))
                        O += B**j
                assert O == N
                mine = pairs[lr::P]
                rtemps = []
                reqs = []
                for idx, (offset, j) in enumerate(mine):
                    src = ((node + offset) % N) * P + lr
                    dst = ((node - offset) % N) * P + lr
                    rt = em.alloc(f"rtmp{idx}", C, dtype_of="send")
                    em.post((ns, "rtmp", lr, idx), rt)
                    rtemps.append(rt)
                    payload = acc if j == k else snaps[j]
                    rtag = TagOffset(Ns(0), 1 + idx)
                    reqs.append(em.irecv(src, rt, rtag))
                    reqs.append(em.isend(dst, payload, rtag))
                em.wait(*reqs)
                em.barrier((ns, "rem-recvd"), P)
                # chunk-parallel fold of every remainder temp into acc
                if my_cnt:
                    for peer in range(P):
                        n_l = len(pairs[peer::P])
                        for idx in range(n_l):
                            if peer == lr:
                                rt = rtemps[idx]
                            else:
                                rt = em.lookup(
                                    (ns, "rtmp", peer, idx),
                                    f"rtmp_{peer}_{idx}",
                                )
                            em.reduce(
                                acc.view(my_off, my_cnt),
                                rt.view(my_off, my_cnt),
                            )
                em.barrier((ns, "rem-folded"), P)

        # -- 4. intranode broadcast of the final result --------------------
        if lr != 0:
            em.phase("intra-bcast")
            em.copy(BufRef("recv"), acc)
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=2,
        label=f"mcoll-allreduce-small {N}x{P} c{C}",
    )


def _owner_of(node: int, node_counts, node_displs) -> int:
    """Local rank whose paired-node range contains ``node``."""
    for lr, (cnt, off) in enumerate(zip(node_counts, node_displs)):
        if off <= node < off + cnt:
            return lr
    raise AssertionError(f"node {node} not covered by any paired range")


def _emit_reduce_scatter(em: Emitter, node: int, lr: int, N: int, P: int,
                         C) -> tuple:
    """Steps 1 and 2 of §III-B2, shared by the large allreduce and the
    large reduce: the intranode chunk-parallel reduce (Fig. 5) into the
    local root's accumulator ``A``, then, on more than one node, the
    internode multi-object reduce-scatter after which node ``n`` owns
    chunk ``n`` of the global reduction in ``A`` (see
    :mod:`repro.core.allreduce_large`).  Returns the chunk partition and
    the paired-node partition.
    """
    ns = Ns(0)
    tag = Ns(0)
    em.phase("intranode-reduce")
    if lr == 0:
        em.alloc("A", C, dtype_of="send")
        em.post((ns, "A"), BufRef("A"))
    else:
        em.lookup((ns, "A"), "A")
    emit_intra_reduce_chunked(
        em, lr, P, C, 0, True, ("irc", Ns(1)), send="send", recv="A"
    )
    A = BufRef("A")
    chunk_counts, chunk_displs = block_partition(C, N)
    node_counts, node_displs = block_partition(N, P)
    if N > 1:
        em.phase("reduce-scatter")
        my_nodes = range(node_displs[lr], node_displs[lr] + node_counts[lr])
        owner_local = _owner_of(node, node_counts, node_displs)

        reqs = []
        rtemps = []
        if lr == owner_local and chunk_counts[node]:
            # I fold the N-1 incoming copies of my node's chunk
            for n in range(N):
                if n == node:
                    continue
                rt = em.alloc(f"rs{n}", chunk_counts[node], dtype_of="send")
                rtemps.append(rt)
                reqs.append(em.irecv(n * P + owner_local, rt, tag))
        for n in my_nodes:
            if n == node or chunk_counts[n] == 0:
                continue
            dst_owner = _owner_of(n, node_counts, node_displs)
            reqs.append(
                em.isend(
                    n * P + dst_owner,
                    A.view(chunk_displs[n], chunk_counts[n]),
                    tag,
                )
            )
        em.wait(*reqs)
        for rt in rtemps:
            em.reduce(A.view(chunk_displs[node], chunk_counts[node]), rt)
        # everyone must see the node's finished chunk before it moves on
        em.barrier((ns, "rs-done"), P)
    return chunk_counts, chunk_displs, node_counts, node_displs


@lru_cache(maxsize=None)
def plan_allreduce_large(nodes: int, ppn: int, count: int) -> Schedule:
    """§III-B2 reduce-scatter + multi-object ring allgather."""
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()
        chunk_counts, chunk_displs, _, _ = _emit_reduce_scatter(
            em, node, lr, N, P, C
        )
        if N > 1:
            # -- 3. multi-object ring allgather of the chunks ---------------
            em.phase("ring-allgather")
            emit_ring_allgather_blocks(
                em, node, lr, N, P, (ns, "ring"), chunk_counts, chunk_displs,
                staging="A", recv="recv", overlap=True,
            )
        else:
            # single node: A already holds the global result (all_wait above
            # synchronised every rank on its completion)
            em.phase("intra-bcast")
            em.copy(BufRef("recv"), BufRef("A"))
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=2,
        label=f"mcoll-allreduce-large {N}x{P} c{C}",
    )


# ---------------------------------------------------------------------------
# the multi-object extensions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def plan_alltoall(nodes: int, ppn: int, count: int) -> Schedule:
    """Multi-object alltoall of ``count``-element blocks.

    * every local rank posts its send buffer on the node's address board —
      thanks to the PiP shared address space there is **no intranode
      gather copy at all**;
    * nodes exchange pairwise (``N - 1`` steps) with **P independent
      lanes**: in step ``s``, process ``R_l`` packs, straight out of its
      peers' posted buffers, the ``P`` blocks destined to rank
      ``(node+s, R_l)`` and sends them as one message — and receives node
      ``(node-s)``'s aggregate for itself **directly into its receive
      buffer** (the P source blocks of one node are contiguous in
      global-rank order, so no unpack copy either);
    * the intranode exchange (own node's blocks) is a straight P-way
      parallel copy out of the posted buffers, overlapped with the first
      wire step.

    Per node per step the P lanes move ``P^2 * C`` bytes — each block
    crosses the wire exactly once (pairwise-optimal volume) with P
    concurrent senders/receivers per node and a single pack copy as the
    only staging.  A closing node barrier keeps the posted buffers valid
    until every local reader is done.
    """
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()
        em.phase("post")
        em.post((ns, "src", lr), BufRef("send"))
        peers = [
            BufRef("send") if l == lr
            else em.lookup((ns, "src", l), f"src{l}")
            for l in range(P)
        ]

        def pack_for(dst_node: int, dest: BufRef) -> None:
            # the P local blocks destined to (dst_node, lr), in local-rank
            # order
            target = dst_node * P + lr
            for l in range(P):
                em.copy(dest.view(l * C, C), peers[l].view(target * C, C))

        own = BufRef("recv", node * P * C, P * C)
        if N > 1:
            em.phase("pairwise")
            lane = em.alloc("lane", P * C, dtype_of="send")
            for step in range(1, N):
                dst_node = (node + step) % N
                src_node = (node - step) % N
                rreq = em.irecv(
                    src_node * P + lr,
                    BufRef("recv", src_node * P * C, P * C), tag,
                )
                pack_for(dst_node, lane)
                sreq = em.isend(dst_node * P + lr, lane, tag)
                if step == 1:
                    # overlapped intranode exchange of my own node's blocks
                    pack_for(node, own)
                em.wait(rreq)
                em.wait(sreq)
        else:
            em.phase("intra-exchange")
            pack_for(node, own)
        em.barrier((ns, "done"), P)
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-alltoall {N}x{P} c{C}",
    )


@lru_cache(maxsize=None)
def plan_bcast(nodes: int, ppn: int, count: int, root: int) -> Schedule:
    """Multi-object internode broadcast from global rank ``root``.

    The (P+1)-ary node-group tree of the multi-object scatter (§III-A1),
    except every transfer carries the *whole* payload, and the intranode
    broadcast (each local rank copying out of the posted source) is
    overlapped with the in-flight internode sends.  Cost:
    ``ceil(log_{P+1} N)`` internode rounds of ``C_b`` bytes from each of
    up to P senders per data-holding node — versus the binomial tree's
    ``ceil(log_2(N*P))`` rounds.
    """
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    root_node = root // P
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        vnode = (node - root_node) % N
        em = Emitter()
        em.phase("internode-bcast")
        if rank == root:
            # local peers (and this node's senders) read the source directly
            em.post((ns, "data"), BufRef("buf"))
        data = None
        copied = rank == root
        for lo, counts, displs, chunk in _tree_rounds(N, P, vnode):
            if chunk is None:
                if data is None:
                    data = em.lookup((ns, "data"), "data")
                req = None
                if lr + 1 < len(counts):
                    dst_v = lo + displs[lr + 1]
                    req = em.isend(((root_node + dst_v) % N) * P, data, tag)
                if not copied:
                    # overlapped intranode broadcast
                    em.copy(BufRef("buf"), data)
                    copied = True
                if req is not None:
                    em.wait(req)
            elif vnode == lo + displs[chunk] and lr == 0:
                staging = em.alloc("stg", C, dtype_of="buf")
                src = ((root_node + lo) % N) * P + (chunk - 1)
                em.wait(em.irecv(src, staging, tag))
                em.post((ns, "data"), staging)
        if not copied:
            em.phase("intra-bcast")
            if data is None:
                data = em.lookup((ns, "data"), "data")
            em.copy(BufRef("buf"), data)
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-bcast {N}x{P} c{C} root{root}",
    )


@lru_cache(maxsize=None)
def plan_gather(nodes: int, ppn: int, count: int, root: int) -> Schedule:
    """Multi-object gather into global rank ``root``'s receive buffer.

    The mirror image of the multi-object scatter's motivation: a gather's
    bottleneck is the root *receiving*.  Here the root node's P processes
    act as P concurrent receive lanes — rank ``(n, l)`` sends its block
    straight to process ``(root_node, l)``, which lands it **directly in
    the root's receive buffer** (posted on the root node's address board;
    PiP lets any local process write it).  No intranode staging at all on
    the leaf side, and the incast is spread over P NIC receive pipelines.
    """
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    tag = Ns(0)
    root_node = root // P
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()
        em.phase("gather")
        if rank == root:
            em.post((ns, "dst"), BufRef("recv"))
        if node == root_node:
            dst = em.lookup((ns, "dst"), "dst")
            # my own contribution goes straight in (PiP direct store)
            em.copy(dst.view(rank * C, C), BufRef("send"))
            # lane lr receives from every other node's same-lane rank
            reqs = [
                em.irecv(n * P + lr, dst.view((n * P + lr) * C, C), tag)
                for n in range(N) if n != root_node
            ]
            em.wait(*reqs)
            em.counter_add((ns, "done"), 1)
            if rank == root:
                em.counter_wait((ns, "done"), P)
        else:
            # leaf: one message, straight from my send buffer
            em.wait(em.isend(root_node * P + lr, BufRef("send"), tag))
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-gather {N}x{P} c{C} root{root}",
    )


@lru_cache(maxsize=None)
def plan_reduce_large(nodes: int, ppn: int, count: int,
                      root: int) -> Schedule:
    """Multi-object reduce into global rank ``root``: Rabenseifner's
    insight (reduce-scatter, then collect) from the paper's pieces.

    1. and 2. are the large allreduce's intranode chunk-parallel reduce
       and internode reduce-scatter (:func:`_emit_reduce_scatter`);
    3. chunk collection: the process owning node ``n``'s chunk ships it
       to the same-lane process on the root node, which stores it
       **directly into the root's receive buffer** (posted on the board)
       — the root node's P processes again form P concurrent receive
       lanes.

    Bandwidth-optimal (``~2 * C * (N-1)/N`` internode bytes per node)
    versus the binomial tree's ``C * log2(N*P)``.
    """
    N, P, C = nodes, ppn, count
    ns = Ns(0)
    col = (Ns(0), "col")
    root_node = root // P
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()
        if rank == root:
            em.post((ns, "dst"), BufRef("recv"))
        chunk_counts, chunk_displs, node_counts, node_displs = (
            _emit_reduce_scatter(em, node, lr, N, P, C)
        )

        def owner(n: int) -> int:
            return _owner_of(n, node_counts, node_displs)

        def chunk(n: int) -> tuple:
            return chunk_displs[n], chunk_counts[n]

        em.phase("collect")
        if node == root_node:
            dst = em.lookup((ns, "dst"), "dst")
            # receive the chunks my lane owns from their (remote) owners
            reqs = [
                em.irecv(n * P + lr, dst.view(*chunk(n)), col)
                for n in range(N)
                if n != root_node and chunk_counts[n] and owner(n) == lr
            ]
            # the root node's own chunk is stored locally by its owner lane
            if owner(root_node) == lr and chunk_counts[root_node]:
                em.copy(dst.view(*chunk(root_node)),
                        BufRef("A").view(*chunk(root_node)))
            em.wait(*reqs)
            em.counter_add((ns, "collected"), 1)
            if rank == root:
                em.counter_wait((ns, "collected"), P)
        elif lr == owner(node) and chunk_counts[node]:
            # ship my node's chunk to the root node's same-lane process
            em.wait(em.isend(root_node * P + lr,
                             BufRef("A").view(*chunk(node)), col))
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=2,
        label=f"mcoll-reduce-large {N}x{P} c{C} root{root}",
    )


@lru_cache(maxsize=None)
def plan_reduce_small(nodes: int, ppn: int, count: int,
                      root: int) -> Schedule:
    """Latency-oriented reduce into global rank ``root``, for payloads
    below the allreduce switch point, where the reduce-scatter structure
    cannot amortise its per-chunk traffic: PiP intranode binomial reduce
    (zero copies, no messages) into each node leader, then a binomial
    tree over the node leaders into the root's leader, and one
    intranode hop to a non-leader root.
    """
    N, P, C = nodes, ppn, count
    root_node = root // P
    root_leader = root_node * P
    leaders = tuple(n * P for n in range(N))
    deliver = ("mred", root)
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()
        em.phase("intranode-reduce")
        if lr == 0:
            em.alloc("partial", C, dtype_of="send")
        emit_intra_reduce_binomial(
            em, lr, P, C, 0, ("irb", Ns(0)), send="send", recv="partial"
        )
        if N == 1:
            if lr == 0 and rank != root:
                em.wait(em.isend(root, BufRef("partial"), deliver))
            elif lr == 0:
                em.copy(BufRef("recv"), BufRef("partial"))
            elif rank == root:
                em.wait(em.irecv(node * P, BufRef("recv"), deliver))
            programs.append(em.build())
            continue
        if lr == 0:
            result = None
            if rank == root:
                result = "recv"
            elif rank == root_leader:
                result = "result"
                em.alloc(result, C, dtype_of="send")
            emit_reduce_binomial(em, leaders, node, C, Sym("leader"),
                                 root_node, send="partial", recv=result,
                                 prefix="mred_")
            if rank == root_leader and rank != root:
                em.wait(em.isend(root, BufRef(result), deliver))
        elif rank == root:
            em.wait(em.irecv(root_leader, BufRef("recv"), deliver))
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-reduce-small {N}x{P} c{C} root{root}",
    )


@lru_cache(maxsize=None)
def plan_barrier(nodes: int, ppn: int) -> Schedule:
    """Multi-object internode barrier.

    A dissemination barrier with radix ``P + 1``: after an intranode
    arrival counter, the node's P processes signal nodes at distances
    ``(R_l+1) * S_p`` in parallel (exchanges of the zero-byte buffer
    ``token``), multiplying the set of transitively-arrived nodes by
    ``P + 1`` per round — ``ceil(log_{P+1} N)`` internode rounds versus
    the classical dissemination barrier's ``ceil(log_2(N*P))``.
    """
    N, P = nodes, ppn
    ns = Ns(0)
    tag = Ns(0)
    token = BufRef("token")
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()
        em.phase("barrier")
        em.barrier((ns, "arrive"), P)
        rnd = 0
        S = 1
        while S < N:
            offset = (lr + 1) * S
            # full rounds use all P offsets; the final partial round only
            # the multiples that still land inside the ring
            if offset < min(S * (P + 1), N):
                rreq = em.irecv(((node - offset) % N) * P + lr, token, tag)
                sreq = em.isend(((node + offset) % N) * P + lr, token, tag)
                em.wait(rreq)
                em.wait(sreq)
            em.barrier((ns, "round", rnd), P)
            S *= P + 1
            rnd += 1
        programs.append(em.build())
    return Schedule(
        tuple(programs),
        num_namespaces=1,
        label=f"mcoll-barrier {N}x{P}",
    )
