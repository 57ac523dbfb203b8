"""The simulated cluster: engine + topology + per-node hardware."""

from __future__ import annotations

from typing import List

from repro.hw.memory import MemoryModel
from repro.hw.nic import Fabric, NodeNic
from repro.hw.params import MachineParams
from repro.hw.topology import Topology
from repro.sim.engine import Engine

__all__ = ["ClusterHW"]


class ClusterHW:
    """All hardware state of a simulated cluster run.

    One instance per simulation; collective runs share the same engine so
    repeated iterations see warmed page-fault state, exactly like the
    paper's warm-up + execution microbenchmark protocol.
    """

    def __init__(self, topology: Topology, params: MachineParams, engine: Engine | None = None):
        params.validate()
        self.topology = topology
        self.params = params
        self.engine = engine if engine is not None else Engine()
        #: shared core-fabric bandwidth server (None = full bisection)
        self.fabric: Fabric | None = (
            Fabric() if params.fabric_bandwidth else None
        )
        self.nics: List[NodeNic] = [
            NodeNic(params, node, topology.ppn, fabric=self.fabric)
            for node in range(topology.nodes)
        ]
        self.memories: List[MemoryModel] = [
            MemoryModel(self.engine, params, node) for node in range(topology.nodes)
        ]

    def nic_of(self, rank: int) -> NodeNic:
        return self.nics[self.topology.node_of(rank)]

    def memory_of(self, rank: int) -> MemoryModel:
        return self.memories[self.topology.node_of(rank)]

    def total_internode_messages(self) -> int:
        return sum(nic.messages_sent for nic in self.nics)

    def total_internode_bytes(self) -> int:
        return sum(nic.bytes_sent for nic in self.nics)

    def reset_hardware(self) -> None:
        """Clear resource queues and accounting (keeps warm page state)."""
        for nic in self.nics:
            nic.reset()
        for memory in self.memories:
            memory.reset()
        if self.fabric is not None:
            self.fabric.reset()
