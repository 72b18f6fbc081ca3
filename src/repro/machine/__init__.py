"""Simulated hardware substrate: discrete-event engine, nodes, fabrics, platforms."""

from .simulator import (
    AllOf,
    AnyOf,
    Countdown,
    Environment,
    Event,
    Hold,
    Interrupt,
    Process,
    Resource,
    SimulationError,
    Store,
    Task,
    Timeout,
)
from .node import CpuSpec, SimNode
from .interconnect import Fabric, FabricSpec, LinkSpec, Transfer, TransferOutcome
from .cluster import SimCluster
from .faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    LinkFailure,
    NodeFailure,
    TransientError,
)
from .platforms import PLATFORMS, PlatformSpec, cspi, get_platform, mercury, sigi, sky
from . import perfmodel

__all__ = [
    "AllOf",
    "AnyOf",
    "Countdown",
    "Environment",
    "Event",
    "Hold",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Task",
    "Timeout",
    "CpuSpec",
    "SimNode",
    "Fabric",
    "FabricSpec",
    "LinkSpec",
    "Transfer",
    "TransferOutcome",
    "SimCluster",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "LinkFailure",
    "NodeFailure",
    "TransientError",
    "PLATFORMS",
    "PlatformSpec",
    "cspi",
    "mercury",
    "sigi",
    "sky",
    "get_platform",
    "perfmodel",
]
