"""Synchronous LOCAL-model message-passing simulator.

This subpackage is the substrate every other part of the reproduction
runs on.  It models the fully synchronous LOCAL model of Linial / Peleg
with the paper's model assumptions:

* the communication graph has **unique edge IDs**, known to both
  endpoints (strictly between the classic KT0 and KT1 variants);
* nodes know an O(1)-approximate upper bound on ``log n``;
* message size is unbounded (only the *number* of messages is metered).

Public surface:

* :class:`~repro.local.network.Network` — immutable communication graph.
* :class:`~repro.local.node.NodeProgram` / :class:`~repro.local.node.Context`
  — the per-node program API.
* :class:`~repro.local.runtime.Runtime` — the synchronous round engine,
  producing a :class:`~repro.local.metrics.RunReport` with exact message
  and round counts; the per-node interpreter for any ``NodeProgram``.
* :class:`~repro.local.engine.VectorRuntime` /
  :class:`~repro.local.engine.VectorProgram` — the array-native round
  engine for homogeneous populations (DESIGN.md §3.10), which runs the
  registered payloads, the runtime flood and push–pull gossip.
* :class:`~repro.local.knowledge.Knowledge` — KT0 / EDGE_IDS / KT1.
"""

from repro.local.edges import EdgeRef
from repro.local.engine import VectorProgram, VectorRuntime
from repro.local.knowledge import Knowledge
from repro.local.message import Inbound
from repro.local.metrics import MessageStats, RunReport
from repro.local.network import Network
from repro.local.node import Context, HybridPlane, NodeProgram
from repro.local.runtime import Runtime
from repro.local.faults import FaultPlan

__all__ = [
    "Context",
    "EdgeRef",
    "FaultPlan",
    "HybridPlane",
    "Inbound",
    "Knowledge",
    "MessageStats",
    "Network",
    "NodeProgram",
    "RunReport",
    "Runtime",
    "VectorProgram",
    "VectorRuntime",
]
