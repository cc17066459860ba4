"""Processor network topologies and topology-aware scheduling.

The paper (appendix A.3) notes that MH "considers processor speed,
interconnection topology, and contention … Since the topology we use in
our examples is fully-connected our experiment does not take advantage of
this feature."  This subpackage builds the feature out:

* :mod:`repro.topology.networks` — fixed processor networks (fully
  connected, ring, 2-D mesh, hypercube, star) with hop distances; a
  :class:`~repro.core.machine.Machine` with one of them as its ``network``
  costs a message ``edge weight * hop distance``;
* :mod:`repro.topology.mh_topo` — the topology-aware MH variant, which
  reduces exactly to bounded MH on a fully connected network;
* :mod:`repro.topology.port_aware` — MH1P, which plans around one send and
  one receive port per processor (``Machine(one_port=True)``).

``simulate_clustering(..., machine=...)`` times any assignment on such a
machine, and ``Schedule.validate(graph, machine)`` checks it.
"""

from .mh_topo import TopologyMHScheduler
from .networks import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    Ring,
    Star,
    Topology,
)
from .port_aware import PortAwareScheduler

__all__ = [
    "Topology",
    "FullyConnected",
    "Ring",
    "Mesh2D",
    "Hypercube",
    "Star",
    "TopologyMHScheduler",
    "PortAwareScheduler",
]
