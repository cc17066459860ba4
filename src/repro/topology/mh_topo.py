"""Topology-aware MH — the feature the paper's clique testbed left inert.

Appendix A.3: MH "fits the PDG to various network topologies in an attempt
to minimize communication delays … by placing communicating tasks close
together."  This variant implements that behaviour on a fixed
:class:`~repro.core.machine.Machine`, usually one with a
:mod:`repro.topology.networks` network, as a preset of the list-scheduling
engine (:func:`~repro.schedulers.listsched.place_in_order`):

* priority and order are uniform MH's: communication-inclusive levels,
  placed in MH's waves (:func:`~repro.schedulers.listsched.wave_order`);
* each task is allocated to the processor where it *starts earliest*,
  with message arrivals scaled by hop distance — so consumers gravitate
  toward their producers' neighbourhoods; ties go to the lower processor
  unless a later one starts more than 1e-12 earlier;
* the processor pool is the fixed machine (no growth), every processor
  open from the start; on a machine with speeds, durations scale too.

On a :class:`~repro.topology.networks.FullyConnected` network of p
processors this reduces to ``MHScheduler(max_processors=p)`` (every
distance is one hop), which the tests assert.
"""

from __future__ import annotations

from ..core.kernels import IndexedPool, b_levels_arr, graph_index
from ..core.machine import Machine
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..schedulers.base import Scheduler
from ..schedulers.listsched import place_in_order, wave_order

__all__ = ["TopologyMHScheduler"]


class TopologyMHScheduler(Scheduler):
    """MH list scheduling onto a fixed machine, usually a network.

    Not registered in the global registry (it is parameterized by the
    machine); construct directly::

        TopologyMHScheduler(Machine(network=Ring(8))).schedule(graph)
    """

    def __init__(self, machine: Machine) -> None:
        n = machine.require_fixed("MH")
        network = machine.network
        self.name = f"MH@{type(network).__name__ if network else ''}{n}"
        self.machine = machine

    def _schedule(self, graph: TaskGraph) -> Schedule:
        pool = IndexedPool(graph_index(graph), machine=self.machine)
        order = wave_order(pool.gi, b_levels_arr(graph, communication=True))
        return place_in_order(pool, order, pool.earliest_start)
