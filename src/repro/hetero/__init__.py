"""Heterogeneous processors: the machine axis the paper holds fixed.

The paper's model assumes homogeneous processors (section 2, assumption 2)
— while noting that MH was designed to "consider processor speed".  On a
:class:`~repro.core.machine.Machine` with per-processor speeds (task ``t``
takes ``w(t) / speed(p)`` on processor ``p``), this subpackage schedules:

* :class:`HEFTScheduler` — Heterogeneous Earliest Finish Time (Topcuoglu,
  Hariri & Wu), the standard algorithm for this model: upward ranks on
  mean execution times, earliest-finish placement with idle-slot insertion;
* :class:`CPOPScheduler` — Critical Path On a Processor, HEFT's companion;
* :class:`HeteroListScheduler` — a speed-aware MH-style baseline.

All three are presets of the list-scheduling engine, and
``Schedule.validate(graph, machine)`` checks their schedules.  With all
speeds equal to 1, the model reduces to the paper's bounded homogeneous
machine, which the tests assert.
"""

from .cpop import CPOPScheduler
from .heft import HEFTScheduler, HeteroListScheduler

__all__ = [
    "HEFTScheduler",
    "HeteroListScheduler",
    "CPOPScheduler",
]
