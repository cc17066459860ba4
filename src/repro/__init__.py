"""repro — reproduction of "A Comparison of Multiprocessor Scheduling
Heuristics" (Khan, McCreary & Jones, ICPP 1994).

A complete empirical testbed for DAG scheduling heuristics:

* :mod:`repro.core` — weighted task graphs, path analysis, the paper's
  classification metrics, schedules and the shared execution simulator;
* :mod:`repro.clans` — clan (modular) decomposition, the substrate of CLANS;
* :mod:`repro.schedulers` — CLANS, DSC, MCP, MH, HU plus baselines;
* :mod:`repro.generation` — the random PDG generator and Table 1 suite,
  and deterministic structured workloads;
* :mod:`repro.experiments` — runners and regeneration of every table and
  figure in the paper;
* :mod:`repro.obs` — observability: span tracing, metrics registries,
  run manifests and structured logging across the whole testbed.

Quickstart::

    from repro import TaskGraph, get_scheduler

    g = TaskGraph()
    for t, w in [("a", 10), ("b", 30), ("c", 40), ("d", 50)]:
        g.add_task(t, w)
    g.add_edge("a", "b", 5)
    g.add_edge("a", "c", 5)
    g.add_edge("b", "d", 4)
    g.add_edge("c", "d", 4)

    schedule = get_scheduler("CLANS").schedule(g)
    print(schedule.makespan, schedule.speedup(g))
"""

from .core import (
    GRANULARITY_BANDS,
    Machine,
    Schedule,
    ScheduledTask,
    TaskGraph,
    anchor_out_degree,
    granularity,
    granularity_band,
    node_weight_range,
    serial_schedule,
    simulate_clustering,
    simulate_ordered,
)
from .core.exceptions import (
    CycleError,
    DecompositionError,
    GenerationError,
    GraphError,
    ReproError,
    ScheduleError,
)
from . import obs
from .schedulers import (
    SCHEDULER_REGISTRY,
    ClansScheduler,
    DSCScheduler,
    ETFScheduler,
    EZScheduler,
    HuScheduler,
    LCScheduler,
    MCPScheduler,
    MHScheduler,
    OptimalScheduler,
    Scheduler,
    SerialScheduler,
    get_scheduler,
    paper_schedulers,
)

__version__ = "1.0.0"

__all__ = [
    "obs",
    "TaskGraph",
    "Machine",
    "Schedule",
    "ScheduledTask",
    "simulate_ordered",
    "simulate_clustering",
    "serial_schedule",
    "granularity",
    "granularity_band",
    "anchor_out_degree",
    "node_weight_range",
    "GRANULARITY_BANDS",
    "Scheduler",
    "SCHEDULER_REGISTRY",
    "get_scheduler",
    "paper_schedulers",
    "ClansScheduler",
    "DSCScheduler",
    "MCPScheduler",
    "MHScheduler",
    "HuScheduler",
    "ETFScheduler",
    "LCScheduler",
    "EZScheduler",
    "SerialScheduler",
    "OptimalScheduler",
    "ReproError",
    "GraphError",
    "CycleError",
    "ScheduleError",
    "DecompositionError",
    "GenerationError",
    "__version__",
]
