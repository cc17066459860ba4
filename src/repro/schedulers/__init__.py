"""The scheduling heuristics compared by the paper, plus baselines.

Paper heuristics: :class:`ClansScheduler` (graph decomposition),
:class:`DSCScheduler` and :class:`MCPScheduler` (critical path),
:class:`MHScheduler` and :class:`HuScheduler` (list scheduling).

Baselines/extensions: :class:`SerialScheduler` (single processor),
:class:`ETFScheduler` (earliest task first), :class:`DLSScheduler`
(dynamic levels), :class:`HLFETScheduler` (highest level first),
:class:`LCScheduler` (linear clustering), :class:`EZScheduler` (Sarkar
edge zeroing) and :class:`OptimalScheduler` (exhaustive, tiny graphs
only).

The list schedulers (MCP, MH, HU, HLFET, ETF, DLS, and in
:mod:`repro.topology` the topology MH and the one-port MH1P) are presets
of one engine, :mod:`repro.schedulers.listsched`: a task order plus a
placement rule.
"""

from .adaptive import AdaptiveScheduler, DEFAULT_SELECTION_TABLE
from .base import SCHEDULER_REGISTRY, Scheduler, get_scheduler, paper_schedulers, register
from .clans_sched import ClansScheduler, GroupDecision
from .dls import DLSScheduler
from .dsc import DSCScheduler
from .etf import ETFScheduler
from .ez import EZScheduler
from .hlfet import HLFETScheduler
from .hu import HuScheduler
from .lc import LCScheduler
from .linear import SerialScheduler
from .improve import LocalSearchImprover
from .mapping import BoundedScheduler, fold_clusters_guided, fold_clusters_lpt
from .metaheuristics import AnnealingScheduler, GeneticScheduler
from .mcp import MCPScheduler
from .mh import MHScheduler
from .optimal import OptimalScheduler

__all__ = [
    "Scheduler",
    "SCHEDULER_REGISTRY",
    "register",
    "get_scheduler",
    "paper_schedulers",
    "ClansScheduler",
    "GroupDecision",
    "DSCScheduler",
    "MCPScheduler",
    "MHScheduler",
    "HuScheduler",
    "ETFScheduler",
    "LCScheduler",
    "EZScheduler",
    "DLSScheduler",
    "HLFETScheduler",
    "BoundedScheduler",
    "LocalSearchImprover",
    "GeneticScheduler",
    "AnnealingScheduler",
    "AdaptiveScheduler",
    "DEFAULT_SELECTION_TABLE",
    "fold_clusters_lpt",
    "fold_clusters_guided",
    "SerialScheduler",
    "OptimalScheduler",
]
