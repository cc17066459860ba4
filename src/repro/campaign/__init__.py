"""Distributed resumable campaigns (lease-based coordinator/worker tier).

A *campaign* runs the paper's testbed — or any sliced variant of it —
across many worker processes or hosts, surviving worker crashes,
network partitions and coordinator restarts, while producing a merged
:class:`~repro.experiments.measures.SuiteResult` byte-identical to a
serial ``run_suite`` of the same spec.

Layout:

* :mod:`~repro.campaign.spec` — campaign specs and their deterministic
  sharding into digest-keyed work units;
* :mod:`~repro.campaign.journal` — the coordinator's fsync'd append-only
  JSONL journal (spec header, lease grants, first deliveries,
  quarantines);
* :mod:`~repro.campaign.coordinator` — the lease state machine, the
  exactly-once merge and its NDJSON endpoint on the service's endpoint
  core (:mod:`repro.service.endpoint`);
* :mod:`~repro.campaign.worker` — the lease/execute/heartbeat/submit
  loop (``repro campaign worker``).

CLI: ``repro campaign run | worker | status | resume``.  Architecture
and invariants: DESIGN.md §16.
"""

from .coordinator import (
    DEFAULT_LEASE_TTL,
    CampaignCoordinator,
    CampaignServer,
    Lease,
)
from .journal import CampaignJournal, CampaignState, UnitDelivery
from .spec import CampaignSpec, CellCursors, WorkUnit, campaign_suite, unit_graphs
from .worker import run_worker

__all__ = [
    "CampaignSpec",
    "WorkUnit",
    "CellCursors",
    "unit_graphs",
    "campaign_suite",
    "CampaignJournal",
    "CampaignState",
    "UnitDelivery",
    "CampaignCoordinator",
    "CampaignServer",
    "Lease",
    "DEFAULT_LEASE_TTL",
    "run_worker",
]
