"""repro.service — the scheduling testbed as a long-lived network service.

Every other consumer of the library imports it and pays interpreter start,
module import and :class:`~repro.core.kernels.GraphIndex` compile warm-up
per process.  This package keeps one warm process serving many callers:

* :mod:`repro.service.protocol` — the newline-delimited JSON wire protocol
  (request/response framing, error codes, op result builders, the verb →
  tier map);
* :mod:`repro.service.endpoint` — the endpoint core under the daemon, the
  sharded router and the campaign coordinator: bind, frame loop, verb
  dispatch, locked send, drain, and the foreground and background-thread
  runners;
* :mod:`repro.service.server` — the asyncio daemon (``repro serve``):
  bounded admission queue with load shedding, per-request deadlines,
  micro-batching of same-graph requests, a size-bounded LRU index cache,
  RED metrics/spans through :mod:`repro.obs`, graceful SIGTERM drain;
* :mod:`repro.service.client` — blocking and async client SDKs with
  retry/backoff and connection reuse (``repro submit``);
* :mod:`repro.service.loadgen` — an open-loop load generator with an
  adversarial graph mix, for ``benchmarks/bench_service.py`` and the CI
  smoke job;
* :mod:`repro.service.ring` / :mod:`repro.service.shard` — the sharded
  tier (``repro serve --workers N``): a router process fanning requests to
  N shared-nothing worker processes by consistent hashing on the graph
  digest, with merged health/stats/metrics and rolling shard restarts.

Invariant: the service is a *transport*.  Every op resolves to the same
library calls a direct import would make, over graphs decoded by the shared
wire codec (:mod:`repro.core.wire`), so a schedule obtained through the
service is byte-identical to the library's — asserted per-heuristic in
``tests/test_service.py``.
"""

from .client import AsyncServiceClient, ServiceClient, ServiceError
from .protocol import DEFAULT_PORT, ProtocolError
from .ring import HashRing
from .server import ReproServer, ServerThread, run_server
from .shard import ReproRouter, ShardedTier, ShardSupervisor, run_sharded

__all__ = [
    "AsyncServiceClient",
    "ServiceClient",
    "ServiceError",
    "ProtocolError",
    "DEFAULT_PORT",
    "ReproServer",
    "ServerThread",
    "run_server",
    "HashRing",
    "ReproRouter",
    "ShardSupervisor",
    "ShardedTier",
    "run_sharded",
]
