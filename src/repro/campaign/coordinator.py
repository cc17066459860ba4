"""Campaign coordinator: lease table, exactly-once merge, NDJSON endpoint.

The coordinator owns a campaign's full unit table and hands out
time-limited **leases** over the service wire protocol
(:mod:`repro.service.protocol`, verb family ``campaign.*``).  Workers are
stateless and anonymous — they register, lease, heartbeat, execute,
submit, repeat — so the coordinator's in-memory table plus its journal
(:mod:`repro.campaign.journal`) are the only coordination state in the
system, and both survive any single failure:

* **Worker crash / partition** — heartbeats stop, the lease expires
  (``lease_ttl`` seconds), and the unit silently returns to the pending
  pool.  Nothing is lost but the dead worker's in-flight unit, which the
  next ``campaign.lease`` re-grants.
* **Coordinator crash** — ``repro campaign resume`` replays the journal:
  completed units are final (never re-granted), grant counts persist (a
  poison unit cannot reset its attempt budget by crashing the
  coordinator), and in-flight leases are simply forgotten — the worker's
  eventual delivery is still accepted, because *submit accepts any
  incomplete unit whether or not a live lease backs it* (see below).

Execution is therefore **at-least-once**; the merge is **exactly-once**:
a unit result is journaled and counted the first time it arrives, and
every later delivery of the same unit — duplicate submit after a lost
ack, a rescheduled twin finishing second — is acknowledged as
``duplicate`` and discarded.  Since every accepted delivery is keyed and
digest-checked against the deterministic unit table, and units are
concatenated in unit order at merge time, the merged result equals the
serial ``run_suite`` output byte for byte (DESIGN.md §16 has the
argument in full).

A unit granted ``max_attempts`` times with no delivery is **poison**
(some graph in it reliably kills workers): it is quarantined — journaled,
excluded from scheduling, and carried in the merged result as one
``kind="poison"`` :class:`~repro.experiments.faults.FailureRecord` per
covered graph, so a campaign with a pathological unit still terminates
with a complete, explicit account of what was not computed.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from ..experiments.faults import FailureRecord
from ..experiments.measures import SuiteResult
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..service.endpoint import Conn, Endpoint, EndpointThread
from ..service.protocol import (
    CAMPAIGN_OPS,
    INTERNAL,
    ProtocolError,
    Request,
    error_response,
    metrics_result,
    ok_response,
)
from .journal import CampaignJournal, CampaignState, UnitDelivery
from .spec import CampaignSpec, WorkUnit

__all__ = [
    "DEFAULT_LEASE_TTL",
    "Lease",
    "CampaignCoordinator",
    "CoordinatorEndpoint",
    "CampaignServer",
]

#: Default lease time-to-live in seconds.  Generous relative to one
#: unit's compute time so healthy workers never lose a lease to a missed
#: heartbeat, small enough that a crashed worker's unit is rescheduled
#: promptly.
DEFAULT_LEASE_TTL = 15.0


@dataclass
class Lease:
    """One outstanding grant: who holds which unit until when."""

    unit_id: str
    worker: str
    expires_at: float
    attempt: int


class CampaignCoordinator:
    """The campaign state machine (transport-free; see :class:`CampaignServer`).

    All public methods are thread-safe (one re-entrant lock — the state is
    tiny and every transition is O(1) or O(units), so a single lock is
    simpler and plenty fast next to multi-second unit compute times).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        journal: CampaignJournal,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        state: "CampaignState | None" = None,
        clock=time.monotonic,
    ) -> None:
        self.spec = spec
        self.journal = journal
        self.lease_ttl = lease_ttl
        self._clock = clock
        self._lock = threading.RLock()
        self._log = get_logger("campaign")
        self.digest = spec.digest()
        self.units: list[WorkUnit] = spec.units()
        self._by_id: dict[str, WorkUnit] = {u.unit_id: u for u in self.units}
        state = state or CampaignState()
        self.completed: dict[str, UnitDelivery] = dict(state.completed)
        self.attempts: dict[str, int] = dict(state.attempts)
        self.quarantined: set[str] = set(state.quarantined)
        # Completion always wins over quarantine (journal replay already
        # enforces this; re-assert it here so a hand-built state cannot
        # double-count a unit in _done_locked()).
        self.quarantined -= set(self.completed)
        #: unit_id -> worker holding the most recent grant (forensics for
        #: quarantine records: the worker whose lease last burned).
        self.last_worker: dict[str, str] = dict(state.last_worker)
        self.leases: dict[str, Lease] = {}
        self.workers: set[str] = set()
        # Journal replay may reference units that no longer exist only if
        # the journal belongs to a different campaign — refuse early.
        for uid in list(self.completed) + list(self.quarantined):
            if uid not in self._by_id:
                raise ValueError(
                    f"journal {journal.path} references unknown unit {uid}: "
                    "it belongs to a different campaign spec"
                )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        spec: CampaignSpec,
        journal_path: "str | Path",
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> "CampaignCoordinator":
        """Start a fresh campaign: write the journal header, empty state."""
        journal = CampaignJournal(journal_path)
        if journal.exists():
            raise ValueError(
                f"{journal.path} already exists; use resume() to continue it"
            )
        journal.write_header(spec)
        return cls(spec, journal, lease_ttl=lease_ttl)

    @classmethod
    def resume(
        cls,
        journal_path: "str | Path",
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> "CampaignCoordinator":
        """Rebuild a coordinator from its journal after a crash or stop."""
        journal = CampaignJournal(journal_path)
        state = journal.load()
        if state.spec is None:
            raise ValueError(
                f"{journal.path}: no campaign header record; not a campaign "
                "journal (or its header append was torn)"
            )
        coord = cls(state.spec, journal, lease_ttl=lease_ttl, state=state)
        coord._log.info(
            "resumed campaign %s: %d/%d units complete, %d quarantined",
            coord.digest[:12],
            len(coord.completed),
            len(coord.units),
            len(coord.quarantined),
        )
        return coord

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def register(self, worker: str) -> dict:
        """``campaign.register``: hand the worker everything it needs."""
        with self._lock:
            if worker not in self.workers:
                self.workers.add(worker)
                get_registry().inc("campaign.workers.registered")
            return {
                "campaign": self.digest,
                "spec": self.spec.to_dict(),
                "lease_ttl": self.lease_ttl,
                "n_units": len(self.units),
            }

    def lease(self, worker: str) -> dict:
        """``campaign.lease``: grant the next pending unit.

        Returns ``{"status": "granted", "unit": ..., "attempt": n}``, or
        ``{"status": "wait"}`` when everything pending is currently leased
        (the worker should poll again), or ``{"status": "done"}`` when no
        work will ever remain.  Quarantine happens here, at grant time:
        a unit that already burned ``max_attempts`` grants is retired
        instead of handed out again.
        """
        registry = get_registry()
        with self._lock:
            self._expire_leases_locked()
            for unit in self.units:
                uid = unit.unit_id
                if (
                    uid in self.completed
                    or uid in self.quarantined
                    or uid in self.leases
                ):
                    continue
                attempts = self.attempts.get(uid, 0)
                if attempts >= self.spec.max_attempts:
                    self._quarantine_locked(unit, attempts)
                    continue
                attempt = attempts + 1
                self.attempts[uid] = attempt
                self.last_worker[uid] = worker
                self.journal.write_grant(uid, worker, attempt)
                self.leases[uid] = Lease(
                    unit_id=uid,
                    worker=worker,
                    expires_at=self._clock() + self.lease_ttl,
                    attempt=attempt,
                )
                registry.inc("campaign.leases.granted")
                if attempt > 1:
                    self._log.info(
                        "unit %s re-granted to %s (attempt %d)", uid, worker, attempt
                    )
                return {
                    "status": "granted",
                    "unit": unit.to_dict(),
                    "attempt": attempt,
                }
            if self._done_locked():
                return {"status": "done"}
            return {"status": "wait"}

    def heartbeat(self, worker: str, unit_id: str) -> dict:
        """``campaign.heartbeat``: renew a held lease.

        ``{"ok": false}`` tells the worker its lease is gone (expired and
        possibly re-granted elsewhere); it may still submit — first
        delivery wins — but should not rely on holding the unit.
        """
        with self._lock:
            get_registry().inc("campaign.heartbeats")
            lease = self.leases.get(unit_id)
            if lease is None or lease.worker != worker:
                return {"ok": False}
            lease.expires_at = self._clock() + self.lease_ttl
            return {"ok": True}

    def submit(
        self,
        worker: str,
        unit_id: str,
        digest: str,
        results: list,
        failures: list,
    ) -> dict:
        """``campaign.result``: accept (or dedup) one unit delivery.

        Accepts deliveries for any incomplete unit, **leased or not** —
        covering the lost-ack resubmit, the expired-lease straggler and
        the delivery that raced a coordinator restart.  The digest check
        pins the delivery to this campaign's unit table; a mismatch is a
        protocol error, not a dedup.
        """
        registry = get_registry()
        with self._lock:
            unit = self._by_id.get(unit_id)
            if unit is None:
                raise ProtocolError(f"unknown unit {unit_id!r}")
            if digest != unit.digest:
                raise ProtocolError(
                    f"unit {unit_id} digest mismatch: delivery is for a "
                    "different campaign spec"
                )
            if unit_id in self.completed:
                registry.inc("campaign.units.duplicate")
                return {"accepted": False, "duplicate": True, "done": self._done_locked()}
            try:
                delivery = UnitDelivery.from_dict(
                    {
                        "unit_id": unit_id,
                        "digest": digest,
                        "worker": worker,
                        "results": results,
                        "failures": failures,
                    }
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"malformed unit delivery: {exc}") from None
            # Every unit graph must be accounted for — by a result or a
            # whole-graph failure record — and by nothing else.  Matching
            # exact graph-id sets (not just cardinality) keeps a buggy
            # worker's duplicated or wrong-graph delivery from silently
            # corrupting the byte-identical merge the digest check exists
            # to guarantee.
            delivered = {r.graph_id for r in delivery.results}
            covered = delivered | {fr.graph_id for fr in delivery.failures}
            expected = set(unit.graph_ids())
            if len(delivery.results) != len(delivered) or covered != expected:
                raise ProtocolError(
                    f"unit {unit_id} delivery graphs do not match the unit: "
                    f"missing={sorted(expected - covered)} "
                    f"unexpected={sorted(covered - expected)} "
                    f"duplicates={len(delivery.results) - len(delivered)}"
                )
            # Journal before acking: if we crash between the two, the
            # worker resubmits and lands in the duplicate branch above.
            self.journal.write_unit(delivery)
            self.completed[unit_id] = delivery
            self.leases.pop(unit_id, None)
            self.quarantined.discard(unit_id)
            registry.inc("campaign.units.completed")
            registry.inc("campaign.graphs.completed", float(len(delivery.results)))
            return {"accepted": True, "duplicate": False, "done": self._done_locked()}

    def status(self) -> dict:
        """``campaign.status``: one self-describing progress snapshot."""
        with self._lock:
            self._expire_leases_locked()
            return {
                "campaign": self.digest,
                "n_units": len(self.units),
                "n_graphs": self.spec.n_graphs,
                "completed": len(self.completed),
                "quarantined": len(self.quarantined),
                "leased": len(self.leases),
                "workers": len(self.workers),
                "attempts": sum(self.attempts.values()),
                "done": self._done_locked(),
            }

    # ------------------------------------------------------------------
    # lease expiry / quarantine
    # ------------------------------------------------------------------
    def expire_leases(self) -> int:
        """Drop expired leases; returns how many were reclaimed."""
        with self._lock:
            return self._expire_leases_locked()

    def _expire_leases_locked(self) -> int:
        now = self._clock()
        expired = [l for l in self.leases.values() if l.expires_at <= now]
        for lease in expired:
            del self.leases[lease.unit_id]
            get_registry().inc("campaign.leases.expired")
            self._log.warning(
                "lease on %s (worker %s, attempt %d) expired; rescheduling",
                lease.unit_id,
                lease.worker,
                lease.attempt,
            )
        return len(expired)

    def _quarantine_locked(self, unit: WorkUnit, attempts: int) -> None:
        # Attribute the quarantine to the worker whose lease last burned,
        # not whichever worker's lease request happened to trigger
        # retirement — the latter is misleading forensics.
        last_worker = self.last_worker.get(unit.unit_id, "?")
        self.journal.write_quarantine(unit.unit_id, attempts, last_worker)
        self.quarantined.add(unit.unit_id)
        get_registry().inc("campaign.units.quarantined")
        self._log.error(
            "unit %s quarantined as poison after %d attempts "
            "(last lease held by %s; graphs %s..%s)",
            unit.unit_id,
            attempts,
            last_worker,
            unit.graph_ids()[0],
            unit.graph_ids()[-1],
        )

    def _done_locked(self) -> bool:
        return len(self.completed) + len(self.quarantined) == len(self.units)

    @property
    def done(self) -> bool:
        with self._lock:
            return self._done_locked()

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def merge(self) -> SuiteResult:
        """Concatenate accepted deliveries in unit order.

        The exactly-once argument: every unit appears at most once in
        ``completed`` (first delivery wins, enforced under the lock and
        in journal replay), every completed unit contributes its results
        in its own deterministic order, and units are visited here in the
        spec's unit order — which is the serial suite order.  Hence the
        merged list is byte-identical to a serial ``run_suite`` over the
        same spec.  Quarantined units contribute one ``kind="poison"``
        whole-graph failure per graph instead of silently shrinking the
        result.
        """
        with self._lock:
            results = []
            failures: list[FailureRecord] = []
            for unit in self.units:
                uid = unit.unit_id
                if uid in self.completed:
                    delivery = self.completed[uid]
                    results.extend(delivery.results)
                    failures.extend(delivery.failures)
                elif uid in self.quarantined:
                    attempts = self.attempts.get(uid, self.spec.max_attempts)
                    for graph_id in unit.graph_ids():
                        failures.append(
                            FailureRecord(
                                graph_id=graph_id,
                                heuristic=None,
                                kind="poison",
                                exc_type="PoisonUnitError",
                                message=(
                                    f"unit {uid} quarantined after "
                                    f"{attempts} lease grants with no delivery"
                                ),
                                seed=self.spec.seed,
                                attempts=attempts,
                            )
                        )
            return SuiteResult(results, failures=failures)


async def _on_daemon_thread(fn, *args):
    """``fn(*args)`` on a daemon thread of its own, its result handed back
    to the running loop.

    The loop's default executor would do the same, but Python joins its
    threads at interpreter exit, so a call that never returns would keep
    the process alive after the endpoint gave up on it.
    """
    loop = asyncio.get_running_loop()
    future = loop.create_future()

    def settle(result, error) -> None:
        if future.done():  # the awaiting task was cancelled
            return
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)

    def run() -> None:
        try:
            result, error = fn(*args), None
        except BaseException as exc:  # noqa: BLE001 - raised in the awaiter
            result, error = None, exc
        try:
            loop.call_soon_threadsafe(settle, result, error)
        except RuntimeError:  # the loop has closed: no one awaits it
            pass

    threading.Thread(target=run, name="campaign-verb", daemon=True).start()
    return await future


class CoordinatorEndpoint(Endpoint):
    """A coordinator's verbs on the endpoint core (run by
    :class:`CampaignServer`).

    Every verb runs on a daemon thread of its own, off the event loop: a
    verb blocked on the journal's fsync, or on the coordinator's lock
    behind one, holds up only its own connection, and a verb that never
    returns does not keep the process from exiting.  A reaper task expires
    leases every ``lease_ttl / 4``, so a crashed worker's unit returns to
    the pool even when no one calls ``campaign.lease``.  The coordinator's
    ``lease`` and ``submit`` are looked up on each call.
    """

    _log = get_logger("campaign")

    def __init__(
        self, coordinator: CampaignCoordinator, address: "tuple[str, int] | str"
    ) -> None:
        if isinstance(address, str):
            super().__init__(socket_path=address)
        else:
            super().__init__(host=address[0], port=address[1])
        self.coordinator = coordinator
        self.verbs = dict.fromkeys(
            CAMPAIGN_OPS | {"health", "stats", "metrics"}, self._off_loop
        )
        self._reaper: asyncio.Task | None = None

    async def start(self) -> None:
        await super().start()
        self._reaper = asyncio.get_running_loop().create_task(self._reap())
        self._log.info(
            "campaign coordinator listening on %s (%d units)",
            self.endpoint,
            len(self.coordinator.units),
        )

    async def _finish(self) -> None:
        self._reaper.cancel()

    async def _reap(self) -> None:
        interval = max(0.05, self.coordinator.lease_ttl / 4.0)
        while True:
            await asyncio.sleep(interval)
            await _on_daemon_thread(self.coordinator.expire_leases)

    async def _off_loop(self, conn: Conn, request: Request) -> dict:
        return await _on_daemon_thread(self._answer, request)

    def _answer(self, request: Request) -> dict:
        registry = get_registry()
        registry.inc("service.requests")
        try:
            return ok_response(request.id, self._dispatch(request))
        except ProtocolError as exc:
            registry.inc("service.errors")
            return error_response(request.id, exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - server must not die
            registry.inc("service.errors")
            self._log.exception("internal error handling campaign request")
            return error_response(request.id, INTERNAL, f"internal error: {exc}")

    def _dispatch(self, request: Request) -> dict:
        op, params = request.op, request.params
        coord = self.coordinator
        if op == "health":
            return {
                "status": "ok",
                "role": "campaign",
                "campaign": coord.digest,
                "done": coord.done,
            }
        if op == "stats":
            status = coord.status()
            return {
                "role": "campaign",
                "uptime_s": perf_counter() - self._started_pc,
                "counters": get_registry().counters(),
                "campaign": status,
            }
        if op == "metrics":
            return metrics_result(get_registry().snapshot())
        if op == "campaign.status":
            return coord.status()
        worker = params.get("worker")
        if not isinstance(worker, str) or not worker:
            raise ProtocolError(f"{op} requires a non-empty 'worker' string")
        if op == "campaign.register":
            return coord.register(worker)
        if op == "campaign.lease":
            return coord.lease(worker)
        if op == "campaign.heartbeat":
            unit_id = params.get("unit_id")
            if not isinstance(unit_id, str):
                raise ProtocolError("campaign.heartbeat requires 'unit_id'")
            return coord.heartbeat(worker, unit_id)
        unit_id = params.get("unit_id")  # campaign.result
        digest = params.get("digest")
        if not isinstance(unit_id, str) or not isinstance(digest, str):
            raise ProtocolError("campaign.result requires 'unit_id' and 'digest'")
        results = params.get("results")
        failures = params.get("failures", [])
        if not isinstance(results, list) or not isinstance(failures, list):
            raise ProtocolError(
                "campaign.result requires list 'results' (and 'failures')"
            )
        return coord.submit(worker, unit_id, digest, results, failures)


class CampaignServer(EndpointThread):
    """A coordinator's :class:`CoordinatorEndpoint` on a background thread,
    behind a synchronous API: :meth:`start`, :meth:`stop` (a drain: every
    running verb's reply is sent first), :attr:`bound_address` and
    :meth:`serve_until_done`."""

    def __init__(
        self,
        coordinator: CampaignCoordinator,
        address: "tuple[str, int] | str",
    ) -> None:
        self.coordinator = coordinator
        super().__init__(
            lambda: CoordinatorEndpoint(coordinator, address), name="campaign-server"
        )

    @property
    def bound_address(self) -> "tuple[str, int] | str":
        """The actual listen address (resolves port 0 after :meth:`start`)."""
        return self.address

    def serve_until_done(self, poll: float = 0.2, grace: float = 0.0) -> None:
        """Block until every unit is completed or quarantined.

        ``grace`` keeps the server answering for that many more seconds
        after completion, so straggler workers — e.g. one retrying a
        delivery whose ack a coordinator crash swallowed — get their
        ``duplicate``/``done`` answer and exit promptly instead of
        burning their whole patience budget against a vanished socket.
        """
        while self._thread.is_alive() and not self.coordinator.done:
            time.sleep(poll)
        if grace > 0:
            self._thread.join(grace)
