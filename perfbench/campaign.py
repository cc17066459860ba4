"""``campaign``: a campaign coordinator here, one ``repro campaign worker`` process.

One round is a fresh campaign over ``CELLS`` with the default unit shape
(35 graphs per Table-1 cell, unit size 5, 40-100 tasks): a new journal, a
``CampaignServer`` on an ephemeral port in this process, and one worker
process.  A run alternates between ``INPUTS`` campaigns seeded
``seed + k * SEED_STEP``.  The clock runs from the worker's first lease to
``merge()``; the worker's start-up happens before it, like the daemon's in
``service``.  One op is one unit merged.  The worker regenerates each cell
from its start (``campaign.spec.unit_graphs``), so it generates four times
the graphs it delivers.

The merged results must be byte-identical to an in-process
``run_suite(campaign_suite(spec))``, computed after the timed phase.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

from repro.campaign.coordinator import CampaignCoordinator, CampaignServer
from repro.campaign.spec import CampaignSpec, campaign_suite
from repro.core import wire
from repro.experiments import runner
from repro.experiments.persistence import result_to_dict
from repro.obs.metrics import MetricsRegistry, set_registry

from . import checks
from .harness import ROOT, Round, Workload, child_env, registry_counts, sum_by_key
from .spans import SpanRecorder

#: Four Table-1 cells, (band, anchor, weights), from four of the five
#: granularity bands.  A cell's cost varies by about 10% between seeds (its
#: first graphs are regenerated by every unit), so a run covers eight cells;
#: cells such as (3, 4, 20-200) vary two-fold.
CELLS = (
    (0, 2, (20, 100)),
    (1, 2, (20, 100)),
    (2, 3, (20, 100)),
    (4, 3, (20, 100)),
)
#: Distinct campaigns a run cycles through: input ``k`` is seeded
#: ``seed + k * SEED_STEP``.
INPUTS = 2
SEED_STEP = 7919
#: Coordinator counters that repeat exactly for a fixed campaign.
_EXACT = (
    "campaign.leases.granted",
    "campaign.units.completed",
    "campaign.graphs.completed",
    "campaign.workers.registered",
)
def encode(results) -> bytes:
    """Canonical bytes of a suite result: results then failure records."""
    return wire.dumps(
        {
            "results": [result_to_dict(r) for r in results],
            "failures": [f.to_dict() for f in getattr(results, "failures", ())],
        }
    ).encode()


class _Campaign:
    """One round's coordinator, server and worker process."""

    def __init__(
        self, spec: CampaignSpec, workdir: Path, n: int, traced: bool, cpus: set[int]
    ) -> None:
        # Each campaign counts into its own registry from its first record.
        self.registry = MetricsRegistry()
        self._previous_registry = set_registry(self.registry)
        self.journal = workdir / f"journal-{n}.jsonl"
        self.coordinator = CampaignCoordinator.create(spec, self.journal)
        self.server = CampaignServer(self.coordinator, ("127.0.0.1", 0))
        self.first_lease: float | None = None
        self.granted: dict[str, float] = {}
        self.latencies_ms: dict[str, float] = {}
        self.done = threading.Event()
        #: Leases wait for this, so a worker started during set-up does no
        #: work before its round: the yardstick read between rounds must see
        #: an idle host.
        self.go = threading.Event()
        self._hook()
        self.server.start()
        port = self.server.bound_address[1]
        argv = ["campaign", "worker", "--port", str(port), "--patience", "10"]
        self.spans_path = workdir / f"worker-{n}.json" if traced else None
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "shim.py"), str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "repro"]
        with open(workdir / f"worker-{n}.log", "w") as log:
            self.proc = subprocess.Popen(
                cmd + argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=log
            )
        os.sched_setaffinity(self.proc.pid, cpus)
        self.rss_mb = 0.0

    def _hook(self) -> None:
        coord = self.coordinator
        lease, submit = coord.lease, coord.submit

        def timed_lease(worker):
            self.go.wait()
            grant = lease(worker)
            now = perf_counter()
            if self.first_lease is None:
                self.first_lease = now
            if grant["status"] == "granted":
                self.granted[f"u{grant['unit']['index']:05d}"] = now
            return grant

        def timed_submit(worker, unit_id, *args):
            ack = submit(worker, unit_id, *args)
            if ack["accepted"]:
                self.latencies_ms[unit_id] = (perf_counter() - self.granted[unit_id]) * 1e3
            if ack["done"]:
                self.done.set()
            return ack

        coord.lease, coord.submit = timed_lease, timed_submit

    def wait_registered(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while not self.coordinator.workers:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("campaign worker did not register")
            time.sleep(0.005)

    def stop(self) -> None:
        """Stop the server and reap the worker (its peak RSS comes with it)."""
        self.server.stop()
        set_registry(self._previous_registry)
        deadline = time.monotonic() + 30.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rss_mb = usage.ru_maxrss / 1024.0
                return
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = time.monotonic() + 30.0
            time.sleep(0.01)


class Campaign(Workload):
    name = "campaign"
    inputs = INPUTS

    def setup(self) -> None:
        # The worker runs on one vCPU and the yardstick is read there: the
        # host's vCPUs slow down independently, and a reading taken on the
        # other one does not track the worker.
        self.host_cpus = {max(os.sched_getaffinity(0))}
        self.specs = [
            CampaignSpec(seed=self.seed + k * SEED_STEP, cells=CELLS) for k in range(INPUTS)
        ]
        self.rounds_started = 0
        self.rss_mb = 0.0
        self.merged: list[tuple[int, bytes]] = []
        self.pending = self._start(0, traced=False)
        self.pending.wait_registered()

    def _start(self, index: int, traced: bool) -> _Campaign:
        self.rounds_started += 1
        return _Campaign(
            self.specs[index], self.workdir, self.rounds_started, traced, self.host_cpus
        )

    def round(self, index: int, recorder: SpanRecorder | None) -> Round:
        camp, self.pending = self.pending or self._start(index, recorder is not None), None
        camp.go.set()
        try:
            if not camp.done.wait(timeout=150):
                raise RuntimeError("campaign round did not finish")
            merged = camp.coordinator.merge()
            end = perf_counter()
        finally:
            camp.stop()
        self.rss_mb = max(self.rss_mb, camp.rss_mb)
        units = len(camp.coordinator.units)
        r = Round(index, units, end - camp.first_lease, {}, "").capture(recorder)
        data = encode(merged)
        r.output = checks.sha256(data)
        r.latencies_ms = [camp.latencies_ms[uid] for uid in sorted(camp.latencies_ms)]
        counts = registry_counts(camp.registry)
        r.counts = {k: counts.get(k, 0.0) for k in _EXACT}
        r.counts["journal.records"] = len(camp.journal.read_bytes().splitlines())
        if camp.spans_path is not None:
            worker = json.loads(camp.spans_path.read_text())
            r.self_s = sum_by_key([r.self_s, worker["self_s"]])
            r.calls = sum_by_key([r.calls, worker["calls"]])
            r.bytes = sum_by_key([r.bytes, worker["bytes"]])
            r.layer_counts = worker["counts"]
        self.merged.append((index, data))
        return r

    def finish(self, rounds: list[Round]) -> list[str]:
        references = {
            index: encode(runner.run_suite(campaign_suite(spec), seed=spec.seed))
            for index, spec in enumerate(self.specs)
        }
        problems = []
        for i, (index, data) in enumerate(self.merged):
            problems += checks.bytes_problems(
                f"round {i} merged results", data, references[index]
            )
        return problems

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def close(self) -> None:
        if getattr(self, "pending", None) is not None:
            self.pending.go.set()
            self.pending.proc.kill()
            self.pending.stop()
