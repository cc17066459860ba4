#!/usr/bin/env python
"""Distributed-campaign smoke: real processes, real crashes, byte identity.

Run by the CI ``campaign-smoke`` job (and by hand before trusting the
campaign tier with a long run)::

    PYTHONPATH=src python benchmarks/smoke_campaign.py

One continuous chaos scenario over a 12-unit campaign:

1. A coordinator (``repro campaign run``, a real subprocess on a Unix
   socket) starts with **3 worker subprocesses**: one "victim" whose
   ``REPRO_CAMPAIGN_UNIT_DELAY`` makes it sit on its leased unit, then,
   once it holds that lease, two healthy ones.
2. Mid-campaign — with units completed, the victim holding a lease and
   the healthy workers in flight — the victim is **SIGKILLed**, then the
   coordinator itself is **SIGKILLed** (no drain, no goodbye).
3. The healthy workers ride out the outage on their jittered-backoff
   patience loop while ``repro campaign resume`` rebuilds the
   coordinator from the fsync'd journal on the same socket.
4. The campaign runs to completion.  The merged ``--save`` output must be
   **byte-identical** to an in-process serial ``run_suite`` baseline;
   per-unit grant counters from the journal must show the victim's lost
   unit re-granted and no unit granted more than twice.

The resumed phase is timed and its unit throughput printed.  With
``--force-write`` it is also recorded to ``--out`` (by default the tracked
``benchmarks/out/BENCH_campaign.json``, read by ``repro bench track`` as
``campaign/units_per_s``)::

    PYTHONPATH=src python benchmarks/smoke_campaign.py --force-write

A plain run writes no file in the checkout.

Exits 0 when every assertion holds, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import CampaignSpec, campaign_suite
from repro.experiments.persistence import save_results
from repro.experiments.runner import run_suite
from repro.service.client import ServiceClient, ServiceError

SEED = 19940815
CELLS = ((1, 2, (20, 100)), (3, 4, (20, 400)))
GRAPHS_PER_CELL = 6
N_TASKS = (12, 18)
LEASE_TTL = 2.0

SPEC = CampaignSpec(
    graphs_per_cell=GRAPHS_PER_CELL,
    seed=SEED,
    n_tasks_range=N_TASKS,
    cells=CELLS,
    unit_size=1,
)


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return env


def _spawn_coordinator(verb: str, journal: str, sock: str, save: str | None,
                       local_workers: int = 0) -> subprocess.Popen:
    argv = [sys.executable, "-m", "repro", "campaign", verb,
            "--journal", journal, "--socket", sock,
            "--lease-ttl", str(LEASE_TTL)]
    if verb == "run":
        argv += ["--graphs-per-cell", str(GRAPHS_PER_CELL),
                 "--seed", str(SEED),
                 "--nmin", str(N_TASKS[0]), "--nmax", str(N_TASKS[1]),
                 "--unit-size", "1"]
        for band, anchor, (wmin, wmax) in CELLS:
            argv += ["--cell", f"{band}:{anchor}:{wmin}:{wmax}"]
    if local_workers:
        argv += ["--local-workers", str(local_workers)]
    if save:
        argv += ["--save", save]
    return subprocess.Popen(argv, env=_env())


def _spawn_worker(sock: str, worker_id: str, *, delay: float = 0.0,
                  patience: float = 30.0) -> subprocess.Popen:
    env = _env()
    if delay:
        env["REPRO_CAMPAIGN_UNIT_DELAY"] = str(delay)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "worker",
         "--socket", sock, "--worker-id", worker_id,
         "--patience", str(patience)],
        env=env,
    )


def _wait_status(sock: str, predicate, what: str, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    last: dict | None = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(sock, retries=0, timeout=2.0) as client:
                last = client.call("campaign.status")
            if predicate(last):
                return last
        except (ServiceError, OSError):
            pass
        time.sleep(0.1)
    print(f"FAIL: timed out waiting for {what}; last status: {last}",
          file=sys.stderr)
    sys.exit(1)


def _grant_counts(journal: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in Path(journal).read_text().splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if obj.get("type") == "grant":
            uid = obj["unit_id"]
            counts[uid] = max(counts.get(uid, 0), int(obj["attempt"]))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent / "out" / "BENCH_campaign.json"),
        help="baseline JSON path (written only with --force-write)",
    )
    parser.add_argument(
        "--force-write",
        action="store_true",
        help="record the resumed phase's timings to --out",
    )
    args = parser.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="repro-campaign-smoke-")
    journal = os.path.join(tmp, "campaign.jsonl")
    sock = os.path.join(tmp, "coord.sock")
    merged_path = os.path.join(tmp, "merged.json")
    serial_path = os.path.join(tmp, "serial.json")

    print("serial baseline: running the campaign spec in-process ...")
    save_results(
        run_suite(campaign_suite(SPEC), None, seed=SEED, on_error="record"),
        serial_path,
    )
    n_units = len(SPEC.units())
    check(n_units == 12, f"expected 12 units, got {n_units}")

    print(f"phase 1: coordinator + 3 workers (1 victim) on {sock}")
    coord = _spawn_coordinator("run", journal, sock, save=None)
    victim = _spawn_worker(sock, "victim", delay=120.0)
    # The victim leases first, so the lease it never honours is certain to
    # exist; started together, the healthy workers could drain every unit
    # before it connected.
    _wait_status(sock, lambda s: s["leased"] >= 1, "the victim's lease")
    healthy = [_spawn_worker(sock, f"healthy-{i}") for i in (1, 2)]

    # Wait until the campaign is genuinely mid-flight: some units merged,
    # and the victim sitting on a lease it will never honour.
    status = _wait_status(
        sock,
        lambda s: s["completed"] >= 3 and s["leased"] >= 1,
        "mid-campaign state (>=3 merged, victim leased)",
    )
    print(f"  mid-campaign: {status['completed']}/{n_units} merged, "
          f"{status['leased']} leased")

    print("phase 2: SIGKILL the victim worker, then SIGKILL the coordinator")
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=10.0)
    coord.send_signal(signal.SIGKILL)
    coord.wait(timeout=10.0)

    print("phase 3: repro campaign resume on the same socket")
    t0 = time.monotonic()
    resumed = _spawn_coordinator("resume", journal, sock, save=merged_path)
    rc = resumed.wait(timeout=180.0)
    elapsed = time.monotonic() - t0
    check(rc == 0, f"campaign resume exited {rc}")
    # Workers either saw the coordinator's post-done grace window and got
    # their "done" ack, or time out their patience and exit gracefully.
    for i, proc in enumerate(healthy):
        wrc = proc.wait(timeout=60.0)
        check(wrc == 0, f"healthy worker {i + 1} exited {wrc}")

    print("phase 4: assertions")
    merged = Path(merged_path).read_bytes()
    serial = Path(serial_path).read_bytes()
    check(merged == serial,
          f"merged results differ from serial run "
          f"({len(merged)} vs {len(serial)} bytes)")
    print(f"  byte identity : merged == serial ({len(merged)} bytes)")

    grants = _grant_counts(journal)
    regranted = {u: n for u, n in grants.items() if n > 1}
    check(len(grants) == n_units, f"expected grants for all {n_units} units, "
          f"saw {len(grants)}")
    check(all(n <= 2 for n in grants.values()),
          f"no unit should need a third grant: {regranted}")
    # the victim's unit was lost and re-granted; in-flight units at the
    # coordinator kill may also legitimately be re-granted (their delivery
    # then dedups) — but a lost lease must be the exception, not the rule.
    check(1 <= len(regranted) <= 4,
          f"expected 1-4 re-granted units (victim + in-flight races), "
          f"got {len(regranted)}: {regranted}")
    print(f"  reschedules   : {len(regranted)} unit(s) re-granted "
          f"({', '.join(sorted(regranted))}); all others computed once")

    units_per_s = n_units / elapsed
    print(f"  throughput    : {n_units} units in {elapsed:.1f}s resumed phase "
          f"= {units_per_s:.2f} units/s (3 workers)")

    if args.force_write:
        baseline = {
            "format": "repro-bench-campaign",
            "version": 1,
            "seed": SEED,
            "platform": {
                "python": platform.python_version(),
                "system": platform.system(),
                "machine": platform.machine(),
            },
            "campaign": {
                "n_units": n_units,
                "n_workers": 3,
                "resumed_phase_s": elapsed,
                "units_per_s": units_per_s,
                "regranted_units": len(regranted),
            },
        }
        bench_path = Path(args.out)
        bench_path.parent.mkdir(parents=True, exist_ok=True)
        bench_path.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {bench_path}")
    print("campaign smoke: all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
