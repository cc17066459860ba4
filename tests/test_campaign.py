"""Tests for the distributed campaign tier (repro.campaign).

Covers the PR's acceptance scenarios: deterministic digest-keyed
sharding; an in-process coordinator + multi-worker run whose merged
result is byte-identical to a serial ``run_suite``; a worker SIGKILLed
mid-unit whose lease expires and whose unit is re-executed exactly once
more; duplicate-delivery dedup; poison-unit quarantine with first-class
``kind="poison"`` failure records; and coordinator kill/resume from the
journal — including a torn trailing journal line.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import (
    CampaignCoordinator,
    CampaignJournal,
    CampaignServer,
    CampaignSpec,
    CellCursors,
    WorkUnit,
    campaign_suite,
    run_worker,
    unit_graphs,
)
from repro.core.wire import dumps, graph_to_wire
from repro.experiments.persistence import save_results
from repro.experiments.runner import run_suite
from repro.generation import suites
from repro.service.client import ServiceClient, ServiceError

# A tiny two-cell campaign: 2 cells x 4 graphs = 8 graphs, unit_size=2
# -> 4 units.  Small graphs keep the whole file fast.
SPEC = CampaignSpec(
    graphs_per_cell=4,
    seed=1107,
    n_tasks_range=(8, 14),
    cells=((1, 2, (20, 100)), (3, 4, (20, 400))),
    unit_size=2,
)


def _serial_bytes(tmp_path, spec=SPEC):
    path = tmp_path / "serial.json"
    save_results(
        run_suite(campaign_suite(spec), None, seed=spec.seed, on_error="record"),
        path,
    )
    return path.read_bytes()


def _merged_bytes(tmp_path, coordinator):
    path = tmp_path / "merged.json"
    save_results(coordinator.merge(), path)
    return path.read_bytes()


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
class TestSharding:
    def test_units_cover_suite_in_order(self):
        units = SPEC.units()
        assert [u.unit_id for u in units] == [f"u{i:05d}" for i in range(4)]
        ids = [gid for u in units for gid in u.graph_ids()]
        assert ids == [sg.graph_id for sg in campaign_suite(SPEC)]

    def test_unit_digests_bind_spec(self):
        other = CampaignSpec(
            graphs_per_cell=4,
            seed=SPEC.seed + 1,
            n_tasks_range=SPEC.n_tasks_range,
            cells=SPEC.cells,
            unit_size=2,
        )
        ours = {u.digest for u in SPEC.units()}
        theirs = {u.digest for u in other.units()}
        assert not ours & theirs

    def test_unit_graphs_match_serial_slice(self):
        serial = campaign_suite(SPEC)
        for unit in SPEC.units():
            regenerated = unit_graphs(SPEC, unit)
            expected = [sg for sg in serial if sg.graph_id in set(unit.graph_ids())]
            assert [sg.graph_id for sg in regenerated] == [
                sg.graph_id for sg in expected
            ]
            for a, b in zip(regenerated, expected):
                assert a.graph.to_dict() == b.graph.to_dict()

    def test_spec_round_trip_preserves_digest(self):
        assert CampaignSpec.from_dict(SPEC.to_dict()).digest() == SPEC.digest()

    def test_unit_round_trip(self):
        unit = SPEC.units()[2]
        assert WorkUnit.from_dict(unit.to_dict()) == unit


# ----------------------------------------------------------------------
# cell cursors
# ----------------------------------------------------------------------
#: Two cells of 7 graphs in units of 2: per cell, units [0,2) [2,4) [4,6) [6,7).
CURSOR_SPEC = CampaignSpec(
    graphs_per_cell=7,
    seed=1107,
    n_tasks_range=(8, 14),
    cells=SPEC.cells,
    unit_size=2,
)


def _wire(graphs):
    return [(sg.graph_id, dumps(graph_to_wire(sg.graph))) for sg in graphs]


class TestCellCursors:
    @pytest.fixture(scope="class")
    def serial(self):
        return dict(_wire(campaign_suite(CURSOR_SPEC)))

    @pytest.mark.parametrize(
        "order",
        [
            [0, 1, 2, 3],  # in order
            [0, 2, 3],  # skip forward
            [1, 3],
            [2, 0, 1, 3],  # backward
            [3, 0],
            [0, 0, 1, 1, 2, 3, 3],  # the same unit twice: a re-lease
            [3, 3],
        ],
    )
    def test_units_match_serial_slice(self, serial, order):
        units = CURSOR_SPEC.units()
        per_cell = len(units) // 2
        cursors = CellCursors(CURSOR_SPEC)
        # both cells, interleaved unit by unit
        for k in order:
            for unit in (units[k], units[per_cell + k]):
                got = _wire(cursors.graphs(unit))
                assert got == [(gid, serial[gid]) for gid in unit.graph_ids()]

    def test_in_order_pass_generates_each_graph_once(self, monkeypatch):
        calls = []
        generate_pdg = suites.generate_pdg

        def counting(*args, **kwargs):
            calls.append(1)
            return generate_pdg(*args, **kwargs)

        monkeypatch.setattr(suites, "generate_pdg", counting)
        spec = CampaignSpec(
            graphs_per_cell=35,
            seed=1107,
            n_tasks_range=(8, 14),
            cells=((2, 3, (20, 100)),),
        )
        cursors = CellCursors(spec)
        for unit in spec.units():
            cursors.graphs(unit)
        assert len(calls) == spec.graphs_per_cell

    def test_entry_dropped_after_last_unit(self):
        cursors = CellCursors(CURSOR_SPEC)
        units = CURSOR_SPEC.units()
        cell = units[0].cell
        for unit in units[:3]:
            cursors.graphs(unit)
            assert cell in cursors
        cursors.graphs(units[3])
        assert cell not in cursors

    def test_unit_outside_the_cell_rejected(self):
        unit = CURSOR_SPEC.units()[3]
        beyond = WorkUnit.from_dict({**unit.to_dict(), "stop": unit.stop + 1})
        with pytest.raises(ValueError, match="outside the spec"):
            CellCursors(CURSOR_SPEC).graphs(beyond)


# ----------------------------------------------------------------------
# in-process end-to-end
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_three_workers_merge_byte_identical(self, tmp_path):
        coord = CampaignCoordinator.create(SPEC, tmp_path / "c.jsonl", lease_ttl=10.0)
        server = CampaignServer(coord, ("127.0.0.1", 0))
        server.start()
        try:
            threads = [
                threading.Thread(
                    target=run_worker,
                    kwargs=dict(
                        address=server.bound_address,
                        worker_id=f"w{i}",
                        patience=15.0,
                    ),
                )
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            server.stop()
        assert coord.done
        assert _merged_bytes(tmp_path, coord) == _serial_bytes(tmp_path)
        # every unit computed exactly once: no reschedules were needed
        assert all(n == 1 for n in coord.attempts.values())

    def test_status_and_health_verbs(self, tmp_path):
        coord = CampaignCoordinator.create(SPEC, tmp_path / "c.jsonl")
        server = CampaignServer(coord, ("127.0.0.1", 0))
        server.start()
        try:
            with ServiceClient(server.bound_address) as client:
                health = client.call("health")
                assert health["role"] == "campaign" and not health["done"]
                status = client.call("campaign.status")
                assert status["n_units"] == 4 and status["completed"] == 0
                stats = client.call("stats")
                assert stats["campaign"]["n_units"] == 4
                with pytest.raises(ServiceError) as exc_info:
                    client.call("schedule", {"heuristic": "HU"})
                assert exc_info.value.code == 400
        finally:
            server.stop()

    def test_stop_sends_the_ack_of_a_running_submit(self, tmp_path):
        """A running ``campaign.result`` holds up only its own connection,
        and stopping the server meanwhile still sends its ack: a worker
        exits on the final ack instead of retrying against a vanished
        coordinator."""
        coord = CampaignCoordinator.create(SPEC, tmp_path / "c.jsonl")
        grant = coord.lease("w0")
        unit = WorkUnit.from_dict(grant["unit"])
        result = run_suite(
            unit_graphs(SPEC, unit), None, seed=SPEC.seed, on_error="record"
        )
        from repro.experiments.persistence import result_to_dict

        running, release = threading.Event(), threading.Event()
        submit = coord.submit

        def held_submit(*args):
            running.set()
            assert release.wait(10)
            return submit(*args)

        server = CampaignServer(coord, ("127.0.0.1", 0))
        server.start()
        coord.submit = held_submit
        acks = []

        def deliver():
            with ServiceClient(server.bound_address, retries=0) as client:
                acks.append(
                    client.call(
                        "campaign.result",
                        {
                            "worker": "w0",
                            "unit_id": unit.unit_id,
                            "digest": unit.digest,
                            "results": [result_to_dict(r) for r in result],
                            "failures": [],
                        },
                    )
                )

        delivery = threading.Thread(target=deliver)
        delivery.start()
        assert running.wait(10)
        with ServiceClient(server.bound_address, retries=0, timeout=5.0) as other:
            assert other.call("campaign.status")["completed"] == 0
        stopping = threading.Thread(target=server.stop)
        stopping.start()
        time.sleep(0.1)  # the drain has begun and waits for the verb
        release.set()
        stopping.join(10)
        delivery.join(10)
        assert not stopping.is_alive() and not delivery.is_alive()
        assert acks == [{"accepted": True, "duplicate": False, "done": False}]

    @pytest.mark.parametrize("interrupted", [False, True])
    def test_verb_that_never_returns_costs_one_line(
        self, tmp_path, monkeypatch, capsys, interrupted
    ):
        """A verb still running when the stop bound runs out does not turn
        ``repro campaign run|resume`` into a traceback: one line says so,
        then the merge and its summary follow, or after Ctrl-C exit 130
        with the resume hint as the last line."""
        import argparse

        from repro import cli
        from repro.experiments.persistence import result_to_dict
        from repro.service import endpoint

        coord = CampaignCoordinator.create(SPEC, tmp_path / "c.jsonl")
        while not coord.done:
            unit = WorkUnit.from_dict(coord.lease("w0")["unit"])
            result = run_suite(
                unit_graphs(SPEC, unit), None, seed=SPEC.seed, on_error="record"
            )
            coord.submit(
                "w0", unit.unit_id, unit.digest, [result_to_dict(r) for r in result], []
            )
        running, release = threading.Event(), threading.Event()
        heartbeat = coord.heartbeat

        def held_heartbeat(*args):
            running.set()
            release.wait(30)
            return heartbeat(*args)

        coord.heartbeat = held_heartbeat
        servers, callers = [], []

        def spawn_workers(n, address, jobs):
            # in place of the local workers: one client whose verb never returns
            def call():
                with ServiceClient(address, retries=0, timeout=30.0) as client:
                    client.call(
                        "campaign.heartbeat", {"worker": "w0", "unit_id": "u00000"}
                    )

            callers.append(threading.Thread(target=call))
            callers[0].start()
            assert running.wait(10)
            return []

        def serve_until_done(server, poll=0.2, grace=0.0):
            servers.append(server)
            if interrupted:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_spawn_local_workers", spawn_workers)
        monkeypatch.setattr(CampaignServer, "serve_until_done", serve_until_done)
        monkeypatch.setattr(endpoint, "STOP_TIMEOUT_S", 0.5)
        args = argparse.Namespace(
            campaign_command="resume",
            socket=None,
            host="127.0.0.1",
            port=0,
            local_workers=1,
            jobs=1,
            lease_ttl=15.0,
            save=None,
        )
        try:
            rc = cli._campaign_serve(coord, args)
        finally:
            release.set()
        callers[0].join(10)
        servers[0]._thread.join(10)  # the drain completes once the verb does
        assert not servers[0]._thread.is_alive()
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert "Traceback" not in err
        assert [line for line in lines if "did not drain" in line] == [
            "repro campaign resume: campaign-server did not drain in 0.5s"
        ]
        if interrupted:
            assert rc == 130
            assert [line for line in lines if "resume with" in line] == [lines[-1]]
            assert lines[-1] == (
                f"interrupted; resume with: repro campaign resume --journal "
                f"{coord.journal.path}"
            )
        else:
            assert rc == 0
            assert "4/4 units merged" in out

    def test_verb_that_never_returns_does_not_keep_the_process(self, tmp_path):
        """The same stuck verb in a process of its own: after the "did not
        drain" line, ``repro campaign resume`` merges and the process
        exits, without waiting for the verb."""
        script = f"""
import argparse, sys, threading
from repro import cli
from repro.campaign import CampaignCoordinator, CampaignServer, CampaignSpec
from repro.campaign import WorkUnit, unit_graphs
from repro.experiments.persistence import result_to_dict
from repro.experiments.runner import run_suite
from repro.service import endpoint
from repro.service.client import ServiceClient

spec = CampaignSpec.from_dict({SPEC.to_dict()!r})
coord = CampaignCoordinator.create(spec, {str(tmp_path / "c.jsonl")!r})
while not coord.done:
    unit = WorkUnit.from_dict(coord.lease("w0")["unit"])
    result = run_suite(unit_graphs(spec, unit), None, seed=spec.seed, on_error="record")
    coord.submit("w0", unit.unit_id, unit.digest, [result_to_dict(r) for r in result], [])
running, never = threading.Event(), threading.Event()
heartbeat = coord.heartbeat

def held_heartbeat(*args):
    running.set()
    never.wait(30)
    return heartbeat(*args)

coord.heartbeat = held_heartbeat

def spawn_workers(n, address, jobs):
    def call():
        with ServiceClient(address, retries=0, timeout=60.0) as client:
            client.call("campaign.heartbeat", {{"worker": "w0", "unit_id": "u00000"}})

    threading.Thread(target=call, daemon=True).start()
    assert running.wait(10)
    return []

cli._spawn_local_workers = spawn_workers
CampaignServer.serve_until_done = lambda server, poll=0.2, grace=0.0: None
endpoint.STOP_TIMEOUT_S = 0.5
args = argparse.Namespace(
    campaign_command="resume", socket=None, host="127.0.0.1", port=0,
    local_workers=1, jobs=1, lease_ttl=15.0, save=None,
)
sys.exit(cli._campaign_serve(coord, args))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert time.monotonic() - started < 10
        assert proc.returncode == 0, proc.stderr
        assert "did not drain in 0.5s" in proc.stderr
        assert "4/4 units merged" in proc.stdout


# ----------------------------------------------------------------------
# lease semantics
# ----------------------------------------------------------------------
class TestLeases:
    def test_sigkill_mid_unit_reschedules_only_lost_unit(self, tmp_path):
        """A worker killed -9 while holding a lease loses exactly that
        unit; it is re-granted after expiry and the merge still matches
        the serial run byte for byte."""
        coord = CampaignCoordinator.create(SPEC, tmp_path / "c.jsonl", lease_ttl=1.0)
        server = CampaignServer(coord, ("127.0.0.1", 0))
        server.start()
        try:
            host, port = server.bound_address
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(sys.path),
                REPRO_CAMPAIGN_UNIT_DELAY="30",
            )
            victim = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "campaign", "worker",
                    "--host", host, "--port", str(port), "--worker-id", "victim",
                ],
                env=env,
            )
            deadline = time.monotonic() + 20.0
            while not coord.leases and time.monotonic() < deadline:
                time.sleep(0.05)
            assert coord.leases, "victim never leased a unit"
            lost_unit = next(iter(coord.leases))
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10.0)

            # survivor finishes everything once the dead lease expires
            run_worker(
                address=server.bound_address, worker_id="survivor", patience=30.0
            )
        finally:
            server.stop()
        assert coord.done
        assert coord.attempts[lost_unit] == 2  # granted to victim, then survivor
        others = {u: n for u, n in coord.attempts.items() if u != lost_unit}
        assert set(others.values()) == {1}
        assert _merged_bytes(tmp_path, coord) == _serial_bytes(tmp_path)

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        coord = CampaignCoordinator.create(SPEC, tmp_path / "c.jsonl", lease_ttl=0.3)
        grant = coord.lease("w0")
        uid = grant["unit"]["index"]
        unit_id = f"u{uid:05d}"
        for _ in range(4):
            time.sleep(0.15)
            assert coord.heartbeat("w0", unit_id)["ok"]
            coord.expire_leases()
        assert unit_id in coord.leases  # still held after 2x ttl of wall time
        time.sleep(0.4)  # stop heartbeating: now it expires
        coord.expire_leases()
        assert unit_id not in coord.leases

    def test_duplicate_delivery_deduplicated(self, tmp_path):
        coord = CampaignCoordinator.create(SPEC, tmp_path / "c.jsonl", lease_ttl=10.0)
        grant = coord.lease("w0")
        unit = WorkUnit.from_dict(grant["unit"])
        result = run_suite(
            unit_graphs(SPEC, unit), None, seed=SPEC.seed, on_error="record"
        )
        from repro.experiments.persistence import result_to_dict

        payload = dict(
            worker="w0",
            unit_id=unit.unit_id,
            digest=unit.digest,
            results=[result_to_dict(r) for r in result],
            failures=[],
        )
        first = coord.submit(**payload)
        assert first["accepted"] and not first["duplicate"]
        second = coord.submit(**dict(payload, worker="w1"))
        assert not second["accepted"] and second["duplicate"]
        # journal holds exactly one unit record
        lines = (tmp_path / "c.jsonl").read_text().splitlines()
        assert sum(1 for l in lines if json.loads(l)["type"] == "unit") == 1

    def test_submit_digest_mismatch_rejected(self, tmp_path):
        from repro.service.protocol import ProtocolError

        coord = CampaignCoordinator.create(SPEC, tmp_path / "c.jsonl")
        unit = coord.units[0]
        with pytest.raises(ProtocolError, match="digest mismatch"):
            coord.submit("w0", unit.unit_id, "0" * 64, [], [])

    def test_submit_wrong_graphs_rejected(self, tmp_path):
        """A delivery whose graph-id set does not exactly match the
        unit's graphs is a protocol error, even when the cardinality
        happens to line up (duplicated result masking a missing one)."""
        from repro.experiments.persistence import result_to_dict
        from repro.service.protocol import ProtocolError

        coord = CampaignCoordinator.create(SPEC, tmp_path / "c.jsonl")
        grant = coord.lease("w0")
        unit = WorkUnit.from_dict(grant["unit"])
        result = run_suite(
            unit_graphs(SPEC, unit), None, seed=SPEC.seed, on_error="record"
        )
        payload = [result_to_dict(r) for r in result]
        # same length as the unit, but one graph duplicated / one missing
        bogus = [payload[0]] * len(payload)
        with pytest.raises(ProtocolError, match="do not match"):
            coord.submit("w0", unit.unit_id, unit.digest, bogus, [])
        # results from a different unit: right count, wrong graph ids
        other = WorkUnit.from_dict(coord.lease("w0")["unit"])
        with pytest.raises(ProtocolError, match="do not match"):
            coord.submit("w0", other.unit_id, other.digest, payload, [])
        assert not coord.completed  # nothing corrupt was merged
        valid = coord.submit("w0", unit.unit_id, unit.digest, payload, [])
        assert valid["accepted"]

    def test_poison_unit_quarantined(self, tmp_path):
        """A unit whose lease keeps expiring burns its attempt budget and
        is quarantined with per-graph poison failure records."""
        spec = CampaignSpec(
            graphs_per_cell=2,
            seed=SPEC.seed,
            n_tasks_range=SPEC.n_tasks_range,
            cells=(SPEC.cells[0],),
            unit_size=2,
            max_attempts=2,
        )
        clock = [0.0]
        coord = CampaignCoordinator(
            spec,
            CampaignJournal(tmp_path / "c.jsonl"),
            lease_ttl=1.0,
            clock=lambda: clock[0],
        )
        coord.journal.write_header(spec)
        for attempt in (1, 2):
            grant = coord.lease("crashy")
            assert grant["status"] == "granted" and grant["attempt"] == attempt
            clock[0] += 2.0  # lease expires, no delivery
        # an innocent bystander's lease request triggers retirement; the
        # quarantine must still be attributed to the worker whose lease
        # last burned, not the bystander
        final = coord.lease("bystander")
        assert final["status"] == "done"
        assert coord.quarantined == {"u00000"}
        quarantine_records = [
            json.loads(l)
            for l in (tmp_path / "c.jsonl").read_text().splitlines()
            if json.loads(l)["type"] == "quarantine"
        ]
        assert [q["worker"] for q in quarantine_records] == ["crashy"]
        merged = coord.merge()
        assert len(merged) == 0
        assert len(merged.failures) == 2  # one poison record per graph
        assert {fr.kind for fr in merged.failures} == {"poison"}
        assert all(fr.attempts == 2 for fr in merged.failures)
        assert {fr.graph_id for fr in merged.failures} == set(
            coord.units[0].graph_ids()
        )

    def test_quarantine_attempts_survive_coordinator_restart(self, tmp_path):
        spec = CampaignSpec(
            graphs_per_cell=2,
            seed=SPEC.seed,
            n_tasks_range=SPEC.n_tasks_range,
            cells=(SPEC.cells[0],),
            unit_size=2,
            max_attempts=2,
        )
        clock = [0.0]
        coord = CampaignCoordinator.create(spec, tmp_path / "c.jsonl", lease_ttl=1.0)
        coord._clock = lambda: clock[0]
        assert coord.lease("w0")["status"] == "granted"
        # coordinator "crashes" here; the grant is journaled
        coord2 = CampaignCoordinator(
            spec,
            CampaignJournal(tmp_path / "c.jsonl"),
            lease_ttl=1.0,
            state=CampaignJournal(tmp_path / "c.jsonl").load(),
            clock=lambda: clock[0],
        )
        assert coord2.attempts == {"u00000": 1}
        assert coord2.lease("w1")["attempt"] == 2
        clock[0] += 2.0
        assert coord2.lease("w1")["status"] == "done"  # quarantined, not re-granted
        assert coord2.quarantined == {"u00000"}


# ----------------------------------------------------------------------
# coordinator crash / resume
# ----------------------------------------------------------------------
class TestResume:
    def test_resume_from_journal_byte_identical(self, tmp_path):
        journal = tmp_path / "c.jsonl"
        coord = CampaignCoordinator.create(SPEC, journal, lease_ttl=5.0)
        server = CampaignServer(coord, ("127.0.0.1", 0))
        server.start()
        try:
            done = run_worker(
                address=server.bound_address,
                worker_id="w0",
                patience=15.0,
                max_units=2,
            )
        finally:
            server.stop()
        assert done == 2 and not coord.done

        resumed = CampaignCoordinator.resume(journal, lease_ttl=5.0)
        assert len(resumed.completed) == 2
        server2 = CampaignServer(resumed, ("127.0.0.1", 0))
        server2.start()
        try:
            run_worker(
                address=server2.bound_address, worker_id="w1", patience=15.0
            )
        finally:
            server2.stop()
        assert resumed.done
        # completed units were never re-granted
        assert all(n == 1 for n in resumed.attempts.values())
        assert _merged_bytes(tmp_path, resumed) == _serial_bytes(tmp_path)

    def test_resume_tolerates_torn_trailing_line(self, tmp_path):
        journal = tmp_path / "c.jsonl"
        coord = CampaignCoordinator.create(SPEC, journal, lease_ttl=5.0)
        server = CampaignServer(coord, ("127.0.0.1", 0))
        server.start()
        try:
            run_worker(
                address=server.bound_address,
                worker_id="w0",
                patience=15.0,
                max_units=1,
            )
        finally:
            server.stop()
        # simulate a crash mid-append: truncate the last record in half
        raw = journal.read_bytes()
        journal.write_bytes(raw[: len(raw) - len(raw.splitlines(True)[-1]) // 2])

        resumed = CampaignCoordinator.resume(journal, lease_ttl=5.0)
        # the torn unit record is discarded; its unit is simply redone
        assert len(resumed.completed) == 0
        server2 = CampaignServer(resumed, ("127.0.0.1", 0))
        server2.start()
        try:
            run_worker(
                address=server2.bound_address, worker_id="w1", patience=15.0
            )
        finally:
            server2.stop()
        assert resumed.done
        assert _merged_bytes(tmp_path, resumed) == _serial_bytes(tmp_path)

    def test_straggler_delivery_after_quarantine_survives_resume(self, tmp_path):
        """A late delivery un-quarantines a unit in the live coordinator;
        journal replay must agree.  (Regression: replay used to keep the
        unit in *both* completed and quarantined, so a resumed campaign
        double-counted it in done() and could declare victory with other
        units never computed — silently dropped from the merge.)"""
        from repro.experiments.persistence import result_to_dict

        spec = CampaignSpec(
            graphs_per_cell=4,
            seed=SPEC.seed,
            n_tasks_range=SPEC.n_tasks_range,
            cells=(SPEC.cells[0],),
            unit_size=2,
            max_attempts=1,
        )  # two units
        journal = tmp_path / "c.jsonl"
        clock = [0.0]
        coord = CampaignCoordinator.create(spec, journal, lease_ttl=1.0)
        coord._clock = lambda: clock[0]
        unit = WorkUnit.from_dict(coord.lease("slow")["unit"])
        clock[0] += 2.0  # slow's lease expires with no delivery
        # the next lease call retires u00000 (attempt budget burned) and
        # grants u00001
        unit2 = WorkUnit.from_dict(coord.lease("w1")["unit"])
        assert coord.quarantined == {unit.unit_id}
        # the straggler finally delivers the quarantined unit
        result = run_suite(
            unit_graphs(spec, unit), None, seed=spec.seed, on_error="record"
        )
        accepted = coord.submit(
            "slow",
            unit.unit_id,
            unit.digest,
            [result_to_dict(r) for r in result],
            [],
        )
        assert accepted["accepted"] and unit.unit_id not in coord.quarantined
        assert not coord.done  # u00001 still pending

        # coordinator restart: replay must match the live state machine
        resumed = CampaignCoordinator.resume(journal, lease_ttl=5.0)
        assert unit.unit_id in resumed.completed
        assert unit.unit_id not in resumed.quarantined
        assert not resumed.done  # the bug double-counted u00000 here
        result2 = run_suite(
            unit_graphs(spec, unit2), None, seed=spec.seed, on_error="record"
        )
        resumed.submit(
            "w2",
            unit2.unit_id,
            unit2.digest,
            [result_to_dict(r) for r in result2],
            [],
        )
        assert resumed.done
        # the merge is complete and byte-identical — no unit silently
        # missing, no poison records for a unit that was delivered
        assert _merged_bytes(tmp_path, resumed) == _serial_bytes(tmp_path, spec)

    def test_resume_requires_header(self, tmp_path):
        path = tmp_path / "not-a-campaign.jsonl"
        path.write_text('{"type": "grant", "v": 1, "unit_id": "u00000", '
                        '"worker": "w", "attempt": 1}\n')
        with pytest.raises(ValueError, match="no campaign header"):
            CampaignCoordinator.resume(path)

    def test_create_refuses_existing_journal(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignCoordinator.create(SPEC, path)
        with pytest.raises(ValueError, match="already exists"):
            CampaignCoordinator.create(SPEC, path)

    def test_journal_rejects_foreign_spec(self, tmp_path):
        path = tmp_path / "c.jsonl"
        coord = CampaignCoordinator.create(SPEC, path, lease_ttl=5.0)
        other = CampaignSpec(
            graphs_per_cell=1,
            seed=2,
            n_tasks_range=(8, 10),
            cells=(SPEC.cells[0],),
            unit_size=1,
        )
        # journal a completion for a unit the other spec doesn't have
        grant = coord.lease("w0")
        unit = WorkUnit.from_dict(grant["unit"])
        result = run_suite(
            unit_graphs(SPEC, unit), None, seed=SPEC.seed, on_error="record"
        )
        from repro.experiments.persistence import result_to_dict

        coord.submit(
            "w0",
            unit.unit_id,
            unit.digest,
            [result_to_dict(r) for r in result],
            [],
        )
        state = CampaignJournal(path).load()
        # completing u00000 is fine for `other` structurally, but a spec
        # with fewer units than the journal references must be refused
        tiny = CampaignJournal(path).load()
        tiny.completed = {"u00099": next(iter(state.completed.values()))}
        with pytest.raises(ValueError, match="different campaign"):
            CampaignCoordinator(other, CampaignJournal(path), state=tiny)


# ----------------------------------------------------------------------
# wire-protocol boundaries
# ----------------------------------------------------------------------
class TestProtocolBoundaries:
    def test_campaign_ops_rejected_by_scheduling_daemon(self):
        from repro.service import ServerThread

        with ServerThread(port=0) as st:
            with ServiceClient(st.address) as client:
                with pytest.raises(ServiceError) as exc_info:
                    client.call("campaign.lease", {"worker": "w0"})
        assert exc_info.value.code == 400
        assert "campaign coordinator" in exc_info.value.message

    def test_unknown_campaign_verbs_still_rejected(self):
        from repro.service.protocol import ProtocolError, decode_request

        with pytest.raises(ProtocolError):
            decode_request('{"op": "campaign.bogus", "params": {}}')
