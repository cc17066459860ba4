#!/usr/bin/env python
"""End-to-end telemetry smoke: live metrics + distributed tracing for real.

Run by the CI ``telemetry-smoke`` job (and by hand)::

    PYTHONPATH=src python benchmarks/smoke_telemetry.py

Scenarios, each asserting the telemetry contract against a real ``repro
serve`` subprocess:

1. **Metrics exposition** — 200 open-loop requests land on the daemon,
   then the ``metrics`` verb must return Prometheus text-format 0.0.4:
   every line parses, the request counter covers the load, the
   ``service.latency_ms`` histogram is present with monotone cumulative
   buckets.
2. **Distributed trace** — a traced client call mints one trace id; after
   the daemon drains, its ``--trace`` JSONL must contain the server-side
   spans (admission marker, queue wait, op execution) tagged with that
   same id — one trace stitched across the process boundary.
3. **`repro top --once`** — the dashboard renders one frame off the live
   daemon and exits 0.

Exits 0 when every assertion holds, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.generation.workloads import gaussian_elimination
from repro.obs.trace import Tracer, use_tracer
from repro.service.client import ServiceClient
from repro.service.loadgen import run_open_loop, summarize
from smoke_startup import wait_for_line

N_REQUESTS = 200


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def start_daemon(sock_path: str, trace_path: str) -> subprocess.Popen:
    """The daemon in a session of its own (see :func:`stop_daemon`)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            sock_path,
            "--threads",
            "2",
            "--trace",
            trace_path,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def wait_for_daemon(proc: subprocess.Popen) -> None:
    line = wait_for_line(proc, r"serving on ", 20.0)
    check(line is not None, "daemon did not come up")


def stop_daemon(proc: subprocess.Popen) -> None:
    """SIGTERM the daemon (it drains), then SIGKILL whatever is left of
    its process group."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the whole group has exited
        pass
    proc.wait()


def parse_prometheus(text: str) -> dict[str, float]:
    """Strict-enough 0.0.4 parser: every line must be a TYPE comment or a
    ``name{labels} value`` sample."""
    samples: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("# TYPE "):
            continue
        check(bool(line) and not line.startswith("#"), f"bad line {lineno}: {line!r}")
        name_and_labels, _, value = line.rpartition(" ")
        check(bool(name_and_labels), f"unparsable sample line {lineno}: {line!r}")
        try:
            samples[name_and_labels] = float(value)
        except ValueError:
            check(False, f"non-numeric sample value on line {lineno}: {line!r}")
    return samples


def scenario_metrics_exposition(sock_path: str) -> None:
    result = asyncio.run(
        run_open_loop(sock_path, rate=2000.0, n_requests=N_REQUESTS, seed=11)
    )
    summary = summarize(result)
    check(
        summary["completed"] == N_REQUESTS,
        f"load must complete, got {summary['completed']}/{N_REQUESTS}",
    )
    with ServiceClient(sock_path) as client:
        payload = client.metrics()
    check(
        payload["content_type"].startswith("text/plain; version=0.0.4"),
        f"wrong content type: {payload['content_type']}",
    )
    samples = parse_prometheus(payload["text"])
    # service.requests counts *queued* work: the adversarial mix's invalid
    # and unknown-op frames are rejected before the queue and land in the
    # error counter instead, so the two together must cover the load.
    served = samples.get("repro_service_requests_total", 0.0)
    errors = samples.get("repro_service_errors_total", 0.0)
    check(
        served >= 0.7 * N_REQUESTS,
        f"request counter {served} implausibly low for {N_REQUESTS} offered",
    )
    check(errors >= 1.0, "the mix's invalid frames must hit the error counter")
    buckets = [
        (key, value)
        for key, value in samples.items()
        if key.startswith("repro_service_latency_ms_bucket{")
    ]
    check(bool(buckets), "latency histogram missing from exposition")
    cumulative = [value for _, value in buckets]
    check(
        cumulative == sorted(cumulative),
        f"cumulative buckets must be monotone: {buckets}",
    )
    check(
        any(key.endswith('le="+Inf"}') for key, _ in buckets),
        "histogram must expose the +Inf bucket",
    )
    print(
        f"metrics verb  : {len(samples)} samples, {served:.0f} requests counted, "
        f"{len(buckets)} latency buckets (monotone)"
    )


def scenario_distributed_trace(sock_path: str) -> str:
    """Issue one traced request; return the client-minted trace id."""
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        with ServiceClient(sock_path) as client:
            client.schedule(gaussian_elimination(7), "DSC")
    spans = tracer.spans("client.schedule")
    check(len(spans) == 1, "client must record its schedule span")
    trace_id = spans[0]["args"].get("trace_id")
    check(bool(trace_id), "client span must carry a trace id")
    print(f"client trace  : schedule call under trace {trace_id}")
    return trace_id


def scenario_top_once(sock_path: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "top", "--socket", sock_path, "--once"],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    check(proc.returncode == 0, f"repro top --once failed: {proc.stderr}")
    check("latency" in proc.stdout, f"dashboard frame missing latency: {proc.stdout}")
    check("queue" in proc.stdout, f"dashboard frame missing queue: {proc.stdout}")
    print("top --once    : one frame rendered, exit 0")


def check_server_joined_trace(trace_path: str, trace_id: str) -> None:
    events = []
    for line in Path(trace_path).read_text().splitlines():
        if line.strip():
            events.append(json.loads(line))
    check(bool(events), "daemon wrote an empty trace")
    joined = {
        e["name"]
        for e in events
        if isinstance(e.get("args"), dict) and e["args"].get("trace_id") == trace_id
    }
    for name in ("service.admit", "service.queue", "service.schedule"):
        check(
            name in joined,
            f"server span {name} missing from trace {trace_id}: found {sorted(joined)}",
        )
    print(
        f"trace stitch  : {sorted(joined)} server spans joined client trace "
        f"{trace_id} across the process boundary"
    )


def main() -> int:
    # a SIGTERM (a CI timeout, say) unwinds through the finally below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory() as tmp:
        sock_path = str(Path(tmp) / "repro.sock")
        trace_path = str(Path(tmp) / "serve_trace.jsonl")
        proc = start_daemon(sock_path, trace_path)
        try:
            wait_for_daemon(proc)
            scenario_metrics_exposition(sock_path)
            trace_id = scenario_distributed_trace(sock_path)
            scenario_top_once(sock_path)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=20)
            check(rc == 0, f"daemon must exit 0 after SIGTERM, got {rc}")
            check_server_joined_trace(trace_path, trace_id)
        finally:
            stop_daemon(proc)
    print("telemetry smoke: all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
