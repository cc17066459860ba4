"""``repro top`` — a refreshing RED dashboard for the scheduling daemon.

Polls the daemon's ``stats`` verb at a fixed interval and renders Rate /
Errors / Duration plus the queue and cache gauges that explain them:

* **rate** — requests and errors per second, differenced between polls
  (the counters themselves are monotonic);
* **duration** — p50/p95/p99 from the server's fixed-bucket
  ``service.latency_ms`` histogram;
* **pressure** — queue depth vs capacity, in-flight groups, the share of
  queued ops run on the event loop rather than a worker thread, shed and
  deadline-miss counts, batch-group occupancy, index-cache hit rate.

:func:`render` is a pure function of two ``stats`` payloads (current and
previous) so the layout is unit-testable without a daemon; :func:`run_top`
owns the terminal loop (ANSI home-and-clear between frames, plain
append-only output when not a TTY, ``--once`` for scripts).

Pointed at a sharded router (``repro serve --workers N``) the same poll
returns the *merged* stats — the headline block is then the aggregate
across every worker — plus a ``shards`` list, rendered as one row per
shard (requests, errors, shed, p50/p99, queue, cache hit rate) so a
drained, restarting or unbalanced shard is visible at a glance.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Mapping

from .client import ServiceClient, ServiceError

__all__ = ["render", "run_top"]


def _rate(cur: Mapping, prev: "Mapping | None", key: str, interval: float | None):
    """Per-second rate of a monotonic counter between two polls."""
    if prev is None or not interval or interval <= 0:
        return None
    now = cur.get("counters", {}).get(key, 0.0)
    before = prev.get("counters", {}).get(key, 0.0)
    return max(0.0, (now - before) / interval)


def _fmt_rate(value: "float | None") -> str:
    return f"{value:7.1f}/s" if value is not None else "      n/a"


def _bar(frac: float, width: int = 20) -> str:
    frac = min(1.0, max(0.0, frac))
    filled = round(frac * width)
    return "#" * filled + "." * (width - filled)


def render(
    stats: Mapping[str, Any],
    prev: "Mapping[str, Any] | None" = None,
    interval: "float | None" = None,
) -> str:
    """One dashboard frame from a ``stats`` payload (pure; no I/O).

    Pointed at a campaign coordinator (``repro campaign run``), whose
    ``stats`` payload carries a ``campaign`` block instead of queue and
    latency gauges, renders campaign progress — units bar, workers,
    leases, quarantine and unit/heartbeat rates — instead of the RED
    frame.
    """
    if isinstance(stats.get("campaign"), Mapping):
        return _campaign_frame(stats, prev, interval)
    counters = stats.get("counters", {})
    requests = counters.get("service.requests", 0.0)
    errors = counters.get("service.errors", 0.0)
    shed = counters.get("service.shed", 0.0)
    deadline = counters.get("service.deadline_misses", 0.0)
    err_pct = (errors / requests * 100.0) if requests else 0.0

    depth = stats.get("queue_depth", 0)
    capacity = max(1, stats.get("queue_capacity", 1))
    cache = stats.get("index_cache", {})
    hits = counters.get("service.index_cache.hits", 0.0)
    misses = counters.get("service.index_cache.misses", 0.0)
    lookups = hits + misses
    hit_pct = (hits / lookups * 100.0) if lookups else 0.0
    on_loop = counters.get("service.exec.loop", 0.0)
    executed = on_loop + counters.get("service.exec.worker", 0.0)
    loop_pct = (on_loop / executed * 100.0) if executed else 0.0
    groups = counters.get("service.batch.groups", 0.0)
    grouped = counters.get("service.batch.grouped_requests", 0.0)
    occupancy = (grouped / groups) if groups else 0.0

    lat = stats.get("latency_ms") or {}
    p50, p95, p99 = (lat.get(q) for q in ("p50", "p95", "p99"))

    def _ms(v: "float | None") -> str:
        return f"{v:8.2f}" if isinstance(v, (int, float)) else "     n/a"

    lines = [
        f"repro service  up {stats.get('uptime_s', 0.0):.0f}s"
        + ("  [DRAINING]" if stats.get("draining") else ""),
        (
            f"rate     req {_fmt_rate(_rate(stats, prev, 'service.requests', interval))}"
            f"   err {_fmt_rate(_rate(stats, prev, 'service.errors', interval))}"
            f"   totals: {requests:.0f} req, {errors:.0f} err ({err_pct:.1f}%)"
        ),
        (
            f"latency  p50 {_ms(p50)} ms   p95 {_ms(p95)} ms   p99 {_ms(p99)} ms"
            f"   (n={lat.get('count', 0)})"
        ),
        (
            f"queue    [{_bar(depth / capacity)}] {depth}/{capacity}"
            f"   inflight {stats.get('inflight_groups', 0)}"
            f"   on loop {loop_pct:.1f}%"
            f"   shed {shed:.0f}   deadline {deadline:.0f}"
        ),
        (
            f"batch    occupancy {occupancy:.2f} req/group ({groups:.0f} groups)"
            f"   cache {hit_pct:.1f}% hit"
            f" ({cache.get('size', 0)}/{cache.get('capacity', 0)} resident)"
        ),
    ]
    shards = stats.get("shards")
    if isinstance(shards, list) and shards:
        # Sharded router: the block above is already the aggregate (merged
        # counters/histograms); add one row per worker under it.
        lines.append("")
        lines.append(
            f"{'shard':>5}  {'state':<7} {'req':>9} {'err':>7} {'shed':>6}"
            f" {'p50ms':>8} {'p99ms':>8} {'queue':>9} {'cache%':>7}"
        )
        for entry in shards:
            lines.append(_shard_row(entry))
    return "\n".join(lines)


def _campaign_frame(
    stats: Mapping[str, Any],
    prev: "Mapping[str, Any] | None",
    interval: "float | None",
) -> str:
    """One dashboard frame for a campaign coordinator's ``stats`` payload."""
    camp = stats["campaign"]
    counters = stats.get("counters", {})
    n_units = max(1, camp.get("n_units", 1))
    completed = camp.get("completed", 0)
    quarantined = camp.get("quarantined", 0)
    settled = completed + quarantined
    return "\n".join(
        [
            f"repro campaign {str(camp.get('campaign', '?'))[:12]}"
            f"  up {stats.get('uptime_s', 0.0):.0f}s"
            + ("  [DONE]" if camp.get("done") else ""),
            (
                f"units    [{_bar(settled / n_units)}] {completed}/{camp.get('n_units', 0)}"
                f" merged   quarantined {quarantined}"
                f"   attempts {camp.get('attempts', 0)}"
            ),
            (
                f"workers  {camp.get('workers', 0)} registered"
                f"   leases {camp.get('leased', 0)} active"
                f"   granted {counters.get('campaign.leases.granted', 0.0):.0f}"
                f"   expired {counters.get('campaign.leases.expired', 0.0):.0f}"
                f"   duplicates {counters.get('campaign.units.duplicate', 0.0):.0f}"
            ),
            (
                f"rate     units {_fmt_rate(_rate(stats, prev, 'campaign.units.completed', interval))}"
                f"   heartbeats {_fmt_rate(_rate(stats, prev, 'campaign.heartbeats', interval))}"
                f"   graphs {counters.get('campaign.graphs.completed', 0.0):.0f} done"
            ),
        ]
    )


def _shard_row(entry: Mapping[str, Any]) -> str:
    """One per-shard dashboard row from a router ``shards`` entry."""
    shard_id = entry.get("shard", "?")
    if "error" in entry:
        return f"{shard_id:>5}  {'down':<7} {entry.get('error', '')}"
    counters = entry.get("counters", {})
    lat = entry.get("latency_ms") or {}
    hits = counters.get("service.index_cache.hits", 0.0)
    misses = counters.get("service.index_cache.misses", 0.0)
    lookups = hits + misses
    hit_pct = (hits / lookups * 100.0) if lookups else 0.0
    state = "drain" if entry.get("draining") else "ok"

    def _ms(v: Any) -> str:
        return f"{v:8.2f}" if isinstance(v, (int, float)) else "     n/a"

    queue = f"{entry.get('queue_depth', 0)}/{entry.get('queue_capacity', 0)}"
    return (
        f"{shard_id:>5}  {state:<7}"
        f" {counters.get('service.requests', 0.0):9.0f}"
        f" {counters.get('service.errors', 0.0):7.0f}"
        f" {counters.get('service.shed', 0.0):6.0f}"
        f" {_ms(lat.get('p50'))} {_ms(lat.get('p99'))}"
        f" {queue:>9} {hit_pct:6.1f}%"
    )


def run_top(
    address: Any,
    *,
    interval: float = 2.0,
    once: bool = False,
    timeout: float = 5.0,
    stream: Any = None,
) -> int:
    """Poll ``stats`` and redraw until interrupted (or once)."""
    out = stream if stream is not None else sys.stdout
    clear = "\x1b[H\x1b[2J" if (once is False and out.isatty()) else ""
    prev: "Mapping[str, Any] | None" = None
    with ServiceClient(address, timeout=timeout) as client:
        while True:
            try:
                stats = client.stats()
            except ServiceError as exc:
                print(f"repro top: {exc}", file=sys.stderr)
                return 1
            frame = render(stats, prev, interval if prev is not None else None)
            print(f"{clear}{frame}", file=out, flush=True)
            if once:
                return 0
            prev = stats
            try:
                time.sleep(interval)
            except KeyboardInterrupt:  # pragma: no cover - interactive
                return 0
