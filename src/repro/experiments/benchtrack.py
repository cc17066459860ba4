"""Perf-trajectory tracker: a ledger of benchmark baselines across PRs.

Every performance benchmark in ``benchmarks/`` writes a ``BENCH_*.json``
baseline; this module turns those point-in-time files into a *trajectory*:

* :func:`collect_metrics` ingests every ``BENCH_*.json`` it can find and
  extracts the **tracked metrics** — the handful of numbers the repo has
  promised not to regress (batch speedups, parallel-suite speedup,
  service throughput, batching effectiveness, disabled-telemetry
  overhead);
* ``repro bench track`` appends one entry per PR to ``BENCH_history.jsonl``
  at the repo root (newest last, append-only — the file *is* the
  trajectory);
* ``repro bench track --check`` compares freshly measured values against
  the last recorded entry and **fails with a readable delta report** when
  a tracked metric regresses beyond its tolerance.  CI's perf-smoke runs
  this after the quick benchmarks, so a regression shows up as a red
  check with the offending metric named, not as a slow drift nobody
  notices.

Tolerances are deliberately loose (benchmarks run on shared CI machines)
and per-metric: ratios like speedup get a relative band, count-like
metrics (index-cache misses) get an absolute one, and the overhead
percentages — which hover around zero and go negative — get a purely
absolute band.  ``--tolerance`` scales all of them for machines noisier
than CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

__all__ = [
    "TRACKED",
    "TrackedMetric",
    "Delta",
    "collect_metrics",
    "load_history",
    "append_entry",
    "compare",
    "format_report",
    "run_track",
]

#: Ledger file name (repo root), one JSON entry per line, newest last.
HISTORY_NAME = "BENCH_history.jsonl"


@dataclass(frozen=True)
class TrackedMetric:
    """One number the repo promises not to regress.

    ``path`` addresses into the baseline JSON with ``/`` separators
    (metric names contain dots); integer segments index lists, negative
    ones from the end.  ``direction`` says which way is good.  A value is
    a regression when it falls outside ``baseline ± (rel_tol·|baseline| +
    abs_tol)`` on the bad side.
    """

    file: str  # BENCH_*.json file name
    path: str  # /-separated path into the JSON
    direction: str  # "higher" or "lower" is better
    rel_tol: float = 0.0
    abs_tol: float = 0.0

    @property
    def key(self) -> str:
        return f"{self.file.removeprefix('BENCH_').removesuffix('.json')}:{self.path}"


#: The tracked metrics and their tolerances.  Batch/suite speedups and
#: service throughput are ratios measured on shared machines → wide
#: relative bands; cache-miss counts are near-deterministic → absolute;
#: overhead percentages hover near zero → absolute only.
TRACKED: tuple[TrackedMetric, ...] = (
    TrackedMetric("BENCH_batch.json", "levels/speedup", "higher", rel_tol=0.35),
    TrackedMetric("BENCH_batch.json", "classify/speedup", "higher", rel_tol=0.35),
    # The batched end-to-end ratio hovers near 1 (levels are a small slice
    # of suite wall time) — the band is absolute, guarding "batching slowed
    # the suite down", not a speedup promise.
    TrackedMetric("BENCH_batch.json", "end_to_end/speedup", "higher", abs_tol=0.25),
    TrackedMetric("BENCH_perf_suite.json", "speedup", "higher", rel_tol=0.35),
    TrackedMetric(
        "BENCH_service.json", "rate_ladder/-1/throughput_rps", "higher", rel_tol=0.40
    ),
    TrackedMetric(
        "BENCH_service.json", "batching/index_cache_misses", "lower", abs_tol=4.0
    ),
    # Sharded-tier throughput is the most machine-sensitive number tracked
    # (it multiplies the service band by process-scheduling noise) → the
    # widest relative band.
    TrackedMetric(
        "BENCH_service.json", "sharded/throughput_rps", "higher", rel_tol=0.40
    ),
    # Overhead is in percentage points and clamps at 0 — the band is the
    # tier-1 bound itself (5 points), purely absolute.
    TrackedMetric(
        "BENCH_observability.json",
        "metrics/histograms/bench.obs_overhead_pct.DSC/mean",
        "lower",
        abs_tol=5.0,
    ),
    TrackedMetric(
        "BENCH_observability.json",
        "metrics/histograms/bench.obs_overhead_pct.MCP/mean",
        "lower",
        abs_tol=5.0,
    ),
    # Campaign throughput rides on a chaos scenario (a SIGKILLed worker,
    # a coordinator restart, per-unit IPC) so the band is wide; the
    # signal tracked is "resume didn't get pathologically slower".
    TrackedMetric(
        "BENCH_campaign.json", "campaign/units_per_s", "higher", rel_tol=0.50
    ),
    # Adversarial-search throughput (batch-fanned candidate scoring) is a
    # wall-clock rate on shared machines → wide relative band.  best_gap,
    # by contrast, is fully deterministic (seeded search over seeded
    # generation, resolved ops) — the band is a rounding allowance only,
    # so any real behavior change in the ops/search/schedulers trips it.
    TrackedMetric(
        "BENCH_adversarial.json", "adversarial/steps_per_s", "higher", rel_tol=0.50
    ),
    TrackedMetric(
        "BENCH_adversarial.json", "adversarial/best_gap", "higher", abs_tol=1e-9
    ),
)


def _dig(obj: Any, path: str) -> Any:
    """Follow a ``/``-separated path; ``None`` when any hop is missing."""
    for part in path.split("/"):
        if isinstance(obj, list):
            try:
                obj = obj[int(part)]
            except (ValueError, IndexError):
                return None
        elif isinstance(obj, dict):
            obj = obj.get(part)
        else:
            return None
        if obj is None:
            return None
    return obj


def collect_metrics(
    search_dirs: "list[Path]", tracked: tuple[TrackedMetric, ...] = TRACKED
) -> tuple[dict[str, float], list[str]]:
    """Extract every tracked metric from the first directory (in order)
    holding its baseline file.

    Returns ``(metrics, notes)`` — notes name baselines that were absent
    or did not contain the tracked path, so coverage gaps are visible in
    the report rather than silently shrinking the ledger.
    """
    metrics: dict[str, float] = {}
    notes: list[str] = []
    for tm in tracked:
        source = None
        for d in search_dirs:
            candidate = d / tm.file
            if candidate.is_file():
                source = candidate
                break
        if source is None:
            notes.append(f"{tm.file}: not found (skipping {tm.key})")
            continue
        try:
            payload = json.loads(source.read_text())
        except (OSError, ValueError) as exc:
            notes.append(f"{source}: unreadable ({exc}); skipping {tm.key}")
            continue
        value = _dig(payload, tm.path)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            notes.append(f"{source}: no numeric value at {tm.path!r}")
            continue
        metrics[tm.key] = float(value)
    return metrics, notes


def load_history(path: Path) -> list[dict]:
    """All ledger entries, oldest first; tolerates a truncated last line
    (a killed append must not poison the trajectory)."""
    if not path.is_file():
        return []
    entries: list[dict] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("metrics"), dict):
            entries.append(obj)
    return entries


def append_entry(
    path: Path, metrics: dict[str, float], *, label: str | None = None
) -> dict:
    """Append one ledger entry (and return it)."""
    entry = {
        "label": label or "untitled",
        "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "metrics": metrics,
    }
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


@dataclass(frozen=True)
class Delta:
    """One tracked metric's movement against the last ledger entry."""

    metric: TrackedMetric
    baseline: float | None
    current: float | None
    regressed: bool

    def describe(self) -> str:
        tm = self.metric
        if self.current is None:
            return f"  ~ {tm.key}: not measured this run"
        if self.baseline is None:
            return f"  + {tm.key}: {self.current:.4g} (new metric, no baseline)"
        delta = self.current - self.baseline
        rel = f", {delta / self.baseline * 100.0:+.1f}%" if self.baseline else ""
        arrow = "REGRESSED" if self.regressed else "ok"
        return (
            f"  {'!' if self.regressed else ' '} {tm.key}: "
            f"{self.baseline:.4g} -> {self.current:.4g} "
            f"({delta:+.4g}{rel}) [{tm.direction} is better] {arrow}"
        )


def compare(
    current: dict[str, float],
    baseline: dict[str, float],
    *,
    tracked: tuple[TrackedMetric, ...] = TRACKED,
    tolerance_scale: float = 1.0,
) -> list[Delta]:
    """Judge each tracked metric; a missing current or baseline value is
    reported but never counted as a regression."""
    deltas: list[Delta] = []
    for tm in tracked:
        cur = current.get(tm.key)
        base = baseline.get(tm.key)
        regressed = False
        if cur is not None and base is not None:
            band = tm.rel_tol * tolerance_scale * abs(base) + tm.abs_tol * tolerance_scale
            if tm.direction == "higher":
                regressed = cur < base - band
            else:
                regressed = cur > base + band
        deltas.append(Delta(tm, base, cur, regressed))
    return deltas


def format_report(
    deltas: list[Delta], notes: list[str], *, baseline_label: str | None
) -> str:
    """The human-readable trajectory report: one line per tracked metric
    (baseline -> current, delta, verdict) plus coverage notes."""
    lines = ["perf trajectory vs " + (baseline_label or "(no recorded baseline)")]
    lines.extend(d.describe() for d in deltas)
    lines.extend(f"  ~ {note}" for note in notes)
    n_bad = sum(d.regressed for d in deltas)
    lines.append(
        f"{n_bad} regression(s) in {sum(d.current is not None for d in deltas)} "
        f"measured metric(s)"
        if n_bad
        else "no tracked metric regressed"
    )
    return "\n".join(lines)


def run_track(
    *,
    root: "Path | str" = ".",
    check: bool = False,
    tolerance_scale: float = 1.0,
    label: str | None = None,
) -> int:
    """The ``repro bench track`` entry point.

    Reads current values from ``benchmarks/out/`` (fresh runs) falling
    back to the committed repo-root baselines; compares against the last
    ``BENCH_history.jsonl`` entry.  ``--check`` only reports (exit 1 on
    regression); without it the measured values are appended to the
    ledger (exit 0).
    """
    root = Path(root)
    current, notes = collect_metrics([root / "benchmarks" / "out", root])
    history_path = root / HISTORY_NAME
    history = load_history(history_path)
    baseline_entry = history[-1] if history else None
    baseline = dict(baseline_entry["metrics"]) if baseline_entry else {}
    baseline_label = (
        f"{baseline_entry.get('label')} ({baseline_entry.get('recorded')})"
        if baseline_entry
        else None
    )
    deltas = compare(current, baseline, tolerance_scale=tolerance_scale)
    print(format_report(deltas, notes, baseline_label=baseline_label))
    regressed = any(d.regressed for d in deltas)
    if check:
        return 1 if regressed else 0
    if not current:
        print(f"nothing to record: no tracked BENCH_*.json found under {root}")
        return 1
    entry = append_entry(history_path, current, label=label)
    print(f"recorded {len(current)} metric(s) to {history_path} as {entry['label']!r}")
    return 0
