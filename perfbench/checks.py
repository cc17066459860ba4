"""Correctness checks applied to every timed run.

Each check returns a list of problems, one per failed op (empty = correct),
so the harness can count failed ops against attempted ops.  The checks hold
for any seed; the pins that only apply at the paper's default seed live
with their workloads.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence

__all__ = [
    "sha256",
    "suite_problems",
    "pin_problems",
    "reply_problem",
    "replay_problems",
    "bytes_problems",
    "count_problems",
]

#: Relative slack for the lower-bound check: a makespan and a bound summed in
#: different orders may differ in the last bits.
_BOUND_RTOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def suite_problems(suite: Sequence, results: Sequence, heuristics: Sequence[str]) -> list[str]:
    """Every suite graph has a result for every heuristic, in suite order, and
    no makespan beats ``best_bound`` for its processor count."""
    from repro.core.lowerbounds import best_bound

    problems = []
    if len(results) != len(suite):
        problems.append(f"{len(suite)} graphs but {len(results)} results")
    for sg, gr in zip(suite, results):
        if gr.graph_id != sg.graph_id:
            problems.append(f"result {gr.graph_id} in the place of {sg.graph_id}")
            continue
        bounds: dict[int, float] = {}
        for name in heuristics:
            hr = gr.results.get(name)
            if hr is None:
                problems.append(f"{sg.graph_id}: no {name} result")
                continue
            p = hr.n_processors
            if p not in bounds:
                bounds[p] = best_bound(sg.graph, p)
            bound = bounds[p]
            if hr.parallel_time < bound * (1.0 - _BOUND_RTOL):
                problems.append(
                    f"{sg.graph_id}: {name} makespan {hr.parallel_time!r} "
                    f"< lower bound {bound!r}"
                )
    return problems


def pin_problems(what: str, got, pinned) -> list[str]:
    """A value pinned at the default seed must reproduce exactly."""
    return [] if got == pinned else [f"{what}: got {got!r}, pinned {pinned!r}"]


def reply_problem(expected: tuple[str, object], got: tuple[str, object]) -> str | None:
    """``("ok", result_bytes)`` or ``("error", status)`` must match exactly."""
    if got == expected:
        return None
    return f"expected {_short(expected)}, got {_short(got)}"


def replay_problems(record) -> list[str]:
    """The instance's recipe (base spec + op log) must rebuild its digest."""
    from repro.adversarial.store import verify_replay
    from repro.core.exceptions import AdversarialError

    try:
        verify_replay(record)
    except AdversarialError as exc:
        return [str(exc)]
    return []


def bytes_problems(what: str, got: bytes, reference: bytes) -> list[str]:
    if got == reference:
        return []
    return [
        f"{what}: {len(got)} bytes sha256 {sha256(got)[:12]} differ from the "
        f"reference's {len(reference)} bytes sha256 {sha256(reference)[:12]}"
    ]


def count_problems(what: str, got: Mapping, reference: Mapping) -> list[str]:
    """Work counts must repeat exactly; lists every count that moved."""
    return [
        f"{what}: {key} = {got.get(key)!r}, expected {reference.get(key)!r}"
        for key in sorted(set(got) | set(reference))
        if got.get(key) != reference.get(key)
    ]


def _short(outcome: tuple[str, object]) -> str:
    kind, value = outcome
    if isinstance(value, bytes):
        return f"{kind} ({len(value)} bytes, sha256 {sha256(value)[:12]})"
    return f"{kind} {value!r}"
