"""Model-assumption ablation + local-search benchmark.

Two extension studies in one module:

* **One-port contention** — the paper's assumption 4 lets every processor
  send/receive unlimited messages concurrently.  Re-timing each heuristic's
  assignment under the one-port model (one send + one receive port per
  processor) measures how much each heuristic leans on that assumption:
  heuristics that scatter tasks (HU) generate the most traffic and should
  degrade the most.
* **Local search** — how much one round of task-move + cluster-merge
  improvement closes each heuristic's gap.
"""

from __future__ import annotations

import pytest

from repro import Machine, simulate_clustering
from repro.experiments.runner import PAPER_HEURISTIC_ORDER
from repro.generation.suites import SuiteCell, generate_suite
from repro.schedulers import get_scheduler
from repro.schedulers.improve import LocalSearchImprover

ONE_PORT = Machine(one_port=True)


@pytest.fixture(scope="module")
def graphs():
    cells = [SuiteCell(1, a, (20, 200)) for a in (2, 3)]
    return [
        sg.graph
        for sg in generate_suite(graphs_per_cell=4, cells=cells,
                                 n_tasks_range=(30, 55))
    ]


def _contention_penalty(graphs):
    """{heuristic: (mean free makespan, mean one-port makespan)}."""
    out = {}
    for name in PAPER_HEURISTIC_ORDER:
        sched = get_scheduler(name)
        free = port = 0.0
        for g in graphs:
            s = sched.schedule(g)
            free += s.makespan
            assignment = {p.task: p.processor for p in s}
            port += simulate_clustering(g, assignment, machine=ONE_PORT).makespan
        out[name] = (free / len(graphs), port / len(graphs))
    return out


def test_one_port_contention(benchmark, graphs, emit):
    rows = benchmark(_contention_penalty, graphs)
    lines = [
        f"One-port contention penalty (band 0.08-0.2, {len(graphs)} graphs)",
        f"{'heuristic':10s} {'free-comm':>10s} {'one-port':>10s} {'penalty':>9s}",
    ]
    for name, (free, port) in rows.items():
        lines.append(
            f"{name:10s} {free:10.0f} {port:10.0f} {port / free - 1:8.1%}"
        )
    emit("contention_penalty.txt", "\n".join(lines))
    for name, (free, port) in rows.items():
        assert port >= free - 1e-9, name
    # the maximally-spreading heuristic stays worst in absolute terms (its
    # *relative* penalty is smallest only because its baseline is already
    # communication-saturated)
    one_port = {n: p for n, (_, p) in rows.items()}
    assert one_port["HU"] == max(one_port.values())
    # the clustering heuristic generates the least traffic, so it keeps the
    # smallest absolute one-port makespan
    assert one_port["CLANS"] == min(one_port.values())


def test_port_aware_planner(benchmark, graphs, emit):
    """Planning WITH the one-port constraints vs re-timing blind schedules."""
    from repro.topology import PortAwareScheduler

    def run(graphs):
        aware_total = blind_total = 0.0
        for g in graphs:
            aware = PortAwareScheduler().schedule(g)
            aware_total += aware.makespan
            blind = get_scheduler("MH").schedule(g)
            blind_total += simulate_clustering(
                g, {p.task: p.processor for p in blind}, machine=ONE_PORT
            ).makespan
        return aware_total / len(graphs), blind_total / len(graphs)

    aware, blind = benchmark.pedantic(run, args=(graphs,), rounds=1, iterations=1)
    emit(
        "port_aware_planner.txt",
        f"One-port planning vs blind re-timing ({len(graphs)} graphs)\n"
        f"  MH re-timed under one-port : {blind:10.0f}\n"
        f"  MH1P (plans around ports)  : {aware:10.0f}\n"
        f"  planning advantage         : {blind / aware - 1:9.1%}",
    )
    assert aware <= blind * 1.05  # planning must not lose


def _improvement(graphs):
    out = {}
    for name in PAPER_HEURISTIC_ORDER:
        base_total = improved_total = 0.0
        improver = LocalSearchImprover(name, max_rounds=2)
        for g in graphs:
            base_total += get_scheduler(name).schedule(g).makespan
            improved_total += improver.schedule(g).makespan
        out[name] = (base_total / len(graphs), improved_total / len(graphs))
    return out


def test_local_search_improvement(benchmark, graphs, emit):
    rows = benchmark.pedantic(_improvement, args=(graphs,), rounds=1, iterations=1)
    lines = [
        f"Local-search improvement (band 0.08-0.2, {len(graphs)} graphs)",
        f"{'heuristic':10s} {'base':>10s} {'improved':>10s} {'gain':>8s}",
    ]
    for name, (base, improved) in rows.items():
        lines.append(
            f"{name:10s} {base:10.0f} {improved:10.0f} {1 - improved / base:7.1%}"
        )
    emit("local_search.txt", "\n".join(lines))
    for name, (base, improved) in rows.items():
        assert improved <= base + 1e-9, name
