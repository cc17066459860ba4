"""Topology study (extension; completes MH's inert feature).

Appendix A.3 notes MH can fit programs to network topologies but the
paper's fully connected testbed "does not take advantage of this feature".
Here the feature runs: the same mid-granularity graphs are scheduled by
topology-aware MH onto networks of 8 processors with different hop
structures, quantifying what the clique assumption was worth.
"""

from __future__ import annotations

import pytest

from repro import Machine
from repro.generation.suites import SuiteCell, generate_suite
from repro.topology import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    Ring,
    Star,
    TopologyMHScheduler,
)

NETWORKS = [
    FullyConnected(8),
    Hypercube(3),
    Mesh2D(2, 4),
    Star(8),
    Ring(8),
]


@pytest.fixture(scope="module")
def graphs():
    cells = [SuiteCell(2, a, (20, 200)) for a in (2, 3)]
    return [
        sg.graph
        for sg in generate_suite(graphs_per_cell=4, cells=cells,
                                 n_tasks_range=(40, 70))
    ]


def _mean_speedups(graphs):
    out = {}
    for net in NETWORKS:
        sched = TopologyMHScheduler(Machine(network=net))
        total = 0.0
        for g in graphs:
            s = sched.schedule(g)
            total += g.serial_time() / s.makespan
        out[sched.name] = total / len(graphs)
    return out


def test_topology_study(benchmark, graphs, emit):
    speedups = benchmark(_mean_speedups, graphs)
    lines = [
        f"Topology-aware MH on 8 processors ({len(graphs)} mid-granularity graphs)",
        f"{'network':24s} {'mean speedup':>12s}",
    ]
    for name, s in sorted(speedups.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:24s} {s:12.2f}")
    emit("topology_study.txt", "\n".join(lines))
    # the clique cannot lose to any sparser 8-processor network on average
    clique = speedups["MH@FullyConnected8"]
    for name, s in speedups.items():
        assert clique >= s - 1e-9, name
