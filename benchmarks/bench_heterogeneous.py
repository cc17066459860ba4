"""Heterogeneous-machine study (extension; DESIGN.md section 8).

The paper fixes homogeneous processors but cites MH's processor-speed
awareness.  This benchmark quantifies the heterogeneity axis: the same
mid-granularity graphs on four 4-processor machines of equal *total*
capacity but increasing skew, scheduled by HEFT (finish-time aware) and the
speed-blind earliest-start baseline.  The gap between the two is what
speed awareness is worth.
"""

from __future__ import annotations

import pytest

from repro import Machine
from repro.generation.suites import SuiteCell, generate_suite
from repro.hetero import HEFTScheduler, HeteroListScheduler

#: equal total speed (4.0), increasing skew
MACHINES = {
    "uniform [1,1,1,1]": Machine([1, 1, 1, 1]),
    "mild    [.5,1,1,1.5]": Machine([0.5, 1, 1, 1.5]),
    "skewed  [.5,.5,1,2]": Machine([0.5, 0.5, 1, 2]),
    "extreme [.25,.25,.5,3]": Machine([0.25, 0.25, 0.5, 3]),
}


@pytest.fixture(scope="module")
def graphs():
    cells = [SuiteCell(2, a, (20, 200)) for a in (2, 3)]
    return [
        sg.graph
        for sg in generate_suite(graphs_per_cell=4, cells=cells,
                                 n_tasks_range=(40, 70))
    ]


def _mean_makespans(graphs, factory):
    out = {}
    for label, machine in MACHINES.items():
        sched = factory(machine)
        total = 0.0
        for g in graphs:
            total += sched.schedule(g).makespan
        out[label] = total / len(graphs)
    return out


def test_heterogeneous_machines(benchmark, graphs, emit):
    from repro.hetero import CPOPScheduler

    heft = benchmark(_mean_makespans, graphs, HEFTScheduler)
    cpop = _mean_makespans(graphs, CPOPScheduler)
    hmh = _mean_makespans(graphs, HeteroListScheduler)
    lines = [
        f"Mean makespan on 4-processor machines of equal total speed "
        f"({len(graphs)} graphs)",
        f"{'machine':24s} {'HEFT':>10s} {'CPOP':>10s} {'HMH':>10s} {'HEFT gain':>10s}",
    ]
    for label in MACHINES:
        gain = hmh[label] / heft[label] - 1.0
        lines.append(
            f"{label:24s} {heft[label]:10.0f} {cpop[label]:10.0f} "
            f"{hmh[label]:10.0f} {gain:9.1%}"
        )
    emit("heterogeneous_machines.txt", "\n".join(lines))
    # HEFT must not lose to the speed-blind rule on any machine, and its
    # advantage must grow with skew
    for label in MACHINES:
        assert heft[label] <= hmh[label] * 1.01, label
    labels = list(MACHINES)
    first_gain = hmh[labels[0]] / heft[labels[0]]
    last_gain = hmh[labels[-1]] / heft[labels[-1]]
    assert last_gain >= first_gain - 1e-9
