#!/usr/bin/env python
"""Scheduling a workflow onto a mixed cluster (heterogeneous extension).

The paper assumes homogeneous processors; real clusters mix generations of
hardware.  This example schedules a tiled Cholesky factorization onto
machines of equal *total* horsepower but increasing skew, comparing HEFT
(finish-time aware — it knows the fast nodes finish work sooner) against a
speed-blind earliest-start scheduler, and checks both schedules on their
machine.

    python examples/heterogeneous_cluster.py
"""

from repro import Machine
from repro.generation.workloads import cholesky
from repro.hetero import HEFTScheduler, HeteroListScheduler

MACHINES = {
    "uniform   1+1+1+1": Machine([1, 1, 1, 1]),
    "two-tier  .5+.5+1.5+1.5": Machine([0.5, 0.5, 1.5, 1.5]),
    "one-big   .5+.5+.5+2.5": Machine([0.5, 0.5, 0.5, 2.5]),
}


def main() -> None:
    graph = cholesky(6, comp=60.0, comm=15.0)
    print(
        f"Workflow: 6x6-tile Cholesky, {graph.n_tasks} tasks, "
        f"total work {graph.serial_time():g}\n"
    )
    print(f"{'machine':28s} {'HEFT':>8s} {'speed-blind':>12s} {'gap':>8s}")
    for label, machine in MACHINES.items():
        heft = HEFTScheduler(machine).schedule(graph)
        blind = HeteroListScheduler(machine).schedule(graph)
        heft.validate(graph, machine)
        blind.validate(graph, machine)
        gap = blind.makespan / heft.makespan - 1.0
        print(f"{label:28s} {heft.makespan:8.0f} {blind.makespan:12.0f} {gap:7.1%}")

    print(
        "\nAll three machines have the same total speed (4.0); only the"
        "\ndistribution differs.  The more skewed the machine, the more it"
        "\nmatters that the scheduler reasons about *finish* times on each"
        "\nprocessor rather than just start times."
    )


if __name__ == "__main__":
    main()
