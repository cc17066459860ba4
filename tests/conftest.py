"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import ClansScheduler, TaskGraph


# ----------------------------------------------------------------------
# hand-built graphs
# ----------------------------------------------------------------------
@pytest.fixture
def paper_example() -> TaskGraph:
    """The appendix worked example (Figures 8/10/12/14/16).

    Nodes 1..5 with weights 10/20/30/40/50; CLANS schedules it in parallel
    time 130 on 2 processors (Figure 16 C).
    """
    g = TaskGraph()
    for t, w in [(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]:
        g.add_task(t, w)
    g.add_edge(1, 2, 5)
    g.add_edge(1, 3, 6)
    g.add_edge(3, 4, 3)
    g.add_edge(2, 5, 4)
    g.add_edge(4, 5, 4)
    return g


@pytest.fixture
def diamond() -> TaskGraph:
    """a -> {b, c} -> d with uniform weights 10 and comm 4."""
    g = TaskGraph()
    for t in "abcd":
        g.add_task(t, 10)
    g.add_edge("a", "b", 4)
    g.add_edge("a", "c", 4)
    g.add_edge("b", "d", 4)
    g.add_edge("c", "d", 4)
    return g


@pytest.fixture
def chain5() -> TaskGraph:
    g = TaskGraph()
    for i in range(5):
        g.add_task(i, 10)
        if i:
            g.add_edge(i - 1, i, 3)
    return g


@pytest.fixture
def single() -> TaskGraph:
    g = TaskGraph()
    g.add_task("only", 7)
    return g


@pytest.fixture
def two_sources_join() -> TaskGraph:
    """Two independent sources feeding one sink — heavy communication."""
    g = TaskGraph()
    g.add_task("s1", 10)
    g.add_task("s2", 10)
    g.add_task("join", 10)
    g.add_edge("s1", "join", 100)
    g.add_edge("s2", "join", 100)
    return g


@pytest.fixture
def wide_fork() -> TaskGraph:
    """One source fanning out to six tasks then joining."""
    g = TaskGraph()
    g.add_task("src", 10)
    g.add_task("sink", 10)
    for i in range(6):
        g.add_task(i, 20)
        g.add_edge("src", i, 2)
        g.add_edge(i, "sink", 2)
    return g


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def hunt_graphs() -> list[tuple[str, TaskGraph]]:
    """The advbench hunt's base graph and seeded neighborhoods around it.

    Every one has 48 tasks and a primitive clan of 22-27 children: the
    shape the adversarial hunt decomposes and schedules thousands of
    times, and the one where primitive-clan closures and the quotient
    mini-schedule do the most work.
    """
    import random

    from repro.adversarial.env import PerturbationEnv
    from repro.adversarial.store import build_base_graph
    from repro.experiments.advbench import BASE_SPEC

    base = build_base_graph(BASE_SPEC)
    graphs = [("advbench-base", base)]
    for seed in range(4):
        env = PerturbationEnv(base.copy(), random.Random(seed))
        for step in range(2):
            cands = env.neighborhood(4)
            graphs += [
                (f"hunt-s{seed}-{step}-{i}", g) for i, (_, g) in enumerate(cands)
            ]
            env.apply(cands[-1][0])
    return graphs


class RecordingClans(ClansScheduler):
    """CLANS that keeps every (quotient, decision) pair it makes, in
    decision order."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.decided: list = []

    def _decide(self, q):
        decision = super()._decide(q)
        self.decided.append((q, decision))
        return decision


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def task_graphs(
    draw,
    min_tasks: int = 1,
    max_tasks: int = 12,
    max_weight: int = 50,
    max_comm: int = 120,
    connected_bias: float = 0.35,
):
    """Random weighted DAGs: edges follow a fixed topological order.

    ``connected_bias`` is the probability of each forward edge existing;
    weights are positive integers, communication costs non-negative.
    """
    n = draw(st.integers(min_tasks, max_tasks))
    g = TaskGraph()
    weights = draw(
        st.lists(st.integers(1, max_weight), min_size=n, max_size=n)
    )
    for i in range(n):
        g.add_task(i, weights[i])
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()) and draw(
                st.floats(0, 1, allow_nan=False)
            ) < connected_bias:
                g.add_edge(i, j, draw(st.integers(0, max_comm)))
    return g


@st.composite
def tie_graphs(draw, max_tasks: int = 14):
    """DAGs built for ties: unit or few distinct weights, zero-cost or
    equal edges, and layered shapes where every task of a layer has the
    same level, so priorities, startbounds and start times tie often.  A
    weight of 1e-12 puts finish times on the schedulers' 1e-12 tie
    tolerance."""
    n = draw(st.integers(1, max_tasks))
    weight = draw(
        st.sampled_from([st.just(1.0), st.sampled_from([0.0, 1e-12, 1.0, 2.0])])
    )
    cost = draw(
        st.sampled_from([st.just(0.0), st.just(1.0), st.sampled_from([0.0, 1.0, 3.0])])
    )
    g = TaskGraph()
    for i in range(n):
        g.add_task(i, draw(weight))
    if draw(st.booleans()):
        # layers of equal width, each task feeding every task of the next
        width = draw(st.integers(1, 4))
        for i in range(n):
            for j in range((i // width + 1) * width, min(n, (i // width + 2) * width)):
                g.add_edge(i, j, draw(cost))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.integers(0, 3)) == 0:
                    g.add_edge(i, j, draw(cost))
    return g


@st.composite
def weighted_dags_with_edges(draw, min_tasks: int = 3, max_tasks: int = 14):
    """DAGs guaranteed to contain at least one edge (granularity defined)."""
    g = draw(task_graphs(min_tasks=min_tasks, max_tasks=max_tasks))
    if g.n_edges == 0:
        tasks = g.tasks()
        g.add_edge(tasks[0], tasks[1], draw(st.integers(1, 60)))
    # granularity needs strictly positive max out-edge per non-sink
    for t in tasks_with_zero_max_edge(g):
        s = g.successors(t)[0]
        g.add_edge(t, s, draw(st.integers(1, 60)))
    return g


def tasks_with_zero_max_edge(g: TaskGraph):
    out = []
    for t in g.tasks():
        edges = g.out_edges(t)
        if edges and max(edges.values()) <= 0:
            out.append(t)
    return out


def serialized(results) -> bytes:
    """The bytes ``save_results`` writes for ``results``: byte identity."""
    from repro.experiments.persistence import save_results

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.json"
        save_results(results, path)
        return path.read_bytes()
