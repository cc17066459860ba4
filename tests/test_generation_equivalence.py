"""The incremental generator stages against the scans they replaced.

:func:`~repro.generation.random_dag.adjust_anchor` keeps an out-degree
histogram and per-degree position lists instead of rescanning the graph on
every step, and :func:`~repro.generation.random_dag.assign_weights` keeps
the drawn edge weights in locals and writes each edge once.  The scan-based
versions are kept below, unchanged, as the reference.  On the same graph and
the same RNG state both must leave the same graph (``to_dict``, which also
fixes edge order), raise the same error with the same message, and leave
the RNG in the same state.

The inputs are small (up to 14 tasks, anchors 1-6) so that they reach the
branch the Table-1 suite never takes: no node of the mode's degree can
grow, and any growable non-sink is tried instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import GenerationError
from repro.core.metrics import anchor_out_degree, granularity
from repro.generation import layered, random_dag
from repro.generation.parse_tree import random_parse_tree
from repro.generation.random_dag import (
    adjust_anchor,
    assign_weights,
    generate_pdg,
    sample_target_granularity,
    sp_dag_from_tree,
)
from repro.generation.suites import PAPER_WEIGHT_RANGES

from conftest import task_graphs


# ----------------------------------------------------------------------
# reference: the scan-based stages
# ----------------------------------------------------------------------
def reference_adjust_anchor(graph, anchor, rng, *, max_steps=None, fallbacks=None):
    """Rescans every task on every step; ``fallbacks`` (a list) records
    each step that took the any-growable-non-sink branch."""
    if anchor < 1:
        raise GenerationError(f"anchor must be >= 1, got {anchor}")
    topo = graph.topological_order()
    pos = {t: i for i, t in enumerate(topo)}
    if max_steps is None:
        max_steps = 4 * graph.n_tasks + 16

    for _ in range(max_steps):
        mode = anchor_out_degree(graph, include_sinks=False)
        if mode == anchor:
            return
        candidates = [
            t
            for t in topo
            if graph.out_degree(t) == mode
            and (mode > anchor or len(_addable(graph, t, pos, topo)) >= anchor - mode)
        ]
        if not candidates and mode < anchor:
            if fallbacks is not None:
                fallbacks.append(mode)
            candidates = [
                t
                for t in topo
                if 0 < graph.out_degree(t) < anchor
                and len(_addable(graph, t, pos, topo)) >= anchor - graph.out_degree(t)
            ]
        if not candidates:
            raise GenerationError(
                f"cannot reach anchor {anchor} (mode stuck at {mode})"
            )
        v = candidates[int(rng.integers(len(candidates)))]
        if graph.out_degree(v) < anchor:
            targets = _addable(graph, v, pos, topo)
            picks = rng.choice(len(targets), size=anchor - graph.out_degree(v), replace=False)
            for i in picks:
                graph.add_edge(v, targets[int(i)], 0.0)
        else:
            out = graph.successors(v)
            drop = rng.choice(len(out), size=graph.out_degree(v) - anchor, replace=False)
            for i in drop:
                graph.remove_edge(v, out[int(i)])
    raise GenerationError(f"anchor adjustment did not converge to {anchor}")


def _addable(graph, v, pos, topo):
    succ = set(graph.successors(v))
    return [u for u in topo if pos[u] > pos[v] and u not in succ]


def reference_assign_weights(
    graph, rng, *, weight_range, target_granularity, jitter=0.3
):
    """Writes every edge twice: once drawn, once rescaled."""
    wmin, wmax = weight_range
    if not (0 < wmin <= wmax):
        raise GenerationError(f"bad weight range {weight_range}")
    if target_granularity <= 0:
        raise GenerationError("target granularity must be positive")
    for t in graph.tasks():
        graph.add_task(t, float(rng.integers(wmin, wmax + 1)))
    for t in graph.tasks():
        out = graph.successors(t)
        if not out:
            continue
        g_i = target_granularity * math.exp(rng.normal(0.0, jitter))
        max_edge = graph.weight(t) / g_i
        heavy = out[int(rng.integers(len(out)))]
        for s in out:
            if s == heavy:
                graph.add_edge(t, s, max_edge)
            else:
                graph.add_edge(t, s, max_edge * rng.uniform(0.3, 1.0))
    scale = granularity(graph) / target_granularity
    for u, v in graph.edges():
        graph.add_edge(u, v, graph.edge_weight(u, v) * scale)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def outcome(stage, graph, seed, **kwargs):
    """What ``stage`` leaves behind on a copy of ``graph``: the graph (or
    the error it raised) and the RNG state."""
    g = graph.copy()
    rng = np.random.default_rng(seed)
    try:
        stage(g, rng=rng, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return ("error", type(exc).__name__, str(exc), rng.bit_generator.state)
    return ("graph", g.to_dict(), rng.bit_generator.state)


def call(fn, *args, **kwargs):
    try:
        return ("graph", fn(*args, **kwargs).to_dict())
    except GenerationError as exc:
        return ("error", str(exc))


def small_sp_dags(n_seeds):
    """(seed, graph): series-parallel DAGs of 2-14 tasks from the parse-tree
    stage, the generator's own input to the anchor stage."""
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        for n in range(2, 15):
            yield seed, sp_dag_from_tree(random_parse_tree(n, rng))


ANCHORS = range(1, 7)


# ----------------------------------------------------------------------
# adjust_anchor
# ----------------------------------------------------------------------
class TestAdjustAnchor:
    def test_seeded_sp_dags(self):
        fallbacks: list[int] = []
        errors = 0
        for seed, graph in small_sp_dags(30):
            for anchor in ANCHORS:
                ours = outcome(adjust_anchor, graph, seed, anchor=anchor)
                ref = outcome(
                    reference_adjust_anchor, graph, seed, anchor=anchor, fallbacks=fallbacks
                )
                assert ours == ref, (seed, graph.n_tasks, anchor)
                errors += ours[0] == "error"
        # the evidence reaches the fallback branch and the error paths
        assert len(fallbacks) > 100
        assert errors > 100

    def test_too_few_steps_fail_alike(self):
        for seed, graph in small_sp_dags(6):
            for anchor in ANCHORS:
                for max_steps in (0, 1, 2):
                    kw = dict(anchor=anchor, max_steps=max_steps)
                    assert outcome(adjust_anchor, graph, seed, **kw) == outcome(
                        reference_adjust_anchor, graph, seed, **kw
                    )

    @given(
        graph=task_graphs(min_tasks=1, max_tasks=14),
        anchor=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        max_steps=st.one_of(st.none(), st.integers(0, 6)),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_dags(self, graph, anchor, seed, max_steps):
        kw = dict(anchor=anchor, max_steps=max_steps)
        assert outcome(adjust_anchor, graph, seed, **kw) == outcome(
            reference_adjust_anchor, graph, seed, **kw
        )


# ----------------------------------------------------------------------
# assign_weights
# ----------------------------------------------------------------------
class TestAssignWeights:
    def test_seeded_anchored_dags(self):
        for seed, graph in small_sp_dags(8):
            if graph.n_edges == 0:
                continue
            for anchor in (1, 3):
                g = graph.copy()
                try:
                    adjust_anchor(g, anchor, np.random.default_rng(seed))
                except GenerationError:
                    continue
                for band in range(5):
                    target = sample_target_granularity(band, np.random.default_rng(seed))
                    for wr in PAPER_WEIGHT_RANGES:
                        kw = dict(weight_range=wr, target_granularity=target)
                        assert outcome(assign_weights, g, seed, **kw) == outcome(
                            reference_assign_weights, g, seed, **kw
                        )

    @given(
        graph=task_graphs(min_tasks=1, max_tasks=14),
        target=st.floats(0.01, 10.0),
        wr=st.sampled_from([(20, 100), (1, 1), (5, 500), (0, 10), (10, 5)]),
        jitter=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_dags(self, graph, target, wr, jitter, seed):
        kw = dict(weight_range=wr, target_granularity=target, jitter=jitter)
        assert outcome(assign_weights, graph, seed, **kw) == outcome(
            reference_assign_weights, graph, seed, **kw
        )


# ----------------------------------------------------------------------
# whole generators
# ----------------------------------------------------------------------
class TestGenerators:
    def test_generate_pdg(self, monkeypatch):
        cases = [
            (seed, n, band, anchor)
            for seed in range(3)
            for n in range(2, 15)
            for band in (0, 2, 4)
            for anchor in ANCHORS
        ]

        def run():
            return [
                call(
                    generate_pdg,
                    np.random.default_rng(seed),
                    n_tasks=n,
                    band=band,
                    anchor=anchor,
                    weight_range=(20, 100),
                )
                for seed, n, band, anchor in cases
            ]

        ours = run()
        monkeypatch.setattr(random_dag, "adjust_anchor", reference_adjust_anchor)
        monkeypatch.setattr(random_dag, "assign_weights", reference_assign_weights)
        assert ours == run()
        assert {kind for kind, _ in ours} == {"graph", "error"}

    @pytest.mark.parametrize("mean_width", [1.0, 2.5, 4.0])
    def test_layered(self, monkeypatch, mean_width):
        cases = [(seed, n, band) for seed in range(4) for n in range(1, 15) for band in range(5)]

        def run():
            return [
                call(
                    layered.generate_layered_pdg,
                    np.random.default_rng(seed),
                    n_tasks=n,
                    band=band,
                    weight_range=(20, 200),
                    mean_width=mean_width,
                )
                for seed, n, band in cases
            ]

        ours = run()
        monkeypatch.setattr(layered, "assign_weights", reference_assign_weights)
        assert ours == run()
