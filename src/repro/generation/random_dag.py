"""Random PDG construction: parse tree -> DAG -> anchor -> weights.

This mirrors the paper's pipeline (section 5.1): "The graph generation
system generates graphs using a random parse tree generator.  The graphs
are then modified by removing and inserting randomly connected edges to
match the given anchor out-degree", after which weights are assigned to land
in a target granularity band.

The three stages are exposed separately (:func:`sp_dag_from_tree`,
:func:`adjust_anchor`, :func:`assign_weights`) and composed by
:func:`generate_pdg`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort

import numpy as np

from ..core.exceptions import GenerationError
from ..core.metrics import (
    GRANULARITY_BANDS,
    anchor_out_degree,
    degree_mode,
    granularity,
    mean_granularity,
)
from ..core.taskgraph import Task, TaskGraph
from .parse_tree import SPKind, SPNode, random_parse_tree

__all__ = [
    "sp_dag_from_tree",
    "adjust_anchor",
    "assign_weights",
    "sample_target_granularity",
    "generate_pdg",
]


def sp_dag_from_tree(tree: SPNode) -> TaskGraph:
    """Expand a series-parallel parse tree into a DAG of unit-weight tasks.

    LINEAR nodes join consecutive children with complete bipartite
    sink-to-source edges; INDEPENDENT nodes take the disjoint union.  Tasks
    are numbered 0..n-1 in construction order; weights and edge costs are
    placeholders (1 and 0) until :func:`assign_weights` runs.
    """
    graph = TaskGraph()
    counter = [0]

    def build(node: SPNode) -> tuple[list[int], list[int]]:
        """Returns (sources, sinks) of the fragment."""
        if node.kind is SPKind.LEAF:
            t = counter[0]
            counter[0] += 1
            graph.add_task(t, 1.0)
            return [t], [t]
        parts = [build(c) for c in node.children]
        if node.kind is SPKind.INDEPENDENT:
            return (
                [s for srcs, _ in parts for s in srcs],
                [s for _, sinks in parts for s in sinks],
            )
        # LINEAR: chain the fragments
        for (_, sinks_a), (srcs_b, _) in zip(parts, parts[1:]):
            for u in sinks_a:
                for v in srcs_b:
                    graph.add_edge(u, v, 0.0)
        return parts[0][0], parts[-1][1]

    build(tree)
    return graph


def adjust_anchor(
    graph: TaskGraph,
    anchor: int,
    rng: np.random.Generator,
    *,
    max_steps: int | None = None,
) -> None:
    """Insert/remove edges in place until the anchor out-degree equals ``anchor``.

    One node at a time is driven to out-degree exactly ``anchor`` — chosen
    among nodes holding the current (wrong) mode — by adding forward edges
    (with respect to a fixed topological order, preserving acyclicity) or
    removing random outgoing edges.  Raises :class:`GenerationError` if the
    target cannot be reached (callers resample the parse tree).

    No step scans the graph.  Every successor of a node lies after it in
    the fixed order, so the node at position ``i`` of ``n`` can gain
    ``n - 1 - i - out_degree`` edges, and it can reach out-degree
    ``anchor`` exactly when ``i <= n - 1 - anchor``.  Per out-degree, the
    sorted positions of its non-sinks (whose lengths are the out-degree
    histogram) are updated for the one node each step changes; the
    candidates are then a prefix of the mode's position list (see
    DESIGN.md §4).
    """
    if anchor < 1:
        raise GenerationError(f"anchor must be >= 1, got {anchor}")
    topo = graph.topological_order()
    if max_steps is None:
        max_steps = 4 * graph.n_tasks + 16
    # The non-sinks' positions in ``topo``, sorted, by out-degree (nonempty
    # lists only).  A step moves one non-sink to degree ``anchor >= 1``, so
    # sinks stay sinks.
    positions: dict[int, list[int]] = {}
    for i, t in enumerate(topo):
        if graph.out_degree(t):
            positions.setdefault(graph.out_degree(t), []).append(i)
    last = len(topo) - 1 - anchor  # the last position that can reach the anchor

    for _ in range(max_steps):
        mode = degree_mode({d: len(at) for d, at in positions.items()})
        if mode == anchor:
            return
        candidates = positions[mode]
        if mode < anchor:
            candidates = candidates[: bisect_right(candidates, last)]
            if not candidates:
                # No mode-degree node can grow; try any growable non-sink.
                candidates = sorted(
                    i for d in range(1, anchor) for i in positions.get(d, ()) if i <= last
                )
        if not candidates:
            raise GenerationError(
                f"cannot reach anchor {anchor} (mode stuck at {mode})"
            )
        i = candidates[int(rng.integers(len(candidates)))]
        v = topo[i]
        degree = graph.out_degree(v)
        if degree < anchor:
            succ = graph.out_edges(v)
            targets = [u for u in topo[i + 1 :] if u not in succ]
            picks = rng.choice(len(targets), size=anchor - degree, replace=False)
            for j in picks:
                graph.add_edge(v, targets[int(j)], 0.0)
        else:
            out = graph.successors(v)
            drop = rng.choice(len(out), size=degree - anchor, replace=False)
            for j in drop:
                graph.remove_edge(v, out[int(j)])
        moved = positions[degree]
        del moved[bisect_left(moved, i)]
        if not moved:
            del positions[degree]
        insort(positions.setdefault(anchor, []), i)
    raise GenerationError(f"anchor adjustment did not converge to {anchor}")


def assign_weights(
    graph: TaskGraph,
    rng: np.random.Generator,
    *,
    weight_range: tuple[int, int],
    target_granularity: float,
    jitter: float = 0.3,
) -> None:
    """Assign node and edge weights in place, hitting the target granularity.

    Node weights are uniform integers in ``weight_range`` (section 3.3).
    Each non-sink's heaviest outgoing edge is sized so the node's
    weight/edge ratio scatters (log-normally, ``jitter`` sigma) around the
    target; remaining out-edges get 30–100% of the heaviest.  A single
    closing rescale of all edge weights makes the realized paper-formula
    granularity *exactly* the target.  The drawn edge weights stay in
    locals until the rescale, so each edge is written once.
    """
    wmin, wmax = weight_range
    if not (0 < wmin <= wmax):
        raise GenerationError(f"bad weight range {weight_range}")
    if target_granularity <= 0:
        raise GenerationError("target granularity must be positive")
    for t in graph.tasks():
        graph.add_task(t, float(rng.integers(wmin, wmax + 1)))
    # (task, successors, their edge weights before the rescale)
    drawn: list[tuple[Task, list[Task], list[float]]] = []
    for t in graph.tasks():
        out = graph.successors(t)
        if not out:
            continue
        g_i = target_granularity * math.exp(rng.normal(0.0, jitter))
        max_edge = graph.weight(t) / g_i
        heavy = out[int(rng.integers(len(out)))]
        weights = [max_edge if s == heavy else max_edge * rng.uniform(0.3, 1.0) for s in out]
        drawn.append((t, out, weights))
    scale = (
        mean_granularity((t, graph.weight(t), weights) for t, _, weights in drawn)
        / target_granularity
    )
    for t, out, weights in drawn:
        for s, w in zip(out, weights):
            graph.add_edge(t, s, w * scale)


#: Sampling windows for a target granularity inside each paper band.  The
#: open-ended bands get practical inner limits; all windows sit strictly
#: inside the band so float error in the closing rescale cannot leak out.
_BAND_WINDOWS: tuple[tuple[float, float], ...] = (
    (0.012, 0.075),
    (0.085, 0.19),
    (0.21, 0.78),
    (0.82, 1.95),
    (2.05, 8.0),
)


def sample_target_granularity(band: int, rng: np.random.Generator) -> float:
    """Log-uniform granularity target within paper band ``band`` (0..4)."""
    if not 0 <= band < len(GRANULARITY_BANDS):
        raise GenerationError(f"band must be 0..{len(GRANULARITY_BANDS) - 1}")
    lo, hi = _BAND_WINDOWS[band]
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def generate_pdg(
    rng: np.random.Generator,
    *,
    n_tasks: int,
    band: int,
    anchor: int,
    weight_range: tuple[int, int],
    max_attempts: int = 25,
) -> TaskGraph:
    """One random PDG in the given classification cell.

    Resamples the parse tree when anchor adjustment fails; verifies the
    realized classification before returning.
    """
    last_error: GenerationError | None = None
    for _ in range(max_attempts):
        tree = random_parse_tree(n_tasks, rng)
        graph = sp_dag_from_tree(tree)
        if graph.n_edges == 0:  # fully independent: no anchor/granularity
            continue
        try:
            adjust_anchor(graph, anchor, rng)
        except GenerationError as exc:
            last_error = exc
            continue
        target = sample_target_granularity(band, rng)
        assign_weights(graph, rng, weight_range=weight_range, target_granularity=target)
        lo, hi = GRANULARITY_BANDS[band]
        g = granularity(graph)
        if not (lo <= g < hi):  # pragma: no cover - rescale is exact
            last_error = GenerationError(f"granularity {g} missed band {band}")
            continue
        if anchor_out_degree(graph) != anchor:  # pragma: no cover
            last_error = GenerationError("anchor drifted")
            continue
        return graph
    raise GenerationError(
        f"could not generate a graph for band={band} anchor={anchor} "
        f"n={n_tasks}: {last_error}"
    )
