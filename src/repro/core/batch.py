"""Batched structure-of-arrays analysis: one numpy pass per graph batch.

:mod:`repro.core.kernels` removed the per-*task* Python overhead by
compiling each :class:`~repro.core.taskgraph.TaskGraph` into a CSR
:class:`~repro.core.kernels.GraphIndex`; the remaining cost on suite-sized
workloads is the per-*graph* Python loop around those kernels.  This module
removes that loop: a :class:`GraphBatch` packs many compiled indexes into
pooled structure-of-arrays buffers — concatenated CSR adjacency with
per-graph node offsets, stacked node and edge weight vectors — and computes
t/b/hu/ALAP levels, critical-path lengths and the Table-1 classification
metrics for the whole batch in vectorized numpy.

The level sweeps are *levelized wavefronts*: nodes are grouped by
longest-path depth (computed once, by a vectorized Kahn wavefront over the
concatenated CSR), and one ``gather → add → maximum.reduceat`` pass per
depth level updates every node of every graph at that level at once.  A
graph batch of B graphs with maximum depth D needs D vectorized steps
instead of ``sum(n_k)`` Python loop iterations.  The same forward depth
grouping serves the backward (b-level) sweeps: edges strictly increase
depth, so processing depth groups in reverse is a valid reverse-topological
wavefront.

**Bit-exactness contract.**  Batched results are *float-identical* to the
per-graph kernels, not merely close: every per-node reduction is a max over
IEEE doubles (order independent, NaN-free inputs) and every accumulation
preserves the scalar kernels' operand order, e.g. ``(tl[j] + w[j]) + c``
is computed as a gather followed by two vector adds in that association.
Mean-style reductions (granularity, serial time) are deliberately *not*
vectorized — numpy's pairwise summation is not bitwise-equal to Python's
left fold — and use per-graph Python ``sum`` over the packed slices
instead.

**Fallback contract.**  ``REPRO_BATCH=0`` (or :func:`use_batch`) disables
the batch layer; so does an absent numpy (the import is guarded; the module
degrades to inert no-ops).  :func:`batch_analyze` is an *optional accelerator*: it
primes the same per-graph memo entries the kernels would compute lazily
(``("kernels.t_levels", True)`` etc. via ``TaskGraph.cached``), so
consumers that never call it — or call it with batching disabled — get
identical results from the per-graph paths.

Observability: each pack-and-prime pass is timed into the
``batch.analyze`` timer with ``batch.batches`` / ``batch.graphs`` /
``batch.nodes`` counters; graphs skipped because their memos are already
primed count as ``batch.already_primed``, cyclic graphs refused at compile
time count as ``batch.skipped_cyclic`` and have their input positions
reported on the returned :class:`BatchReport` (the compile itself is cached
and counted by the existing ``kernels.cache.*`` wiring).
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import Any, Iterable, Iterator, Sequence

try:  # numpy is a declared dependency, but the batch layer degrades without it
    import numpy as _np
except ImportError:  # pragma: no cover - tests monkeypatch _np instead
    _np = None

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .exceptions import CycleError
from .kernels import GraphIndex, graph_index
from .metrics import granularity_band
from .taskgraph import TaskGraph

__all__ = [
    "BatchReport",
    "GraphBatch",
    "batch_analyze",
    "batch_enabled",
    "numpy_available",
    "use_batch",
]

_ENV_FLAG = os.environ.get("REPRO_BATCH", "1").strip().lower()
_enabled: bool = _ENV_FLAG not in ("0", "false", "off", "no")


def numpy_available() -> bool:
    """Whether numpy imported successfully at module load."""
    return _np is not None


def batch_enabled() -> bool:
    """Whether the batched analysis paths are active (default: yes).

    Requires numpy; disabled by ``REPRO_BATCH=0`` or :func:`use_batch`.
    """
    return _enabled and _np is not None


@contextmanager
def use_batch(flag: bool) -> Iterator[None]:
    """Force the batch layer on/off within a ``with`` block (tests, benches)."""
    global _enabled
    prev = _enabled
    _enabled = bool(flag)
    try:
        yield
    finally:
        _enabled = prev


# Memo keys primed into TaskGraph.cached — must match the lazy computations
# in repro.core.kernels / repro.core.metrics / TaskGraph.serial_time.
_KEY_T = ("kernels.t_levels", True)
_KEY_B = ("kernels.b_levels", True)
_KEY_HU = ("kernels.b_levels", False)
_KEY_ALAP = ("kernels.alap", True)
_KEY_GRAN = "metrics.granularity"
_KEY_SERIAL = "serial_time"
# Keys whose presence marks a graph as already primed.  Granularity is
# excluded: it is legitimately absent on graphs where it is undefined, and
# re-batching those forever would defeat the skip.
_LEVEL_KEYS = (_KEY_T, _KEY_B, _KEY_HU, _KEY_ALAP)


def _ragged(starts: "Any", lens: "Any") -> "Any":
    """Indices of the concatenated ranges ``[starts[i], starts[i]+lens[i])``.

    The classic cumsum-of-deltas trick: an all-ones array gets a corrective
    delta written at each range boundary so its running sum walks every
    range in order.  Zero-length ranges are filtered first — several empty
    ranges in a row would otherwise collapse their boundary deltas onto one
    position.
    """
    nz = lens > 0
    if not nz.all():
        starts = starts[nz]
        lens = lens[nz]
    total = int(lens.sum())
    if total == 0:
        return _np.zeros(0, dtype=_np.intp)
    out = _np.ones(total, dtype=_np.intp)
    out[0] = starts[0]
    if len(starts) > 1:
        cum = _np.cumsum(lens[:-1])
        out[cum] = starts[1:] - (starts[:-1] + lens[:-1]) + 1
    _np.cumsum(out, out=out)
    return out


class GraphBatch:
    """Many compiled :class:`GraphIndex` objects packed as one CSR pool.

    Node ``i`` of graph ``k`` has pooled id ``node_off[k] + i``; all level
    accessors return arrays in this pooled *natural* order (use
    :meth:`per_graph` to split them back out).  Internally the pool is also
    kept in longest-path-depth order for the wavefront sweeps; the
    permutation is private.

    Instances are immutable snapshots of their indexes, like the indexes
    themselves; sweeps are memoized per batch.  Requires numpy — construct
    only when :func:`numpy_available` (callers normally go through
    :func:`batch_analyze`, which checks :func:`batch_enabled`).
    """

    __slots__ = (
        "indexes",
        "n_graphs",
        "n_nodes",
        "n_edges",
        "n_levels",
        "node_off",
        "_n_per",
        "_w",
        "_scnt",
        "_sw",
        "_sptr",
        "_order",
        "_lvl",
        "_pptr_o",
        "_psrc_o",
        "_pw_o",
        "_pwsrc_o",
        "_w_o",
        "_sptr_o",
        "_sdst_o",
        "_sw_o",
        "_fnodes",
        "_fstarts",
        "_flvl",
        "_memo",
    )

    def __init__(self, indexes: Sequence[GraphIndex]) -> None:
        if _np is None:  # pragma: no cover - guarded by batch_enabled()
            raise RuntimeError("GraphBatch requires numpy")
        np = _np
        self.indexes = list(indexes)
        gis = self.indexes
        G = len(gis)
        self.n_graphs = G
        self._memo: dict[Any, Any] = {}

        n_per = np.array([gi.n for gi in gis], dtype=np.intp)
        m_per = np.array([gi.m for gi in gis], dtype=np.intp)
        self._n_per = n_per
        node_off = np.zeros(G + 1, dtype=np.intp)
        np.cumsum(n_per, out=node_off[1:])
        self.node_off = node_off
        N = int(node_off[-1])
        M = int(m_per.sum())
        self.n_nodes = N
        self.n_edges = M

        if N == 0:
            z = np.zeros(0, dtype=np.intp)
            self._w = self._sw = np.zeros(0)
            self._scnt = self._order = z
            self._sptr = np.zeros(1, dtype=np.intp)
            self.n_levels = 0
            self._lvl = np.zeros(1, dtype=np.intp)
            self._pptr_o = self._sptr_o = np.zeros(1, dtype=np.intp)
            self._psrc_o = self._sdst_o = self._fnodes = self._fstarts = z
            self._pw_o = self._pwsrc_o = self._w_o = self._sw_o = np.zeros(0)
            self._flvl = np.zeros(1, dtype=np.intp)
            return

        # ---- pooled natural-order buffers (one concatenate per field)
        w = np.concatenate([gi.weight for gi in gis])
        self._w = w
        # Per-node degree counts: concatenate the (n_k + 1)-long ptr arrays,
        # diff, then drop the G-1 junction artifacts between graphs.
        P = np.concatenate([gi.pred_ptr for gi in gis])
        S = np.concatenate([gi.succ_ptr for gi in gis])
        bounds = np.cumsum(n_per + 1)[:-1] - 1
        pcnt = np.delete(np.diff(P), bounds)
        scnt = np.delete(np.diff(S), bounds)
        self._scnt = scnt

        node_base = np.repeat(node_off[:-1], m_per)
        if M:
            psrc = np.concatenate([gi.pred_idx for gi in gis]) + node_base
            pw = np.concatenate([gi.pred_w for gi in gis])
            sdst = np.concatenate([gi.succ_idx for gi in gis]) + node_base
            sw = np.concatenate([gi.succ_w for gi in gis])
        else:
            psrc = sdst = np.zeros(0, dtype=np.intp)
            pw = sw = np.zeros(0)
        self._sw = sw
        pptr = np.zeros(N + 1, dtype=np.intp)
        np.cumsum(pcnt, out=pptr[1:])
        sptr = np.zeros(N + 1, dtype=np.intp)
        np.cumsum(scnt, out=sptr[1:])
        self._sptr = sptr

        # ---- longest-path depth via one vectorized Kahn wavefront.
        # Depth grouping serves both sweep directions: a node has depth 0
        # iff it has no predecessors, so every pred segment at depth >= 1
        # is non-empty, and edges strictly increase depth, so reverse depth
        # order is a valid reverse-topological order.
        depth = np.zeros(N, dtype=np.intp)
        indeg = pcnt.copy()
        frontier = np.flatnonzero(indeg == 0)
        d = 0
        while frontier.size:
            depth[frontier] = d
            eidx = _ragged(sptr[frontier], scnt[frontier])
            if eidx.size == 0:
                break
            dec = np.bincount(sdst[eidx], minlength=N)
            indeg -= dec
            touched = np.flatnonzero(dec)
            frontier = touched[indeg[touched] == 0]
            d += 1
        self.n_levels = d + 1

        order = np.argsort(depth, kind="stable")
        self._order = order
        rank = np.empty(N, dtype=np.intp)
        rank[order] = np.arange(N)
        self._lvl = np.searchsorted(depth[order], np.arange(self.n_levels + 1))

        # ---- pred CSR in depth order (t-level sweeps gather by target)
        pcnt_o = pcnt[order]
        eidx = _ragged(pptr[:-1][order], pcnt_o)
        self._psrc_o = rank[psrc[eidx]]
        self._pw_o = pw[eidx]
        pptr_o = np.zeros(N + 1, dtype=np.intp)
        np.cumsum(pcnt_o, out=pptr_o[1:])
        self._pptr_o = pptr_o
        w_o = w[order]
        self._w_o = w_o
        self._pwsrc_o = w_o[self._psrc_o]

        # ---- succ CSR in depth order (b-level sweeps gather by source).
        # Sinks appear at any depth, so the backward sweep walks the
        # filtered node list `fnodes` (>= 1 successor) — its reduceat
        # segments are then always non-empty.
        scnt_o = scnt[order]
        eidx = _ragged(sptr[:-1][order], scnt_o)
        self._sdst_o = rank[sdst[eidx]]
        self._sw_o = sw[eidx]
        sptr_o = np.zeros(N + 1, dtype=np.intp)
        np.cumsum(scnt_o, out=sptr_o[1:])
        self._sptr_o = sptr_o
        fn = np.flatnonzero(scnt_o)
        self._fnodes = fn
        self._fstarts = sptr_o[:-1][fn]
        self._flvl = np.searchsorted(fn, self._lvl)

    # ------------------------------------------------------------------
    # level sweeps
    # ------------------------------------------------------------------
    def _unpermute(self, arr: "Any") -> "Any":
        out = _np.empty(self.n_nodes)
        out[self._order] = arr
        return out

    def t_levels(self, communication: bool = True) -> "Any":
        """Pooled t-levels in natural order (one float per node)."""
        key = ("t", bool(communication))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._t_sweep(communication)
        return got

    def _t_sweep(self, communication: bool) -> "Any":
        tl = _np.zeros(self.n_nodes)
        pptr, src = self._pptr_o, self._psrc_o
        pw, pwsrc, lvl = self._pw_o, self._pwsrc_o, self._lvl
        mred = _np.maximum.reduceat
        for L in range(1, self.n_levels):
            a, b = lvl[L], lvl[L + 1]
            ea, eb = pptr[a], pptr[b]
            # scalar kernel order: (tl[j] + w[j]) + c
            cand = tl[src[ea:eb]]
            cand += pwsrc[ea:eb]
            if communication:
                cand += pw[ea:eb]
            mred(cand, pptr[a:b] - ea, out=tl[a:b])
        return self._unpermute(tl)

    def b_levels(self, communication: bool = True) -> "Any":
        """Pooled b-levels (``communication=False`` gives Hu levels)."""
        key = ("b", bool(communication))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._b_sweep(communication)
        return got

    def _b_sweep(self, communication: bool) -> "Any":
        # Sinks take the scalar kernel's `best(0.0) + w[t]` initial value;
        # the sweep overwrites every non-sink.
        bl = self._w_o + 0.0
        dst, sw, w_o = self._sdst_o, self._sw_o, self._w_o
        lvl, flvl = self._lvl, self._flvl
        fnodes, fstarts, sptr_o = self._fnodes, self._fstarts, self._sptr_o
        mred = _np.maximum.reduceat
        for L in range(self.n_levels - 2, -1, -1):
            fa, fb = flvl[L], flvl[L + 1]
            if fa == fb:
                continue
            ea = fstarts[fa]
            eb = sptr_o[lvl[L + 1]]
            cand = bl[dst[ea:eb]]
            if communication:
                cand = cand + sw[ea:eb]
            mx = mred(cand, fstarts[fa:fb] - ea)
            sel = fnodes[fa:fb]
            bl[sel] = mx + w_o[sel]
        return self._unpermute(bl)

    def critical_path_lengths(self, communication: bool = True) -> "Any":
        """Per-graph critical-path length (max b-level; 0.0 for empty graphs)."""
        key = ("cp", bool(communication))
        got = self._memo.get(key)
        if got is None:
            bl = self.b_levels(communication)
            cp = _np.zeros(self.n_graphs)
            nz = self._n_per > 0
            if nz.any():
                cp[nz] = _np.maximum.reduceat(bl, self.node_off[:-1][nz])
            got = self._memo[key] = cp
        return got

    def alap(self, communication: bool = True) -> "Any":
        """Pooled ALAP start times, natural order."""
        key = ("alap", bool(communication))
        got = self._memo.get(key)
        if got is None:
            bl = self.b_levels(communication)
            cp = self.critical_path_lengths(communication)
            got = self._memo[key] = _np.repeat(cp, self._n_per) - bl
        return got

    # ------------------------------------------------------------------
    # classification metrics (paper section 3)
    # ------------------------------------------------------------------
    def granularities(self) -> list:
        """Per-graph section-3.1 granularity; ``None`` where undefined.

        ``None`` marks graphs where :func:`repro.core.metrics.granularity`
        would raise (no edges, or a non-sink whose heaviest out-edge has
        zero weight) — callers wanting the error go through the scalar
        function.  The mean is a per-graph Python ``sum`` over the packed
        terms: bitwise-identical to the scalar left fold, unlike numpy's
        pairwise summation.
        """
        got = self._memo.get("gran")
        if got is None:
            got = self._memo["gran"] = self._granularities()
        return got

    def _granularities(self) -> list:
        np = _np
        fn = np.flatnonzero(self._scnt)  # non-sinks, natural (= task) order
        if fn.size == 0:
            return [None] * self.n_graphs
        maxe = np.maximum.reduceat(self._sw, self._sptr[:-1][fn])
        # graphs containing a zero max out-edge are reported as None below;
        # silence the vector division's warning for those lanes
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self._w[fn] / maxe
        bad = maxe <= 0.0
        fb = np.searchsorted(fn, self.node_off)
        out: list = []
        for k in range(self.n_graphs):
            a, b = int(fb[k]), int(fb[k + 1])
            if a == b or bad[a:b].any():
                out.append(None)
                continue
            seg = terms[a:b].tolist()
            out.append(sum(seg) / len(seg))
        return out

    def granularity_bands(self) -> list:
        """Per-graph band index into
        :data:`~repro.core.metrics.GRANULARITY_BANDS` (``None`` mirrors
        :meth:`granularities`)."""
        return [
            granularity_band(g) if g is not None else None
            for g in self.granularities()
        ]

    def anchors(self, include_sinks: bool = False) -> list:
        """Per-graph anchor out-degree (mode, ties to the smaller degree);
        ``None`` where no task qualifies."""
        np = _np
        out: list = []
        for k in range(self.n_graphs):
            degs = self._scnt[self.node_off[k] : self.node_off[k + 1]]
            if not include_sinks:
                degs = degs[degs > 0]
            if degs.size == 0:
                out.append(None)
                continue
            counts = np.bincount(degs)
            best = counts.max()
            out.append(int(np.flatnonzero(counts == best)[0]))
        return out

    def weight_ranges(self) -> list:
        """Per-graph ``(w_min, w_max)`` node-weight range; ``None`` if empty."""
        np = _np
        nz = self._n_per > 0
        lo = np.zeros(self.n_graphs)
        hi = np.zeros(self.n_graphs)
        if nz.any():
            starts = self.node_off[:-1][nz]
            lo[nz] = np.minimum.reduceat(self._w, starts)
            hi[nz] = np.maximum.reduceat(self._w, starts)
        return [
            (float(lo[k]), float(hi[k])) if nz[k] else None
            for k in range(self.n_graphs)
        ]

    def serial_times(self) -> list:
        """Per-graph total work, bitwise-equal to ``TaskGraph.serial_time``
        (Python left-fold sum per graph, ``0`` for empty graphs)."""
        w = self._w
        off = self.node_off
        return [
            sum(w[off[k] : off[k + 1]].tolist()) for k in range(self.n_graphs)
        ]

    # ------------------------------------------------------------------
    # splitting pooled arrays
    # ------------------------------------------------------------------
    def per_graph(self, pooled: "Any") -> list:
        """Split a pooled natural-order array into per-graph Python lists."""
        off = self.node_off
        return [
            pooled[off[k] : off[k + 1]].tolist() for k in range(self.n_graphs)
        ]


def _prime(graph: TaskGraph, key: Any, value: Any) -> None:
    # cached() keeps an existing entry; ours is bit-identical anyway.
    graph.cached(key, lambda: value)


class BatchReport(int):
    """The number of graphs a :func:`batch_analyze` call primed, plus the
    input positions it *refused*.

    An ``int`` subclass so every existing ``batch_analyze(...) == n`` /
    truthiness use keeps working; :attr:`skipped` carries the 0-based
    positions (into the call's input iterable, before deduplication) of
    graphs skipped because compiling them raised
    :class:`~repro.core.exceptions.CycleError`.  Callers that mutate
    graphs — the adversarial search, the suite runner's prebatcher —
    check ``report.skipped`` to catch a bad mutation instead of silently
    scoring whatever stale memo the per-graph path would fall back to.
    """

    skipped: tuple[int, ...]

    def __new__(cls, analyzed: int = 0, skipped: tuple[int, ...] = ()) -> "BatchReport":
        self = super().__new__(cls, analyzed)
        self.skipped = tuple(skipped)
        return self

    def __repr__(self) -> str:
        return f"BatchReport(analyzed={int(self)}, skipped={self.skipped})"


def batch_analyze(
    graphs: Iterable[TaskGraph], *, classify: bool = True
) -> BatchReport:
    """Analyze many graphs in one vectorized pass, priming their memos.

    Compiles each graph's :class:`GraphIndex` through the existing
    :func:`~repro.core.kernels.graph_index` cache (already-compiled graphs
    are ``kernels.cache.hits``, not recompiles), packs the indexes into a
    :class:`GraphBatch`, runs the t/b/hu/ALAP sweeps, and installs the
    per-graph results under the exact memo keys the lazy kernels use —
    downstream consumers (schedulers, analysis, classification) then hit
    the memos and produce byte-identical output.  With ``classify=True``
    the section-3 granularity and serial time are primed as well.

    Returns a :class:`BatchReport` — the number of graphs analyzed (it
    compares equal to a plain ``int``), carrying the input positions of
    any cyclic graphs in ``skipped``.  A no-op reporting 0 when
    :func:`batch_enabled` is false.  Never raises for individual bad
    graphs: cyclic graphs are skipped with a ``batch.skipped_cyclic``
    counter bump and their positions reported (the per-graph path raises
    :class:`CycleError` on demand, exactly as without batching), and
    graphs whose granularity is undefined simply aren't primed for it.
    """
    if not batch_enabled():
        return BatchReport(0)
    todo: list[tuple[int, TaskGraph]] = []
    seen: set[int] = set()
    already = 0
    check_keys = _LEVEL_KEYS + ((_KEY_SERIAL,) if classify else ())
    for pos, g in enumerate(graphs):
        if id(g) in seen:
            continue
        seen.add(id(g))
        if all(g.has_cached(k) for k in check_keys):
            already += 1
            continue
        todo.append((pos, g))
    registry = get_registry()
    if already:
        registry.inc("batch.already_primed", already)
    if not todo:
        return BatchReport(0)
    with registry.timer("batch.analyze"):
        kept: list[TaskGraph] = []
        indexes: list[GraphIndex] = []
        skipped: list[int] = []
        for pos, g in todo:
            try:
                gi = graph_index(g)
            except CycleError:
                skipped.append(pos)
                continue
            kept.append(g)
            indexes.append(gi)
        if skipped:
            registry.inc("batch.skipped_cyclic", len(skipped))
        if not kept:
            return BatchReport(0, tuple(skipped))
        batch = GraphBatch(indexes)
        tracer = get_tracer()
        with tracer.span(
            "batch.analyze", cat="batch", graphs=len(kept), nodes=batch.n_nodes
        ) if tracer.enabled else nullcontext():
            tl = batch.per_graph(batch.t_levels(True))
            bl = batch.per_graph(batch.b_levels(True))
            hu = batch.per_graph(batch.b_levels(False))
            al = batch.per_graph(batch.alap(True))
            grans = batch.granularities() if classify else None
            serials = batch.serial_times() if classify else None
            for k, g in enumerate(kept):
                _prime(g, _KEY_T, tl[k])
                _prime(g, _KEY_B, bl[k])
                _prime(g, _KEY_HU, hu[k])
                _prime(g, _KEY_ALAP, al[k])
                if grans is not None:
                    if grans[k] is not None:
                        _prime(g, _KEY_GRAN, grans[k])
                    _prime(g, _KEY_SERIAL, serials[k])
        registry.inc("batch.batches")
        registry.inc("batch.graphs", len(kept))
        registry.inc("batch.nodes", batch.n_nodes)
    return BatchReport(len(kept), tuple(skipped))
