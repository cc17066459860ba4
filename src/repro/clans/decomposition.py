"""Clan decomposition of a DAG (the parse used by CLANS).

A set of vertices ``C`` is a **clan** iff every vertex outside ``C`` relates
identically — ancestor, descendant, or unrelated, in the transitive closure —
to all members of ``C`` (appendix A.5).  That makes clans exactly the
*modules* of the 2-structure captured by
:class:`~repro.clans.relations.RelationMatrix`, and the unique clan parse
tree is its modular decomposition:

* If the **comparability graph** of a clan is disconnected, the clan is
  INDEPENDENT and its children are the components (pairwise unrelated sets).
* Else if the **incomparability graph** is disconnected, the clan is LINEAR
  and its children are the co-components; for a partial order these are
  always totally ordered (orientation between two co-components is uniform:
  mixed orientations would contradict transitivity along incomparability
  paths).
* Else the clan is PRIMITIVE; its children are its maximal proper strong
  modules, computed with smallest-module closures:  the smallest module
  containing ``{v, u}`` either is the whole clan or lies inside the (unique)
  maximal strong module containing ``v``, so the union of all proper
  closures from ``v`` *is* that child.

Primitive clans cost the most: one closure per (v, u) pair.  The same
lemma says when a closure may stop early.  Once a closure from ``v``
reaches a vertex known to lie outside ``v``'s maximal strong module, it is
not inside that module, so it is the whole clan.  The known-outside
vertices are those of earlier children and every earlier ``u`` whose
closure was the whole clan.  Such a closure stops there and does not grow
to the full set.  The closure's first wave is ``u``'s own splitter mask,
so when that mask already meets a known-outside vertex ``u`` is settled
without running the closure at all; that settles most pairs.

Relations are integer bitsets, one Python int per vertex row, built from
the compiled :class:`~repro.core.kernels.GraphIndex` adjacency rows: at
testbed sizes (n of order 100) the closure waves fit in a few machine words
each, and big-int and/or/xor beats the per-call overhead of many tiny numpy
ops by a wide margin.  Vertex ``k`` is the ``k``-th id of the index's
``topo_list`` (the graph's topological order), components are discovered in
ascending first-vertex order and smallest-module closures are seeded in
(v, u) order, so the tree, children order included, is deterministic.
Every :class:`ClanNode` keeps its bitmask and builds its ``members``
frozenset only on first access, so a parse whose consumer reads masks (as
CLANS does) builds no set per clan.  ``tests/test_kernels.py`` keeps a
numpy implementation vectorized over the int8 relation matrix, and
``tests/test_index_references.py`` the task-keyed parse with a frozenset
per clan, as test-only references that must produce the identical tree.

A clan is defined by ancestor, descendant and unrelated relations alone,
so the parse reads no weight.  :func:`decompose` memoizes it in the graph's
shape table (:meth:`~repro.core.taskgraph.TaskGraph.shape_cached`): a copy
or a weight-only edit of a parsed graph reuses the same tree, and only a
structural edit parses again.  Each computed parse counts once in the
``clans.parses`` counter, so ``clans.parses`` against the calls that asked
for a parse (``scheduler.CLANS``) shows the reuse.
"""

from __future__ import annotations

from ..core.exceptions import DecompositionError
from ..core.kernels import GraphIndex, graph_index
from ..core.taskgraph import Task, TaskGraph
from ..obs.metrics import get_registry
from .parse_tree import ClanKind, ClanNode
from .relations import RelationMatrix

__all__ = ["decompose", "discard_parse", "is_clan", "clan_parse_tree"]

#: Shape-table key of the memoized parse.
_PARSE_KEY = "clans.parse"


def clan_parse_tree(graph: TaskGraph) -> ClanNode:
    """The unique clan parse tree of ``graph`` (alias of :func:`decompose`)."""
    return decompose(graph)


def decompose(graph: TaskGraph) -> ClanNode:
    """The clan parse tree of a DAG, parsed once per graph shape.

    Raises :class:`DecompositionError` for an empty graph (no parse exists).
    Every node carries its vertex bitmask over ``graph``'s topological order
    (:class:`ClanNode`), which is also ``graph_index(graph).topo_list``'s.

    The tree is memoized in ``graph``'s shape table, so the same tree object
    comes back for this graph, for its copies and after weight-only edits,
    until a structural edit.  It is shared and read-only: callers must not
    change any node's children, kind, task or mask.
    """
    if graph.n_tasks == 0:
        raise DecompositionError("cannot decompose an empty graph")
    return graph.shape_cached(_PARSE_KEY, lambda: _parse(graph))


def discard_parse(graph: TaskGraph) -> None:
    """Drop ``graph``'s memoized parse, if any.

    Eviction hook for size-bounded caches (the service's LRU graph cache),
    beside :func:`repro.core.kernels.discard_index`: a long-lived graph
    object otherwise pins its parse for life.  The next :func:`decompose`
    call parses again.
    """
    graph.uncache(_PARSE_KEY)


def _parse(graph: TaskGraph) -> ClanNode:
    get_registry().inc("clans.parses")
    gi = graph_index(graph)
    br = _BitRelations(gi)
    order = [gi.tasks[i] for i in gi.topo_list]
    return _decompose_bits(br, br.full, order)


# ----------------------------------------------------------------------
# bitset relations
#
# One Python int per vertex row: bit k of ``desc[i]`` marks a strict
# descendant, etc.  Vertex ``k`` is position ``k`` of the index's
# ``topo_list``, the same ascending topological order as RelationMatrix,
# so "lowest set bit" == "minimum topological index".
# ----------------------------------------------------------------------


class _BitRelations:
    """Transitive ancestor/descendant relations as per-vertex bitmasks.

    Built from the compiled index's adjacency rows.  ``desc`` is built in
    reverse topological order from each vertex's successors and ``anc`` in
    topological order from its predecessors, in one pass over the edges
    each.  Every ancestor ``j`` of ``i`` reaches ``i`` through some direct
    predecessor ``p``, and ``j`` is ``p`` itself or an ancestor of ``p``,
    whose row is complete because ``p`` comes first.  So ``anc[i]`` is
    exactly the set of ``j`` with ``i`` in ``desc[j]``: the transpose of
    ``desc``.
    """

    __slots__ = ("n", "full", "desc", "anc", "comp", "unrel")

    def __init__(self, gi: GraphIndex) -> None:
        topo = gi.topo_list
        n = gi.n
        position = [0] * n
        for k, i in enumerate(topo):
            position[i] = k
        rows = gi.succ_rows
        desc = [0] * n
        for k in range(n - 1, -1, -1):
            m = 0
            for j, _ in rows[topo[k]]:
                b = position[j]
                m |= (1 << b) | desc[b]
            desc[k] = m
        rows = gi.pred_rows
        anc = [0] * n
        for k in range(n):
            m = 0
            for j, _ in rows[topo[k]]:
                b = position[j]
                m |= (1 << b) | anc[b]
            anc[k] = m
        full = (1 << n) - 1
        comp = [d | a for d, a in zip(desc, anc)]
        self.n = n
        self.full = full
        self.desc = desc
        self.anc = anc
        self.comp = comp
        self.unrel = [full & ~c & ~(1 << k) for k, c in enumerate(comp)]


def _mask_components(subset: int, adj: list[int]) -> list[int]:
    """Connected components of ``subset`` under symmetric adjacency ``adj``.

    Components come out in ascending order of their smallest vertex.
    """
    comps: list[int] = []
    rest = subset
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            nxt = 0
            m = frontier
            while m:
                lsb = m & -m
                nxt |= adj[lsb.bit_length() - 1]
                m ^= lsb
            frontier = nxt & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _decompose_bits(br: _BitRelations, subset: int, order: list[Task]) -> ClanNode:
    """Recursive modular decomposition on the vertex bitmask ``subset``.

    ``order`` is the topologically ordered task list the bits index.
    """
    if subset & (subset - 1) == 0:
        task = order[subset.bit_length() - 1]
        return ClanNode(ClanKind.LEAF, task=task, mask=subset, order=order)

    comps = _mask_components(subset, br.comp)
    if len(comps) > 1:
        children = [_decompose_bits(br, c, order) for c in comps]
        return ClanNode(
            ClanKind.INDEPENDENT, children=children, mask=subset, order=order
        )

    cocomps = _mask_components(subset, br.unrel)
    if len(cocomps) > 1:
        children = [_decompose_bits(br, c, order) for c in cocomps]
        # Total order between co-components: ascending minimum topological
        # index (== ascending lowest bit) orders them; verify consecutive
        # representatives are uniformly oriented.
        for a, b in zip(cocomps, cocomps[1:]):
            ra = (a & -a).bit_length() - 1
            if not br.desc[ra] & (b & -b):
                raise DecompositionError(
                    "linear clan children are not totally ordered (internal error)"
                )
        return ClanNode(ClanKind.LINEAR, children=children, mask=subset, order=order)

    parts = _primitive_children_bits(br, subset)
    children = [_decompose_bits(br, part, order) for part in parts]
    return ClanNode(ClanKind.PRIMITIVE, children=children, mask=subset, order=order)


def _primitive_children_bits(br: _BitRelations, subset: int) -> list[int]:
    """Maximal proper strong modules of a primitive 2-structure (as masks).

    Closures are seeded in ascending (v, u) order; each part's smallest
    vertex is its seed, so parts come out ascending.

    The splitters of a vertex ``w`` against the seed ``v`` are the vertices
    whose relation to ``w`` differs from their relation to ``v``.  Another
    vertex ``x`` relates alike to both iff it is an ancestor of both or of
    neither and a descendant of both or of neither, so (``w`` and ``v``
    themselves aside, which are members by then) the splitter mask is
    ``(anc[w] ^ anc[v]) | (desc[w] ^ desc[v])``.

    ``outside`` collects the vertices known to lie outside ``v``'s maximal
    strong module: earlier parts, and every ``u`` whose closure was the
    whole clan.  A closure that reaches one of them is the whole clan (see
    :func:`_smallest_module_bits`), so it stops there, and no closure grows
    through an earlier part.  A closure's first wave is ``u``'s own
    splitter mask, so when that mask meets ``outside`` the closure would
    stop at its first wave; ``u`` joins ``outside`` without running it.
    """
    parts: list[int] = []
    assigned = 0
    anc = br.anc
    desc = br.desc
    while assigned != subset:
        rest = subset & ~assigned
        vbit = rest & -rest
        v = vbit.bit_length() - 1
        av, dv = anc[v], desc[v]
        member = vbit
        outside = assigned
        su = rest ^ vbit
        while su:
            ubit = su & -su
            su ^= ubit
            if member & ubit:
                continue
            u = ubit.bit_length() - 1
            if outside & ((anc[u] ^ av) | (desc[u] ^ dv)):
                outside |= ubit  # the closure's first wave reaches outside
                continue
            closure = _smallest_module_bits(br, subset, vbit, ubit, outside)
            if closure != subset:  # proper: lies inside v's maximal module
                member |= closure
            else:
                outside |= ubit
        parts.append(member)
        assigned |= member
    if len(parts) < 2:
        raise DecompositionError(
            "primitive clan produced fewer than two children (internal error)"
        )
    return parts


def _smallest_module_bits(
    br: _BitRelations, subset: int, vbit: int, ubit: int, outside: int
) -> int:
    """Smallest module (within ``subset``) containing ``vbit`` and ``ubit``.

    Wave-batched closure: whenever vertices join, every outside vertex whose
    relation to any of them differs from its (uniform) relation to the seed
    becomes a splitter and joins in the next wave (splitter masks as in
    :func:`_primitive_children_bits`).

    ``outside`` holds vertices known to lie outside the maximal strong
    module of ``vbit``.  A closure that reaches one of them contains that
    vertex and ``vbit``, so by the module docstring's lemma it is the whole
    clan: it returns ``subset`` at once instead of growing to it.
    """
    anc = br.anc
    desc = br.desc
    v = vbit.bit_length() - 1
    av, dv = anc[v], desc[v]
    member = vbit | ubit
    new = ubit
    while new:
        splitters = 0
        m = new
        while m:
            lsb = m & -m
            z = lsb.bit_length() - 1
            splitters |= (anc[z] ^ av) | (desc[z] ^ dv)
            m ^= lsb
        add = splitters & subset & ~member
        if add & outside:
            return subset
        member |= add
        new = add
        if member == subset:
            break
    return member


def is_clan(graph: TaskGraph, candidate: set[Task] | frozenset[Task]) -> bool:
    """Check the paper's clan condition directly (used as a test oracle).

    ``candidate`` must be a non-empty subset of the graph's tasks.
    """
    cand = set(candidate)
    tasks = set(graph.tasks())
    if not cand or not cand <= tasks:
        raise DecompositionError("candidate must be a non-empty subset of tasks")
    rm = RelationMatrix(graph)
    outside = tasks - cand
    members = list(cand)
    x0 = members[0]
    for z in outside:
        r0 = rm.rel(z, x0)
        for x in members[1:]:
            if rm.rel(z, x) != r0:
                return False
    return True
