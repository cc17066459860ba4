"""Clan parse-tree node structures.

The clan decomposition of a DAG is a rooted tree whose leaves are the graph's
tasks and whose internal nodes are clans classified as

* **LINEAR** — the children are totally ordered by the ancestor relation and
  must execute sequentially;
* **INDEPENDENT** — the children are pairwise incomparable and may execute
  concurrently;
* **PRIMITIVE** — the clan admits no linear/independent split; its children
  are its maximal proper sub-clans (strong modules).

(Appendix A.5 of the paper; "linear"/"independent"/"primitive" are the
paper's terms for what modular-decomposition literature calls series,
parallel and prime nodes.)

The decomposition works on vertex bitmasks, so a node it builds keeps its
clan as a mask over the graph's topological order and turns it into the
``members`` frozenset only when someone asks: CLANS reads the masks and
never pays for a set per clan.  A node built by hand from ``members`` works
the same everywhere else.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Sequence

from ..core.taskgraph import Task

__all__ = ["ClanKind", "ClanNode"]


class ClanKind(Enum):
    """Classification of a parse-tree node (appendix A.5)."""

    LEAF = "leaf"
    LINEAR = "linear"
    INDEPENDENT = "independent"
    PRIMITIVE = "primitive"


class ClanNode:
    """One clan in the parse tree.

    ``members`` is the frozen set of graph tasks in this clan.  For LINEAR
    nodes the children are stored in execution (ancestor-to-descendant)
    order; for INDEPENDENT nodes the order is arbitrary but deterministic;
    for PRIMITIVE nodes the children are stored in a topological order of the
    quotient.

    A node from :func:`~repro.clans.decompose` also has ``mask``: bit ``k``
    is set iff ``order[k]`` is a member, where ``order`` is the graph's
    topological order, shared by every node of the tree.  Its ``members``
    set is built from the mask on first access.  A node built by hand as
    ``ClanNode(kind, members, children, task=...)`` has ``mask`` None.
    """

    __slots__ = ("kind", "children", "task", "mask", "_members", "_order")

    def __init__(
        self,
        kind: ClanKind,
        members: frozenset[Task] | None = None,
        children: list["ClanNode"] | None = None,
        task: Task | None = None,  # set iff kind == LEAF
        *,
        mask: int | None = None,
        order: Sequence[Task] | None = None,
    ) -> None:
        if members is None and (mask is None or order is None):
            raise ValueError("a ClanNode needs members, or a mask and an order")
        self.kind = kind
        self.children: list[ClanNode] = [] if children is None else children
        self.task = task
        self.mask = mask
        self._members = members
        self._order = order

    @property
    def members(self) -> frozenset[Task]:
        members = self._members
        if members is None:
            order = self._order
            found = []
            m = self.mask
            while m:
                low = m & -m
                found.append(order[low.bit_length() - 1])
                m ^= low
            members = self._members = frozenset(found)
        return members

    @property
    def is_leaf(self) -> bool:
        return self.kind is ClanKind.LEAF

    @property
    def size(self) -> int:
        if self._members is None:
            return self.mask.bit_count()
        return len(self._members)

    def leaves(self) -> Iterator["ClanNode"]:
        """All leaf descendants (including self if a leaf), left to right."""
        if self.is_leaf:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def walk(self) -> Iterator["ClanNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        """Height of the subtree (a leaf has depth 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def count(self, kind: ClanKind) -> int:
        return sum(1 for node in self.walk() if node.kind is kind)

    def to_text(self, indent: str = "") -> str:
        """Human-readable rendering of the parse tree."""
        if self.is_leaf:
            return f"{indent}leaf({self.task!r})"
        label = self.kind.value.upper()
        lines = [f"{indent}{label} {{{', '.join(map(repr, sorted(self.members, key=repr)))}}}"]
        for child in self.children:
            lines.append(child.to_text(indent + "  "))
        return "\n".join(lines)

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"ClanNode(leaf, task={self.task!r})"
        return (
            f"ClanNode({self.kind.value}, size={self.size}, "
            f"n_children={len(self.children)})"
        )
