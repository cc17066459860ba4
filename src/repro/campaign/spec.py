"""Campaign specs and their deterministic sharding into work units.

A *campaign* is a suite run described by data instead of by a live process:
which graph classes (suite cells), how many graphs per cell, the master
seed and size range, which heuristics, and the worker-side fault policy.
Because :func:`repro.generation.suites.generate_suite` derives every
cell's RNG from the cell identity and the master seed alone, any process
holding the spec can regenerate any slice of the campaign bit-identically
— which is what lets workers on other hosts receive a few hundred bytes
of JSON instead of megabytes of graphs.

Sharding: :meth:`CampaignSpec.units` splits the campaign into
:class:`WorkUnit` objects — contiguous index ranges within one cell, in
the exact order the serial suite generator yields graphs.  Concatenating
unit results in unit order therefore reproduces the serial
``run_suite`` result *byte for byte* (the campaign tier's core
invariant).  Every unit carries a digest binding it to the spec digest
plus its coordinates, so a result delivery can be verified against the
exact work it claims to answer — the exactly-once merge key.

Regeneration: a cell's graphs come from one sequential RNG, so graph ``i``
can only be reached by drawing graphs ``0..i-1`` first.  A
:class:`CellCursors` keeps each cell's live generator between units, so a
worker that takes a cell's units in order generates the cell once.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass

from ..core import wire
from ..generation.suites import SuiteCell, SuiteGraph, generate_suite, suite_cells

__all__ = [
    "CampaignSpec",
    "WorkUnit",
    "CellCursors",
    "unit_graphs",
    "campaign_suite",
]


@dataclass(frozen=True)
class WorkUnit:
    """One leasable slice of a campaign: cell × ``[start, stop)`` indices.

    ``index`` is the unit's position in the campaign's deterministic unit
    order (also the merge order).  ``digest`` binds the unit to its spec:
    two campaigns sharing a cell never produce interchangeable units.
    """

    index: int
    band: int
    anchor: int
    weight_range: tuple[int, int]
    start: int
    stop: int
    digest: str

    @property
    def unit_id(self) -> str:
        return f"u{self.index:05d}"

    @property
    def cell(self) -> SuiteCell:
        return SuiteCell(self.band, self.anchor, self.weight_range)

    @property
    def n_graphs(self) -> int:
        return self.stop - self.start

    def graph_ids(self) -> list[str]:
        """The suite graph ids this unit covers (derivable without
        generating the graphs — ids encode only cell and index)."""
        lo, hi = self.weight_range
        return [
            f"b{self.band}-a{self.anchor}-w{lo}_{hi}-#{i}"
            for i in range(self.start, self.stop)
        ]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "cell": [self.band, self.anchor, list(self.weight_range)],
            "start": self.start,
            "stop": self.stop,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkUnit":
        band, anchor, wr = data["cell"]
        return cls(
            index=data["index"],
            band=band,
            anchor=anchor,
            weight_range=tuple(wr),
            start=data["start"],
            stop=data["stop"],
            digest=data["digest"],
        )


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to regenerate and execute a campaign anywhere.

    ``cells=None`` means the paper's full 60-cell Table-1 grid.
    ``heuristics=None`` means the paper's five (in paper order).
    ``unit_size`` graphs per work unit balances lease granularity (a crash
    loses at most one unit's work) against coordination overhead.
    ``timeout``/``retries`` are the worker-side per-schedule-call fault
    policy (always run under ``on_error="record"`` so per-heuristic
    failures travel back as data).  ``max_attempts`` lease grants without
    a completed delivery quarantine the unit as poison.
    """

    graphs_per_cell: int = 35
    seed: int = 19940815
    n_tasks_range: tuple[int, int] = (40, 100)
    cells: "tuple[tuple[int, int, tuple[int, int]], ...] | None" = None
    heuristics: "tuple[str, ...] | None" = None
    validate: bool = False
    unit_size: int = 5
    timeout: "float | None" = None
    retries: int = 0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.graphs_per_cell < 1:
            raise ValueError("graphs_per_cell must be positive")
        if self.unit_size < 1:
            raise ValueError("unit_size must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")

    # ------------------------------------------------------------------
    # serialization / identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "graphs_per_cell": self.graphs_per_cell,
            "seed": self.seed,
            "n_tasks_range": list(self.n_tasks_range),
            "cells": (
                None
                if self.cells is None
                else [[b, a, list(wr)] for b, a, wr in self.cells]
            ),
            "heuristics": None if self.heuristics is None else list(self.heuristics),
            "validate": self.validate,
            "unit_size": self.unit_size,
            "timeout": self.timeout,
            "retries": self.retries,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        cells = data.get("cells")
        heuristics = data.get("heuristics")
        return cls(
            graphs_per_cell=data["graphs_per_cell"],
            seed=data["seed"],
            n_tasks_range=tuple(data["n_tasks_range"]),
            cells=(
                None
                if cells is None
                else tuple((b, a, tuple(wr)) for b, a, wr in cells)
            ),
            heuristics=None if heuristics is None else tuple(heuristics),
            validate=data.get("validate", False),
            unit_size=data.get("unit_size", 5),
            timeout=data.get("timeout"),
            retries=data.get("retries", 0),
            max_attempts=data.get("max_attempts", 3),
        )

    def digest(self) -> str:
        """SHA-256 of the canonical spec encoding — the campaign identity.

        Uses the wire codec's canonical ``dumps`` so two processes always
        agree on the digest of the same spec.
        """
        return hashlib.sha256(
            wire.dumps(self.to_dict()).encode("utf-8")
        ).hexdigest()

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------
    def suite_cells(self) -> list[SuiteCell]:
        """The campaign's cells, in deterministic (serial suite) order."""
        if self.cells is None:
            return suite_cells()
        return [SuiteCell(b, a, tuple(wr)) for b, a, wr in self.cells]

    def units(self) -> list[WorkUnit]:
        """The campaign's work units in merge order.

        Each cell is chunked into ``unit_size`` index ranges; cells appear
        in serial suite order, so unit order == serial graph order.
        """
        spec_digest = self.digest()
        units: list[WorkUnit] = []
        for cell in self.suite_cells():
            for start in range(0, self.graphs_per_cell, self.unit_size):
                stop = min(start + self.unit_size, self.graphs_per_cell)
                index = len(units)
                coords = wire.dumps(
                    {
                        "spec": spec_digest,
                        "cell": [cell.band, cell.anchor, list(cell.weight_range)],
                        "start": start,
                        "stop": stop,
                    }
                )
                units.append(
                    WorkUnit(
                        index=index,
                        band=cell.band,
                        anchor=cell.anchor,
                        weight_range=cell.weight_range,
                        start=start,
                        stop=stop,
                        digest=hashlib.sha256(coords.encode("utf-8")).hexdigest(),
                    )
                )
        return units

    @property
    def n_graphs(self) -> int:
        return self.graphs_per_cell * len(self.suite_cells())


class CellCursors:
    """Each cell's live suite generator and position, across units.

    :meth:`graphs` continues a cell from where its previous unit stopped,
    drawing (and discarding) the graphs of any units in between.  A unit
    that starts before the position — a re-lease, or units taken out of
    order — restarts the cell.  Yielded graphs are not kept, and a cell's
    entry is dropped once its last graph has been served.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self._cells: dict[SuiteCell, tuple[Iterator[SuiteGraph], int]] = {}

    def __contains__(self, cell: SuiteCell) -> bool:
        """Whether ``cell`` has a live generator."""
        return cell in self._cells

    def graphs(self, unit: WorkUnit) -> list[SuiteGraph]:
        """Exactly the graphs of ``unit``, bit-identical to the serial suite."""
        if not 0 <= unit.start < unit.stop <= self.spec.graphs_per_cell:
            raise ValueError(
                f"unit {unit.unit_id} covers [{unit.start}, {unit.stop}), outside "
                f"the spec's {self.spec.graphs_per_cell} graphs per cell"
            )
        cell = unit.cell
        gen, position = self._cells.pop(cell, (None, 0))
        if gen is None or position > unit.start:
            gen = generate_suite(
                graphs_per_cell=self.spec.graphs_per_cell,
                seed=self.spec.seed,
                n_tasks_range=self.spec.n_tasks_range,
                cells=[cell],
            )
            position = 0
        for _ in range(position, unit.start):
            next(gen)
        graphs = [next(gen) for _ in range(unit.n_graphs)]
        if unit.stop < self.spec.graphs_per_cell:
            self._cells[cell] = (gen, unit.stop)
        return graphs


def unit_graphs(spec: CampaignSpec, unit: WorkUnit) -> list[SuiteGraph]:
    """Regenerate exactly the graphs of ``unit``, bit-identical anywhere.

    A fresh :class:`CellCursors`: the cell's prefix is generated and
    dropped.  A worker keeps one cursor object across units instead.
    """
    return CellCursors(spec).graphs(unit)


def campaign_suite(spec: CampaignSpec) -> list[SuiteGraph]:
    """The whole campaign's suite in serial order (the merge baseline)."""
    return list(
        generate_suite(
            graphs_per_cell=spec.graphs_per_cell,
            seed=spec.seed,
            n_tasks_range=spec.n_tasks_range,
            cells=spec.suite_cells(),
        )
    )
