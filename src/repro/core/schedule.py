"""Schedules and their validation under the paper's execution model.

A schedule maps every task to a (processor, start time) pair.  Section 2 of
the paper fixes the model all heuristics are judged under:

1. same-processor communication is free; cross-processor communication costs
   the edge weight, independent of which two processors are involved;
2. unbounded pool of homogeneous, fully connected processors;
3. no task duplication (each task appears exactly once);
4. communication is asynchronous and overlaps computation — the sender is not
   blocked, messages may be multicast, and a message sent at the producer's
   finish time arrives ``edge weight`` later;
5. the objective is the makespan (latest finish time), called *parallel time*.

:meth:`Schedule.validate` checks all of these, on the paper's machine or on
any other :class:`~repro.core.machine.Machine`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, NamedTuple

from .exceptions import ScheduleError
from .taskgraph import Task, TaskGraph

if TYPE_CHECKING:
    from .machine import Machine

__all__ = ["ScheduledTask", "Schedule", "Transfer"]

_EPS = 1e-9


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one task: processor index, start and finish times."""

    task: Task
    processor: int
    start: float
    finish: float

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise ScheduleError(f"negative processor for {self.task!r}")
        if self.start < 0:
            raise ScheduleError(f"negative start time for {self.task!r}")
        if self.finish < self.start - _EPS:
            raise ScheduleError(f"finish before start for {self.task!r}")


class Transfer(NamedTuple):
    """One message of a one-port schedule: ``src``'s output moving to
    ``dst``, holding processor ``from_proc``'s send port and ``to_proc``'s
    receive port from ``start`` to ``finish``."""

    src: Task
    dst: Task
    start: float
    finish: float
    from_proc: int
    to_proc: int


def _start_finish(p: ScheduledTask) -> tuple[float, float]:
    return (p.start, p.finish)


class Schedule:
    """An immutable-by-convention mapping of tasks to placements."""

    #: The messages of a one-port timing, in the order they were issued;
    #: empty on a machine without port limits.  :meth:`to_dict` leaves
    #: them out.
    transfers: tuple[Transfer, ...] = ()

    def __init__(self, placements: Mapping[Task, ScheduledTask] | None = None) -> None:
        self._by_task: dict[Task, ScheduledTask] = dict(placements or {})

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def place(self, task: Task, processor: int, start: float, duration: float) -> None:
        """Record a placement; rejects double-placement (no duplication)."""
        if task in self._by_task:
            raise ScheduleError(f"task {task!r} already placed (duplication forbidden)")
        self._by_task[task] = ScheduledTask(task, processor, start, start + duration)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_task)

    def __contains__(self, task: Task) -> bool:
        return task in self._by_task

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._by_task.values())

    def __getitem__(self, task: Task) -> ScheduledTask:
        try:
            return self._by_task[task]
        except KeyError:
            raise ScheduleError(f"task {task!r} not in schedule") from None

    def processor_of(self, task: Task) -> int:
        """Processor index ``task`` is placed on."""
        return self[task].processor

    def start(self, task: Task) -> float:
        """Start time of ``task``."""
        return self[task].start

    def finish(self, task: Task) -> float:
        """Finish time of ``task``."""
        return self[task].finish

    @property
    def makespan(self) -> float:
        """Parallel time: the latest finish over all tasks (0 if empty)."""
        return max((p.finish for p in self._by_task.values()), default=0.0)

    @property
    def processors(self) -> list[int]:
        """Sorted list of processor indices actually used."""
        return sorted({p.processor for p in self._by_task.values()})

    @property
    def n_processors(self) -> int:
        return len({p.processor for p in self._by_task.values()})

    def tasks_on(self, processor: int) -> list[ScheduledTask]:
        """Placements on one processor, ordered by start time."""
        return sorted(
            (p for p in self._by_task.values() if p.processor == processor),
            key=_start_finish,
        )

    def clusters(self) -> list[list[Task]]:
        """Per-processor task lists in execution order, by processor index."""
        return [[p.task for p in self.tasks_on(proc)] for proc in self.processors]

    # ------------------------------------------------------------------
    # derived measures (paper section 4)
    # ------------------------------------------------------------------
    def speedup(self, graph: TaskGraph) -> float:
        """``serial time / parallel time``."""
        if self.makespan <= 0:
            raise ScheduleError("speedup undefined for zero-makespan schedule")
        return graph.serial_time() / self.makespan

    def efficiency(self, graph: TaskGraph) -> float:
        """``speedup / processors used``."""
        n = self.n_processors
        if n == 0:
            raise ScheduleError("efficiency undefined for empty schedule")
        return self.speedup(graph) / n

    def busy_fraction(self) -> float:
        """Mean fraction of [0, makespan] each used processor spends computing."""
        span = self.makespan
        if span <= 0 or not self._by_task:
            return 0.0
        per_proc: dict[int, float] = {}
        for p in self._by_task.values():
            per_proc[p.processor] = per_proc.get(p.processor, 0.0) + (p.finish - p.start)
        return sum(b / span for b in per_proc.values()) / len(per_proc)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, graph: TaskGraph, machine: Machine | None = None) -> None:
        """Check the schedule against ``graph`` on ``machine`` (default: the
        paper's, ``Machine()``).

        Raises :class:`ScheduleError` on: missing/extra tasks, a processor
        outside a fixed machine, wrong durations (the weight over the
        processor's speed), overlapping tasks on a processor, or a task
        starting before one of its inputs has arrived (the edge weight
        times the hop count after its producer finishes).  On a one-port
        machine it also checks :attr:`transfers`: every message of
        positive cost between processors has exactly one, none carries
        anything else, each lies between its producer's finish and its
        consumer's start and lasts the message's cost, and no two overlap
        on a send port or on a receive port.

        One pass over the placements groups them by processor, in placement
        order, so each processor's row is the same stable sort
        :meth:`tasks_on` gives: O(n log n + e) in all, and the first error
        reported is the one a processor-by-processor scan meets first.
        """
        by_task = self._by_task
        placed = set(by_task)
        tasks = set(graph.tasks())
        if placed != tasks:
            missing = tasks - placed
            extra = placed - tasks
            raise ScheduleError(
                f"task set mismatch: missing={sorted(map(repr, missing))}, "
                f"extra={sorted(map(repr, extra))}"
            )
        weight = graph.weight
        speeds = hops = None
        if machine is not None:
            speeds, hops = machine.speeds, machine.hops
            size = machine.n_processors or inf
            for p in by_task.values():
                if p.processor >= size:
                    raise ScheduleError(
                        f"task {p.task!r} on processor {p.processor} outside {machine!r}"
                    )
        on_proc: dict[int, list[ScheduledTask]] = {}
        for p in by_task.values():
            proc = p.processor
            expect = weight(p.task)
            if speeds is not None:
                expect = expect / speeds[proc]
            if abs((p.finish - p.start) - expect) > _EPS:
                raise ScheduleError(
                    f"task {p.task!r} runs {p.finish - p.start}, "
                    + (f"weight is {expect}" if speeds is None
                       else f"expected {expect} on processor {proc}")
                )
            row = on_proc.get(proc)
            if row is None:
                on_proc[proc] = [p]
            else:
                row.append(p)
        for proc in sorted(on_proc):
            row = sorted(on_proc[proc], key=_start_finish)
            for a, b in zip(row, row[1:]):
                if b.start < a.finish - _EPS:
                    raise ScheduleError(
                        f"tasks {a.task!r} and {b.task!r} overlap on processor {proc}"
                    )
        for u, v in graph.edges():
            pu, pv = by_task[u], by_task[v]
            arrival = pu.finish
            if pu.processor != pv.processor:
                if hops is None:
                    arrival += graph.edge_weight(u, v)
                else:
                    arrival += graph.edge_weight(u, v) * hops[pu.processor][pv.processor]
            if pv.start < arrival - _EPS:
                raise ScheduleError(
                    f"task {v!r} starts at {pv.start} before its input from "
                    f"{u!r} arrives at {arrival}"
                )
        if machine is not None and machine.one_port:
            self._validate_transfers(graph, hops)

    def _validate_transfers(self, graph: TaskGraph, hops) -> None:
        """The one-port part of :meth:`validate`."""
        by_task = self._by_task
        carried: dict[tuple[Task, Task], Transfer] = {}
        for x in self.transfers:
            if (x.src, x.dst) in carried:
                raise ScheduleError(f"two transfers carry {x.src!r} -> {x.dst!r}")
            carried[x.src, x.dst] = x
        for u, v in graph.edges():
            pu, pv = by_task[u], by_task[v]
            c = graph.edge_weight(u, v)
            if pu.processor == pv.processor or not c:
                continue
            x = carried.pop((u, v), None)
            if x is None:
                raise ScheduleError(f"no transfer carries {u!r} -> {v!r}")
            if hops is not None:
                c = c * hops[pu.processor][pv.processor]
            if (
                (x.from_proc, x.to_proc) != (pu.processor, pv.processor)
                or x.start < pu.finish - _EPS
                or x.finish > pv.start + _EPS
                or abs((x.finish - x.start) - c) > _EPS
            ):
                raise ScheduleError(
                    f"{x} does not carry {u!r} -> {v!r} from processor "
                    f"{pu.processor} after {pu.finish} to processor "
                    f"{pv.processor} by {pv.start} in {c}"
                )
        if carried:
            raise ScheduleError(f"{next(iter(carried.values()))} carries no message")
        ports: dict[tuple[str, int], list[Transfer]] = {}
        for x in self.transfers:
            ports.setdefault(("send", x.from_proc), []).append(x)
            ports.setdefault(("receive", x.to_proc), []).append(x)
        for (side, proc), row in sorted(ports.items()):
            row.sort(key=lambda x: (x.start, x.finish))
            for a, b in zip(row, row[1:]):
                if b.start < a.finish - _EPS:
                    raise ScheduleError(
                        f"{a} and {b} overlap on the {side} port of processor {proc}"
                    )

    def is_valid(self, graph: TaskGraph) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(graph)
        except ScheduleError:
            return False
        return True

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable description (tuple task ids round-trip)."""
        return {
            "placements": [
                [p.task, p.processor, p.start, p.finish]
                for p in self._by_task.values()
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Schedule":
        """Rebuild a schedule written by :meth:`to_dict`.

        The stored ``finish`` is restored verbatim rather than recomputed as
        ``start + (finish - start)`` — that round trip drifts by 1 ULP for
        many float pairs, which would break the byte-identity contract of
        the shared wire codec (:mod:`repro.core.wire`).
        """

        def thaw(t):
            return tuple(thaw(x) for x in t) if isinstance(t, list) else t

        s = cls()
        for task, proc, start, finish in data["placements"]:
            task = thaw(task)
            if task in s._by_task:
                raise ScheduleError(
                    f"task {task!r} already placed (duplication forbidden)"
                )
            s._by_task[task] = ScheduledTask(task, proc, start, finish)
        return s

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_gantt(self, width: int = 72) -> str:
        """A coarse ASCII Gantt chart, one row per processor."""
        span = self.makespan
        if span <= 0:
            return "(empty schedule)"
        scale = (width - 1) / span
        lines = []
        for proc in self.processors:
            cells = [" "] * width
            for p in self.tasks_on(proc):
                lo = int(p.start * scale)
                hi = max(lo + 1, int(p.finish * scale))
                label = str(p.task)
                for i in range(lo, min(hi, width)):
                    cells[i] = "#"
                for i, ch in enumerate(label[: hi - lo]):
                    if lo + i < width:
                        cells[lo + i] = ch
            lines.append(f"P{proc:<3d}|{''.join(cells)}|")
        lines.append(f"     0{' ' * (width - len(f'{span:g}') - 1)}{span:g}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Schedule(n_tasks={len(self)}, n_processors={self.n_processors}, "
            f"makespan={self.makespan:g})"
        )


class _LazySchedule(Schedule):
    """A schedule backed by precomputed placement rows (kernel fast path).

    The indexed kernels (:mod:`repro.core.kernels`) produce placements as
    plain ``(task, processor, start, finish)`` tuples whose invariants are
    guaranteed by construction (non-negative weights, contiguous processor
    allocation), so per-placement :class:`ScheduledTask` validation is pure
    overhead.  This subclass stores the rows and materializes the
    ``ScheduledTask`` mapping on first access — in row order, so iteration,
    ``to_dict`` and every query behave exactly as if each row had been
    :meth:`Schedule.place`-d in sequence.  Consumers that only read
    :attr:`makespan` (acceptance tests in clustering loops, for example)
    never pay for object construction at all.
    """

    def __init__(self, rows: list[tuple[Task, int, float, float]]) -> None:
        # deliberately no super().__init__(): _by_task is a lazy property
        self._rows: list[tuple[Task, int, float, float]] | None = rows
        self._mat: dict[Task, ScheduledTask] | None = None

    @property  # type: ignore[override]
    def _by_task(self) -> dict[Task, ScheduledTask]:
        mat = self._mat
        if mat is None:
            new = ScheduledTask.__new__
            setattr_ = object.__setattr__
            mat = {}
            for task, proc, start, finish in self._rows or ():
                p = new(ScheduledTask)
                setattr_(p, "task", task)
                setattr_(p, "processor", proc)
                setattr_(p, "start", start)
                setattr_(p, "finish", finish)
                mat[task] = p
            self._mat = mat
            self._rows = None  # mutations (place) go to the live dict
        return mat

    @property
    def makespan(self) -> float:
        rows = self._rows
        if rows is not None:
            return max((r[3] for r in rows), default=0.0)
        return super().makespan
