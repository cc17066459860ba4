"""The one machine model: processor speeds, a hop network and a port policy.

Every schedule in this package runs on a :class:`Machine`, and every
validator, simulator and processor pool takes one.  Each field relaxes one
assumption of the paper's section 2; ``Machine()`` relaxes none and is the
paper's unbounded clique of identical processors.

* ``speeds``: task ``t`` runs ``w(t) / speeds[p]`` on processor ``p``.
  ``None``: a task runs its weight on every processor (assumption 2).
* ``network``: a :class:`~repro.topology.Topology`.  A message of edge
  weight ``c`` between processors ``q != p`` costs ``c * distance(q, p)``
  (store-and-forward along a shortest path).  ``None``: every message costs
  its edge weight (assumption 1).
* ``one_port``: each processor has one send and one receive port.  A
  message of positive cost between two processors is a transfer that holds
  the sender's send port and the receiver's receive port for its whole
  cost (:func:`fetch_one_port`).  ``False``: messages overlap each other
  and computation without limit (assumption 4).

Same-processor data passing is free on every machine.  Speeds or a network
fix the processor set, every processor open from the start; otherwise the
pool is unbounded, and schedulers open processors as they go.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from .exceptions import ScheduleError

if TYPE_CHECKING:
    from ..topology.networks import Topology

__all__ = ["Machine", "fetch_one_port"]


class Machine:
    """Per-processor speeds, a hop-distance network and a one-port policy.

    ``hops[q][p]`` caches the network's distances; ``n_processors`` is the
    fixed processor count, ``None`` for an unbounded machine.
    """

    __slots__ = ("speeds", "network", "one_port", "n_processors", "hops")

    def __init__(
        self,
        speeds: Sequence[float] | None = None,
        network: Topology | None = None,
        *,
        one_port: bool = False,
    ) -> None:
        n = None
        if speeds is not None:
            if not speeds:
                raise ScheduleError("machine needs at least one processor")
            for s in speeds:
                if not (s > 0):
                    raise ScheduleError(f"speeds must be positive, got {s!r}")
            speeds = tuple(float(s) for s in speeds)
            n = len(speeds)
        hops = None
        if network is not None:
            if n is not None and n != network.n_processors:
                raise ScheduleError(
                    f"{n} speeds for a network of {network.n_processors} processors"
                )
            n = network.n_processors
            hops = [[network.distance(q, p) for p in range(n)] for q in range(n)]
        self.speeds = speeds
        self.network = network
        self.one_port = one_port
        self.n_processors = n
        self.hops = hops

    @property
    def is_paper(self) -> bool:
        """Whether this is the paper's machine, ``Machine()``."""
        return self.n_processors is None and not self.one_port

    def require_fixed(self, scheduler: str) -> int:
        """The processor count, for a scheduler that places on every
        processor of a fixed machine and plans no transfers."""
        if self.n_processors is None or self.one_port:
            raise ScheduleError(
                f"{scheduler} needs a fixed processor set without port limits, "
                f"got {self!r}"
            )
        return self.n_processors

    def __repr__(self) -> str:
        fields = []
        if self.speeds is not None:
            fields.append(f"speeds={list(self.speeds)}")
        if self.network is not None:
            fields.append(f"network={self.network!r}")
        if self.one_port:
            fields.append("one_port=True")
        return f"Machine({', '.join(fields)})"


def fetch_one_port(preds, proc, start, recv, send, finish, proc_of, hops):
    """Fetch a task's inputs onto ``proc`` under the one-port rule.

    ``preds`` holds the task's ``(predecessor id, edge weight)`` pairs in
    the order the caller fetches them; each predecessor ``j`` is placed on
    ``proc_of[j]`` and finishes at ``finish[j]``.  ``start`` is when ``proc``
    is free, ``recv`` when its receive port is, and ``send[q]`` when
    processor ``q``'s send port is.  An input from ``proc`` itself or over
    a free edge arrives when its producer finishes.  Any other input is a
    transfer: it begins once its producer has finished and both ports are
    free, and holds them for the edge weight (times the hop count when
    ``hops`` is a network's table).

    Returns ``(start, recv, reservations)``: the task's earliest start, the
    receive port's new free time and one ``(j, q, begin, end)`` per
    transfer.  ``send`` is left alone; the caller commits the plan it picks.
    """
    sent: dict[int, float] = {}  # the send ports as this plan leaves them
    reservations = []
    for j, c in preds:
        q = proc_of[j]
        arrival = finish[j]
        if q != proc and c:
            if hops is not None:
                c = c * hops[q][proc]
            begin = max(arrival, sent.get(q, send[q]), recv)
            arrival = recv = sent[q] = begin + c
            reservations.append((j, q, begin, arrival))
        if arrival > start:
            start = arrival
    return start, recv, reservations
