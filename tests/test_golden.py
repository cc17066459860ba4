"""Golden regression tests: pinned makespans on seeded graphs.

These protect the heuristics against silent behavioural drift: any change
to priorities, tie-breaking, or timing shows up as a changed makespan on
these fixed inputs.  If a change is *intentional* (e.g. an algorithmic
improvement), regenerate the constants with::

    python -m pytest tests/test_golden.py --collect-only  # see the recipe
    python -c "import tests.test_golden as g; print(g.regenerate())"

sha256 digests pin whole outputs byte for byte: the generated Table-1
graphs at two master seeds, CLANS's schedules over the default-seed
Table-1 suite, and the result of the fixed-seed advbench hunt (best
instance digest plus the op log that rebuilds it).  A performance change
must leave them unchanged; regenerate them with ``suite_graphs_digest()``,
``clans_suite_digest()`` and ``hunt_digest()`` only for an intended change
of behaviour.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import get_scheduler
from repro.adversarial.objective import make_objective
from repro.adversarial.search import hunt
from repro.adversarial.store import build_base_graph, wire_record
from repro.core.wire import dumps, graph_to_wire
from repro.experiments.advbench import BASE_SPEC, OBJECTIVE, PAIR, POLICY, SEED
from repro.generation.random_dag import generate_pdg
from repro.generation.suites import generate_suite

#: (band, anchor, seed) -> {heuristic: makespan}; values were produced by
#: this library at v1.0.0 and every entry was validated against the
#: execution model when recorded.
GOLDEN: dict[tuple[int, int, int], dict[str, float]] = {}


def _graph(band: int, anchor: int, seed: int):
    rng = np.random.default_rng(seed)
    return generate_pdg(
        rng, n_tasks=30, band=band, anchor=anchor, weight_range=(20, 100)
    )


CASES = [(0, 2, 11), (2, 3, 22), (4, 4, 33)]
NAMES = ["CLANS", "DSC", "MCP", "MH", "HU", "ETF", "LC", "EZ", "DLS", "HLFET"]


def regenerate() -> str:
    """Print a fresh GOLDEN table (for intentional algorithm changes)."""
    lines = ["GOLDEN = {"]
    for case in CASES:
        g = _graph(*case)
        row = {}
        for name in NAMES:
            s = get_scheduler(name).schedule(g)
            s.validate(g)
            row[name] = s.makespan
        entries = ", ".join(f'"{k}": {v!r}' for k, v in row.items())
        lines.append(f"    {case}: {{{entries}}},")
    lines.append("}")
    return "\n".join(lines)


GOLDEN = {
    (0, 2, 11): {"CLANS": 1683.0, "DSC": 3141.9958899261183, "MCP": 2866.4211881425467, "MH": 2866.4211881425467, "HU": 11807.77840969506, "ETF": 2866.4211881425467, "LC": 6738.5469015264225, "EZ": 1683.0, "DLS": 2866.4211881425467, "HLFET": 3141.9958899261183},
    (2, 3, 22): {"CLANS": 1266.6952151447927, "DSC": 1097.9113621929084, "MCP": 1112.6369902343092, "MH": 1285.657561002683, "HU": 2094.913269530301, "ETF": 1133.0484406419214, "LC": 1223.9159751269062, "EZ": 1155.0828481890785, "DLS": 1075.1122800522542, "HLFET": 1112.6369902343092},
    (4, 4, 33): {"CLANS": 725.7756704491898, "DSC": 716.092099815579, "MCP": 716.092099815579, "MH": 716.092099815579, "HU": 812.547478184513, "ETF": 737.8525035332297, "LC": 726.9595582488885, "EZ": 744.8253423122078, "DLS": 709.1525285329164, "HLFET": 716.092099815579},
}


class TestGolden:
    @pytest.mark.parametrize("case", CASES)
    def test_generation_is_stable(self, case):
        """The same seed must produce the same graph twice."""
        assert _graph(*case) == _graph(*case)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("name", NAMES)
    def test_makespans_pinned(self, case, name):
        expected = GOLDEN[case].get(name)
        if expected is None:
            pytest.skip("golden value not recorded")
        g = _graph(*case)
        s = get_scheduler(name).schedule(g)
        s.validate(g)
        assert s.makespan == pytest.approx(expected, rel=1e-12), (
            f"{name} drifted on {case}: got {s.makespan!r}, "
            f"expected {expected!r}.  If intentional, regenerate GOLDEN."
        )


#: sha256 of the wire graphs of ``generate_suite(graphs_per_cell=2)`` (120
#: graphs of 40-100 tasks), one line per graph, by master seed.  Every RNG
#: draw of the generator and the order of every edge feed it.
SUITE_GRAPHS_SHA256 = {
    19940815: "a2dc70b694c3dd230e5f7fd645f7874ddf304290d11b401f5d5a46a958c14be5",
    11: "502e49ea1dcde67e75bad912ebde300ee380a56cfad1b3aa945dd32f03d8d171",
}
#: sha256 of CLANS's ``Schedule.to_dict`` over ``generate_suite(
#: graphs_per_cell=1)`` (seed 19940815, 60 graphs of 40-100 tasks).
CLANS_SUITE_SHA256 = "72e6d0bb35037896a424b76254aea5242a4a96738b95a9e2fd1b0bf0dca1dfb2"
#: sha256 of ``[best digest, best op log]`` of the advbench hunt
#: (``BASE_SPEC``, DSC vs CLANS ratio, annealing, seed ``SEED``) at
#: ``HUNT_STEPS`` steps of neighborhood 8.
HUNT_STEPS = 40
HUNT_SHA256 = "8fb4a6fdea05b7c7d8ba398e97c3b620e9811170e7f938f92149c20ad336aba5"


def suite_graphs_digest(seed: int) -> str:
    h = hashlib.sha256()
    for sg in generate_suite(graphs_per_cell=2, seed=seed):
        h.update(dumps(graph_to_wire(sg.graph)).encode())
        h.update(b"\n")
    return h.hexdigest()


def clans_suite_digest() -> str:
    clans = get_scheduler("CLANS")
    h = hashlib.sha256()
    for sg in generate_suite(graphs_per_cell=1):
        h.update(dumps(clans.schedule(sg.graph).to_dict()).encode())
        h.update(b"\n")
    return h.hexdigest()


def hunt_digest() -> str:
    result = hunt(
        build_base_graph(BASE_SPEC),
        make_objective(OBJECTIVE, *PAIR),
        seed=SEED,
        steps=HUNT_STEPS,
        neighborhood=8,
        policy=POLICY,
    )
    _, digest = wire_record(result.best_graph)
    op_log = [list(op) for op in result.best_op_log]
    return hashlib.sha256(dumps([digest, op_log]).encode()).hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("seed", sorted(SUITE_GRAPHS_SHA256))
    def test_suite_graphs(self, seed):
        assert suite_graphs_digest(seed) == SUITE_GRAPHS_SHA256[seed]

    def test_clans_suite_schedules(self):
        assert clans_suite_digest() == CLANS_SUITE_SHA256

    def test_advbench_hunt(self):
        assert hunt_digest() == HUNT_SHA256
