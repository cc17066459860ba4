"""Golden regression tests: pinned makespans on seeded graphs.

These protect the heuristics against silent behavioural drift: any change
to priorities, tie-breaking, or timing shows up as a changed makespan on
these fixed inputs.  If a change is *intentional* (e.g. an algorithmic
improvement), regenerate the constants with::

    python -m pytest tests/test_golden.py --collect-only  # see the recipe
    python -c "import tests.test_golden as g; print(g.regenerate())"

sha256 digests pin whole outputs byte for byte: the generated Table-1
graphs at two master seeds; every registered scheduler's schedules over
the default-seed Table-1 suite and over a seeded corpus of tiny graphs,
plus the bounded and ablation variants; the machine-specific list
schedulers (topology MH, MH1P, HEFT, HMH, CPOP) on that suite, each
schedule validated on its machine; the simulator's timings of seeded
assignments on three networks and of the paper heuristics' assignments on
the one-port machine, transfers included; the clan
trees, levels and critical paths of that suite; and the result of the
fixed-seed advbench hunt (best instance digest plus the op log that
rebuilds it).  A
performance change or a refactor must leave them unchanged; regenerate
them with ``suite_graphs_digest()``, ``schedules_digest()``,
``analysis_digest()`` and ``hunt_digest()`` only for an intended change
of behaviour.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro import get_scheduler
from repro.adversarial.objective import make_objective
from repro.adversarial.search import hunt
from repro.adversarial.store import build_base_graph, wire_record
from repro.clans.decomposition import decompose
from repro.core.analysis import alap_times, b_levels, critical_path, t_levels
from repro.core.machine import Machine
from repro.core.simulator import simulate_clustering
from repro.core.wire import dumps, graph_to_wire
from repro.experiments.advbench import BASE_SPEC, OBJECTIVE, PAIR, POLICY, SEED
from repro.generation.random_dag import generate_pdg
from repro.generation.suites import generate_suite
from repro.hetero import CPOPScheduler, HEFTScheduler, HeteroListScheduler
from repro.schedulers import SCHEDULER_REGISTRY
from repro.topology import Mesh2D, PortAwareScheduler, Ring, Star, TopologyMHScheduler

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
#: The same digest for every other scheduler.  GA and SA run on the first
#: ``SLOW_PREFIX`` graphs only (each takes over 10 s on all 60); OPT
#: refuses graphs this large and is pinned on ``TINY_SCHEDULES_SHA256``
#: alone.  Keys name a registered scheduler, or a variant in ``VARIANTS``.
SUITE_SCHEDULES_SHA256 = {
    "ADAPT": "636c905496bd0f93c39578ff14cabc1d9912307acc599f3bfd250b18b8efe614",
    "DLS": "b46dce992c326487f297aebd61df4d7afab5461123980117aed44ef7a41af357",
    "DLS(max_processors=2)": "bcc3ebde0c43ababb94b3c32d514a79667a9610cfa86df72d2c5bd68a8b7847d",
    "DSC": "cb95e31533705c9100296e8fec4d9d3323e547c9bfb8d3a57f9c72c956b985c6",
    "DSC(use_ct2=False)": "92a72a361b6c1247d6995bd0170e1cf1e44510b8d0896cbb2042e359c95a6688",
    "ETF": "f5328abe1002c72df25eba53a31d2e8a3e9ad42db4f473f4007a85af76492f21",
    "ETF(max_processors=2)": "d55caa3c0ca32bf3154c353e1bffc749cd942353dbf818adde81067dc382a36e",
    "EZ": "409657f60f88bb70777bef1b7ee760127a6f4860fc299cf0d68768f8e62d3574",
    "GA": "4e72c4ccef6737f0d64bc953d495d425edfa666c99639d94363a95a43d0c52c9",
    "HLFET": "c5ccda0eebfd581e4aa3ab8c80847c0520800ab07a959e6f5661558f13a49a96",
    "HLFET(max_processors=2)": "56ef8e978d988da65af4bfef344ca3acc2b3115711623eb291d2af65bd5182c2",
    "HU": "f2869a0a53c40b48ed76678d618c2f1497f70ebd743bde25a7e9fde20b66c44b",
    "HU(max_processors=2)": "aa8459510f617105d09d030cae33d023cce83a29c89503a72fff472e2d029c3a",
    "LC": "a224728210b85cbf12f2c0d45eb8207223e30a01a310efe0b5a297b2fc199449",
    "MCP": "ba86e340cb43bbab1c48ebdbe5495f322adf2033838070d2fd18a2844032f85c",
    "MCP(insertion=False)": "75b9c3c2806f6e76208ddb33b7b2e049382b2388226fcb5a7a3acfccbc2f1e43",
    "MCP(max_processors=2)": "746cf412c857beea456b5abb75e01c4634a8556861929237d079dd2d71bddfec",
    "MH": "259a74980872ddadfeccf9d7b8e2959edaa5cd129f8d9e6dbd1a3208ec4505c9",
    "MH(max_processors=2)": "7e5eab8bf689851fdf50ae5df64a6660e66eaecb0096cff9845fc8f24f622569",
    "SA": "b0fe0482c2741d9f92f9896f2d6b8d6a7648abb445a21b07ffbb1434abba0dd7",
    "SERIAL": "56e28c50afca2649ee138a1a3aae7b6e3c7a6919bede89cabce482735a742eb3",
}
#: The same digest over ``_tiny_graphs()``: 20 seeded PDGs of 4-8 tasks.
TINY_SCHEDULES_SHA256 = {
    "ADAPT": "39ab181e37ae1aa620be880a1b956ed44aba7783fff87d290b6e4ae997b97f82",
    "CLANS": "9a7b51bac0efecb917fd3d561d0f6e001573ddbdc737ad9ccf812165b9323dff",
    "DLS": "bc345709b6c17a5b36ca9d774e176ca0ae67bf55034668d623ea20a83e3e8de5",
    "DSC": "656e85e2d3d9b42e1a74d9344f8b1d3c2fda6947f83cfcee3f16f4789fb0000e",
    "ETF": "5840855304fedf0a2598472397d934e3a62883c7d9dc5335f2b1d3aba23b1b65",
    "EZ": "816a87fa18ee792a3fe82c759e1e29326b71ad07ea6dff99d189a31ac966dab1",
    "GA": "bbf0a155289f8e2e54fb4d103ebbaf5503e4965b4c66572ad88f8d1bd8f075c6",
    "HLFET": "3fd5e2c770437968a44e7e4fbe3033dfadbc69aea006b153941718902297581e",
    "HU": "c1aa4ba7aa00cfd08b364fd0f48482181dbb98debffca3fa1b2a663e47ff1440",
    "LC": "6e3c31774c44985a05cfc220a005fe1001f6b7cc0a95e775a447c289c98586f8",
    "MCP": "4b73d85171e6a64eb1bec8eaa0e80152cb10617c536e0c554c3c268c84ed65f2",
    "MH": "1385e9c5db8a6ff0e3b1aa82451419e499c7d364c15a88285bd6ad617e2053be",
    "OPT": "1b72875dd06095549cc1ddb0da64c18d6e5024ebe29f3694dc4aee9b59c7a535",
    "SA": "6dbd40413800fffb976f61e672e4d78a8a41b05a488876f953081ffb2cbaf8e8",
    "SERIAL": "ff4e6ad6b79cd9b4fab7955c62a965fe1bbe390e3af5197caa664a91dbede61d",
}
SLOW_PREFIX = 4
SLOW = ("GA", "SA")
#: Constructor arguments of the pinned non-default variants: the direct
#: bounded list schedulers and the two ablation switches.
VARIANTS = {
    **{
        f"{name}(max_processors=2)": (name, {"max_processors": 2})
        for name in ("MH", "HU", "ETF", "HLFET", "MCP", "DLS")
    },
    "MCP(insertion=False)": ("MCP", {"insertion": False}),
    "DSC(use_ct2=False)": ("DSC", {"use_ct2": False}),
}
#: The same digest over ``_suite_graphs()`` for the machine-specific list
#: schedulers, which the registry does not hold: the topology MH on three
#: networks, the one-port MH1P, and HEFT, HMH and CPOP on one
#: heterogeneous machine.  Keys name an entry of ``MACHINE_SCHEDULERS``.
MACHINE_SCHEDULES_SHA256 = {
    "CPOP": "1c5405759375a2a17cc22b2b5ee493e0b12297921ed9663f5ae1851a70028304",
    "HEFT": "f2793d106172d2339c8007f666fcbc221ed15609a7d912ffe762e3fdf3d12d82",
    "HMH": "76cc68478a7affba5eab02b042308a43b7068b8de22b9d5b8d1f80d6c1bf9208",
    "MH1P": "51472110de4cbb5e7566549076b28bff89c43af8827bb0e9b85b1c27c2c68d39",
    "MH1P(max_processors=3)": "438fcc732a3a364e723b0d5286725c512c13a8cb2547568ab6941797d8308954",
    "MH@Mesh2D(2, 4)": "21e8064a6215bef7575e56555258de6c7edc04620cdb2e5195a2e0da9c757812",
    "MH@Ring(8)": "2451ccc2f54301ad6be8aadfb65798e2080d1f862708d1e8d145fb51ca9857bc",
    "MH@Star(8)": "01a58accf5915841f55f6b4916d5de70c160ef6076728492ef51a98723acdf3b",
}
_MACHINE = Machine([1, 1, 2, 4])
MACHINE_SCHEDULERS = {
    "CPOP": lambda: CPOPScheduler(_MACHINE),
    "HEFT": lambda: HEFTScheduler(_MACHINE),
    "HMH": lambda: HeteroListScheduler(_MACHINE),
    "MH1P": PortAwareScheduler,
    "MH1P(max_processors=3)": lambda: PortAwareScheduler(max_processors=3),
    "MH@Mesh2D(2, 4)": lambda: TopologyMHScheduler(Machine(network=Mesh2D(2, 4))),
    "MH@Ring(8)": lambda: TopologyMHScheduler(Machine(network=Ring(8))),
    "MH@Star(8)": lambda: TopologyMHScheduler(Machine(network=Star(8))),
}
#: sha256 of the timed placements, sorted by task, of one seeded random
#: assignment per default-suite graph on each network, where a message
#: costs its edge weight times the hop distance.  Rows are sorted because
#: no caller depends on the order the simulator places them in.
NETWORK_SIMULATIONS_SHA256 = {
    "Mesh2D(2, 4)": "3df662b5e408fb385b9e93e0c4d7a0672a3cb66929a5e9a9320edcf62557f7da",
    "Ring(8)": "979b7e7d0ff4e750be6569a13591472b2c63349314bc77a3591eae6cb33a4a4f",
    "Star(8)": "710fb3fcc3f605c48be49b0613a864b440840eff37849248426db04713b9b956",
}
NETWORKS = {
    "Mesh2D(2, 4)": Machine(network=Mesh2D(2, 4)),
    "Ring(8)": Machine(network=Ring(8)),
    "Star(8)": Machine(network=Star(8)),
}
ONE_PORT = Machine(one_port=True)
#: sha256 of the one-port timings of each paper heuristic's assignment over
#: the default-seed suite: the placements sorted by task, then the transfer
#: log in the order the simulator issued it.
ONE_PORT_SIMULATIONS_SHA256 = {
    "CLANS": "6f4deb1697c3d0464070506e460b01c289dbfcb924df3934d7191655c76f4754",
    "DSC": "b47895949e2d88fbf155b47a8165805dbda93b0c7550289f700b8530d7f41937",
    "HU": "b6d4642b2e2160d91120fe2896b1dadfaaf9fb8a004381f33ec52de98a2338f7",
    "MCP": "4f7b8a10321003d54e055368e342a4e93f0588b4b9a8b72f0f10d3c835d2e6b4",
    "MH": "aa09ecf533e498eef07660890d8ce926fea3c903e2b3d1224fb74bdf214037f5",
}
#: sha256 of the default-seed suite's analyses, one line per graph: the
#: clan parse tree, and t-levels, b-levels, ALAP times and the critical
#: path with communication on (``comm``) and off (``no_comm``).  The level
#: lines keep each mapping's iteration order.
ANALYSIS_SHA256 = {
    "clan_trees": "6f41d48ac557e19c067458c30e28182d3f497d92bb367eac929348f3ee1fa3ac",
    "comm": "fee6a359b26618435e34693a66b8e7d66d33e626ce73dd2266c11c63ea85450a",
    "no_comm": "d12b06afead65291ea4906aca137731c0abbcad9bf342aa8bb6a3bfc28648057",
}
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


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(dumps(line).encode())
        h.update(b"\n")
    return h.hexdigest()


@lru_cache(maxsize=None)
def _suite_graphs() -> tuple:
    """The default-seed suite, generated once for every digest here."""
    return tuple(sg.graph for sg in generate_suite(graphs_per_cell=1))


@lru_cache(maxsize=None)
def _tiny_graphs() -> tuple:
    """Seeded PDGs of 4-8 tasks in every band: small enough for OPT."""
    return tuple(
        generate_pdg(
            np.random.default_rng(SEED + k),
            n_tasks=4 + k % 5,
            band=k % 5,
            anchor=2,
            weight_range=(20, 100),
        )
        for k in range(20)
    )


def _make(key: str):
    name, kwargs = VARIANTS.get(key, (key, {}))
    return SCHEDULER_REGISTRY[name](**kwargs)


def schedules_digest(key: str, graphs) -> str:
    scheduler = _make(key)
    return _digest(scheduler.schedule(g).to_dict() for g in graphs)


def _random_assignment(graph, k: int, n_processors: int) -> dict:
    procs = np.random.default_rng(k).integers(0, n_processors, size=graph.n_tasks)
    return {t: int(p) for t, p in zip(graph.tasks(), procs)}


def network_simulations_digest(key: str) -> str:
    machine = NETWORKS[key]
    lines = []
    for k, g in enumerate(_suite_graphs()):
        assignment = _random_assignment(g, k, machine.n_processors)
        s = simulate_clustering(g, assignment, machine=machine)
        s.validate(g, machine)
        lines.append(sorted(s.to_dict()["placements"]))
    return _digest(lines)


def one_port_simulations_digest(name: str) -> str:
    lines = []
    for g in _suite_graphs():
        assignment = {p.task: p.processor for p in get_scheduler(name).schedule(g)}
        s = simulate_clustering(g, assignment, machine=ONE_PORT)
        s.validate(g, ONE_PORT)
        lines.append([sorted(s.to_dict()["placements"]), [list(x) for x in s.transfers]])
    return _digest(lines)


def _tree(node):
    if node.is_leaf:
        return node.task
    return [node.kind.name, [_tree(c) for c in node.children]]


def _levels(graph, communication: bool) -> list:
    return [
        list(f(graph, communication=communication).items())
        for f in (t_levels, b_levels, alap_times)
    ] + [critical_path(graph, communication=communication)]


def analysis_digest(kind: str) -> str:
    graphs = _suite_graphs()
    if kind == "clan_trees":
        return _digest(_tree(decompose(g)) for g in graphs)
    return _digest(_levels(g, kind == "comm") for g in graphs)


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
        assert schedules_digest("CLANS", _suite_graphs()) == CLANS_SUITE_SHA256

    @pytest.mark.parametrize("key", sorted(SUITE_SCHEDULES_SHA256))
    def test_suite_schedules(self, key):
        graphs = _suite_graphs()
        if key in SLOW:
            graphs = graphs[:SLOW_PREFIX]
        assert schedules_digest(key, graphs) == SUITE_SCHEDULES_SHA256[key]

    @pytest.mark.parametrize("key", sorted(MACHINE_SCHEDULES_SHA256))
    def test_machine_schedules(self, key):
        scheduler = MACHINE_SCHEDULERS[key]()
        schedules = [scheduler.schedule(g) for g in _suite_graphs()]
        for g, s in zip(_suite_graphs(), schedules):
            s.validate(g, scheduler.machine)
        assert _digest(s.to_dict() for s in schedules) == MACHINE_SCHEDULES_SHA256[key]

    @pytest.mark.parametrize("key", sorted(NETWORK_SIMULATIONS_SHA256))
    def test_network_simulations(self, key):
        assert network_simulations_digest(key) == NETWORK_SIMULATIONS_SHA256[key]

    @pytest.mark.parametrize("name", sorted(ONE_PORT_SIMULATIONS_SHA256))
    def test_one_port_simulations(self, name):
        assert one_port_simulations_digest(name) == ONE_PORT_SIMULATIONS_SHA256[name]

    @pytest.mark.parametrize("key", sorted(TINY_SCHEDULES_SHA256))
    def test_tiny_schedules(self, key):
        assert schedules_digest(key, _tiny_graphs()) == TINY_SCHEDULES_SHA256[key]

    def test_every_scheduler_is_pinned(self):
        assert set(SCHEDULER_REGISTRY) <= set(TINY_SCHEDULES_SHA256)
        assert set(SCHEDULER_REGISTRY) - {"OPT", "CLANS"} <= set(
            SUITE_SCHEDULES_SHA256
        )
        assert set(VARIANTS) <= set(SUITE_SCHEDULES_SHA256)

    @pytest.mark.parametrize("kind", sorted(ANALYSIS_SHA256))
    def test_suite_analysis(self, kind):
        assert analysis_digest(kind) == ANALYSIS_SHA256[kind]

    def test_advbench_hunt(self):
        assert hunt_digest() == HUNT_SHA256
