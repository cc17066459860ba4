"""Adversarial engine: op invariants, replay identity, search, store, suites.

The subsystem's two load-bearing guarantees are tested here directly:

* **acyclicity by construction** — no sequence of proposed ops can make a
  task graph cyclic, and an op log replayed through :func:`apply_op_log`
  is re-validated op by op (property-tested over seeded corpora and
  hypothesis-driven walks);
* **replay byte-identity** — ``(base spec, op log)`` rebuilds the exact
  graph bytes (and so the exact wire digest), including after a JSON
  round trip of the stored instance record.

Plus the integration contract: a promoted instance enters the normal
Table-1 machinery (``run_suite`` serial/parallel/batched, checkpoints) as
the ``adversarial`` graph class and behaves like any random graph.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversarial import (
    ALL_OPS,
    MAX_WEIGHT,
    MIN_WEIGHT,
    AnnealingPolicy,
    GreedyPolicy,
    InstanceRecord,
    MakespanRatio,
    NSLGap,
    PerturbationEnv,
    apply_op,
    apply_op_log,
    build_base_graph,
    find_instance,
    hunt,
    list_instances,
    load_instance,
    make_objective,
    make_policy,
    promote,
    replay,
    save_instance,
    verify_replay,
    wire_record,
)
from repro.core.batch import use_batch
from repro.core.exceptions import AdversarialError, GraphError
from repro.core.taskgraph import TaskGraph
from repro.core.wire import graph_digest, graph_to_wire
from repro.experiments.runner import run_suite
from repro.generation.random_dag import generate_pdg
from repro.generation.suites import (
    GRAPH_CLASSES,
    AdversarialGraph,
    SuiteCell,
    adversarial_suite,
    generate_suite,
)
from repro.obs.metrics import MetricsRegistry, use_registry

from conftest import serialized

SEED = 19940815

BASE_SPEC = {
    "kind": "pdg",
    "seed": SEED,
    "n_tasks": 16,
    "band": 2,
    "anchor": 3,
    "weight_range": [20, 100],
}


def _base(seed: int = SEED, n_tasks: int = 16) -> TaskGraph:
    return generate_pdg(
        np.random.default_rng(seed),
        n_tasks=n_tasks,
        band=2,
        anchor=3,
        weight_range=(20, 100),
    )


def _weights_in_bounds(g: TaskGraph) -> bool:
    return all(MIN_WEIGHT <= g.weight(t) <= MAX_WEIGHT for t in g.tasks()) and all(
        MIN_WEIGHT <= g.edge_weight(u, v) <= MAX_WEIGHT for u, v in g.edges()
    )


# ----------------------------------------------------------------------
# perturbation ops: invariants over seeded walks
# ----------------------------------------------------------------------
class TestOps:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_walk_preserves_invariants(self, seed):
        g = _base(SEED + seed)
        tasks_before = set(g.tasks())
        env = PerturbationEnv(g, random.Random(seed))
        for _ in range(40):
            op = env.propose()
            if op is None:
                continue
            env.apply(op)
            env.graph.topological_order()  # raises CycleError if broken
            env.graph.validate()
            assert set(env.graph.tasks()) == tasks_before
            assert env.graph.n_edges >= 1
            assert _weights_in_bounds(env.graph)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_walk_is_acyclic_and_replayable(self, seed):
        base = _base(SEED)
        env = PerturbationEnv(base.copy(), random.Random(seed))
        for _ in range(15):
            op = env.propose()
            if op is not None:
                env.apply(op)
        env.graph.topological_order()
        rebuilt = apply_op_log(base.copy(), env.op_log)
        assert graph_to_wire(rebuilt) == graph_to_wire(env.graph)

    def test_each_op_kind_applies_alone(self):
        # Restricting the action set to one op kind must still produce
        # valid walks (the CLI exposes --ops-style subsets via hunt(ops=)).
        for kind in ALL_OPS:
            env = PerturbationEnv(_base(), random.Random(7), ops=(kind,))
            applied = 0
            for _ in range(10):
                op = env.propose()
                if op is None:
                    continue
                assert op[0] == kind
                env.apply(op)
                applied += 1
            env.graph.topological_order()
            assert applied > 0, f"op {kind} never applied"

    def test_apply_op_validates_preconditions(self):
        g = _base()
        with pytest.raises(GraphError):
            apply_op(g, ("edge_reweight", "nope-1", "nope-2", 5.0))
        with pytest.raises(GraphError):
            apply_op(g, ("node_reweight", "nope", 5.0))
        with pytest.raises(GraphError):
            apply_op(g, ("granularity_shift", "nodes", -1.0))
        with pytest.raises(GraphError):
            apply_op(g, ("granularity_shift", "sideways", 2.0))
        with pytest.raises(GraphError):
            apply_op(g, ("frobnicate",))
        u, v = g.edges()[0]
        with pytest.raises(GraphError):  # weight outside the op bounds
            apply_op(g, ("edge_reweight", u, v, 0.0))

    def test_densify_rejects_cycle_closing_edge(self):
        g = TaskGraph()
        for t in ("a", "b", "c"):
            g.add_task(t, 1.0)
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 1.0)
        before = g.to_dict()
        with pytest.raises(GraphError):
            apply_op(g, ("densify", "c", "a", 1.0))  # would close a->b->c->a
        with pytest.raises(GraphError):
            apply_op(g, ("densify", "a", "b", 1.0))  # already exists
        assert g.to_dict() == before

    def test_rewire_failure_leaves_graph_untouched(self):
        g = TaskGraph()
        for t in ("a", "b", "c"):
            g.add_task(t, 1.0)
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 1.0)
        before = g.to_dict()
        # removing a->b then adding c->a would close a cycle through b->c
        with pytest.raises(GraphError):
            apply_op(g, ("rewire", "a", "b", "c", "b", 1.0))
        assert g.to_dict() == before  # edge restored, original order kept

    def test_sparsify_refuses_last_edge(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        g.add_task("b", 1.0)
        g.add_edge("a", "b", 1.0)
        with pytest.raises(GraphError):
            apply_op(g, ("sparsify", "a", "b"))

    def test_env_rejects_trivial_base_and_unknown_ops(self):
        tiny = TaskGraph()
        tiny.add_task("a", 1.0)
        with pytest.raises(GraphError):
            PerturbationEnv(tiny, random.Random(0))
        with pytest.raises(GraphError):
            PerturbationEnv(_base(), random.Random(0), ops=("teleport",))

    def test_neighborhood_does_not_disturb_search_state(self):
        env = PerturbationEnv(_base(), random.Random(3))
        before = graph_to_wire(env.graph)
        cands = env.neighborhood(6)
        assert graph_to_wire(env.graph) == before
        assert env.op_log == []
        for op, cand in cands:
            assert cand is not env.graph
            cand.topological_order()


# ----------------------------------------------------------------------
# replay determinism
# ----------------------------------------------------------------------
class TestReplay:
    def test_same_seed_same_walk(self):
        logs = []
        for _ in range(2):
            env = PerturbationEnv(_base(), random.Random(11))
            for _ in range(25):
                op = env.propose()
                if op is not None:
                    env.apply(op)
            logs.append(list(env.op_log))
        assert logs[0] == logs[1]

    def test_hunt_is_deterministic(self):
        objective = MakespanRatio("DSC", "CLANS")
        runs = [
            hunt(_base(), objective, seed=5, steps=12, neighborhood=3)
            for _ in range(2)
        ]
        assert runs[0].best_score == runs[1].best_score
        assert runs[0].best_op_log == runs[1].best_op_log
        assert graph_to_wire(runs[0].best_graph) == graph_to_wire(
            runs[1].best_graph
        )

    def test_record_json_round_trip_replays(self, tmp_path):
        objective = MakespanRatio("DSC", "CLANS")
        base = build_base_graph(BASE_SPEC)
        result = hunt(base, objective, seed=5, steps=12, neighborhood=3)
        wire, digest = wire_record(result.best_graph)
        record = InstanceRecord(
            digest=digest,
            graph=wire,
            base=BASE_SPEC,
            op_log=result.best_op_log,
            objective=objective.describe(),
            gap=result.best_score,
            base_gap=result.base_score,
        )
        path = save_instance(tmp_path, record)
        loaded = load_instance(path)
        assert loaded.op_log == [tuple(op) for op in record.op_log]
        assert verify_replay(loaded) == digest
        assert graph_to_wire(replay(loaded)) == wire

    def test_tampered_op_log_is_caught(self, tmp_path):
        objective = MakespanRatio("DSC", "CLANS")
        base = build_base_graph(BASE_SPEC)
        result = hunt(base, objective, seed=5, steps=12, neighborhood=3)
        wire, digest = wire_record(result.best_graph)
        record = InstanceRecord(
            digest=digest,
            graph=wire,
            base=BASE_SPEC,
            op_log=result.best_op_log[:-1],  # truncated recipe
            objective=objective.describe(),
            gap=result.best_score,
            base_gap=result.base_score,
        )
        assert len(result.best_op_log) > 0
        with pytest.raises(AdversarialError, match="digest mismatch"):
            verify_replay(record)

    def test_build_base_graph_rejects_unknown_kind(self):
        with pytest.raises(AdversarialError):
            build_base_graph({"kind": "erdos"})


# ----------------------------------------------------------------------
# objectives
# ----------------------------------------------------------------------
class TestObjectives:
    def test_ratio_and_nsl_agree_with_manual_scores(self):
        g = _base()
        ratio = MakespanRatio("DSC", "CLANS")
        nsl = NSLGap("DSC", "CLANS")
        r = ratio.score(g)
        n = nsl.score(g)
        assert r is not None and r > 0
        assert n is not None
        assert ratio.describe() == {"kind": "ratio", "a": "DSC", "b": "CLANS"}

    @pytest.mark.parametrize("batch_on", [False, True], ids=["b0", "b1"])
    def test_score_many_matches_score(self, batch_on):
        objective = MakespanRatio("DSC", "MCP")
        graphs = [_base(SEED + i) for i in range(4)]
        with use_batch(batch_on):
            many = objective.score_many(graphs)
            singles = [objective.score(g) for g in graphs]
        assert many == singles

    def test_cyclic_candidate_scores_none_and_counts(self):
        cyc = TaskGraph()
        cyc.add_task("a", 1)
        cyc.add_task("b", 1)
        cyc.add_edge("a", "b", 1)
        cyc.add_edge("b", "a", 1)
        ok = _base()
        objective = MakespanRatio("DSC", "CLANS")
        registry = MetricsRegistry()
        with use_registry(registry), use_batch(True):
            scores = objective.score_many([cyc, ok])
        assert scores[0] is None and scores[1] is not None
        assert registry.counters()["adv.bad_candidates"] == 1

    def test_make_objective_registry(self):
        assert isinstance(make_objective("ratio", "dsc", "clans"), MakespanRatio)
        assert isinstance(make_objective("nsl-gap", "DSC", "MH"), NSLGap)
        with pytest.raises(ValueError):
            make_objective("entropy", "DSC", "CLANS")


# ----------------------------------------------------------------------
# search policies + hunt
# ----------------------------------------------------------------------
class TestSearch:
    def test_greedy_accepts_only_improvements(self):
        p = GreedyPolicy(patience=2)
        rng = random.Random(0)
        assert p.accept(1.0, 1.1, rng)
        assert not p.accept(1.0, 1.0, rng)
        assert not p.accept(1.0, 0.9, rng)
        p.note(False)
        assert not p.should_restart()
        p.note(False)
        assert p.should_restart()
        assert not p.should_restart()  # stall counter reset by the restart

    def test_annealing_cools_and_accepts_worse_moves_early(self):
        p = AnnealingPolicy(t0=10.0, cooling=0.5, t_min=1e-6)
        rng = random.Random(0)
        assert p.accept(1.0, 2.0, rng)  # improvement always accepted
        hot_accepts = sum(
            AnnealingPolicy(t0=10.0).accept(1.0, 0.99, random.Random(i))
            for i in range(50)
        )
        cold = AnnealingPolicy(t0=1e-6, cooling=0.9)
        cold_accepts = sum(
            cold.accept(1.0, 0.5, random.Random(i)) for i in range(50)
        )
        assert hot_accepts > 40  # ~exp(-0.001) acceptance when hot
        assert cold_accepts == 0  # frozen schedule rejects big drops
        assert p.t < 10.0  # temperature decayed

    def test_make_policy_registry(self):
        assert isinstance(make_policy("greedy"), GreedyPolicy)
        assert isinstance(make_policy("anneal"), AnnealingPolicy)
        with pytest.raises(AdversarialError):
            make_policy("mcts")  # interface-ready, not shipped

    def test_bad_schedules_rejected(self):
        with pytest.raises(AdversarialError):
            GreedyPolicy(patience=0)
        with pytest.raises(AdversarialError):
            AnnealingPolicy(t0=-1.0)

    @pytest.mark.parametrize("policy", ["greedy", "anneal"])
    def test_hunt_never_regresses_best(self, policy):
        objective = MakespanRatio("DSC", "CLANS")
        result = hunt(
            _base(), objective, seed=9, steps=15, neighborhood=3, policy=policy
        )
        assert result.best_score >= result.base_score
        assert result.policy == policy
        rebuilt = apply_op_log(_base(), result.best_op_log)
        assert graph_to_wire(rebuilt) == graph_to_wire(result.best_graph)

    def test_hunt_counters_and_history(self):
        objective = MakespanRatio("DSC", "CLANS")
        registry = MetricsRegistry()
        with use_registry(registry):
            result = hunt(
                _base(),
                objective,
                seed=9,
                steps=10,
                neighborhood=2,
                keep_history=True,
            )
        counters = registry.counters()
        assert counters["adv.steps"] == 10
        assert counters["adv.evaluated"] == result.evaluated > 0
        assert counters.get("adv.accepted", 0) == result.accepted
        assert len(result.history) == 10
        assert result.history == sorted(result.history)  # best only climbs

    def test_hunt_rejects_bad_parameters(self):
        objective = MakespanRatio("DSC", "CLANS")
        with pytest.raises(AdversarialError):
            hunt(_base(), objective, seed=1, steps=0)
        with pytest.raises(AdversarialError):
            hunt(_base(), objective, seed=1, neighborhood=0)
        with pytest.raises(AdversarialError):
            hunt(_base(), objective, seed=1, policy="mcts")


# ----------------------------------------------------------------------
# store + promotion
# ----------------------------------------------------------------------
def _hunted_record(steps: int = 12) -> InstanceRecord:
    objective = MakespanRatio("DSC", "CLANS")
    base = build_base_graph(BASE_SPEC)
    result = hunt(base, objective, seed=5, steps=steps, neighborhood=3)
    wire, digest = wire_record(result.best_graph)
    return InstanceRecord(
        digest=digest,
        graph=wire,
        base=BASE_SPEC,
        op_log=result.best_op_log,
        objective=objective.describe(),
        gap=result.best_score,
        base_gap=result.base_score,
    )


class TestStore:
    def test_find_promote_list(self, tmp_path):
        record = _hunted_record()
        save_instance(tmp_path, record)
        _, found = find_instance(tmp_path, record.digest[:8])
        assert found == record
        with pytest.raises(AdversarialError, match="no instance"):
            find_instance(tmp_path, "ffffffff")

        assert list_instances(tmp_path, promoted_only=True) == []
        promoted = promote(tmp_path, record.digest[:8])
        assert promoted.promoted
        # idempotent, and durable across a reload
        assert promote(tmp_path, record.digest[:8]) == promoted
        assert list_instances(tmp_path, promoted_only=True) == [promoted]

    def test_promote_refuses_broken_recipe(self, tmp_path):
        record = _hunted_record()
        bad = InstanceRecord(
            **{**record.__dict__, "op_log": record.op_log[:-1]}
        )
        path = save_instance(tmp_path, bad)
        with pytest.raises(AdversarialError, match="digest mismatch"):
            promote(tmp_path, bad.digest[:8])
        assert not load_instance(path).promoted

    def test_from_dict_rejects_wrong_format(self):
        with pytest.raises(AdversarialError):
            InstanceRecord.from_dict({"format": "not-an-instance"})
        record = _hunted_record()
        data = record.to_dict()
        data["version"] = 99
        with pytest.raises(AdversarialError):
            InstanceRecord.from_dict(data)

    def test_suite_graphs_digest_checked(self, tmp_path):
        record = _hunted_record()
        save_instance(tmp_path, record)
        promote(tmp_path, record.digest[:8])
        path, loaded = find_instance(tmp_path, record.digest[:8])
        data = loaded.to_dict()
        data["graph"]["tasks"][0][1] = 12345.0  # hand-edited graph
        path.write_text(json.dumps(data, indent=1) + "\n")
        with pytest.raises(AdversarialError, match="does not match its digest"):
            list(adversarial_suite(tmp_path))


# ----------------------------------------------------------------------
# suite integration: the 'adversarial' graph class
# ----------------------------------------------------------------------
class TestSuiteIntegration:
    def test_graph_class_registered(self):
        assert set(GRAPH_CLASSES) >= {"table1", "adversarial"}
        assert GRAPH_CLASSES["adversarial"] is adversarial_suite

    def test_adversarial_graph_id_is_digest_keyed(self):
        g = _base()
        sg = AdversarialGraph(
            cell=SuiteCell(2, 3, (20, 100)),
            index=0,
            graph=g,
            digest="abcdef0123456789" * 4,
        )
        assert sg.graph_id == "adv-abcdef012345"

    def test_promoted_instances_flow_through_run_suite(self, tmp_path):
        record = _hunted_record()
        save_instance(tmp_path, record)
        promote(tmp_path, record.digest[:8])
        suite = list(adversarial_suite(tmp_path))
        assert len(suite) == 1
        assert suite[0].graph_id == f"adv-{record.digest[:12]}"
        assert list(adversarial_suite(tmp_path, promoted_only=False)) == suite

        mixed = list(
            generate_suite(
                graphs_per_cell=1,
                seed=SEED,
                cells=[SuiteCell(1, 2, (20, 100))],
                n_tasks_range=(12, 16),
            )
        ) + suite

        with use_batch(True):
            batched = serialized(run_suite([s for s in mixed], None, seed=SEED))
        with use_batch(False):
            unbatched = serialized(run_suite([s for s in mixed], None, seed=SEED))
        parallel = serialized(run_suite([s for s in mixed], None, seed=SEED, jobs=2))
        assert batched == unbatched == parallel

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        record = _hunted_record()
        save_instance(tmp_path, record)
        promote(tmp_path, record.digest[:8])
        suite = list(adversarial_suite(tmp_path))
        journal = tmp_path / "checkpoint.jsonl"

        plain = serialized(run_suite(list(suite), None, seed=SEED))
        first = serialized(
            run_suite(list(suite), None, seed=SEED, checkpoint=journal)
        )
        resumed = serialized(
            run_suite(list(suite), None, seed=SEED, checkpoint=journal)
        )
        assert plain == first == resumed
