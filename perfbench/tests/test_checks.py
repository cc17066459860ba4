"""Each correctness check accepts the program's real output and rejects a
perturbed copy of it."""

import dataclasses

import pytest

from perfbench import checks
from perfbench.campaign import encode

from repro.adversarial.objective import make_objective
from repro.adversarial.search import hunt
from repro.adversarial.store import InstanceRecord, build_base_graph, wire_record
from repro.core.lowerbounds import cp_bound, density_bound, work_bound
from repro.experiments.advbench import BASE_SPEC, OBJECTIVE, PAIR
from repro.experiments.measures import HeuristicResult
from repro.experiments.runner import PAPER_HEURISTIC_ORDER, run_suite
from repro.generation import suites


@pytest.fixture(scope="module")
def small_suite():
    cells = suites.suite_cells()[:2]
    graphs = list(
        suites.generate_suite(graphs_per_cell=2, seed=7, n_tasks_range=(8, 14), cells=cells)
    )
    return graphs, run_suite(graphs, validate=True, seed=7)


def test_suite_check_accepts_real_results(small_suite):
    graphs, results = small_suite
    assert checks.suite_problems(graphs, results, PAPER_HEURISTIC_ORDER) == []


def test_suite_check_rejects_a_makespan_below_the_lower_bound(small_suite):
    graphs, results = small_suite
    gr = results[1]
    hr = gr.results["DSC"]
    beaten = dataclasses.replace(
        gr, results={**gr.results, "DSC": HeuristicResult(hr.parallel_time / 100.0, hr.n_processors)}
    )
    perturbed = [results[0], beaten, *results[2:]]
    problems = checks.suite_problems(graphs, perturbed, PAPER_HEURISTIC_ORDER)
    assert len(problems) == 1 and "lower bound" in problems[0]


def test_suite_check_applies_the_density_bound_of_small_graphs(small_suite):
    graphs, results = small_suite
    # A makespan above the critical-path and work bounds but below the
    # density bound that best_bound adds for graphs of 60 tasks or fewer.
    for i, (sg, gr) in enumerate(zip(graphs, results)):
        hr = gr.results["DSC"]
        p = hr.n_processors
        loose = max(cp_bound(sg.graph), work_bound(sg.graph, p))
        tight = density_bound(sg.graph, p)
        if tight > loose * 1.001:
            break
    else:
        pytest.fail("no graph of the small suite has a binding density bound")
    squeezed = dataclasses.replace(
        gr, results={**gr.results, "DSC": HeuristicResult((loose + tight) / 2, p)}
    )
    perturbed = [*results[:i], squeezed, *results[i + 1 :]]
    problems = checks.suite_problems(graphs, perturbed, PAPER_HEURISTIC_ORDER)
    assert len(problems) == 1 and "lower bound" in problems[0]


def test_suite_check_rejects_missing_or_reordered_results(small_suite):
    graphs, results = small_suite
    gr = results[0]
    missing = dataclasses.replace(gr, results={k: v for k, v in gr.results.items() if k != "MH"})
    assert checks.suite_problems(graphs, [missing, *results[1:]], PAPER_HEURISTIC_ORDER)
    swapped = [results[1], results[0], *results[2:]]
    assert len(checks.suite_problems(graphs, swapped, PAPER_HEURISTIC_ORDER)) == 2
    assert checks.suite_problems(graphs, results[:-1], PAPER_HEURISTIC_ORDER)


def test_pins_reject_any_other_value():
    assert checks.pin_problems("sha", "abc", "abc") == []
    assert checks.pin_problems("sha", "abd", "abc")
    assert checks.pin_problems("gaps", [1.5, 1.25], [1.5, 1.2500000000000002])


def test_reply_check_wants_byte_equality_and_the_expected_status():
    expected = ("ok", b'{"makespan":12.5}')
    assert checks.reply_problem(expected, ("ok", b'{"makespan":12.5}')) is None
    assert checks.reply_problem(expected, ("ok", b'{"makespan":12.50}'))
    assert checks.reply_problem(expected, ("error", "shed"))
    assert checks.reply_problem(("error", "deadline"), ("error", "deadline")) is None
    assert checks.reply_problem(("error", "deadline"), ("error", "invalid"))
    assert checks.reply_problem(("error", "invalid"), ("ok", b"{}"))


@pytest.fixture(scope="module")
def hunt_record():
    objective = make_objective(OBJECTIVE, *PAIR)
    result = hunt(build_base_graph(BASE_SPEC), objective, seed=3, steps=3, neighborhood=2)
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


def test_replay_check_accepts_the_hunt_and_rejects_a_tampered_record(hunt_record):
    assert checks.replay_problems(hunt_record) == []
    tampered = dataclasses.replace(hunt_record, digest="0" * 64)
    assert checks.replay_problems(tampered)
    if hunt_record.op_log:
        shorter = dataclasses.replace(hunt_record, op_log=hunt_record.op_log[:-1])
        assert checks.replay_problems(shorter)


def test_merge_check_rejects_perturbed_results(small_suite):
    graphs, results = small_suite
    reference = encode(results)
    assert checks.bytes_problems("merge", encode(run_suite(graphs, seed=7)), reference) == []
    perturbed = reference.replace(b'"parallel_time":', b'"parallel_time":1', 1)
    assert checks.bytes_problems("merge", perturbed, reference)
    assert checks.bytes_problems("merge", encode(results[:-1]), reference)


def test_count_check_names_every_moved_count():
    ref = {"scheduler.CLANS.calls": 240, "simulator.events": 16786.0}
    assert checks.count_problems("repeat", dict(ref), ref) == []
    moved = {"scheduler.CLANS.calls": 239, "simulator.events": 16786.0, "extra": 1}
    problems = checks.count_problems("repeat", moved, ref)
    assert len(problems) == 2
    assert any("scheduler.CLANS.calls" in p for p in problems)
