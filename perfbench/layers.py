"""The layer map: which public entry points of ``repro`` make up each layer.

Every layer is timed from outside by wrapping the functions below (see
:mod:`perfbench.spans`); nothing under ``src/`` changes.  A layer's time is
its *self time*: nested calls into another layer are charged to that layer.
``sched.<NAME>`` wraps each heuristic's ``_schedule``, the one method every
scheduler implements and the runner, objective and daemon all reach.
"""

from __future__ import annotations

import importlib

from .spans import Patcher, SpanRecorder

__all__ = ["SCHEDULERS", "install", "TIMED_LAYERS"]

#: Heuristics with their own ``sched.<NAME>`` layer: the paper's five plus the
#: three the service mix requests.
SCHEDULERS = ("CLANS", "DSC", "MCP", "MH", "HU", "HLFET", "ETF", "LC")

#: (layer, module, attribute path) for every wrapped entry point.
_FUNCTIONS = (
    ("generation", "repro.generation.random_dag", "generate_pdg"),
    ("clans.decompose", "repro.clans.decomposition", "decompose"),
    ("simulate", "repro.core.simulator", "simulate_ordered"),
    ("simulate", "repro.core.simulator", "simulate_clustering"),
    ("simulate", "repro.core.kernels", "simulate_ordered_idx"),
    ("analysis", "repro.core.metrics", "granularity"),
    ("analysis", "repro.core.metrics", "anchor_out_degree"),
    ("analysis", "repro.core.metrics", "node_weight_range"),
    ("batch", "repro.core.batch", "batch_analyze"),
    ("persist", "repro.experiments.persistence", "save_results"),
    ("persist", "repro.experiments.persistence", "result_to_dict"),
    ("wire.digest", "repro.core.wire", "graph_digest"),
) + tuple(
    ("report", "repro.experiments.tables", f"table{i}") for i in range(1, 12)
)

_METHODS = (
    ("kernels.compile", "repro.core.kernels", "GraphIndex", "__init__"),
    ("validate", "repro.core.schedule", "Schedule", "validate"),
    ("adv.propose", "repro.adversarial.env", "PerturbationEnv", "neighborhood"),
    ("adv.score", "repro.adversarial.objective", "Objective", "score_many"),
    ("adv.score", "repro.adversarial.objective", "Objective", "score"),
    ("campaign.lease", "repro.campaign.coordinator", "CampaignCoordinator", "lease"),
    ("campaign.submit", "repro.campaign.coordinator", "CampaignCoordinator", "submit"),
) + tuple(
    ("campaign.journal", "repro.campaign.journal", "CampaignJournal", name)
    for name in ("write_header", "write_grant", "write_unit", "write_quarantine")
)

#: Every layer whose self time counts towards ``coverage``.
TIMED_LAYERS = tuple(
    sorted(
        {layer for layer, *_ in _FUNCTIONS}
        | {layer for layer, *_ in _METHODS}
        | {"wire.encode", "wire.decode", "runner", "campaign.exec"}
        | {f"sched.{name}" for name in SCHEDULERS}
    )
)


def _text_len(args: tuple, kwargs: dict, result) -> int:
    return len(result)


def _arg_len(args: tuple, kwargs: dict, result) -> int:
    return len(args[0])


def install(recorder: SpanRecorder, *, runner_layer: str = "runner") -> Patcher:
    """Wrap every layer entry point; call ``undo()`` on the result to remove.

    ``run_suite`` is charged to ``runner_layer``: the suite runner's own loop
    in-process, ``campaign.exec`` inside a campaign worker.
    """
    import repro.schedulers  # noqa: F401 - registers every heuristic
    from repro.experiments import runner
    from repro.schedulers.base import SCHEDULER_REGISTRY

    patcher = Patcher()
    patcher.wrap_function(
        runner.run_suite, recorder.wrap(runner_layer, runner.run_suite)
    )
    for layer, module_name, attr in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        patcher.wrap_function(original, recorder.wrap(layer, original))
    wire = importlib.import_module("repro.core.wire")
    patcher.wrap_function(
        wire.dumps, recorder.wrap("wire.encode", wire.dumps, measure=_text_len)
    )
    patcher.wrap_function(
        wire.loads, recorder.wrap("wire.decode", wire.loads, measure=_arg_len)
    )
    for layer, module_name, cls_name, method in _METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        patcher.wrap_method(cls, method, recorder.wrap(layer, cls.__dict__[method]))
    for name in SCHEDULERS:
        cls = SCHEDULER_REGISTRY[name]
        patcher.wrap_method(
            cls, "_schedule", recorder.wrap(f"sched.{name}", cls.__dict__["_schedule"])
        )
    return patcher
