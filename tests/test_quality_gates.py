"""Repository-wide quality gates.

Meta-tests ensuring the library keeps its documentation and API-hygiene
promises: every public module, class and function is documented; every
registered scheduler is constructible with defaults; the registry and
``__all__`` lists stay consistent; no module but ``core/taskgraph.py``
touches ``TaskGraph``'s private tables.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.taskgraph",
    "repro.core.analysis",
    "repro.core.metrics",
    "repro.core.schedule",
    "repro.core.simulator",
    "repro.core.stats",
    "repro.core.lowerbounds",
    "repro.core.exceptions",
    "repro.clans",
    "repro.clans.relations",
    "repro.clans.decomposition",
    "repro.clans.parse_tree",
    "repro.clans.properties",
    "repro.schedulers",
    "repro.generation",
    "repro.experiments",
    "repro.topology",
    "repro.hetero",
    "repro.viz",
    "repro.cli",
]


def _walk_public_modules():
    seen = []
    for name in PUBLIC_MODULES:
        seen.append(importlib.import_module(name))
    pkg = repro
    for info in pkgutil.walk_packages(pkg.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        seen.append(importlib.import_module(info.name))
    return {m.__name__: m for m in seen}.values()


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            m.__name__ for m in _walk_public_modules() if not (m.__doc__ or "").strip()
        ]
        assert not undocumented

    def test_every_public_callable_documented(self):
        missing: list[str] = []
        for module in _walk_public_modules():
            names = getattr(module, "__all__", None)
            if names is None:
                continue
            for name in names:
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        missing.append(f"{module.__name__}.{name}")
        assert not missing

    def test_public_classes_document_public_methods(self):
        from repro import Schedule, TaskGraph

        for cls in (TaskGraph, Schedule):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name}"


class TestRegistryHygiene:
    def test_all_registered_constructible_with_defaults(self):
        from repro.schedulers import SCHEDULER_REGISTRY

        for name, cls in SCHEDULER_REGISTRY.items():
            instance = cls()
            assert instance.name == name

    def test_names_unique_case_insensitively(self):
        from repro.schedulers import SCHEDULER_REGISTRY

        lowered = [n.lower() for n in SCHEDULER_REGISTRY]
        assert len(set(lowered)) == len(lowered)

    def test_all_exports_resolve(self):
        for module in _walk_public_modules():
            names = getattr(module, "__all__", None)
            if names is None:
                continue
            for name in names:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_paper_heuristics_stay_paper_pure(self):
        """The five paper heuristics must not require constructor args —
        the tables are regenerated with defaults."""
        from repro.schedulers import paper_schedulers

        names = [s.name for s in paper_schedulers()]
        assert names == ["CLANS", "DSC", "MCP", "MH", "HU"]


class TestCliListSubcommand:
    def test_lists_every_registered_scheduler(self, capsys):
        from repro.cli import main
        from repro.schedulers import SCHEDULER_REGISTRY

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCHEDULER_REGISTRY:
            assert name in out


class TestTaskGraphEncapsulation:
    """Only ``core/taskgraph.py`` reads or writes ``TaskGraph``'s adjacency,
    weight and memo tables.  The shape table is right only while every
    structural edit goes through the four mutators (``add_task``,
    ``add_edge``, ``remove_edge``, ``remove_task``), and a value memoized
    in the wrong table could outlive an edit."""

    TABLES = ("_succ", "_pred", "_weight", "_version_memo", "_shape_memo")

    def test_no_module_touches_the_private_tables(self):
        repo = Path(__file__).resolve().parent.parent
        names = "|".join(t.lstrip("_") for t in self.TABLES)
        # attribute access (g._succ) or a name handed to getattr/setattr
        pattern = re.compile(rf"\._(?:{names})\b|[\"']_(?:{names})[\"']")
        owner = repo / "src" / "repro" / "core" / "taskgraph.py"
        offenders = []
        for top in ("src", "tests", "benchmarks", "examples", "perfbench"):
            for path in sorted((repo / top).rglob("*.py")):
                if path in (owner, Path(__file__).resolve()):
                    continue
                for lineno, line in enumerate(path.read_text().splitlines(), 1):
                    if pattern.search(line):
                        offenders.append(f"{path.relative_to(repo)}:{lineno}")
        assert not offenders, offenders
