"""The paper's full-scale result, pinned byte for byte.

Regenerates the Table-1 suite at the paper's scale (35 graphs per cell,
2100 graphs of 40-100 tasks, master seed 19940815), schedules it with the
five heuristics, and compares all 11 table CSVs and all 6 figure CSVs with
the recorded ``results/full_suite/`` artifacts (written by
``REPRO_FULL_SUITE=1 pytest benchmarks/ --benchmark-only``).  A refactor
that claims byte-identical schedules must pass this on the 2100 graphs the
paper's comparison rests on, not just on the 60-graph golden suite.

The shape claims EXPERIMENTS.md makes about that run are asserted as well,
so that a deliberate change which has to re-record the CSVs still shows
what must survive it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import figures, tables
from repro.experiments.runner import run_suite
from repro.generation.suites import PAPER_GRAPHS_PER_CELL, generate_suite

RESULTS = Path(__file__).resolve().parent.parent / "results" / "full_suite"
TABLES = [f"table{i}" for i in range(1, 12)]
FIGURES = [f"figure{i}" for i in range(1, 7)]
BANDS = ["G < 0.08", "0.08 < G < 0.2", "0.2 < G < 0.8", "0.8 < G < 2", "2 < G"]
HEURISTICS = ["CLANS", "DSC", "MCP", "MH", "HU"]


@pytest.fixture(scope="module")
def full_results():
    suite = generate_suite(
        graphs_per_cell=PAPER_GRAPHS_PER_CELL, n_tasks_range=(40, 100)
    )
    results = run_suite(list(suite))
    assert len(results) == 2100
    return results


@pytest.fixture(scope="module")
def table(full_results):
    built = {}

    def get(name: str):
        if name not in built:
            built[name] = getattr(tables, name)(full_results)
        return built[name]

    return get


@pytest.mark.parametrize("name", TABLES)
def test_table_csv_matches_recorded(table, name):
    recorded = (RESULTS / f"{name}.csv").read_text()
    assert table(name).to_csv() + "\n" == recorded


@pytest.mark.parametrize("name", FIGURES)
def test_figure_csv_matches_recorded(full_results, name):
    recorded = (RESULTS / f"{name}.csv").read_text()
    assert getattr(figures, name)(full_results).to_csv() + "\n" == recorded


class TestExperimentsShapeClaims:
    """EXPERIMENTS.md's reading of Tables 2-4, as assertions."""

    def test_bands_hold_420_graphs_each(self, table):
        t1 = table("table1")
        assert [sum(values) for _, values in t1.rows] == [420.0] * 5

    def test_clans_never_retards(self, table):
        for name in ("table2", "table6", "table10"):
            assert table(name).column("CLANS") == [0.0] * len(table(name).rows)

    def test_hu_retards_every_graph_below_0_08(self, table):
        assert table("table2").value("G < 0.08", "HU") == 420.0

    def test_clans_nrpt_within_0_08_of_the_best(self, table):
        t3 = table("table3")
        for band in BANDS:
            row = [t3.value(band, h) for h in HEURISTICS]
            assert t3.value(band, "CLANS") - min(row) <= 0.08, band

    def test_speedup_rises_with_the_band(self, table):
        t4 = table("table4")
        assert [label for label, _ in t4.rows] == BANDS
        for h in HEURISTICS:
            column = t4.column(h)
            assert all(a < b for a, b in zip(column, column[1:])), h

    def test_dsc_and_mcp_first_overtake_clans_in_band_0_2_to_0_8(self, table):
        t4 = table("table4")
        for band in BANDS[:2]:
            for h in ("DSC", "MCP"):
                assert t4.value(band, "CLANS") > t4.value(band, h), (band, h)
        for h in ("DSC", "MCP"):
            assert t4.value(BANDS[2], h) > t4.value(BANDS[2], "CLANS"), h
