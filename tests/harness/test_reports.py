"""Tests for the Report container and experiment rendering contracts."""

from repro.grid import resolve_grid, run_grid
from repro.metrics.reporting import Report, TextTable


def test_report_render_includes_tables_and_notes():
    report = Report("demo")
    table = TextTable("t", ["a"]).add_row(1)
    report.tables.append(table)
    report.notes.append("remember this")
    rendered = report.render()
    assert "#### Experiment demo ####" in rendered
    assert "== t ==" in rendered
    assert "note: remember this" in rendered


def test_report_empty_renders_header_only():
    rendered = Report("empty").render()
    assert rendered == "#### Experiment empty ####"


def test_every_figure_experiment_appends_its_tables():
    """Guard against the 'built a table, forgot to append it' bug class
    (it bit fig7 and the latency experiment once): every figure grid
    must produce at least one table at miniature size."""
    tiny = {"records_per_thread": 600, "batch_records": 150}
    #: (grid, axis overrides, fixed overrides) per paper figure.
    runs = [
        ("fig6a-c", {"nodes": (2,)}, {"threads": 2, **tiny}),
        ("fig6d-e", {"nodes": (2,)},
         {"threads": 2, "records_per_thread": 300, "batch_records": 75}),
        ("fig7", {"workload": ("ysb",), "nodes": ("L", 2)},
         {"threads": 2, **tiny}),
        ("fig8ab", {"buffer": (65536,)},
         {"threads": 2, "records_per_thread": 8000}),
        ("fig8c", {"threads": (2,)}, {"records_per_thread": 8000}),
        ("fig8d", {"z": (0.2,)}, {"threads": 2, "records_per_thread": 6000}),
        ("fig9", {"threads": (2,)}, {"records_per_thread": 8000}),
        ("fig10", {}, {"threads": 2, "records_per_thread": 1500}),
        ("table1", {}, {"threads": 2, "records_per_thread": 1500}),
        ("abl-credits", {"credits": (8,)},
         {"threads": 2, "records_per_thread": 8000}),
        ("abl-epoch", {"epoch_bytes": (64 * 1024,)}, {"nodes": 2, "threads": 2}),
        ("abl-exec", {}, {"nodes": 2, "threads": 2, "records_per_thread": 600}),
        ("abl-signal", {}, {"threads": 2, "records_per_thread": 8000}),
        ("extra-latency", {},
         {"nodes": 2, "threads": 2, "records_per_thread": 1500}),
    ]
    for name, axes, fixed in runs:
        report = run_grid(resolve_grid(name), axes, fixed)
        assert report.tables, f"{report.name} produced no tables"
        assert report.rows, f"{report.name} produced no rows"
        assert report.render().count("==") >= 2
