"""Tests for the table/figure renderers."""

import pytest

from repro.experiments.report import fmt, render_ascii_plot, render_table


def test_render_table_alignment():
    out = render_table("Title", ["a", "bb"], [["x", 1], ["yyyy", 22]])
    lines = out.splitlines()
    assert lines[0] == "Title"
    assert "a" in lines[2] and "bb" in lines[2]
    # All data rows have consistent column positions.
    assert lines[4].startswith("x")
    assert lines[5].startswith("yyyy")


def test_render_plot_contains_points():
    out = render_ascii_plot("T", [(1, 1), (2, 4)], "x", "y")
    grid = [line for line in out.splitlines() if line.startswith("|")]
    assert sum(line.count("*") for line in grid) == 2
    assert "x: 1 .. 2" in out


def test_render_plot_with_reference():
    out = render_ascii_plot("T", [(1, 1)], "x", "y", reference=[(1, 2), (1, 0)])
    assert "*" in out and "." in out


def test_render_plot_empty_raises():
    with pytest.raises(ValueError):
        render_ascii_plot("T", [], "x", "y")


def test_fmt():
    assert fmt(1234567) == "1,234,567"
    assert fmt(3.14159) == "3.14"
    assert fmt(10390216.0) == "10,390,216"


def test_render_table_no_rows():
    # Headers-only: experiment drivers render empty result sets without
    # raising (e.g. an ablation asked for zero variants).
    out = render_table("Empty", ["col_a", "col_b"], [])
    lines = out.splitlines()
    assert lines[0] == "Empty"
    assert "col_a" in lines[2] and "col_b" in lines[2]
    assert len(lines) == 4  # title, rule, header, dashes — no data rows


def test_render_plot_flat_series():
    # A horizontal series has zero y-span; the renderer must not divide
    # by zero and still plots every point.
    out = render_ascii_plot("flat", [(0, 3.0), (1, 3.0), (2, 3.0)], "x", "y")
    grid = [line for line in out.splitlines() if line.startswith("|")]
    assert sum(line.count("*") for line in grid) == 3


def test_format_bench_empty_dict():
    from repro.bench import format_bench

    out = format_bench({})
    assert "(not measured)" in out


def test_format_bench_partial_dict():
    from repro.bench import format_bench

    # Only the kernel section present, and even that missing some keys:
    # format_bench fills the gaps instead of raising.
    out = format_bench({"kernel": {"events_per_s": 123456.0}})
    assert "123,456" in out
    assert "best of ?" in out
    assert "fib" not in out


def test_format_bench_full_dict_lists_all_sections():
    from repro.bench import format_bench

    results = {
        "recorded_at": "2026-01-01T00:00:00",
        "kernel": {"events_per_s": 1e6, "repeats": 10},
        "process_switch": {"roundtrips_per_s": 2e5, "repeats": 5},
        "fib": {"tasks_per_s": 1e5, "tasks": 4789, "workers": 4,
                "run_aheads": 3461},
        "knary": {"tasks_per_s": 9e4, "tasks": 1718, "workers": 4},
    }
    out = format_bench(results)
    assert "kernel events/s" in out
    assert "process roundtrips/s" in out
    assert "fib tasks/s" in out and "knary tasks/s" in out
    assert "3461 run-ahead charges" in out
    assert "2026-01-01T00:00:00" in out
