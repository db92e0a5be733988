"""Coverage for ``experiments.reporting``: tables, float formats, downsample,
percent labels and the sectioned report renderer."""

import pytest

from repro.experiments import reporting
from repro.experiments.reporting import (
    _fmt,
    downsample,
    format_series,
    format_table,
    percent,
    render,
)


# ----------------------------------------------------------------------
# format_table
# ----------------------------------------------------------------------
def test_format_table_column_widths_fit_widest_cell():
    table = format_table(["id", "value"], [("a", 1), ("long-name", 2)])
    lines = table.splitlines()
    assert lines[0] == "id         value"
    assert lines[1] == "---------  -----"
    assert lines[2] == "a          1    "
    assert lines[3] == "long-name  2    "
    # Every line is equally wide (fixed-width table).
    assert len({len(line) for line in lines}) == 1


def test_format_table_header_wider_than_cells():
    table = format_table(["wide-header"], [("x",)])
    lines = table.splitlines()
    assert lines[1] == "-" * len("wide-header")
    assert lines[2].startswith("x")


def test_format_table_empty_rows():
    table = format_table(["a", "b"], [])
    assert table.splitlines() == ["a  b", "-  -"]


def test_format_table_mixed_types_use_fmt():
    table = format_table(["v"], [(1.5,), (3e-7,), ("txt",), (7,)])
    assert "1.500" in table
    assert "3.00e-07" in table
    assert "txt" in table
    assert "7" in table


# ----------------------------------------------------------------------
# _fmt float edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value,expected", [
    (0.0, "0.000"),                  # zero is not "tiny"
    (1e-3, "0.001"),                 # boundary: fixed, not scientific
    (9.99e-4, "9.99e-04"),           # just below the boundary
    (99999.0, "99999.000"),          # just below the upper boundary
    (1e5, "1.00e+05"),               # upper boundary goes scientific
    (-4.2, "-4.200"),
    (-2e-6, "-2.00e-06"),            # sign does not defeat the magnitude test
    (42, "42"),                      # ints untouched
    (True, "True"),                  # bools are not floats
    ("x", "x"),
])
def test_fmt_edges(value, expected):
    assert _fmt(value) == expected


# ----------------------------------------------------------------------
# percent labels and render
# ----------------------------------------------------------------------
def test_percent_matches_whole_percent_and_keeps_fractions_apart():
    for rate in (0.0, 0.01, 0.02, 0.03, 0.05, 0.07, 0.5, 1.0):
        assert percent(rate) == f"{rate:.0%}"
    labels = [percent(rate) for rate in (0.006, 0.01, 0.015, 0.02)]
    assert labels == ["0.6%", "1%", "1.5%", "2%"]


def test_render_sections_labels_and_computed_columns():
    rows = {"a": {"x": 1.5, "y": 2}, "b": {"x": 3e-7, "y": 4}}
    text = render("Title", [
        (None, "key", (("X", "x"),), rows),
        ("\nsecond", None, (("X", "x"), ("2y", lambda row: 2 * row["y"])), rows),
    ])
    assert text == "\n".join([
        "Title",
        format_table(["key", "X"], [("a", 1.5), ("b", 3e-7)]),
        "\nsecond",
        format_table(["X", "2y"], [(1.5, 4), (3e-7, 8)]),
    ])


# ----------------------------------------------------------------------
# downsample invariants
# ----------------------------------------------------------------------
def series_of(n):
    return [(float(i), float(i) * 10.0) for i in range(n)]


def test_downsample_short_series_untouched():
    for n in (10, 24):
        series = series_of(n)
        assert downsample(series) is series


def test_downsample_keeps_first_and_last(monkeypatch):
    # Regression: the stride-based thinning dropped the final sample, so
    # time-series reports never showed the end state of a run.
    for points in (2, 10, 24):
        monkeypatch.setattr(reporting, "SERIES_POINTS", points)
        for n in (25, 100, 241, 1000):
            thin = downsample(series_of(n))
            assert len(thin) == points, (n, points)
            assert thin[0] == (0.0, 0.0), (n, points)
            assert thin[-1] == (float(n - 1), (n - 1) * 10.0), (n, points)


def test_downsample_is_a_strictly_increasing_subsequence():
    series = series_of(100)
    thin = downsample(series)
    times = [t for t, _v in thin]
    assert times == sorted(set(times))
    assert all(point in series for point in thin)


# ----------------------------------------------------------------------
# format_series
# ----------------------------------------------------------------------
def test_format_series_units_and_values():
    rendered = format_series("traffic", [(3600.0, 0.25), (7200.0, 0.5)])
    lines = rendered.splitlines()
    assert lines[0] == "traffic"
    assert "t=   1.00h" in lines[1] and "0.250" in lines[1]
    assert "t=   2.00h" in lines[2]
