import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockgauge import SweepConfig, calibrate, figure_rows, sweep
from fockgauge.cli import CSV_BLOCK_ROWS as BLOCK_ROWS, csv_blocks, dumps, format_csv
from fockgauge.errors import SchemaError
from fockgauge.gauges import INEQUALITIES
from fockgauge.verify import sweep_config_from_dict
from _oracles import csv_text, reference_fig2, reference_fig3


# ------------------------------------------------------------------ sweep

def test_empty_sweep():
    report = sweep(SweepConfig(n_pure=0, n_mixed=0, cutoff=8))
    assert report.total_violations == 0
    assert all(t.checked == 0 for t in report.tallies.values())
    assert report.min_trace_ratio is None
    assert '"worst_slack": null' in dumps(report.to_dict())


def test_small_sweep_clean():
    report = sweep(SweepConfig(n_pure=200, n_mixed=50, cutoff=16, rank=4, seed=42))
    assert report.total_violations == 0
    assert report.skipped == 0
    assert report.tallies["tight_scan"].checked == 250
    assert report.tallies["covariance_floor"].checked == 250


def test_sweep_determinism():
    config = SweepConfig(n_pure=60, n_mixed=20, cutoff=12, rank=3, seed=7)
    first = sweep(config)
    second = sweep(config)
    assert dumps(first.to_dict()) == dumps(second.to_dict())
    assert first.wall_time != 0.0  # measured, but excluded from serialization
    assert "wall_time" not in first.to_dict()


def test_sweep_trace_ratio_strictly_above_one():
    report = sweep(SweepConfig(n_pure=300, n_mixed=0, cutoff=16, seed=11))
    assert report.min_trace_ratio is not None
    assert report.min_trace_ratio > 1.0


def test_sweep_covers_every_gauge_inequality():
    # oracle closure: the gauge report and the sweep both read every registry
    # row, and the serialized tallies keep the registry's order
    from fockgauge import coherent, ellipse, full_report, summarize

    names = [row.name for row in INEQUALITIES]
    s = summarize(coherent(1.0))
    assert list(full_report(s, ellipse(s)).records) == names
    report = sweep(SweepConfig(n_pure=1, n_mixed=0, cutoff=4))
    assert list(report.tallies) == names
    assert list(report.to_dict()["tallies"]) == names


def test_sweep_skips_truncation_suspect_states(monkeypatch):
    # a clipped coherent tail flags the summary; the sweep must exclude the
    # state from every tally and count it separately
    import numpy as np

    import fockgauge.verify as verify_mod
    from fockgauge import FockVector, coherent

    amps = coherent(2.0).amplitudes[:6]
    clipped = FockVector(amps / np.linalg.norm(amps))
    original = verify_mod.random_state
    calls = 0

    def patched(cutoff, kind, rank=1, seed=0):
        # the sweep builds its states in index order, so the first call is state 0
        nonlocal calls
        calls += 1
        if calls == 1:
            return clipped
        return original(cutoff, kind, rank=rank, seed=seed)

    monkeypatch.setattr(verify_mod, "random_state", patched)
    report = verify_mod.sweep(SweepConfig(n_pure=5, n_mixed=0, cutoff=8, seed=3))
    assert report.skipped == 1
    assert report.tallies["tight_scan"].checked == 4


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n_pure=-1, n_mixed=0, cutoff=8)
    with pytest.raises(ValueError):
        SweepConfig(n_pure=0, n_mixed=0, cutoff=999)
    config = sweep_config_from_dict({"n_pure": 1, "n_mixed": 0, "cutoff": 4})
    assert config.rank == 1 and config.seed == 0
    with pytest.raises(SchemaError):
        sweep_config_from_dict({"n_pure": 1, "cutoff": 4})
    with pytest.raises(SchemaError):
        sweep_config_from_dict({"n_pure": 1, "n_mixed": 0, "cutoff": 4, "foo": 1})
    with pytest.raises(SchemaError):
        sweep_config_from_dict({"n_pure": 1.5, "n_mixed": 0, "cutoff": 4})
    with pytest.raises(SchemaError, match="unknown sweep config fields: tolerances"):
        sweep_config_from_dict({"n_pure": 1, "n_mixed": 0, "cutoff": 4, "tolerances": {}})
    with pytest.raises(SchemaError, match="seed"):
        sweep_config_from_dict({"n_pure": 1, "n_mixed": 0, "cutoff": 4, "seed": -1})
    # mixed ranks cycle through 1..rank, and a rank above cutoff + 1 cannot be built
    for rank in (0, 4):
        with pytest.raises(ValueError, match="rank"):
            SweepConfig(n_pure=0, n_mixed=5, cutoff=2, rank=rank)
        with pytest.raises(SchemaError, match="rank"):
            sweep_config_from_dict({"n_pure": 0, "n_mixed": 5, "cutoff": 2, "rank": rank})
    assert SweepConfig(n_pure=0, n_mixed=5, cutoff=2, rank=3).rank == 3


def test_sweep_config_refuses_more_states_than_seeds_hold():
    # every index of a sweep fits one 32-bit seeding word; no state is built here
    assert SweepConfig(n_pure=2**32, n_mixed=0, cutoff=4).n_pure == 2**32
    for n_pure, n_mixed in ((2**32, 1), (0, 2**32 + 1), (10**30, 0)):
        with pytest.raises(ValueError, match='"n_pure" \\+ "n_mixed"'):
            SweepConfig(n_pure=n_pure, n_mixed=n_mixed, cutoff=4)
        with pytest.raises(SchemaError, match='"n_pure" \\+ "n_mixed"'):
            sweep_config_from_dict({"n_pure": n_pure, "n_mixed": n_mixed, "cutoff": 4})


def test_sweep_config_refuses_a_negative_seed_before_any_state():
    # refused whether or not the sweep would build a state
    for n_pure in (2, 0):
        with pytest.raises(ValueError, match='"seed"'):
            SweepConfig(n_pure=n_pure, n_mixed=0, cutoff=4, seed=-1)
    assert SweepConfig(n_pure=0, n_mixed=0, cutoff=4, seed=0).seed == 0


# ------------------------------------------------------------------ calibrate

def test_calibration_constants():
    report = calibrate()
    assert report.c_tight == pytest.approx(0.5, abs=1e-10)
    assert report.c1 == report.c_tight
    assert report.c2 == 0.25


def test_calibration_anchors():
    report = calibrate()
    assert len(report.anchors) == 4
    estimates = [a["c_estimate"] for a in report.anchors]
    assert max(estimates) - min(estimates) <= 1e-8
    for anchor in report.anchors:
        assert abs(anchor["closed_slack"]) <= 1e-10
        assert abs(anchor["scan_slack"]) <= 1e-8


def test_calibration_table_rows():
    report = calibrate()
    tags = [row["tag"] for row in report.printed_vs_derived]
    assert tags == ["tight_closed_form", "relaxed_lambda_plus", "relaxed_trace"]
    ratios = {row["tag"]: row["ratio"] for row in report.printed_vs_derived}
    assert ratios["tight_closed_form"] == pytest.approx(2.0, abs=1e-9)
    assert ratios["relaxed_lambda_plus"] == pytest.approx(2.0, abs=1e-9)
    assert ratios["relaxed_trace"] == pytest.approx(4.0)


def test_calibration_determinism():
    assert dumps(calibrate().to_dict()) == dumps(calibrate().to_dict())


# ------------------------------------------------------------------ figures

def test_fig2_shape_and_bounds():
    header, rows = figure_rows("fig2", 16)
    assert header == ["var_a_abs", "cov_ada", "bound_lambda_plus", "bound_trace"]
    assert len(rows) == 16 * 16
    for v, c, b_lambda, b_trace in rows:
        assert c >= math.sqrt(0.25 + v * v) - 1e-12
        assert b_lambda == pytest.approx(0.5 / (c + v))
        assert b_trace == pytest.approx(0.25 / c)
        assert b_lambda >= b_trace - 1e-12  # lambda-plus floor is the tighter one


@pytest.mark.parametrize("resolution", [17, 100])
def test_fig2_is_bit_identical_to_the_per_v_oracle(resolution):
    # the one 2-d linspace must give each row what a 1-d linspace from that
    # row's floor gives; odd sizes keep the grids off round binary steps
    _, table = figure_rows("fig2", resolution)
    want = reference_fig2(resolution)
    assert table.shape == want.shape
    assert np.array_equal(table.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("resolution", [16, 17, 256, 512])
def test_fig3_is_bit_identical_to_the_repeat_and_tile_oracle(resolution):
    # the product of the axis with itself must hand math.hypot the pairs of
    # the repeated and tiled columns, in their order
    _, table = figure_rows("fig3", resolution)
    want = reference_fig3(resolution)
    assert table.shape == want.shape
    assert np.array_equal(table.view(np.uint64), want.view(np.uint64))


def test_fig3_vertex_and_surfaces():
    header, rows = figure_rows("fig3", 17)
    assert header == ["re_var_a", "im_var_a", "hyperboloid", "cone"]
    vertex = [row for row in rows if row[0] == 0.0 and row[1] == 0.0]
    assert len(vertex) == 1
    assert vertex[0][2] == pytest.approx(0.5)
    assert vertex[0][3] == pytest.approx(0.5)
    for re, im, hyper, cone in rows:
        spread = math.hypot(re, im)
        assert hyper == pytest.approx(math.sqrt(0.25 + spread**2))
        assert cone == pytest.approx(spread + 0.5)
        assert cone >= hyper - 1e-12  # the cone lies above the hyperboloid


def test_fig4_rows():
    header, rows = figure_rows("fig4", 16)
    assert header == ["gamma_re", "gamma_im", "cov_ada", "var_n", "bound", "rel_gap"]
    assert len(rows) == 3 * 16
    coherent_rows = [r for r in rows if r[0] == 0.0 and r[1] == 0.0]
    assert len(coherent_rows) == 3  # gamma = 0 repeats once per phase branch
    for row in coherent_rows:
        assert row[2] == pytest.approx(0.5, abs=1e-10)  # cov_ada of |alpha=3>
        assert row[3] == pytest.approx(9.0, abs=1e-8)  # Poisson variance
    for _, _, cov, var_n, bound, rel_gap in rows:
        assert var_n - bound >= 0.0
        assert rel_gap == pytest.approx((var_n - bound) / bound)


@pytest.mark.parametrize("which,rows", [("fig2", 17 * 17), ("fig3", 17 * 17), ("fig4", 3 * 17)])
def test_figure_rows_is_one_float64_table(which, rows):
    header, table = figure_rows(which, 17)
    assert isinstance(table, np.ndarray) and table.dtype == np.float64
    assert table.shape == (rows, len(header))
    assert len(table) == rows


def test_figure_validation():
    with pytest.raises(ValueError):
        figure_rows("fig9", 16)
    with pytest.raises(ValueError):
        figure_rows("fig2", 8)
    with pytest.raises(ValueError):
        figure_rows("fig2", 4096)


def test_figure_csv_determinism():
    header, rows = figure_rows("fig3", 16)
    text = format_csv(header, rows)
    header2, rows2 = figure_rows("fig3", 16)
    assert format_csv(header2, rows2) == text
    assert text.startswith("re_var_a,im_var_a,hyperboloid,cone\n")


@pytest.mark.parametrize("resolution", [16, 64])
@pytest.mark.parametrize("which", ["fig2", "fig3", "fig4"])
def test_figure_csv_matches_the_per_cell_oracle(which, resolution):
    header, rows = figure_rows(which, resolution)
    assert format_csv(header, rows) == csv_text(header, rows)


def test_csv_edge_values_match_the_per_cell_oracle():
    header = ["a", "b", "c", "d", "e", "f"]
    rows = [
        (-0.0, 5e-324, 1e16, 1.7976931348623157e308, np.float64(1 / 3), 7),
        [0.1, -5e-324, -1e16, -1.7976931348623157e308, np.float64(-0.0), -(2**60)],
    ]
    text = format_csv(header, rows)
    assert text == csv_text(header, rows)
    assert text.splitlines()[1].split(",") == [
        "-0", "4.9406564584124654e-324", "10000000000000000", "1.7976931348623157e+308",
        "0.33333333333333331", "7",
    ]


# Few distinct values per column, so that short columns are formatted per cell
# and long ones once per distinct value, and both meet signed zeros, NaN,
# infinities, subnormals, integers and the longest texts (24 characters).
CSV_POOL = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1 / 3, -(2**60), 7,
    -1.2345678901234567e-308, -1.7976931348623157e308,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.tuples(*[st.sampled_from(CSV_POOL)] * width), min_size=1, max_size=40
        )
    )
)
def test_csv_matches_the_per_cell_oracle_on_random_tables(rows):
    header = [f"c{j}" for j in range(len(rows[0]))]
    assert format_csv(header, rows) == csv_text(header, rows)


def test_csv_keeps_signed_zeros_apart_in_repeated_and_per_cell_columns():
    header = ["repeated", "per_cell"]
    rows = [(0.0, 0.0), (-0.0, -0.0), (0.0, 1.0), (-0.0, 2.0)]
    text = format_csv(header, rows)
    assert text == csv_text(header, rows)
    assert text == "repeated,per_cell\n0,0\n-0,-0\n0,1\n-0,2\n"


@pytest.mark.parametrize("extra", [None, -1, 0, 1, BLOCK_ROWS + 1])
def test_csv_matches_the_per_cell_oracle_across_row_blocks(extra):
    # 0 rows, 1 row, and one block size -1, +0, +1 rows and two blocks +1
    n = 1 if extra is None else BLOCK_ROWS + extra
    rng = np.random.default_rng(n)
    repeated = rng.choice(np.array(CSV_POOL), n)  # formatted once per value
    per_cell = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    table = np.column_stack((repeated, per_cell, -np.abs(per_cell)))
    header = ["repeated", "per_cell", "negative"]
    for rows in (table, table[:0]):
        assert format_csv(header, rows) == csv_text(header, rows)
    assert format_csv(header, table[:0]) == "repeated,per_cell,negative\n"


@pytest.mark.parametrize("distinct", [16, 17])
def test_csv_matches_the_oracle_at_the_repeated_column_threshold(distinct):
    # 32 rows: 16 distinct values make a repeated column, 17 a per-cell one
    values = np.arange(distinct) / 3.0 - 2.0
    column = np.resize(values, 32)
    table = np.column_stack((column, column[::-1] * 1e300))
    text = format_csv(["x", "y"], table)
    assert text == csv_text(["x", "y"], table)
    assert len({line.split(",")[0] for line in text.splitlines()[1:]}) == distinct


def test_csv_prints_every_nan_bit_pattern_as_nan():
    patterns = np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    ).view(np.float64)
    assert np.isnan(patterns).all() and len(set(patterns.view(np.int64).tolist())) == 5
    nans = np.resize(patterns, 40)  # a repeated column of five distinct keys
    table = np.column_stack((nans, np.arange(40.0)))
    text = format_csv(["nan", "i"], table)
    assert text == csv_text(["nan", "i"], table)
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == ["nan"] * 40


def test_csv_pads_each_column_to_its_own_widest_text():
    # a column of 1-byte texts beside one of 24-byte texts, both repeated and per cell
    n = 10
    ones = np.zeros(n)
    widest = np.full(n, -1.7976931348623157e308)
    per_cell = -(np.arange(n) * 1.2345678901234567e-300)
    table = np.column_stack((ones, widest, ones, per_cell))
    text = format_csv(["a", "b", "c", "d"], table)
    assert text == csv_text(["a", "b", "c", "d"], table)
    assert text.splitlines()[1] == "0,-1.7976931348623157e+308,0,-0"
    assert len(text.splitlines()[2].split(",")[3]) == 24


def test_csv_repeated_column_whose_values_first_appear_in_a_later_block():
    n = 2 * BLOCK_ROWS + 7
    late = np.zeros(n)
    late[BLOCK_ROWS + 3 :: 5] = -np.arange(1.0, 1.0 + len(late[BLOCK_ROWS + 3 :: 5])) / 7.0
    late[-1] = 5e-324
    table = np.column_stack((late, np.arange(n) * 0.1))
    text = format_csv(["late", "i"], table)
    assert text == csv_text(["late", "i"], table)
    assert text.splitlines()[BLOCK_ROWS + 4].startswith("-0.14285714285714285,")


def test_csv_reads_a_table_in_any_memory_order():
    n = BLOCK_ROWS + 5
    rng = np.random.default_rng(26)
    columns = (
        rng.choice(np.array(CSV_POOL), n),  # repeated
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),  # per cell
        np.repeat(np.linspace(-2.0, 2.0, 64), -(-n // 64))[:n],  # repeated, sorted
    )
    c_ordered = np.column_stack(columns)
    f_ordered = np.asfortranarray(c_ordered)
    wide = np.zeros((2 * n, 2 * len(columns)))
    wide[::2, ::2] = c_ordered
    strided = wide[::2, ::2]
    assert c_ordered.flags.c_contiguous and f_ordered.flags.f_contiguous
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    header = ["repeated", "per_cell", "sorted"]
    want = csv_text(header, c_ordered)
    for table in (c_ordered, f_ordered, strided):
        assert format_csv(header, table) == want


@pytest.mark.parametrize("rows", [[(1.0, 2.0, 3.0)], [(1.0,)], [(1.0, 2.0), (3.0,)], [1.0, 2.0]])
def test_csv_refuses_a_table_that_does_not_fit_the_header(rows):
    with pytest.raises(ValueError):
        format_csv(["a", "b"], rows)
    with pytest.raises(ValueError):  # refused when called, before any block is made
        csv_blocks(["a", "b"], rows)


def test_csv_refuses_a_table_without_columns():
    with pytest.raises(ValueError):
        format_csv([], [[], []])
