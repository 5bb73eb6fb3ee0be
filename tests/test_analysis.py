"""Analysis helpers: sweeps, heat maps, reporting."""

import numpy as np
import pytest

from repro.analysis import (
    PAPER_WMED_LEVELS,
    banner,
    characterize_design,
    downsample,
    error_heatmap,
    error_mass_correlation,
    evolve_front,
    format_pmf_sparkline,
    format_series,
    format_table,
    render_ascii,
)
from repro.baselines import build_truncated_multiplier
from repro.circuits.generators import build_baugh_wooley_multiplier
from repro.circuits.simulator import truth_table
from repro.core import EvolutionConfig
from repro.errors import from_pmf, uniform


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.34567], [10, 3.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "2.346" in text  # 4 significant digits


def test_format_table_row_guard():
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


def test_format_table_title():
    assert format_table(["a"], [[1]], title="T").splitlines()[0] == "T"


def test_sparkline_shape():
    line = format_pmf_sparkline(np.ones(256) / 256, bins=64)
    assert len(line) == 64
    assert len(set(line)) == 1  # uniform -> flat


def test_sparkline_peak_position():
    pmf = np.zeros(64)
    pmf[0] = 1.0
    line = format_pmf_sparkline(pmf, bins=64)
    assert line[0] == "@"


def test_sparkline_empty():
    assert format_pmf_sparkline([]) == ""


def test_format_series():
    s = format_series("t", [1.0], [2.0], "x", "y")
    assert s.startswith("t [x vs y]")
    assert "(1, 2)" in s


def test_banner():
    assert "hello" in banner("hello")


# ----------------------------------------------------------------------
# Heat maps
# ----------------------------------------------------------------------
def test_error_heatmap_exact_is_zero(exact4s):
    m = error_heatmap(exact4s, 4, signed=True)
    assert m.shape == (16, 16)
    assert m.max() == 0.0


def test_error_heatmap_truncated_low_columns(exact8u):
    net = build_truncated_multiplier(8, 6, signed=False)
    m = error_heatmap(truth_table(net), 8, signed=False, relative=False)
    # Row x=0: products are all 0 and truncation keeps them 0.
    assert m[0].max() == 0.0
    assert m.max() > 0


def test_downsample_mean_pooling():
    m = np.arange(16.0).reshape(4, 4)
    small = downsample(m, 2)
    assert small.shape == (2, 2)
    assert small[0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)


def test_downsample_guards():
    with pytest.raises(ValueError):
        downsample(np.zeros((4, 5)), 2)
    with pytest.raises(ValueError):
        downsample(np.zeros((4, 4)), 3)


def test_render_ascii_size():
    m = np.random.default_rng(0).random((64, 64))
    art = render_ascii(m, bins=16)
    lines = art.splitlines()
    assert len(lines) == 16 and all(len(l) == 16 for l in lines)


def test_render_ascii_all_zero():
    art = render_ascii(np.zeros((32, 32)), bins=8)
    assert set(art.replace("\n", "")) == {" "}


def test_error_mass_correlation_negative_for_protected_rows(exact4u):
    """Error placed only on low-probability rows -> negative correlation."""
    pmf = np.ones(16)
    pmf[12:] = 0.01  # high x patterns are unlikely
    d = from_pmf(pmf, width=4, name="skew")
    table = exact4u.copy()
    x_idx = np.arange(256) % 16
    table[x_idx >= 12] += 20  # error mass exactly on unlikely rows
    corr = error_mass_correlation(table, 4, d)
    assert corr < 0


def test_error_mass_correlation_zero_for_exact(exact4u):
    assert error_mass_correlation(exact4u, 4, uniform(4)) == 0.0


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------
def test_paper_levels_cover_table1():
    assert PAPER_WMED_LEVELS[0] == 0.0
    assert PAPER_WMED_LEVELS[-1] == 10.0


def test_characterize_multiplier_cross_evaluates(bw4):
    du = uniform(4, signed=True)
    pmf = np.zeros(16)
    pmf[1] = 1.0
    point = from_pmf(pmf, width=4, signed=True, name="point")
    dp = characterize_design(bw4, 4, [du, point], name="exact4")
    assert dp.component == "multiplier"
    assert dp.wmed_by_dist["Du"] == 0.0
    assert dp.wmed_by_dist["point"] == 0.0
    assert dp.power_mw > 0
    assert dp.area > 0


def test_characterize_multiplier_guards(bw4):
    with pytest.raises(ValueError):
        characterize_design(bw4, 4, [])
    with pytest.raises(ValueError):
        characterize_design(
            bw4, 4, [uniform(4, signed=True), uniform(4, signed=False)]
        )


def test_evolve_front_produces_monotone_usable_points(rng):
    seed = build_baugh_wooley_multiplier(3)
    du = uniform(3, signed=True)
    points = evolve_front(
        seed,
        3,
        design_dist=du,
        thresholds_percent=[1.0, 5.0],
        eval_dists=[du],
        config=EvolutionConfig(generations=150),
        rng=rng,
    )
    assert len(points) == 2
    for p, level in zip(points, [1.0, 5.0]):
        assert p.wmed_percent("Du") <= level + 1e-9
        assert p.threshold_percent == level
    # The looser target can only be cheaper or equal.
    assert points[1].area <= points[0].area + 1e-9
