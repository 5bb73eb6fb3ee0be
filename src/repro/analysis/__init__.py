"""Experiment orchestration and reporting helpers."""

from .heatmap import (
    downsample,
    error_heatmap,
    error_mass_correlation,
    render_ascii,
)
from .reporting import banner, format_pmf_sparkline, format_series, format_table
from ..core.pareto import dominates, hypervolume_2d, pareto_indices, pareto_points
from .sweep import (
    PAPER_WMED_LEVELS,
    DesignPoint,
    characterize_design,
    characterize_design_sampled,
    evolve_front,
    grid_front,
    make_objective,
    mac_summary,
    parallel_front,
)

__all__ = [
    "downsample",
    "error_heatmap",
    "error_mass_correlation",
    "render_ascii",
    "banner",
    "format_pmf_sparkline",
    "format_series",
    "format_table",
    "PAPER_WMED_LEVELS",
    "DesignPoint",
    "characterize_design",
    "characterize_design_sampled",
    "evolve_front",
    "grid_front",
    "parallel_front",
    "make_objective",
    "mac_summary",
    "dominates",
    "hypervolume_2d",
    "pareto_indices",
    "pareto_points",
]
