"""Technology-level cost models: area, power, timing, PDP."""

from .area import circuit_area
from .library import NANGATE45, Cell, TechLibrary, default_library
from .power import PowerReport, circuit_power, signal_probabilities
from .timing import (
    TimingPowerSummary,
    characterize,
    critical_path,
    critical_path_delay,
    pdp,
)

__all__ = [
    "circuit_area",
    "NANGATE45",
    "Cell",
    "TechLibrary",
    "default_library",
    "PowerReport",
    "circuit_power",
    "signal_probabilities",
    "TimingPowerSummary",
    "characterize",
    "critical_path",
    "critical_path_delay",
    "pdp",
]
