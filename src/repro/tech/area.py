"""Area estimation.

Area is the cost signal inside the CGP fitness function (the paper picks
it because it is quick to compute from the technology library and highly
correlated with power).  It is simply the sum of active-cell areas.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..circuits.netlist import Netlist
from .library import TechLibrary, default_library

__all__ = ["circuit_area"]


def circuit_area(
    netlist: Netlist, library: Optional[TechLibrary] = None
) -> float:
    """Total cell area of a netlist's output cone in um^2.

    Inactive CGP nodes do not exist in the synthesized circuit, so only
    gates in the output cone count.  Their areas are one float64 numpy
    sum in netlist order: the sum the search takes over a chromosome's
    active nodes (:meth:`~repro.core.objective.CircuitObjective.area`
    and the engine's per-opcode areas), so a design's characterized
    area equals its search area bit for bit.

    Args:
        netlist: Circuit to measure.
        library: Technology library (defaults to the 45 nm-class one).
    """
    lib = library or default_library()
    areas = [
        lib.cell(netlist.gates[k].fn).area
        for k in netlist.active_gate_indices()
    ]
    return float(np.array(areas, dtype=np.float64).sum())
