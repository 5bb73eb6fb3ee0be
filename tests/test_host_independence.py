"""Stored designs do not depend on the host's BLAS thread count.

WMED, error rate, bias and switching activity are exact integer sums
over the objective's quantized weights, and mred is a fixed-order numpy
sum, so no stored figure goes through a BLAS call.  Two builds of the
same width-7 D2 grid, one under ``OPENBLAS_NUM_THREADS=1`` and one under
``=2``, must therefore store the same rows bit for bit — and merging
them must leave one objective vector per design id (the
content-address invariant ``library merge`` relies on).  A float64 dot
of more than 8192 elements changes its last bits with the thread
count, so width 7 is the narrowest grid that would show one.

Each build runs in a fresh interpreter: OpenBLAS reads its thread count
once, at load time.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.library import DesignStore, merge_stores

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

_BUILD = """
import sys
from repro.library import BuildSpec, DesignStore, build_library

spec = BuildSpec(
    components=("multiplier",), metrics=("wmed",), widths=(7,),
    thresholds_percent=(0.5, 1.0, 2.0, 5.0), dist="d2",
    generations=300, seed=5,
)
build_library(DesignStore(sys.argv[1]), spec, max_workers=1)
"""


def _build(path: str, blas_threads: str) -> None:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD, path],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr


def _rows(path: str) -> list:
    """Every stored row as a tuple of all its fields, numbers included."""
    store = DesignStore(path)
    return sorted(
        tuple(getattr(r, f) for f in r.__dataclass_fields__)
        for r in store.select()
    )


@pytest.fixture(scope="module")
def blas_stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("blas")
    paths = {}
    for threads in ("1", "2"):
        paths[threads] = str(root / f"blas{threads}.sqlite")
        _build(paths[threads], threads)
    return paths


def test_store_rows_independent_of_blas_threads(blas_stores):
    one, two = _rows(blas_stores["1"]), _rows(blas_stores["2"])
    assert one, "the build stored no designs"
    assert one == two
    assert (
        DesignStore(blas_stores["1"]).completed_cells()
        == DesignStore(blas_stores["2"]).completed_cells()
    )


def test_merged_blas_stores_have_one_vector_per_design(
    blas_stores, tmp_path
):
    # Across both inputs and their merge, each content address (design
    # id) must carry exactly one objective vector; otherwise which bits
    # the merge keeps depends on admission order.
    out = str(tmp_path / "merged.sqlite")
    merge_stores(out, [blas_stores["1"], blas_stores["2"]])
    vectors = {}
    for path in (blas_stores["1"], blas_stores["2"], out):
        for row in DesignStore(path).select():
            vectors.setdefault(row.design_id, set()).add(
                (row.error, row.area, row.power_uw, row.pdp)
            )
    assert vectors
    assert all(len(v) == 1 for v in vectors.values()), vectors
    assert _rows(out) == _rows(blas_stores["1"])
