"""The committed benchmark record carries every ratio the CI ratchet checks."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def mod():
    spec = importlib.util.spec_from_file_location(
        "check_bench_ratio", REPO_ROOT / "tools" / "check_bench_ratio.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_record_has_every_floor_and_ceiling_key(mod):
    record = json.loads((REPO_ROOT / "BENCH_SWEEP.json").read_text())
    speedup = record["speedup"]
    missing = sorted((set(mod.FLOORS) | set(mod.CEILINGS)) - set(speedup))
    assert not missing, f"BENCH_SWEEP.json lacks ratchet keys {missing}"
    for key in list(mod.FLOORS) + list(mod.CEILINGS):
        assert isinstance(speedup[key], (int, float)), key


def _current_grid_sizes(scale: str) -> dict:
    """Points per bench-sweep leg at ``scale``, derived from the grids the
    experiments build today."""
    from repro.experiments import fig13, fig_channels, fig_recovery
    from repro.experiments.bench import BENCH_REQUEST_SIZES
    from repro.experiments.common import get_scale

    cells, point_specs = fig13.specs(scale, request_sizes=BENCH_REQUEST_SIZES)
    channels = (
        len(fig_channels.WORKLOAD_NAMES)
        * len(fig_channels.CHANNEL_COUNTS)
        * len(fig_channels.SCHEMES)
    )
    sizes = {
        name: len(point_specs)
        for name in (
            "serial-nocache",
            "serial",
            "full-fidelity",
            "timing-fidelity",
            "hotpath",
            "hotpath-metrics",
            "batched-replay",
            "parallel",
            "resume",
        )
    }
    # The outcome-store legs run the SuperMem point of each fig13 cell.
    sizes["shared-record"] = sizes["shared-outcomes"] = len(cells)
    sizes["fig-recovery"] = len(fig_recovery._cells(get_scale(scale)))
    sizes["fig-channels"] = channels
    return sizes


def test_committed_record_matches_the_current_grids():
    """Every leg of the committed record covers today's grid, so a grid
    change cannot leave a stale record behind (smoke scale: 105 fig13
    points, 15 outcome-store cells, 18 fig-recovery and 40 fig-channels
    points)."""
    record = json.loads((REPO_ROOT / "BENCH_SWEEP.json").read_text())
    runs = record["runs"]
    scales = {run["scale"] for run in runs}
    assert len(scales) == 1, scales
    expected = _current_grid_sizes(scales.pop())
    got = {run["name"]: run["points"] for run in runs}
    assert got == expected
