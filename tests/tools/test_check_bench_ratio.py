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
