"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen_programs  # noqa: E402
import gen_scaled  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# the first 90 programs of the generated set: the smallest prefix that
# reaches every layer (program 86 is the first Closed one that calls
# addWheels, so the fuzzer havocs a call)
SMALL = 90


def test_traced_run_reports_every_layer_non_zero():
    result = run.measure("generated", seed=1, seconds=0, trace=True, size=SMALL)
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    zero = [n for n in names if result["metrics"][n]["value"] == 0]
    assert not zero, f"layers that read zero: {zero}"


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.measure("scaled", seed=1, seconds=0, trace=False, size=2)
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(result["metrics"][n]["value"] > 0 for n in names)
    assert result["metrics"]["closed_procs"]["value"] == 2


def test_generators_are_seeded():
    assert gen_scaled.scaled(4, 3) == gen_scaled.scaled(4, 3)
    assert gen_scaled.scaled(4, 3) != gen_scaled.scaled(4, 4)
    assert gen_programs.programs(5, 10) == gen_programs.programs(5, 10)
    assert gen_programs.programs(5, 10) != gen_programs.programs(6, 10)
