"""Every metric the benchmark prints is declared in BENCHMARK.json, and
the reverse.  Runs the certify workload briefly, once per trace mode."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_the_spec(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "5",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {ln.split()[1] for ln in done.stdout.splitlines() if ln.startswith("metric ")}
    assert printed == set(want)


def test_spec_shape():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
