"""The benchmark's traced smoke run prints a strict-JSON result with every declared metric.

A traced run executes the stage functions through perfbench's wrappers in
one process, so a change to what a stage returns or to the names it calls
can make the run end without a result line, or with a result that is not
strict JSON.  This runs `perfbench/run.py` as it is: every workload at the
smoke preset, and train_wide at the full preset.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def run_traced(workload, preset, null_allowed=(".p50_us", ".p99_us")):
    """The last stdout line of a traced one-second run, checked as `run.py`'s result;
    only a metric whose name ends with one of `null_allowed` may be null."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--preset", preset],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_refuse)
    assert result["failed"] == 0
    metrics = result["metrics"]
    null = {name for name, m in metrics.items() if m["value"] is None}
    assert all(name.endswith(null_allowed) for name in null), null
    return {name: m["unit"] for name, m in metrics.items()}


def test_traced_smoke_run_of_every_workload_gives_every_metric():
    assert run_traced("all", "smoke") == {
        f"{w['name']}.{m['name']}": m["unit"]
        for w in SPEC["workloads"] for m in SPEC["per_layer"]}


def test_traced_full_run_of_train_wide_gives_every_metric():
    # The full preset at train_wide's scale, where the tracer wraps the most
    # sentence parses and SGD batches; one workload, so names are unprefixed.
    # It makes exactly as many predict and link calls as a percentile needs,
    # so no metric may be null.
    assert run_traced("train_wide", "full", null_allowed=()) == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
