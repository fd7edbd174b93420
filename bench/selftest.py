"""Schema self-test of the benchmark: run every workload at tiny sizes, with
and without tracing, and check that the result names every metric of
BENCHMARK.json with its unit, and that each metric there has a direction.
No timing is checked. Takes about fifteen seconds.

Usage: python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import run

SPEC_PATH = run.ROOT / "BENCHMARK.json"


def check_spec(spec: dict) -> list[str]:
    errors = []
    listed = [(w["name"], w["why"]) for w in spec["workloads"]]
    if listed != [(w.name, w.why) for w in run.workloads(False).values()]:
        errors.append("BENCHMARK.json workloads differ from bench/run.py")
    for key, expected in (("end_to_end", run.END_TO_END), ("per_layer", run.per_layer_specs())):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != expected:
            errors.append(f"BENCHMARK.json {key} differs from bench/run.py")
        errors += [f"{key} {m['name']}: no direction" for m in spec[key]
                   if m.get("better") not in ("higher", "lower")]
    return errors


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']} problems={info['problems']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if m.get("unit") != expected.get(name):
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, expected {expected.get(name)!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{where}: {name} value {m.get('value')!r}")
    for key in ("digest", "host", "code", "load_avg_before", "load_avg_after", "mean_reward"):
        if info.get(key) is None:
            errors.append(f"{where}: no {key} in the info line")
    return errors


def main() -> int:
    spec = json.loads(SPEC_PATH.read_text())
    errors = check_spec(spec)
    for workload in run.workloads(True):
        for trace in (0, 1):
            errors += check_result(workload, trace, spec)
    for e in errors:
        print(f"FAIL {e}")
    print("bench self-test:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
