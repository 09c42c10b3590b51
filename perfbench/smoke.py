"""Smoke test of the benchmark at a tiny scale.

Runs every workload of BENCHMARK.json in both modes with `--tiny` and
checks the last output line: the four result keys, a correct run, and
exactly the metric names and units BENCHMARK.json declares for that mode.
Takes a few seconds.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit code {out.returncode}: {out.stderr.strip()[-500:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct {result.get('correct')}, "
                        f"attempted {result.get('attempted')}, failed {result.get('failed')}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != declared:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}, units "
                        f"{sorted(n for n in got if n in declared and got[n] != declared[n])}")
    if any(not isinstance(m["value"], (int, float)) for m in result.get("metrics", {}).values()):
        problems.append(f"{where}: a metric value is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            problems += check_run(workload["name"], trace, declared)
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
