"""Short smoke run of the benchmark.

    python3 bench/smoke.py

Runs every workload in BENCHMARK.json for one second, untraced and traced,
through the command that file names.  It fails unless every metric listed
there prints on its own line with its unit and appears in the result line
with that unit, and unless fail_ratio is 0.  Last, it runs the benchmark in
a directory holding only BENCHMARK.json and the benchmark's own files,
where it must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(spec, ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} outputs wrong")
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            printed[fields[1]] = (float(fields[2]), fields[3])
    if printed.get("fail_ratio") != (0.0, "ratio"):
        problems.append(f"{where}: fail_ratio line {printed.get('fail_ratio')}")
    for metric in spec["end_to_end" if trace == 0 else "per_layer"]:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if printed.get(name, (None, None))[1] != unit:
            problems.append(f"{where}: {name} not printed with unit {unit}")
        if (not got or got["unit"] != unit or isinstance(got["value"], bool)
                or not isinstance(got["value"], (int, float))):
            problems.append(f"{where}: {name} missing from the result line")
    return problems


def check_bare(spec: dict) -> list[str]:
    """Without the program's sources the benchmark must refuse to run."""
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    problems += check_bare(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
