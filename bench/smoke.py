"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Checks that ``BENCHMARK.json`` keeps its schema, that every workload runs
a few ops in both modes and prints a well-formed, correct result with
exactly the declared metrics, and that the benchmark refuses to run (exit
code other than 0, no result line) in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.  Prints one line per
check; exits 1 if any fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_OPS = 3
RUN_TIMEOUT_S = 300

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _escapes(path: str) -> bool:
    return path.startswith("/") or ".." in path.split("/")


def spec_problems(spec: dict) -> list[str]:
    out = []
    if set(spec) != TOP_KEYS:
        out.append(f"top-level keys {sorted(spec)}")
    cmd = spec.get("command", [])
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 and not _escapes(c) for c in cmd)):
        out.append("command must be 1..32 relative strings of at most 200 characters")
    paths = spec.get("paths", [])
    if not (1 <= len(paths) <= 16
            and all(PATH.match(p) and not _escapes(p) for p in paths)):
        out.append("paths must be 1..16 relative directory names")
    seconds = spec.get("run_seconds")
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        out.append("run_seconds must be a whole number in 1..60")

    groups = {"workloads": ({"name", "why"}, 2, 8),
              "end_to_end": ({"name", "unit", "better", "bound"}, 1, 16),
              "per_layer": ({"name", "unit", "better"}, 1, 128)}
    names = []
    for group, (keys, lo, hi) in groups.items():
        entries = spec.get(group, [])
        if not lo <= len(entries) <= hi:
            out.append(f"{group}: {len(entries)} entries, expected {lo}..{hi}")
        for e in entries:
            names.append(e.get("name", ""))
            if set(e) != keys:
                out.append(f"{group}/{e.get('name')}: keys {sorted(e)}")
            if not NAME.match(e.get("name", "")):
                out.append(f"{group}: bad name {e.get('name')!r}")
            if "why" in keys and not (0 < len(e.get("why", "")) <= 200 and "\n" not in e["why"]):
                out.append(f"{group}/{e['name']}: why must be one line of at most 200 characters")
            if "unit" in keys and not UNIT.match(e.get("unit", "")):
                out.append(f"{group}/{e['name']}: bad unit {e.get('unit')!r}")
            if "better" in keys and e.get("better") not in ("lower", "higher"):
                out.append(f"{group}/{e['name']}: better must be lower or higher")
            if "bound" in keys and not (isinstance(e.get("bound"), (int, float))
                                        and 0 < e["bound"] <= 0.25):
                out.append(f"{group}/{e['name']}: bound must lie in (0, 0.25]")
    if len(names) != len(set(names)):
        out.append("names must be unique")
    e2e = {e["name"]: e for e in spec.get("end_to_end", [])}
    setup = e2e.get("setup_s")
    if not setup or setup["unit"] != "s" or setup["better"] != "lower":
        out.append("end_to_end needs setup_s in s, lower is better")
    elif setup["bound"] < max(e["bound"] for e in e2e.values()):
        out.append("setup_s must carry the largest bound")
    return out


def result_problems(stdout: str, declared: dict[str, str]) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    out = []
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        out.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        out.append(f"attempted = {result['attempted']!r}")
    if result["failed"] != 0:
        out.append(f"failed = {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        out.append(f"metrics differ from the declared ones: {sorted(set(metrics) ^ set(declared))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            out.append(f"{name}: value {value!r}")
        if entry.get("unit") != declared.get(name) or set(entry) != {"value", "unit"}:
            out.append(f"{name}: entry {entry!r}, declared unit {declared.get(name)!r}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {label}"
              + "".join(f"\n     {p}" for p in problems), flush=True)

    report("BENCHMARK.json schema", spec_problems(spec))
    mapped = {m["name"] for m in json.loads((HERE / "layers.json").read_text())["per_layer"]}
    declared = {m["name"] for m in spec["per_layer"]}
    report("layers.json maps every per-layer metric",
           [f"{name}: in one file only" for name in sorted(mapped ^ declared)])
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in modes.items():
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", "1",
                 "--seconds", "5", "--trace", str(trace), "--ops", str(TINY_OPS)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            problems = result_problems(proc.stdout, declared)
            if proc.returncode != 0:
                problems.insert(0, f"exit code {proc.returncode}: {proc.stderr.strip()}")
            report(f"{workload} --trace {trace}, {TINY_OPS} ops", problems)

    scratch_parent = HERE / ".traces"
    scratch_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_parent) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns(".traces", "__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        problems = []
        if proc.returncode == 0:
            problems.append("exited 0 without the package sources")
        if proc.stdout.strip():
            problems.append(f"printed {proc.stdout.strip()[:200]!r}")
        report("refuses to run without src/fucik", problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
