"""Steadiness mode: repeat each workload over seeds and compare spreads to bounds.

    python3 bench/steady.py --json first.json
    python3 bench/steady.py --first-seed 11 --compare first.json

Runs ``run.py`` on every workload of ``BENCHMARK.json`` once per seed, for
ten seeds from ``--first-seed`` on, one run at a time, with the command and
run length declared there.  For each
end-to-end metric the spread is the distance between the first and third
quartiles of the per-run values (``statistics.quantiles(values, n=4)``)
as a share of their median.  A spread within the metric's bound passes;
below a third of it is steady.  ``setup_s`` is reported but not gated,
because set-up is compared by its median only.  ``--compare`` takes the
``--json`` output of an earlier set and also gates every metric's median
(set-up included): it may not be worse than the earlier median by more
than the bound.  Exits 1 when a gate fails or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
RUNS = 10


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write the per-run values here")
    parser.add_argument("--compare", help="--json output of an earlier set")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    report, ok = {}, True
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            start = time.perf_counter()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"correct={result.get('correct')}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.1f} s): " + ", ".join(
                f"{name}={values[name][-1]:.5g}" for name in bounds), flush=True)
        report[workload] = {}
        for name, bound in bounds.items():
            vals = values[name]
            if len(vals) < 2:
                continue
            s = spread(vals)
            gated = name != "setup_s"
            verdict = ("steady" if s < bound / 3 else "within" if s <= bound
                       else "OVER") if gated else "not gated"
            ok = ok and (not gated or s <= bound)
            median = statistics.median(vals)
            report[workload][name] = {"values": vals, "median": median,
                                      "spread": s, "bound": bound}
            line = (f"  {workload:<14} {name:<14} median {median:<12.6g} "
                    f"spread {s:.4f} of bound {bound:.2f}: {verdict}")
            before = earlier.get(workload, {}).get(name)
            if before:
                change = median / before["median"] - 1.0
                worse = change if lower_is_better[name] else -change
                ok = ok and worse <= bound
                line += (f"; median {change:+.2%} against the earlier set"
                         f"{' (WORSE than the bound)' if worse > bound else ''}")
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
