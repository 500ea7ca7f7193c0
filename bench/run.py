"""Benchmark of the fucik package: one seeded workload per run.

    python3 bench/run.py --workload gram-scan --seed 1 --seconds 36 --trace 0

Runs from a source checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy, and the run exits with
code 2 when ``src/fucik`` is missing.  ``FUCIK_THREADS`` is removed from
the environment so the CLI sizes its Gram thread pool as users get it.

Each run is a closed loop with one client in one process: the next op
starts when the previous one has returned and been checked.

``--trace 0`` times ops for ``--seconds`` with nothing wrapped and reports
the end-to-end metrics: the median wall-clock latency of an op, as users
wait for it; the median and tail percentile of the process CPU time per
op (all threads, so the Gram worker pool counts), ops per CPU second,
set-up time (median over fresh processes) and peak resident memory.  The
wall-clock median is what shows a change to the Gram thread pool.  The
CPU-time figures are the steadier ones on shared virtual machines, where
time the host takes the CPU away (steal) lengthens wall-clock latency but
does not count as CPU time.  The wall-clock tail and rate and the fail
ratio are printed too, for information.

``--trace 1`` first runs the same op stream untraced for half the time,
then traced (see ``tracer.py``) for the other half, and reports the
per-layer metrics plus the tracing overhead: the traced median CPU time
per op minus the untraced median over the same ops.  Spans of the first
traced ops are written to ``bench/.traces/``.

Every op's output is checked; a sample is also recomputed independently
after the timed phase.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print each metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LayerTotals, Tracer, spans_to_records

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / ".traces"

#: fresh processes timed for setup_s; the median is reported
SETUP_REPS = 5
PROBE_TIMEOUT_S = 60
#: tail percentiles tried from the top; the first with MIN_BEYOND samples
#: above it is reported (the median stands in only for smoke-sized runs)
TAIL_LADDER = (99, 90, 75, 50)
MIN_BEYOND = 10
#: cap on the spans written to the trace file per run
MAX_WRITTEN_SPANS = 20_000


@dataclass
class Phase:
    latencies: array = field(default_factory=lambda: array("d"))  # wall-clock s
    cpu: array = field(default_factory=lambda: array("d"))        # process CPU s
    failures: list = field(default_factory=list)
    sampled: list = field(default_factory=list)


def tail(latencies) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) by the nearest-rank rule."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * n)
        if n - rank >= MIN_BEYOND:
            return ordered[rank - 1], q, n - rank
    return ordered[-1], 100, 0


def run_phase(wl, seconds: float, max_ops: int | None, tracer=None, totals=None,
              records=None) -> Phase:
    """Closed loop over the workload's op stream for ``seconds`` (or ``max_ops``)."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(wl.stream()):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = wl.run(op)
        except (Exception, SystemExit) as exc:  # argparse exits on a usage error
            raw = exc
        c1, t1 = time.process_time(), time.perf_counter()
        phase.latencies.append(t1 - t0)
        phase.cpu.append(c1 - c0)
        spans = tracer.take() if tracer is not None else None
        if isinstance(raw, BaseException):
            outcome = None
            phase.failures.append(f"op {index}: raised {raw!r}")
        else:
            try:
                outcome = wl.check(op, raw)
            except Exception as exc:  # malformed output
                outcome = None
                phase.failures.append(f"op {index}: output check raised {exc!r}")
            else:
                if not outcome.ok:
                    phase.failures.append(f"op {index}: {outcome.detail}")
                elif wl.wants_oracle(index, op):
                    phase.sampled.append((op, raw))
        if totals is not None:
            totals.add_op(spans, outcome.payload_bytes if outcome else 0)
            if records is not None and len(records) < MAX_WRITTEN_SPANS:
                records.extend(spans_to_records(spans, index))
        if (max_ops is not None and len(phase.latencies) >= max_ops) \
                or time.perf_counter() >= deadline:
            break
    return phase


def setup_times(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """CPU seconds for ``import fucik`` plus one warm-up op, each in a fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "FUCIK_THREADS"}
    times, errors = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            errors.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        else:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times, errors


def oracle_failures(wl, phases) -> list[str]:
    seen, failures = set(), []
    for phase in phases:
        for op, raw in phase.sampled:
            if op in seen:
                continue
            seen.add(op)
            try:
                problem = wl.oracle_check(op, raw)
            except Exception as exc:  # reported as a failed op
                problem = f"oracle check raised {exc!r}"
            if problem:
                failures.append(f"{op}: {problem}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="stop each timed phase after this many ops")
    args = parser.parse_args(argv)

    package = SRC / "fucik" / "__init__.py"
    if not package.is_file():
        print(f"bench: {package} not found; run from a fucik source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("FUCIK_THREADS", None)
    sys.path.insert(0, str(SRC))
    import fucik

    if Path(fucik.__file__).resolve() != package.resolve():
        print(f"bench: imported fucik from {fucik.__file__}, not {package}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)

    problems: list[str] = []
    if not args.trace:
        setups, errors = setup_times(args.workload, args.seed)
        problems += errors
    warm = wl.warm_up_input()
    try:
        warm_outcome = wl.check(warm, wl.run(warm))
    except (Exception, SystemExit) as exc:  # reported as a failure
        problems.append(f"warm-up op raised {exc!r}")
    else:
        if not warm_outcome.ok:
            problems.append(f"warm-up op: {warm_outcome.detail}")

    if not args.trace:
        phases = [run_phase(wl, args.seconds, args.ops)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        base = run_phase(wl, args.seconds / 2, args.ops)
        tracer, totals, records = Tracer(), LayerTotals(), []
        tracer.install()
        try:
            traced = run_phase(wl, args.seconds / 2, args.ops, tracer, totals, records)
        finally:
            tracer.uninstall()
        phases = [base, traced]
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        with open(trace_file, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    oracle = oracle_failures(wl, phases)
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures] + oracle + problems
    failed = min(len(failures), attempted)
    for line in failures[:20]:
        print(f"bench: FAILED {line}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{attempted} ops, {failed} failed, {sum(len(p.sampled) for p in phases)} "
          f"sampled against the oracles")
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        phase = phases[0]
        ops = len(phase.cpu)
        cpu_tail, q, beyond = tail(phase.cpu)
        wall_tail, _, _ = tail(phase.latencies)
        metrics["op_p50_ms"] = (1e3 * statistics.median(phase.latencies), "ms")
        metrics["op_cpu_p50_ms"] = (1e3 * statistics.median(phase.cpu), "ms")
        metrics["op_cpu_tail_ms"] = (1e3 * cpu_tail, "ms")
        metrics["ops_per_cpu_s"] = (ops / math.fsum(phase.cpu), "1/s")
        metrics["setup_s"] = (statistics.median(setups) if setups else 0.0, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        notes = {
            "op_p50_ms": "wall clock",
            "op_cpu_tail_ms": f"p{q}: {ops} samples, {beyond} beyond it",
            "setup_s": f"CPU, median of {len(setups)} fresh processes",
        }
        for name, value, unit in (
                (f"op_tail_ms (wall, p{q})", 1e3 * wall_tail, "ms"),
                ("ops_per_s (wall)", ops / math.fsum(phase.latencies), "1/s"),
                ("fail_ratio", failed / attempted, f"({failed} of {attempted} ops)")):
            print(f"{name:<32} {value:<14.6g} {unit}")
    else:
        metrics.update(totals.metrics())
        # both phases replay one op stream from its start: compare like ops
        common = min(len(base.cpu), len(traced.cpu))
        untraced_ms = 1e3 * statistics.median(base.cpu[:common])
        traced_ms = 1e3 * statistics.median(traced.cpu[:common])
        metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
        gram = metrics["grammatrix.assembly_ms"][0] + metrics["grammatrix.eigensolve_ms"][0]
        notes = {
            "trace.overhead_ms": f"median CPU of the first {common} ops: traced "
                                 f"{traced_ms:.4g} ms - untraced {untraced_ms:.4g} ms",
            "grammatrix.eigensolve_ms": f"assembly + eigensolve = {gram:.4g} ms/op, "
                                        f"traced op mean {1e3 * statistics.fmean(traced.latencies):.4g} ms",
        }
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<32} {value:<14.6g} {unit}{note}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
