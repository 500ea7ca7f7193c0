"""Set-up time of a fresh process: ``import fucik`` plus one warm-up op.

Run by ``run.py`` in a child interpreter; prints the CPU seconds the
process spent on both (all threads) on stdout and exits non-zero if the
warm-up op fails its check.

    python3 bench/setup_probe.py --workload certify --seed 1
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    start = time.process_time()
    import workloads  # imports fucik

    wl = workloads.WORKLOADS[args.workload](args.seed)
    op = wl.warm_up_input()
    outcome = wl.check(op, wl.run(op))
    elapsed = time.process_time() - start
    if not outcome.ok:
        print(f"warm-up op failed: {outcome.detail}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
