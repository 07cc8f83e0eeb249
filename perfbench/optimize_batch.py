"""Library script of the ``optimize`` workload: the filtering and saturation claim.

For each ``seed:rank`` argument it builds ``random_state(seed, rank)``, runs
``optimize_excess_sum`` on it and, for full-rank states, also
``saturate_after_filter``.  It prints one JSON object with a record per state.

    PYTHONPATH=src python3 perfbench/optimize_batch.py 17:1 99:4
"""

from __future__ import annotations

import json
import sys
import time

import bellbound
from workloads import parse_state_spec


def run_state(seed: int, rank: int) -> dict:
    """Work on one raw state, with its CPU time; an exception becomes a failed record."""
    record = {"seed": seed, "rank": rank}
    start = time.thread_time()
    try:
        # Looked up on the package at call time, so an installed tracer sees them.
        state = bellbound.random_state(seed, rank)
        check = bellbound.optimize_excess_sum(state).check
        record.update(sum=check.sum_of_squares, slack=check.slack)
        if rank == 4:
            _, filtered = bellbound.saturate_after_filter(state)
            record["filtered_slack"] = filtered.slack
    except Exception as exc:  # a crash on a valid state is a failed operation
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["cpu_ms"] = (time.thread_time() - start) * 1e3
    return record


def main(argv: list[str]) -> int:
    records = [run_state(*parse_state_spec(spec)) for spec in argv]
    sys.stdout.write(json.dumps({"states": records}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
