"""The handler of ``verify``, the fuzz of the excess-sum bounds and the replay
of a dumped instance; :func:`bellbound.cli.main` imports this module once it
has parsed that command."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cli import _emit, _flag, _import_stage


def cmd_verify(ns: argparse.Namespace, clock, params: dict) -> int | None:
    from .io import bound_check_to_json, dumps_json, write_json
    from .verify import SLACK_FLOOR, evaluate_instance_json, fuzz_bounds, instance_to_json

    if ns.replay is not None:
        # a replay reports one dumped instance on standard output
        given = [key for key in ("out", "trials", "seed", "dump") if getattr(ns, key) is not None]
        if given:
            raise ValueError(f"--replay cannot be combined with {', '.join(map(_flag, given))}")
        from ._readers import read_json

        check, same = evaluate_instance_json(read_json(ns.replay, "replay file"))
        report = {
            "replayed": str(ns.replay),
            "check": bound_check_to_json(check),
            "same_meter_check": bound_check_to_json(same),
        }
        sys.stdout.write(dumps_json(report))
        return 0 if check.slack >= SLACK_FLOOR and same.slack >= SLACK_FLOOR else 2
    _import_stage(clock, True)
    summary = fuzz_bounds(params["trials"], params["seed"])
    clock.mark("compute")
    compute_s = clock.stages["compute_s"]
    report = {
        "trials": summary.trials,
        "seed": summary.seed,
        "min_slack": summary.min_slack,
        "worst_trial": summary.worst.trial,
        "min_same_meter_slack": summary.min_same_meter_slack,
        "worst_same_meter_trial": summary.worst_same_meter.trial,
        "passed": summary.passed,
    }
    _emit(
        ns, clock, params, (dumps_json(report),),
        draw_s=summary.draw_s,
        screen_s=summary.screen_s,
        # null when the clock did not tick during the run
        instances_per_s=summary.trials / compute_s if compute_s > 0 else None,
    )
    if not summary.passed:
        worst = (
            summary.worst
            if summary.min_slack <= summary.min_same_meter_slack
            else summary.worst_same_meter
        )
        dump = ns.dump if ns.dump is not None else Path("bellbound_violation.json")
        write_json(dump, instance_to_json(worst))
        print(f"bound violation found; offending instance dumped to {dump}", file=sys.stderr)
        return 2
    print(
        f"verified {summary.trials} instances: min slack {summary.min_slack:.3e}, "
        f"min same-meter slack {summary.min_same_meter_slack:.3e}",
        file=sys.stderr,
    )
