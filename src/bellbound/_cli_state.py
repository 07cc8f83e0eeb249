"""The handlers of ``analyze`` and ``filter``, the commands that read a state
file; :func:`bellbound.cli.main` imports this module once it has parsed one of
them."""

from __future__ import annotations

import argparse
import sys

from .cli import _emit, _import_stage


def cmd_analyze(ns: argparse.Namespace, clock, params: dict) -> None:
    from ._readers import load_state
    from .canonical import canonical_form
    from .core import QubitMeasurement, decompose
    from .io import bloch_to_json, dumps_json
    from .knowledge import bell_max, distinguishability_excess

    state = load_state(ns.state_file)
    _import_stage(clock, False)
    form = decompose(state)
    cf = canonical_form(state)
    pair = [QubitMeasurement(cf.o_signal[:, 0]), QubitMeasurement(cf.o_signal[:, 1])]
    report = {
        "bloch": bloch_to_json(form),
        "canonical_diag": cf.diag.tolist(),
        "b_max": bell_max(state),
        "delta_d_canonical_pair": [distinguishability_excess(state, pi) for pi in pair],
    }
    clock.mark("compute")
    _emit(ns, clock, params, (dumps_json(report),))


def cmd_filter(ns: argparse.Namespace, clock, params: dict) -> None:
    from ._readers import load_state
    from .canonical import _filter
    from .io import bound_check_to_json, dumps_json, filter_result_to_json
    from .knowledge import optimize_excess_sum

    state = load_state(ns.state_file)
    _import_stage(clock, False, "_optimum")
    result, closed_form_deviation = _filter(state, params["tol"])
    optimum = optimize_excess_sum(result.state_out)
    report = dict(filter_result_to_json(result))
    report["post_filter_check"] = bound_check_to_json(optimum.check)
    clock.mark("compute")
    print(
        f"b_max_in = {result.b_max_in:.6f}, b_max_out = {result.b_max_out:.6f}, "
        f"post-filter slack = {optimum.check.slack:.3e}",
        file=sys.stderr,
    )
    _emit(
        ns, clock, params, (dumps_json(report),),
        closed_form_deviation=closed_form_deviation,
        filter_iterations=result.iterations,
        deviation_log=list(result.deviation_log),
        optimizer_path=optimum.path,
        optimizer_evaluations=optimum.evaluations,
        optimizer_gap_bound=optimum.gap_bound,
    )
