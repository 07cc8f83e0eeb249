"""Output checks shared by run.py and the in-process runner.

Seeded CLI data files (never their manifests, which record ``duration_s``)
are compared byte for byte with digests recorded by ``record_references.py``.
``verify`` reports must also pass with both minimum slacks above the floor.
Optimizer results are checked by invariants instead of bytes, so that a
better optimizer does not read as a failure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES_PATH = Path(__file__).with_name("references.json")
SLACK_FLOOR = -1e-9
SATURATION_CEILING = 1e-6


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_cli_output(step, path: Path, references: dict) -> str | None:
    """Failure reason for one CLI data file, or None when it is correct."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return f"missing output: {exc}"
    reference = references.get(step.key)
    if reference is not None and hashlib.sha256(data).hexdigest() != reference:
        return f"{path.name} differs from the reference for {step.key!r}"
    if step.args[0] == "verify":
        try:
            report = json.loads(data)
            slacks = (report["min_slack"], report["min_same_meter_slack"])
            passed = report["passed"] is True and min(slacks) >= SLACK_FLOOR
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable verify report: {exc!r}"
        if not passed:
            return f"verify did not pass: {report}"
    return None


def check_state(record: dict) -> str | None:
    """Failure reason for one optimize record, or None when it holds."""
    if "error" in record:
        return record["error"]
    if not record["slack"] >= SLACK_FLOOR:
        return f"state {record['seed']}:{record['rank']}: slack {record['slack']!r} below floor"
    if record["rank"] == 4 and not (
        SLACK_FLOOR <= record["filtered_slack"] <= SATURATION_CEILING
    ):
        return (
            f"state {record['seed']}:4: slack after filtering {record['filtered_slack']!r}"
            " does not saturate the bound"
        )
    return None


def check_step(step, result, op_dir: Path, references: dict) -> list[str | None]:
    """Failure reasons, one per operation of a step (None where it passed).

    ``result`` is the exit code of a CLI step, or the list of state records
    of an optimize step.
    """
    if step.kind == "optimize":
        return [check_state(record) for record in result]
    if result != 0:
        return [f"{step.key}: exit {result}"]
    return [check_cli_output(step, op_dir / step.out, references)]
