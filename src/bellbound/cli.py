"""Command-line front end: analyze, sweep, surface, simulate, verify, filter.

Exit codes: 0 success, 1 usage, input or validation error, 2 verified-property
violation.  Data goes to --out (with a sibling run manifest) or to standard
output; diagnostics go to standard error.  Parameter precedence is CLI flags
over config file over built-in defaults; the config file is a flat
``key = value`` text format using the long option names with underscores.
This module holds what every command shares; each command's handler,
``cmd_<command>(ns, clock, params)``, lives in the private module that
``HANDLER_MODULES`` names; :func:`main` passes it the parsed namespace, the
run's :class:`StageClock` and the resolved parameters, and exits with the code
it returns, 0 when it returns None.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .errors import BellboundError

# main imports a command's handler module only after parsing, and each handler
# imports the library modules it uses in its own body, so that --version,
# --help and usage errors load no numpy and compile no handler, and every
# subcommand compiles only its own group's handlers.  The body imports also
# read each library name when the command runs, so a tracer that rebinds the
# library modules' attributes (perfbench/tracer.py) sees every call.
HANDLER_MODULES = {
    "analyze": "_cli_state",
    "sweep": "_cli_experiment",
    "surface": "_cli_experiment",
    "simulate": "_cli_experiment",
    "verify": "_cli_verify",
    "filter": "_cli_state",
}

# Defaults sized so a noisy point collects ~1e4 coincidences (22 s per point).
DEFAULT_PAIR_RATE = 455.0
DEFAULT_DURATION = 22.0


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_signal(text: str) -> str:
    if text not in ("hv", "xy"):
        raise ValueError(f"expected hv or xy, got {text!r}")
    return text


def _schedule_values(text: str) -> list[float]:
    values = [float(part) for part in text.split(",")]
    if len(values) != 3:
        raise ValueError(f"expected 3 comma-separated values, got {text!r}")
    return values


def _parse_schedule(text: str) -> str:
    """Checks that ``text`` holds three comma-separated numbers and returns it
    as given, so that the manifest records the text."""
    _schedule_values(text)
    return text


def _angle_grid(axis: str, step: float) -> dict:
    return {
        f"{axis}_start": (float, 0.0, f"first {axis} angle in degrees"),
        f"{axis}_stop": (float, 90.0, f"last {axis} angle in degrees"),
        f"{axis}_step": (float, step, f"{axis} grid step in degrees"),
    }


_WERNER_P = {"p": (float, 0.82, "Werner parameter")}
_NOISE = {"noise": (_parse_bool, False, "simulate shot noise")}
_EXPERIMENT = {
    "pair_rate": (float, DEFAULT_PAIR_RATE, "photon-pair rate in 1/s"),
    "duration": (float, DEFAULT_DURATION, "measurement seconds per analyzer setting"),
    "dark_rate": (float, 0.0, "dark coincidence rate in 1/s"),
    "seed": (int, 0, "RNG seed"),
}

# Each subcommand's summary and parameters, (caster, default, help) by config
# key, in the order of the manifest and of replay_argv.  Every flag, config
# value and replay_argv entry is derived from this table.
COMMANDS = {
    "analyze": ("Bloch form, canonical diagonal, B_max", {}),
    "sweep": ("1-D knowledge-excess sweep CSV", {
        **_WERNER_P,
        **_angle_grid("theta", 1.0),
        "signal": (_parse_signal, "hv", "signal measurement: hv or xy"),
        **_NOISE,
        **_EXPERIMENT,
    }),
    "surface": ("(theta, theta') excess-sum surface CSV", {
        **_WERNER_P,
        **_angle_grid("theta", 1.0),
        **_angle_grid("theta_prime", 1.0),
        **_NOISE,
        **_EXPERIMENT,
    }),
    "simulate": ("full experiment simulation JSON", {
        **_WERNER_P,
        **_angle_grid("theta", 5.0),
        "visibility": (float, None, "interference visibility of a mixing schedule"),
        "schedule_durations": (
            _parse_schedule, None, "schedule durations in s: interferometric,HH,VV"
        ),
        "schedule_rates": (
            _parse_schedule, None, "schedule coincidence rates in 1/s: interferometric,HH,VV"
        ),
        **_EXPERIMENT,
    }),
    "verify": ("fuzz the excess-sum bounds", {
        "trials": (int, 10_000, "number of random instances"),
        "seed": (int, 1, "RNG seed"),
    }),
    "filter": ("local-filtering normal form JSON", {
        "tol": (float, 1e-10, "convergence tolerance of the reduced states"),
    }),
}
# The subcommands that read a state file, named by a positional argument.
STATE_FILE_COMMANDS = ("analyze", "filter")
# A config file may serve several subcommands, so a key that any of them
# takes is accepted by all; any other key is an error.
CONFIG_KEYS = frozenset(key for _, params in COMMANDS.values() for key in params)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is not a parameter of any subcommand")
        if key in lines:
            raise ValueError(f"{path}: config key {key!r} is set on lines {lines[key]} and {lineno}")
        values[key], lines[key] = value.strip(), lineno
    return values


def _resolve(ns: argparse.Namespace) -> dict:
    """Merge flags > config file > defaults for the parameters of the command;
    flag text and config text are cast by the same caster."""
    config = _load_config_file(ns.config) if ns.config else {}
    resolved = {}
    for key, (caster, default, _) in COMMANDS[ns.command][1].items():
        if getattr(ns, key) is not None:
            text, source = getattr(ns, key), f"flag {_flag(key)}"
        elif key in config:
            text, source = config[key], f"config key {key!r}"
        else:
            resolved[key] = default
            continue
        try:
            resolved[key] = caster(text)
        except ValueError as exc:
            raise ValueError(f"{source} is malformed: {exc}") from exc
    return resolved


class StageClock:
    """Wall-clock seconds of a run's stages, in the order they end.

    Each :meth:`mark` ends a stage that began at the previous mark, or when
    the clock was made; ``stages`` maps ``"<stage>_s"`` to its seconds, so
    their sum is the run's duration so far.  It reads ``time.perf_counter``,
    the clock of ``verify.fuzz_bounds``'s own stage times.
    """

    def __init__(self):
        self.stages: dict[str, float] = {}
        self._last = time.perf_counter()

    def mark(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[f"{stage}_s"] = now - self._last
        self._last = now


def _import_stage(clock, noisy: bool, *modules: str) -> None:
    """End the ``load`` stage of ``clock``, then its ``import`` stage: import
    numpy.random (about 10 ms and 6 MB) when the command draws shot noise or
    random trials, and the bellbound ``modules`` that its compute stage would
    import on first use, so that ``compute_s`` times the computing alone."""
    clock.mark("load")
    if noisy:
        import numpy.random  # noqa: F401
    for module in modules:
        __import__(f"{__package__}.{module}")
    clock.mark("import")


def _emit(ns: argparse.Namespace, clock, params: dict, chunks, **counts) -> None:
    """Write each of the text ``chunks`` as it is rendered, the run's ``render``
    stage, to standard output, or to --out with its run manifest, whose stats
    are the stage times of ``clock`` followed by the work ``counts``."""
    if ns.out is None:
        sys.stdout.writelines(chunks)
        return
    from .io import manifest_path, write_json

    ns.out.parent.mkdir(parents=True, exist_ok=True)
    with open(ns.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)
    clock.mark("render")
    parameters = dict(params)
    replay_argv = _replay_argv(ns.command, params)
    if ns.command in STATE_FILE_COMMANDS:
        parameters["state_file"] = str(ns.state_file)
        replay_argv.insert(1, str(ns.state_file))
    # Re-running replay_argv regenerates the output byte for byte.
    manifest = {
        "command": ns.command,
        "version": __version__,
        "seed": params.get("seed"),
        "parameters": parameters,
        "outputs": [str(ns.out)],
        "replay_argv": replay_argv + ["--out", str(ns.out)],
        "duration_s": sum(clock.stages.values()),
        "stats": {**clock.stages, **counts},
    }
    write_json(manifest_path(ns.out), manifest)


def _replay_argv(command: str, params: dict) -> list[str]:
    from .io import format_float

    argv = [command]
    for key, value in params.items():
        if value is None or value is False:
            continue
        if value is True:
            argv.append(_flag(key))
        else:
            argv += [_flag(key), format_float(value) if isinstance(value, float) else str(value)]
    return argv


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, so that it exits 1 with one line
    and exit 2 stays a verified-property violation."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of ``argv``.  When ``argv`` begins with a subcommand, as a
    run does, only that subcommand is added, under the metavar of all six;
    any other ``argv`` (``--help``, a usage error) gets every subcommand.
    ``--help``, ``<command> --help`` and the usage errors read the same
    either way."""
    parser = _Parser(
        prog="bellbound",
        description="Knowledge excesses of complementary qubit measurements, "
        "their Bell-factor bound, and a coincidence-counting experiment simulator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    if argv and argv[0] in COMMANDS:
        commands = (argv[0],)
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}"
        )
    else:
        commands = COMMANDS
        sub = parser.add_subparsers(dest="command", required=True)
    for command in commands:
        summary, params = COMMANDS[command]
        p_command = sub.add_parser(command, help=summary)
        if command in STATE_FILE_COMMANDS:
            p_command.add_argument("state_file", type=Path, help="JSON state file")
        # flags take text; _resolve casts it as it casts config values
        for key, (caster, _, help_text) in params.items():
            switch = {"action": "store_const", "const": "true"} if caster is _parse_bool else {}
            p_command.add_argument(_flag(key), help=help_text, **switch)
        if command == "verify":
            p_command.add_argument("--replay", type=Path, help="re-evaluate a dumped instance")
            p_command.add_argument("--dump", type=Path, help="violation dump path")
        p_command.add_argument("--out", type=Path, help="output file (default: stdout)")
        p_command.add_argument("--config", type=Path, help="flat key=value config file")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = build_parser(argv).parse_args(argv)
        # __import__, unlike importlib.import_module, is timed by -X importtime
        handler = f"cmd_{ns.command}"
        module = __import__(f"{__package__}.{HANDLER_MODULES[ns.command]}", fromlist=[handler])
        return getattr(module, handler)(ns, StageClock(), _resolve(ns)) or 0
    except (BellboundError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """:func:`main` with the collector off, as the entry of ``python -m bellbound`` and
    the ``bellbound`` script; it then freezes what is left, so no exit collection walks it."""
    import gc

    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()
