"""Integration tests for the command-line interface.

Most tests call ``main`` in-process for speed; one subprocess test covers the
``python -m bellbound`` entry point.
"""

import io
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellbound as bb
from bellbound.cli import (
    CONFIG_KEYS,
    COMMANDS,
    CSV_BLOCK_ROWS,
    MAX_GRID_POINTS,
    STATE_FILE_COMMANDS,
    SURFACE_HEADER,
    SWEEP_HEADER,
    _flag,
    _grid,
    _resolve,
    build_parser,
    main,
)
from bellbound.canonical import REDUCTION_EIGENVALUE_FLOOR
from bellbound.io import format_float
from conftest import filter_edge_states

README = Path(__file__).resolve().parents[1] / "README.md"


def write_werner_file(tmp_path, p=0.82):
    path = tmp_path / f"werner_{p}.json"
    path.write_text(json.dumps({"factory": "werner", "p": p}))
    return path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Any JSON number as Python reads it: NaN, infinities and integers too large
# for a float included.
NUMBERS = (
    st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.floats(min_value=-1.0, max_value=1.0)
)
# Any JSON value.
VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=5)
    ),
    max_leaves=12,
)


def matrices():
    """The maximally mixed state, 4 x 4 grids of cells drawn from numbers,
    ``{"re", "im"}`` objects and JSON values, or any JSON value."""
    cells = NUMBERS | st.fixed_dictionaries({"re": NUMBERS, "im": NUMBERS}) | VALUES
    mixed = [[{"re": 0.25 if i == j else 0.0, "im": 0.0} for j in range(4)] for i in range(4)]
    return (
        st.just(mixed)
        | st.lists(st.lists(cells, min_size=4, max_size=4), min_size=4, max_size=4)
        | VALUES
    )


def replay_documents():
    """Any JSON value, and objects shaped like a dumped instance whose entries
    are drawn from JSON values, a valid state or unit axes."""
    units = st.sampled_from([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    axes = units | st.lists(NUMBERS, min_size=3, max_size=3) | VALUES
    instances = st.fixed_dictionaries(
        {"matrix": matrices()},
        optional={
            key: axes
            for key in ("signal_axis", "signal_axis_prime", "meter_axis", "meter_axis_prime")
        },
    )
    return VALUES | instances


def state_documents():
    """Any JSON value, and objects shaped like a state file: a matrix, or a
    factory whose arguments are drawn from JSON values, from numbers and from
    values in and near their valid ranges (probability vectors included)."""
    probabilities = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4)
    lambdas = (
        probabilities.filter(lambda v: sum(v) > 0).map(lambda v: [x / sum(v) for x in v])
        | st.lists(NUMBERS | st.just(1e308), min_size=4, max_size=4)
        | st.lists(st.floats(min_value=-0.1, max_value=1.0), max_size=5)
        | VALUES
    )
    p = st.floats(min_value=-0.4, max_value=1.1) | NUMBERS | VALUES
    ancilla_dim = st.integers(min_value=-1, max_value=6) | VALUES
    factories = (
        st.fixed_dictionaries({"factory": st.just("werner"), "p": p})
        | st.fixed_dictionaries({"factory": st.just("bell_diagonal"), "lambdas": lambdas})
        | st.fixed_dictionaries(
            {"factory": st.just("random"), "seed": st.integers() | VALUES},
            optional={"ancilla_dim": ancilla_dim},
        )
        | st.fixed_dictionaries(
            {"factory": VALUES},
            optional={"p": p, "lambdas": lambdas, "seed": VALUES, "ancilla_dim": ancilla_dim},
        )
    )
    return VALUES | st.fixed_dictionaries({"matrix": matrices()}) | factories


def run_in_process(args):
    """``main(args)`` with warnings as errors: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


class TestAnalyze:
    def test_werner_report(self, tmp_path, capsys):
        code, out, _ = run_cli(["analyze", write_werner_file(tmp_path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert abs(report["b_max"] - 2.319) < 1e-3
        assert np.allclose(report["canonical_diag"], [-0.82, -0.82, -0.82], atol=1e-12)
        assert np.allclose(report["delta_d_canonical_pair"], [0.82, 0.82], atol=1e-12)

    def test_maximally_mixed_is_all_zero(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"factory": "werner", "p": 0.0}))
        code, out, _ = run_cli(["analyze", path], capsys)
        report = json.loads(out)
        assert code == 0
        assert abs(report["b_max"]) < 1e-12
        assert np.allclose(report["bloch"]["T"], np.zeros((3, 3)), atol=1e-12)

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        # one diagnostic line that names the bad key, never a traceback
        documents = [
            ("{not json", None),
            # once a RecursionError traceback
            ("[" * 200_000, None),
            ('{"matrix": 5}', "matrix"),
            ('{"factory": "werner", "p": null}', "p"),
            ('{"factory": "werner"}', "p"),
            # integer keys are not truncated, and booleans are not numbers
            ('{"factory": "random", "seed": 1.7, "ancilla_dim": 2.9}', "seed"),
            ('{"factory": "random", "seed": 1, "ancilla_dim": 2.9}', "ancilla_dim"),
            ('{"factory": "random", "seed": true}', "seed"),
            ('{"factory": "werner", "p": true}', "p"),
            ('{"factory": "bell_diagonal", "lambdas": [true, false, false, false]}', "lambdas"),
            ('{"matrix": [[true, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}', "matrix"),
            ('{"matrix": [[{"re": true}, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}', "matrix"),
        ]
        path = tmp_path / "broken.json"
        for text, key in documents:
            path.write_text(text)
            for command in ("analyze", "filter"):
                code, _, err = run_cli([command, path], capsys)
                assert code == 1
                assert err.startswith("error:") and err.count("\n") == 1
                if key is not None:
                    assert repr(key) in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(["analyze", tmp_path / "nope.json"], capsys)
        assert code == 1

    def test_invalid_state_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": np.diag([0.5, 0.7, -0.05, -0.05]).tolist()}))
        code, _, err = run_cli(["analyze", path], capsys)
        assert code == 1
        assert "trace" in err

    @settings(max_examples=150, deadline=None)
    @given(document=state_documents())
    def test_any_json_state_file_exits_0_or_1_with_one_line(self, tmp_path_factory, document):
        # filter's iteration cap keeps each example fast; a state it cannot
        # filter within the cap exits 1
        path = tmp_path_factory.mktemp("state") / "state.json"
        path.write_text(json.dumps(document))
        for args in (["analyze", path], ["filter", path, "--max-iter", 50]):
            code, out, err = run_in_process(args)
            assert code in (0, 1)
            if code == 0:
                assert "error:" not in err
                json.loads(out)
            else:
                assert out == ""
                assert err.startswith("error:") and err.count("\n") == 1


class TestSweep:
    def test_noiseless_matches_closed_form(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--p", 0.82, "--theta-step", 5, "--out", out_file], capsys
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        for line in lines[1:]:
            theta, k_hat, p_hat, dk_hat, dk_theory = map(float, line.split(","))
            assert abs(dk_hat - dk_theory) < 1e-12
            assert abs(dk_hat - 0.82 * abs(np.cos(np.radians(2 * theta)))) < 1e-12
            assert p_hat < 1e-12

    def test_p_zero_has_zero_excess_columns(self, capsys):
        code, out, _ = run_cli(["sweep", "--p", 0, "--theta-step", 15], capsys)
        assert code == 0
        for line in out.splitlines()[1:]:
            _, k_hat, p_hat, dk_hat, dk_theory = map(float, line.split(","))
            assert abs(k_hat) < 1e-12 and abs(dk_hat) < 1e-12 and dk_theory == 0.0

    def test_noisy_sweep_is_bit_reproducible(self, tmp_path, capsys):
        out_file = tmp_path / "noisy.csv"
        args = ["sweep", "--p", 0.82, "--noise", "--seed", 3, "--theta-step", 10,
                "--out", out_file]
        assert run_cli(args, capsys)[0] == 0
        first = out_file.read_bytes()
        assert run_cli(args, capsys)[0] == 0
        assert out_file.read_bytes() == first

    @pytest.mark.parametrize(
        "args, config",
        [
            (["sweep", "--noise", "--seed", 11, "--signal", "xy"], "p = 0.45\ntheta_step = 30\n"),
            (["sweep", "--seed", 11], "noise = off\ntheta_step = 30\n"),
            (["surface", "--noise", "--theta-step", 30], "theta_prime_step = 45\nseed = -4\n"),
            (["simulate", "--theta-step", 45], "p = 0.45\nseed = 9\nduration = 3\n"),
            (["verify", "--trials", 20], "seed = 5\n"),
            (["filter", "state.json"], "tol = 1e-4\nmax_iter = 500\n"),
        ],
        ids=["sweep", "sweep-noise-off", "surface", "simulate", "verify", "filter"],
    )
    def test_manifest_replay_reproduces_output(self, tmp_path, capsys, args, config):
        # replay_argv spells out as flags what the config file supplied
        (tmp_path / "state.json").write_text('{"factory": "random", "seed": 12, "ancilla_dim": 4}')
        (tmp_path / "conf.txt").write_text(config)
        args = [tmp_path / a if a == "state.json" else a for a in args]
        out_file = tmp_path / "replay.dat"
        args += ["--config", tmp_path / "conf.txt", "--out", out_file]
        assert run_cli(args, capsys)[0] == 0
        original = out_file.read_bytes()
        manifest = json.loads((tmp_path / "replay.dat.manifest.json").read_text())
        assert "--config" not in manifest["replay_argv"]
        # the parameters hold each config value as its caster reads it
        casters = COMMANDS[manifest["command"]][1]
        for key, value in (line.split(" = ") for line in config.splitlines()):
            assert manifest["parameters"][key] == casters[key][0](value), key
        out_file.unlink()
        assert run_cli(manifest["replay_argv"], capsys)[0] == 0
        assert out_file.read_bytes() == original

    def test_config_file_precedence(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("p = 0.45\ntheta_step = 45\n# comment\n")
        # config file supplies p; flag overrides it
        code, out, _ = run_cli(["sweep", "--config", config], capsys)
        assert code == 0
        first_row = out.splitlines()[1].split(",")
        assert abs(float(first_row[1]) - 0.45) < 1e-12
        code, out, _ = run_cli(["sweep", "--config", config, "--p", 0.82], capsys)
        first_row = out.splitlines()[1].split(",")
        assert abs(float(first_row[1]) - 0.82) < 1e-12

    def test_malformed_config_value_names_its_key(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        for command, text, key in (
            (["verify", "--trials", 3], "seed = 1.5\n", "seed"),
            (["sweep"], "noise = maybe\n", "noise"),
            (["simulate"], "schedule_durations = a,1,1\n", "schedule_durations"),
            (["simulate"], "schedule_rates = 1,1\n", "schedule_rates"),
        ):
            config.write_text(text)
            code, _, err = run_cli([*command, "--config", config], capsys)
            assert code == 1
            assert err.startswith(f"error: config key {key!r} is malformed")
            assert err.count("\n") == 1

    def test_invalid_params_exit_1(self, capsys):
        assert run_cli(["sweep", "--p", 3.0], capsys)[0] == 1
        assert run_cli(["sweep", "--theta-step", -1], capsys)[0] == 1

    @pytest.mark.parametrize(
        "command", [["sweep"], ["surface", "--theta-prime-step", 45]], ids=["sweep", "surface"]
    )
    def test_noise_flags_are_checked_without_noise(self, command):
        code, out, err = run_in_process([*command, "--duration", -1, "--theta-step", 45])
        assert code == 1 and out == ""
        assert err == "error: duration must be a finite non-negative number, got -1.0\n"

    def test_unknown_config_key_exits_1_and_names_it(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("theta_step = 45\nbogus_key = 3\n")
        for command in (["sweep"], ["surface"], ["simulate"], ["verify", "--trials", 3],
                        ["analyze", write_werner_file(tmp_path)]):
            code, out, err = run_cli([*command, "--config", config], capsys)
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "'bogus_key'" in err

    def test_repeated_config_key_exits_1_and_names_both_lines(self, tmp_path, capsys):
        # the last value was kept: this ran 7 trials
        config = tmp_path / "conf.txt"
        config.write_text("trials = 5\n# seed = 3\nseed = 2\ntrials = 7\n")
        code, out, err = run_cli(["verify", "--config", config], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {config}: config key 'trials' is set on lines 1 and 4\n"

    def test_config_key_of_another_subcommand_is_allowed(self, tmp_path, capsys):
        # one config file may serve several subcommands
        config = tmp_path / "conf.txt"
        config.write_text("theta_step = 45\ntheta_prime_step = 45\ntrials = 3\ntol = 1e-3\n")
        code, out, _ = run_cli(["sweep", "--config", config], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 3
        code, out, _ = run_cli(["surface", "--config", config], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 3


# Before the grid was checked, each of these appended grid points forever.
NON_FINITE_GRIDS = [
    (["sweep", "--theta-step", "nan"], "theta_step"),
    (["sweep", "--theta-stop", "inf"], "theta_stop"),
    (["sweep", "--noise", "--theta-start=-inf"], "theta_start"),
    (["surface", "--theta-start", "nan"], "theta_start"),
    (["surface", "--theta-prime-step", "inf"], "theta_prime_step"),
    (["surface", "--noise", "--theta-prime-stop", "nan"], "theta_prime_stop"),
    (["simulate", "--theta-step", "inf"], "theta_step"),
    (["simulate", "--theta-stop", "nan"], "theta_stop"),
]


class TestNonFiniteGrid:
    @pytest.mark.parametrize("args, key", NON_FINITE_GRIDS)
    def test_flag_exits_1_and_names_the_parameter(self, capsys, args, key):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {key} must be a finite number")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["sweep", "surface", "simulate"])
    def test_config_value_exits_1_and_names_the_parameter(self, tmp_path, capsys, command):
        config = tmp_path / "conf.txt"
        config.write_text("theta_step = nan\n")
        code, out, err = run_cli([command, "--config", config], capsys)
        assert code == 1 and out == ""
        assert err == "error: theta_step must be a finite number, got nan\n"


def run_bounded(args, seconds=60):
    """``python -m bellbound ARGS`` in a child process held to ``seconds`` and,
    on Linux, to 1 GiB of address space, so that a grid that never ends fails
    the test instead of hanging it or filling the memory."""

    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, "-m", "bellbound", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=limit_memory if sys.platform.startswith("linux") else None,
    )


# Each of these once ran until it was killed: a step that cannot move a point
# at 1e300 repeats it forever (at 1e20, thousands of times), and the surface
# asked for 8.1e9 rows.
ENDLESS_GRIDS = [
    (["sweep", "--theta-start", 1e300, "--theta-stop", 1e300, "--theta-step", 1],
     ["--theta-step", "--theta-start"]),
    (["sweep", "--noise", "--theta-start", 1e20, "--theta-stop", 1e20, "--theta-step", 1],
     ["--theta-step", "--theta-start"]),
    (["surface", "--theta-prime-start", 1e300, "--theta-prime-stop", 1e300],
     ["--theta-prime-step", "--theta-prime-start"]),
    (["simulate", "--theta-start", 1e17, "--theta-stop", 1e17],
     ["--theta-step", "--theta-start"]),
    (["surface", "--theta-step", 0.001, "--theta-prime-step", 0.001],
     ["--theta-step", "--theta-prime-step"]),
]


class TestGridSize:
    @pytest.mark.parametrize("args, flags", ENDLESS_GRIDS)
    def test_endless_grid_exits_1_naming_its_flags(self, args, flags):
        proc = run_bounded(args)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert all(flag in proc.stderr for flag in flags)

    def test_step_too_small_for_the_rounding_exits_1(self, capsys):
        # every point rounds to 0 at 10 decimals
        code, out, err = run_cli(["sweep", "--theta-step", 1e-12, "--theta-stop", 1e-11], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: --theta-step 1e-12 does not advance the theta grid")

    def test_surface_admits_the_rows_of_a_tenth_degree_grid(self, capsys, monkeypatch):
        # 901 x 901 rows pass the check; the rows are not computed
        def stop(*args, **kwargs):
            raise ValueError("checked")

        import bellbound.expsim as expsim_module

        monkeypatch.setattr(expsim_module, "run_sweep_experiment", stop)
        code, _, err = run_cli(["surface", "--theta-step", 0.1, "--theta-prime-step", 0.1], capsys)
        assert (code, err) == (1, "error: checked\n")

    def test_grid_is_bounded_before_it_is_built(self):
        # 1,800,001 points, counted before the list is built
        params = {"theta_prime_start": 0.0, "theta_prime_stop": 90.0, "theta_prime_step": 5e-5}
        with pytest.raises(ValueError, match="theta_prime grid .* 1000000"):
            _grid(params, "theta_prime")

    @pytest.mark.parametrize(
        "args, text",
        [(["sweep", "--theta-step", "0.5"], "the theta grid"),
         (["surface", "--theta-prime-step", "0.5"], "the theta_prime grid"),
         # each axis under the bound, but not their rows
         (["surface", "--theta-step", "10", "--theta-prime-step", "5"],
          "the surface would have 10 x 19 = 190 rows")],
    )
    def test_grid_above_the_bound_exits_1(self, capsys, monkeypatch, args, text):
        # 181 points against a lowered bound, so no large grid is ever built
        monkeypatch.setattr("bellbound.cli.MAX_GRID_POINTS", 100)
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {text}") and err.count("\n") == 1


_GRID_FLAGS = ["--theta-start", "--theta-stop", "--theta-step"]
_EXPERIMENT_FLAGS = ["--pair-rate", "--duration", "--dark-rate", "--seed"]
NUMERIC_FLAGS = {
    "sweep": ["--p", *_GRID_FLAGS, *_EXPERIMENT_FLAGS],
    "surface": ["--p", *_GRID_FLAGS, "--theta-prime-start", "--theta-prime-stop",
                "--theta-prime-step", *_EXPERIMENT_FLAGS],
    "simulate": ["--p", *_GRID_FLAGS, "--visibility", *_EXPERIMENT_FLAGS],
    "verify": ["--trials", "--seed"],
    "filter": ["--tol", "--max-iter"],
}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in NUMERIC_FLAGS.items() for flag in flags],
    )
    def test_malformed_numeric_flag_exits_1_and_names_it(self, tmp_path, capsys, command, flag):
        state = [write_werner_file(tmp_path)] if command == "filter" else []
        code, out, err = run_cli([command, *state, flag, "abc"], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: flag {flag} is malformed:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, text",
        [
            (["sweep", "--signal", "ab"], "flag --signal is malformed: expected hv or xy"),
            (["simulate", "--schedule-durations", "a,1,1"],
             "flag --schedule-durations is malformed: could not convert string to float: 'a'"),
            (["simulate", "--schedule-rates", "1,1"],
             "flag --schedule-rates is malformed: expected 3 comma-separated values, got '1,1'"),
            (["sweep", "--theta-start", "50", "--theta-stop", "10"],
             "empty angle grid: start=50.0 stop=10.0 step=1.0"),
            (["sweep", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
            (["analyze", "state.json", "--seed", "9"], "unrecognized arguments: --seed 9"),
            (["filter", "state.json", "--seed", "9"], "unrecognized arguments: --seed 9"),
            (["no-such-command"], "invalid choice: 'no-such-command'"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_usage_error_exits_1_with_one_line(self, capsys, args, text):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and text in err and err.count("\n") == 1

    @pytest.mark.parametrize("args", [["--help"], ["--version"], ["filter", "--help"]])
    def test_help_and_version_exit_0(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert "bellbound" in capsys.readouterr().out


def help_text(parse, args, capsys):
    """What ``parse(args)`` prints for a help request; it must exit 0."""
    with pytest.raises(SystemExit) as exc:
        parse(args)
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestLeanParser:
    """``main`` builds the flags of the named subcommand only; what it prints
    must read as from the parser of every subcommand."""

    def test_top_level_help_lists_every_subcommand_with_its_summary(self, capsys):
        text = help_text(main, ["--help"], capsys)
        for command, (summary, _) in COMMANDS.items():
            assert re.search(rf"^\s+{command}\s+{re.escape(summary)}$", text, re.MULTILINE)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_subcommand_help_shows_all_its_arguments(self, capsys, command):
        text = help_text(main, [command, "--help"], capsys)
        flags = [_flag(key) for key in COMMANDS[command][1]] + ["--out", "--config"]
        if command == "verify":
            flags += ["--replay", "--dump"]
        for flag in flags:
            assert re.search(rf"^\s+{flag}\b", text, re.MULTILINE), flag
        assert ("state_file" in text) == (command in STATE_FILE_COMMANDS)
        # the same text as from the parser with every subcommand built
        assert text == help_text(build_parser().parse_args, [command, "--help"], capsys)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unknown_flag_exits_1_with_one_line(self, capsys, command):
        state = ["state.json"] if command in STATE_FILE_COMMANDS else []
        code, out, err = run_cli([command, *state, "--no-such-flag"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "unrecognized arguments: --no-such-flag" in err

    def test_only_the_named_subcommand_gets_its_flags(self):
        assert build_parser(["sweep"]).parse_args(["sweep", "--p", "0.5"]).p == "0.5"
        with pytest.raises(ValueError, match="unrecognized arguments: --p 0.5"):
            build_parser(["verify"]).parse_args(["sweep", "--p", "0.5"])

    def test_a_state_file_may_bear_a_subcommand_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "verify").write_text(json.dumps({"factory": "werner", "p": 0.82}))
        code, out, err = run_cli(["analyze", "verify"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["b_max"] == pytest.approx(2.319, abs=1e-3)


# Config values at the edges of every caster's domain, a few ordinary ones so
# that some runs succeed, and short random text.
CONFIG_VALUES = st.sampled_from(
    ["", " ", "nan", "inf", "-0", "1e300", "1e-320", str(2**64), "true", "3", "45", "0.5"]
) | st.text(max_size=4)
CONFIG_FILES = st.tuples(
    st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS)), CONFIG_VALUES, max_size=8),
    # at most one unknown key or malformed line
    st.lists(
        st.tuples(st.text(max_size=6), CONFIG_VALUES).map(" = ".join) | st.text(max_size=8),
        max_size=1,
    ),
).map(lambda drawn: [f"{key} = {value}" for key, value in drawn[0].items()] + drawn[1])


def asks_for_a_long_run(args):
    """Whether ``args`` resolve to a genuinely long run: more than 2000 fuzz
    trials, or an angle grid of more than 5000 points that is not refused."""
    try:
        params = _resolve(build_parser().parse_args(args))
    except ValueError:
        return False  # refused before any work
    if "trials" in params:
        return params["trials"] > 2000
    points = 1.0
    for axis in ("theta", "theta_prime"):
        if f"{axis}_step" not in params:
            continue
        start, stop, step = (params[f"{axis}_{part}"] for part in ("start", "stop", "step"))
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
            return False
        points *= max(1.0, (stop - start) / step + 1)
    return 5000 < points <= MAX_GRID_POINTS


class TestConfigFile:
    @settings(max_examples=100, deadline=None)
    @given(lines=CONFIG_FILES)
    def test_any_config_file_exits_0_or_1_with_one_line(self, tmp_path_factory, lines):
        directory = tmp_path_factory.mktemp("config")
        config = directory / "conf.txt"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        state = write_werner_file(directory)
        for command in COMMANDS:
            args = [command, *([str(state)] if command in ("analyze", "filter") else [])]
            args += ["--config", str(config)]
            if asks_for_a_long_run(args):
                continue
            code, out, err = run_in_process(args)
            assert code in (0, 1)
            if code == 0:
                assert "error:" not in err
            else:
                assert out == ""
                assert err.startswith("error:") and err.count("\n") == 1


class TestSurface:
    def test_saturation_and_bound_columns(self, capsys):
        code, out, _ = run_cli(
            ["surface", "--p", 0.82, "--theta-step", 5, "--theta-prime-step", 5], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(SURFACE_HEADER)
        best = None
        for line in lines[1:]:
            theta, theta_prime, dk2, dkp2, total, bound = map(float, line.split(","))
            assert abs(bound - 1.3448) < 1e-12
            assert total <= bound + 1e-9
            if best is None or total > best[2]:
                best = (theta, theta_prime, total)
        assert best[2] == pytest.approx(1.3448, abs=1e-10)
        assert (best[0], best[1]) == (0.0, 45.0)

    @pytest.mark.parametrize("noise", [False, True])
    def test_rows_equal_row_wise_format_oracle(self, capsys, noise):
        # every cell formatted on its own, from the public one-point functions
        thetas = [-7.5 + 2.5 * i for i in range(9)]
        theta_primes = [10.0 + 4.0 * j for j in range(6)]
        args = ["surface", "--p", 0.7, "--theta-start", -7.5, "--theta-stop", 12.5,
                "--theta-step", 2.5, "--theta-prime-start", 10, "--theta-prime-stop", 30,
                "--theta-prime-step", 4]
        state = bb.werner(0.7)
        config = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=6)
        hv = bb.measurement_from_polarization_angle(0.0)
        xy = bb.measurement_from_polarization_angle(45.0)

        def excess(theta, pi_s, stream):
            pi_m = bb.measurement_from_polarization_angle(theta)
            if noise:
                counts = bb.simulate_counts(state, pi_m, pi_s, config, stream=stream)
                return bb.estimate_knowledge(counts) - bb.estimate_apriori(counts)
            return bb.knowledge(state, pi_m, pi_s) - bb.apriori(state, pi_s)

        dk = [excess(t, hv, 2 * i) for i, t in enumerate(thetas)]
        dkp = [excess(t, xy, 2 * j + 1) for j, t in enumerate(theta_primes)]
        bound = (bb.bell_max(state) / 2.0) ** 2
        expected = [",".join(SURFACE_HEADER)] + [
            ",".join(format_float(v) for v in (t, tp, a * a, b * b, a * a + b * b, bound))
            for t, a in zip(thetas, dk)
            for tp, b in zip(theta_primes, dkp)
        ]
        code, out, _ = run_cli(args + (["--noise", "--seed", 6] if noise else []), capsys)
        assert code == 0
        assert out == "\n".join(expected) + "\n"

    def test_noise_parameters_are_checked_without_noise(self, capsys):
        code, out, err = run_cli(
            ["surface", "--duration", -1, "--theta-step", 45, "--theta-prime-step", 45], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error: duration must be a finite non-negative number")

    def test_p045_bound_matches_theory(self, capsys):
        code, out, _ = run_cli(
            ["surface", "--p", 0.45, "--theta-step", 45, "--theta-prime-step", 45], capsys
        )
        assert code == 0
        bound = float(out.splitlines()[1].split(",")[5])
        assert bound == pytest.approx(2 * 0.45**2, abs=1e-12)
        assert bound == pytest.approx((1.273 / 2) ** 2, abs=2e-4)


# tracemalloc peak of the surface below: 0.55 MB streamed in blocks, 35.2 MB
# when the whole text was built before it was written.
SURFACE_PEAK_LIMIT = 2e6


class TestStreamedOutput:
    def test_surface_memory_is_a_block_not_the_file(self, tmp_path):
        import tracemalloc

        out_file = tmp_path / "surface.csv"
        args = ["surface", "--noise", "--seed", 1, "--out", out_file]
        # a small run first, so that imports and first-call caches are not counted
        assert main([str(a) for a in args + ["--theta-step", 30]]) == 0
        tracemalloc.start()
        try:
            code = main([str(a) for a in args + ["--theta-step", 0.25, "--theta-prime-step", 0.25]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        with out_file.open("rb") as handle:
            assert sum(1 for _ in handle) == 1 + 361 * 361
        assert out_file.stat().st_size > 11e6
        assert peak < SURFACE_PEAK_LIMIT

    @pytest.mark.parametrize(
        "args, rows",
        [
            (["sweep", "--noise", "--seed", 3, "--theta-step", 0.05], 1801),
            (["surface", "--theta-step", 2, "--theta-prime-step", 0.5], 46 * 181),
        ],
    )
    def test_out_file_bytes_equal_standard_output(self, tmp_path, args, rows):
        # both span several blocks: the sweep's rows, the surface's thetas
        assert rows > CSV_BLOCK_ROWS
        code, out, _ = run_in_process(args)
        assert code == 0 and out.count("\n") == 1 + rows
        out_file = tmp_path / "data.csv"
        assert run_in_process(args + ["--out", out_file]) == (0, "", "")
        assert out_file.read_bytes() == out.encode("utf-8")


STAGES = ["load_s", "compute_s", "render_s"]


class TestManifestStats:
    @pytest.mark.parametrize(
        "args, counts",
        [
            (["analyze", "STATE"], []),
            (["sweep", "--theta-step", 10], ["points"]),
            (["sweep", "--noise", "--theta-step", 10], ["points"]),
            (["surface", "--theta-step", 10, "--theta-prime-step", 15], ["points"]),
            (["surface", "--noise", "--theta-step", 10, "--theta-prime-step", 15], ["points"]),
            (["simulate", "--theta-step", 10], ["points"]),
            (["verify", "--trials", 20], ["draw_s", "screen_s", "instances_per_s"]),
            (["filter", "STATE"], ["filter_iterations", "deviation_log", "optimizer_path",
                                   "optimizer_evaluations"]),
        ],
    )
    def test_every_command_records_its_stage_times_then_its_work(
        self, tmp_path, capsys, args, counts
    ):
        state = write_werner_file(tmp_path)
        args = [state if arg == "STATE" else arg for arg in args]
        assert run_cli(args + ["--out", tmp_path / "data"], capsys)[0] == 0
        manifest = json.loads((tmp_path / "data.manifest.json").read_text())
        assert list(manifest) == [
            "command", "version", "seed", "parameters", "outputs", "replay_argv", "duration_s",
            "stats",
        ]
        assert manifest["command"] == args[0] and manifest["version"] == bb.__version__
        assert manifest["outputs"] == [str(tmp_path / "data")]
        stats = manifest["stats"]
        assert list(stats) == STAGES + counts
        times = [stats[stage] for stage in STAGES]
        assert min(times) >= 0.0
        assert sum(times) <= manifest["duration_s"]

    @pytest.mark.parametrize(
        "args,points",
        [
            (["sweep", "--theta-step", 10], 10),
            (["sweep", "--noise", "--theta-step", 10], 10),
            (["surface", "--theta-step", 10, "--theta-prime-step", 15], 10 + 7),
            (["surface", "--noise", "--theta-step", 10, "--theta-prime-step", 15], 10 + 7),
            (["simulate", "--theta-step", 10], 2 * 10 + 4),
        ],
    )
    def test_points_and_render_time(self, tmp_path, capsys, args, points):
        out_file = tmp_path / "data"
        assert run_cli(args + ["--out", out_file], capsys)[0] == 0
        manifest = json.loads((tmp_path / "data.manifest.json").read_text())
        stats = manifest["stats"]
        assert list(stats) == STAGES + ["points"]
        assert stats["points"] == points
        assert 0.0 <= stats["render_s"] <= manifest["duration_s"]

    def test_verify_records_stage_times_and_throughput(self, tmp_path, capsys):
        out_file = tmp_path / "verify.json"
        args = ["verify", "--trials", 1500, "--seed", 2]
        assert run_cli(args + ["--out", out_file], capsys)[0] == 0
        manifest = json.loads((tmp_path / "verify.json.manifest.json").read_text())
        stats = manifest["stats"]
        assert list(stats) == STAGES + ["draw_s", "screen_s", "instances_per_s"]
        assert 0.0 < stats["draw_s"] + stats["screen_s"] <= stats["compute_s"]
        assert stats["compute_s"] <= manifest["duration_s"]
        assert stats["instances_per_s"] == 1500 / stats["compute_s"]
        # the data file is the one written without --out
        assert out_file.read_text() == run_cli(args, capsys)[1]

    def test_verify_throughput_is_null_when_the_clock_does_not_tick(
        self, tmp_path, capsys, monkeypatch
    ):
        import bellbound.io

        # a coarse clock (about 16 ms a tick on Windows) can read 0 s for a run
        monkeypatch.setattr(bellbound.io.time, "perf_counter", lambda: 100.0)
        out_file = tmp_path / "verify.json"
        assert run_cli(["verify", "--trials", 3, "--out", out_file], capsys)[0] == 0
        stats = json.loads((tmp_path / "verify.json.manifest.json").read_text())["stats"]
        assert stats["compute_s"] == 0.0
        assert stats["instances_per_s"] is None


class TestVerify:
    def test_small_fuzz_passes(self, capsys):
        code, out, err = run_cli(["verify", "--trials", 300, "--seed", 1], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["min_slack"] >= -1e-9
        assert report["min_same_meter_slack"] >= -1e-9

    def test_replay_round_trip_reproduces_identical_slack(self, tmp_path, capsys):
        from bellbound.io import write_json
        from bellbound.verify import instance_to_json, run_trial

        instance = run_trial(seed=1, trial=17)
        path = tmp_path / "instance.json"
        write_json(path, instance_to_json(instance))
        code, out, _ = run_cli(["verify", "--replay", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["check"]["slack"] == instance.check.slack
        assert report["same_meter_check"]["slack"] == instance.same_meter_check.slack

    def test_replay_of_maximally_mixed_instance_has_zero_slack(self, tmp_path, capsys):
        # forced instance: both sum and bound vanish, slack is exactly 0
        from bellbound.io import complex_matrix_to_json, write_json

        path = tmp_path / "mixed_instance.json"
        write_json(
            path,
            {
                "matrix": complex_matrix_to_json(np.eye(4) / 4),
                "signal_axis": [1.0, 0.0, 0.0],
                "signal_axis_prime": [0.0, 1.0, 0.0],
                "meter_axis": [0.0, 0.0, 1.0],
                "meter_axis_prime": [1.0, 0.0, 0.0],
            },
        )
        code, out, _ = run_cli(["verify", "--replay", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["check"]["slack"] == 0.0
        assert report["check"]["bound"] == 0.0

    @pytest.mark.parametrize("flag", ["--out", "--trials", "--seed", "--dump"])
    def test_replay_rejects_the_flags_it_cannot_use(self, tmp_path, capsys, flag):
        from bellbound.io import write_json
        from bellbound.verify import instance_to_json, run_trial

        path = tmp_path / "instance.json"
        write_json(path, instance_to_json(run_trial(seed=1, trial=17)))
        code, out, err = run_cli(["verify", "--replay", path, flag, tmp_path / "3"], capsys)
        assert code == 1 and out == "" and not (tmp_path / "3").exists()
        assert err.startswith("error:") and flag in err and err.count("\n") == 1
        # a shared config file may still set trials and seed
        (tmp_path / "conf.txt").write_text("trials = 3\nseed = 4\n")
        code, out, _ = run_cli(["verify", "--replay", path, "--config", tmp_path / "conf.txt"],
                               capsys)
        assert code == 0 and json.loads(out)["replayed"] == str(path)

    def test_malformed_replay_exits_1(self, tmp_path, capsys):
        # one diagnostic line that names the bad key, never a traceback
        from bellbound.io import complex_matrix_to_json

        valid = {
            "matrix": complex_matrix_to_json(np.eye(4) / 4),
            "signal_axis": [1.0, 0.0, 0.0],
            "signal_axis_prime": [0.0, 1.0, 0.0],
            "meter_axis": [0.0, 0.0, 1.0],
            "meter_axis_prime": [1.0, 0.0, 0.0],
        }
        documents = [
            ("[1, 2]", None),
            # once a RecursionError traceback
            ("[" * 200_000, None),
            ('{"matrix": 5}', "matrix"),
            ("{}", "matrix"),
            (json.dumps({**valid, "signal_axis": [1.0, 0.0]}), "signal_axis"),
            (json.dumps({**valid, "meter_axis": None}), "meter_axis"),
            (json.dumps({**valid, "meter_axis_prime": [2.0, 0.0, 0.0]}), "meter_axis_prime"),
            (json.dumps({k: v for k, v in valid.items() if k != "signal_axis_prime"}),
             "signal_axis_prime"),
        ]
        path = tmp_path / "broken_instance.json"
        for text, key in documents:
            path.write_text(text)
            code, _, err = run_cli(["verify", "--replay", path], capsys)
            assert code == 1
            assert err.startswith("error:") and err.count("\n") == 1
            if key is not None:
                assert repr(key) in err

    @pytest.mark.parametrize(
        "key, axis",
        [
            ("meter_axis", [float("nan"), 0.0, 0.0]),
            ("signal_axis_prime", [0.0, float("nan"), 0.0]),
            ("meter_axis", [1e308, 1e308, 0.0]),
            ("meter_axis_prime", [float("inf"), 0.0, 0.0]),
            # its square overflows, or underflows to 0, or is NaN
            ("signal_axis", [1e200, 0.0, 0.0]),
            ("signal_axis_prime", [1e-200, 0.0, 0.0]),
            ("meter_axis_prime", [float("nan"), 0.0, 0.0]),
            ("signal_axis", [True, False, False]),
            ("signal_axis", [[1.0, 0.0, 0.0]]),
        ],
    )
    def test_replay_axis_must_be_a_finite_list_of_numbers(self, tmp_path, capsys, key, axis):
        # on the maximally mixed state a NaN axis once gave a report of zeros
        # and exit 0, and booleans or a nested list were read as (1, 0, 0)
        from bellbound.io import complex_matrix_to_json

        instance = {
            "matrix": complex_matrix_to_json(np.eye(4) / 4),
            "signal_axis": [1.0, 0.0, 0.0],
            "signal_axis_prime": [0.0, 1.0, 0.0],
            "meter_axis": [0.0, 0.0, 1.0],
            "meter_axis_prime": [1.0, 0.0, 0.0],
            key: axis,
        }
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["verify", "--replay", path], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(key) in err

    @settings(max_examples=150, deadline=None)
    @given(document=replay_documents())
    def test_any_json_replay_file_exits_0_or_1_with_one_line(self, tmp_path_factory, document):
        path = tmp_path_factory.mktemp("replay") / "instance.json"
        path.write_text(json.dumps(document))
        code, out, err = run_in_process(["verify", "--replay", path])
        assert code in (0, 1)
        if code == 0:
            assert err == "" and json.loads(out)["replayed"] == str(path)
        else:
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "min_slack, min_same_meter_slack, dumped",
        [(-0.5, 0.2, 0), (0.2, -0.5, 1), (-0.5, -0.2, 0), (-0.2, -0.5, 1)],
        ids=["bound", "same-meter", "both-bound-worse", "both-same-meter-worse"],
    )
    def test_violation_exits_2_and_dumps_instance(
        self, tmp_path, capsys, monkeypatch, min_slack, min_same_meter_slack, dumped
    ):
        # the bound is a theorem, so a violation can only be injected; the
        # command looks fuzz_bounds up in bellbound.verify when it runs.
        # Trial 0 is the worst of the bound, trial 1 of the same-meter bound,
        # and the instance with the lower slack is dumped.
        import bellbound.verify as verify_module
        from bellbound.verify import FuzzSummary, run_trial

        fake = FuzzSummary(
            trials=2,
            seed=1,
            min_slack=min_slack,
            worst=run_trial(seed=1, trial=0),
            min_same_meter_slack=min_same_meter_slack,
            worst_same_meter=run_trial(seed=1, trial=1),
        )
        monkeypatch.setattr(verify_module, "fuzz_bounds", lambda *a, **k: fake)
        dump = tmp_path / "violation.json"
        code, out, err = run_cli(["verify", "--trials", 2, "--dump", dump], capsys)
        assert code == 2
        assert json.loads(dump.read_text())["trial"] == dumped
        assert "violation" in err

    def test_zero_trials_exit_1(self, capsys):
        assert run_cli(["verify", "--trials", 0], capsys)[0] == 1


class TestSimulate:
    def test_reports_bell_estimate_with_stderr(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["simulate", "--p", 0.82, "--theta-step", 30, "--seed", 5], capsys
        )
        assert code == 0
        report = json.loads(out)
        b = report["bell"]
        assert abs(b["b_max_hat"] - 2.319) < 3 * b["b_max_stderr"] + 1e-9
        assert b["reference_measured"] == {"value": 2.36, "uncertainty": 0.02}
        assert "2.36" in err
        assert len(report["sweep"]) == 2 * 4  # hv and xy sweeps

    def test_p045_reference_comparison(self, capsys):
        code, out, _ = run_cli(["simulate", "--p", 0.45, "--theta-step", 45, "--seed", 5], capsys)
        report = json.loads(out)
        assert report["bell"]["reference_measured"] == {"value": 1.32, "uncertainty": 0.02}
        assert abs(report["bell"]["b_max_theory"] - 1.273) < 1e-3

    def test_zero_duration_exits_1(self, capsys):
        code, _, err = run_cli(["simulate", "--p", 0.82, "--duration", 0], capsys)
        assert code == 1
        assert "zero total" in err

    def test_grid_reaching_bell_streams_exits_1_before_drawing(
        self, tmp_path, capsys, monkeypatch
    ):
        # 500,001 angles give sweep streams 0..1,000,001, which would include
        # the Bell records' streams from 1,000,000
        def no_draws(*args, **kwargs):
            raise AssertionError("counts were drawn")

        # the command looks both up in bellbound.expsim when it runs
        import bellbound.expsim as expsim_module

        monkeypatch.setattr(expsim_module, "run_sweep_experiment", no_draws)
        monkeypatch.setattr(expsim_module, "simulate_bell_records", no_draws)
        out_file = tmp_path / "sim.json"
        code, out, err = run_cli(
            ["simulate", "--theta-step", 1.8e-4, "--out", out_file], capsys
        )
        assert code == 1
        assert out == "" and not out_file.exists()
        assert err.startswith("error:") and err.count("\n") == 1
        assert "500001 angles" in err

    def test_is_bit_reproducible(self, capsys):
        args = ["simulate", "--p", 0.45, "--theta-step", 45, "--seed", 13]
        first = run_cli(args, capsys)
        second = run_cli(args, capsys)
        assert first[0] == 0 and first[1] == second[1]

    def test_schedule_preparation(self, capsys):
        # the compensated 22/10/13 schedule prepares Werner(0.82)
        target = bb.werner_mixing_model(0.82)
        rates = f"{target.w_singlet / 22.0},{target.w_hh / 10.0},{target.w_vv / 13.0}"
        code, out, _ = run_cli(
            ["simulate", "--visibility", target.visibility, "--schedule-durations",
             "22,10,13", "--schedule-rates", rates, "--theta-step", 45, "--seed", 2],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["p"] - 0.82) < 1e-9
        assert abs(report["mixing_model"]["derived_p"] - 0.82) < 1e-9
        assert report["bell"]["reference_measured"]["value"] == 2.36

    def test_uncompensated_schedule_exits_1(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--visibility", 0.9, "--schedule-durations", "22,10,13",
             "--schedule-rates", "1,1,1", "--theta-step", 45],
            capsys,
        )
        assert code == 1
        assert "Werner" in err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--pair-rate", "nan"], "pair_rate"),
            (["--duration", "nan"], "duration"),
            (["--dark-rate", "nan"], "dark_coincidence_rate"),
            (["--visibility", 0.9, "--schedule-durations", "nan,10,8",
              "--schedule-rates", "1,1,1"], "durations"),
        ],
    )
    def test_nan_noise_parameter_exits_1_naming_it(self, capsys, flags, name):
        # a NaN once reached numpy's Poisson draw, or a model with NaN weights
        code, out, err = run_cli(["simulate", "--theta-step", 45, *flags], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err

    @pytest.mark.parametrize("rate", ["1e10", "1e300"])
    def test_channel_means_past_the_poisson_limit_exit_1_naming_the_flags(self, rate):
        # 1e20 expected counts once failed in numpy's Poisson draw with "lam
        # value too large", and 1e600 first overflowed with a RuntimeWarning.
        argv = ["simulate", "--theta-step", 45, "--pair-rate", rate, "--duration", rate]
        code, out, err = run_in_process(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert all(flag in err for flag in ("--pair-rate", "--duration", "--dark-rate"))

    def test_incomplete_schedule_flags_exit_1(self, capsys):
        code, _, err = run_cli(["simulate", "--visibility", 0.9], capsys)
        assert code == 1
        assert "schedule" in err


class TestFilter:
    def test_bell_diagonal_input(self, tmp_path, capsys):
        path = tmp_path / "bd.json"
        path.write_text(json.dumps({"factory": "bell_diagonal", "lambdas": [0.1, 0.2, 0.3, 0.4]}))
        code, out, _ = run_cli(["filter", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["iterations"] == 0
        assert abs(report["post_filter_check"]["slack"]) < 1e-6
        f_s = np.array([[c["re"] + 1j * c["im"] for c in row] for row in report["f_signal"]])
        np.testing.assert_allclose(f_s, np.eye(2), atol=1e-12)

    def test_random_state_filters_and_saturates(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"factory": "random", "seed": 12, "ancilla_dim": 4}))
        code, out, _ = run_cli(["filter", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["b_max_out"] >= report["b_max_in"] - 1e-9
        assert abs(report["post_filter_check"]["slack"]) < 1e-6

    def test_manifest_records_filter_convergence(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"factory": "random", "seed": 12, "ancilla_dim": 4}))
        out_file = tmp_path / "filter.json"
        code, _, _ = run_cli(["filter", path, "--out", out_file], capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        assert "stats" not in report and "deviation_log" not in report
        stats = json.loads((tmp_path / "filter.json.manifest.json").read_text())["stats"]
        assert stats["filter_iterations"] == report["iterations"] > 0
        log = stats["deviation_log"]
        assert len(log) == report["iterations"]
        assert log[-1] <= 1e-10 < log[0]
        # The filtered state attains its bound, so the optimizer needs no search.
        assert (stats["optimizer_path"], stats["optimizer_evaluations"]) == ("certified", 0)

    def test_manifest_records_a_searched_optimum(self, tmp_path, capsys):
        # A loose filter tolerance leaves the state short of its bound.
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"factory": "random", "seed": 12, "ancilla_dim": 4}))
        out_file = tmp_path / "filter.json"
        code, _, _ = run_cli(["filter", path, "--tol", "1e-2", "--out", out_file], capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        assert "optimizer_path" not in report and "optimizer_evaluations" not in report
        stats = json.loads((tmp_path / "filter.json.manifest.json").read_text())["stats"]
        assert stats["optimizer_path"] == "searched"
        assert stats["optimizer_evaluations"] > 0

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--tol", "nan"], "tol must be a finite number > 0, got nan"),
            (["--tol", "inf"], "tol must be a finite number > 0, got inf"),
            (["--tol", "-1"], "tol must be a finite number > 0, got -1.0"),
            (["--tol", "0"], "tol must be a finite number > 0, got 0.0"),
            (["--max-iter", "0"], "max_iter must be >= 1, got 0"),
            (["--max-iter", "-5"], "max_iter must be >= 1, got -5"),
        ],
    )
    def test_invalid_filter_parameters_exit_1(self, tmp_path, capsys, args, message):
        # --tol nan once returned the state unfiltered, --max-iter 0 crashed
        # with an IndexError and --tol -1 ran every iteration before failing
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"factory": "random", "seed": 3, "ancilla_dim": 4}))
        out_file = tmp_path / "filter.json"
        code, out, err = run_cli(["filter", path, *args, "--out", out_file], capsys)
        assert code == 1 and out == "" and not out_file.exists()
        assert err == f"error: filter {message}\n"

    @pytest.mark.parametrize(
        "matrix, max_iter",
        [case[1:] for case in filter_edge_states(REDUCTION_EIGENVALUE_FLOOR)],
        ids=[case[0] for case in filter_edge_states(REDUCTION_EIGENVALUE_FLOOR)],
    )
    def test_edge_states_exit_0_or_1_with_at_most_one_line(self, tmp_path, matrix, max_iter):
        from bellbound.io import complex_matrix_to_json

        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"matrix": complex_matrix_to_json(matrix)}))
        args = ["filter", path] + ([] if max_iter is None else ["--max-iter", max_iter])
        code, _, err = run_in_process(args)
        assert code in (0, 1)
        assert err.count("error:") <= 1 and (code == 0 or err.count("\n") == 1)

    def test_pure_product_exits_1(self, tmp_path, capsys):
        matrix = np.zeros((4, 4))
        matrix[0, 0] = 1.0
        path = tmp_path / "prod.json"
        path.write_text(json.dumps({"matrix": matrix.tolist()}))
        code, _, err = run_cli(["filter", path], capsys)
        assert code == 1
        assert "rank deficient" in err


def readme_commands():
    """Every ``bellbound`` command of the README's ``sh`` blocks, as an argv."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line.split("#", 1)[0])
            if argv[:1] == ["bellbound"]:
                commands.append(argv[1:])
    return commands


def test_every_readme_command_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_text(json.dumps({"factory": "werner", "p": 0.82}))
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        code, _, err = run_cli(argv, capsys)
        assert code == 0, (argv, err)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_werner_file(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "bellbound", "analyze", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["b_max"] - 2.319) < 1e-3

    def test_outputs_accompanied_by_manifest(self, tmp_path):
        out_file = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "bellbound", "sweep", "--p", "0.5", "--theta-step", "45",
             "--out", str(out_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out_file)]
        assert manifest["command"] == "sweep"
