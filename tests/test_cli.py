import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from susyqm import RosenMorseII, cli, fd_oracle
from susyqm.cli import (
    CONFIG_ENV_VAR, Command, execute_command, load_config, main, parse_command,
    render_csv, render_json,
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parsing


def test_parse_spectrum_happy_path():
    cmd = parse_command(["spectrum", "--family", "poschl-teller", "--l", "3"])
    assert cmd.subcommand == "spectrum"
    assert cmd.fmt == "json" and cmd.output is None
    assert cmd.parameters["l"] == Fraction(3)
    assert cmd.parameters["family"] == "poschl-teller"


def test_parse_verify_relations():
    cmd = parse_command(["verify", "relations", "--l-max", "5"])
    assert cmd.subcommand == "verify"
    assert cmd.parameters["section"] == "relations"
    assert cmd.parameters["l_max"] == 5


def test_parse_rejects_unknown_flag(capsys):
    code, _, _ = run(["spectrum", "--family", "poschl-teller", "--nope", "1"], capsys)
    assert code == 2


def test_parse_rejects_bad_rational(capsys):
    code, _, _ = run(["spectrum", "--family", "poschl-teller", "--l", "abc"], capsys)
    assert code == 2


def test_parse_rejects_unknown_subcommand(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "ladder", "--l-max", "0"],
    ["verify", "ladder", "--l-max", "-1"],
    ["verify", "relations", "--l-max", "0"],
    ["verify", "relations", "--p-max", "-1"],
], ids=["l-max-0", "l-max-neg", "relations-l-max-0", "p-max-neg"])
def test_verify_rejects_empty_check_ranges(argv, capsys):
    # a range that runs no check must not report a pass
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert argv[2] in err


def test_parser_reused_after_usage_error(capsys):
    argv = ["spectrum", "--family", "rosen-morse", "--nprime", "5/2", "--B", "1/2"]
    assert run(["verify", "--bogus"], capsys)[0] == 2
    code, out, _ = run(argv, capsys)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop(CONFIG_ENV_VAR, None)
    fresh = subprocess.run([sys.executable, "-m", "susyqm", *argv], env=env,
                           capture_output=True, text=True, check=False)
    assert code == fresh.returncode == 0
    assert out == fresh.stdout


# ---------------------------------------------------------------------------
# exit codes


# inputs that a constructor or validator of the package rejects; each is
# admitted, or not, by parse_command, before anything runs
PRECONDITION_VIOLATIONS = [
    ("spectrum-tilted-B-5", ["spectrum", "--family", "rosen-morse", "--nprime", "2", "--B", "5"],
     "below n'^2"),
    ("deformed-5-grid-points", ["deformed", "--alpha", "1", "--beta", "2", "--grid-min", "-0.4",
                                "--grid-max", "8", "--grid-points", "5"], "at least 7 grid points"),
    ("deformed-grid-off-chart", ["deformed", "--alpha", "1", "--beta", "2", "--grid-min", "-5",
                                 "--grid-max", "5", "--grid-points", "101"],
     "z = -5.0 is outside the chart"),
    ("deformed-alpha-nan", ["deformed", "--alpha", "nan", "--beta", "1"],
     "need finite alpha, beta > -1, got nan"),
    ("eigenfunction-z-nan", ["eigenfunction", "--family", "poschl-teller", "--l", "2",
                             "--n", "0", "--z", "nan"], "--z must be finite, got nan"),
    ("eigenfunction-z-inf", ["eigenfunction", "--family", "poschl-teller", "--l", "2",
                             "--n", "0", "--z", "inf"], "--z must be finite, got inf"),
    ("sech-level-past-l", ["eigenfunction", "--family", "poschl-teller", "--l", "5/2",
                           "--n", "3"], "level n = 3 is not a state of the poschl-teller well"),
    ("tilted-level-not-normalizable", ["eigenfunction", "--family", "rosen-morse", "--nprime",
                                       "2", "--B", "1", "--n", "1"],
     "level n = 1 is not a state of the rosen-morse well"),
    ("scatter-k-negative", ["scatter", "--l", "1", "--k", "-1"],
     "wavenumber must be positive and finite, got -1.0"),
    ("gegenbauer-q-1/2", ["spectrum", "--family", "gegenbauer", "--p", "1", "--q", "1/2"],
     "need q > 1/2"),
    ("map-off-chart", ["map", "--gamma", "1", "--z", "-2"], "z = -2.0 is outside the chart"),
]


@pytest.mark.parametrize("argv,message", [case[1:] for case in PRECONDITION_VIOLATIONS],
                         ids=[case[0] for case in PRECONDITION_VIOLATIONS])
def test_precondition_violation_exits_2(argv, message, monkeypatch, capsys):
    with pytest.raises(cli.UsageError):
        parse_command(argv)
    calls = []
    monkeypatch.setitem(cli.RUNNERS, argv[0], calls.append)
    code, out, err = run(argv, capsys)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err, err


def test_missing_family_parameter_exits_2(capsys):
    code, _, _ = run(["spectrum", "--family", "poschl-teller"], capsys)
    assert code == 2


def test_numerical_failure_exits_3(capsys):
    # tilted well with B != 0 has asymmetric tails: scattering refuses
    code, _, err = run(["scatter", "--family", "rosen-morse", "--nprime", "2",
                        "--B", "1/2", "--k", "1"], capsys)
    assert code == 3
    assert "asymmetric" in err or "asymptote" in err


def test_arithmetic_error_exits_3_without_traceback(monkeypatch, capsys):
    # a planted defect: RosenMorseII.levels() one level too long asks for the
    # energy at n = n', which divides by (n' - n)^2 = 0
    levels = RosenMorseII.levels
    monkeypatch.setattr(RosenMorseII, "levels", lambda self: range(len(levels(self)) + 1))
    code, out, err = run(["verify", "spectra"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure in 'verify'")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("k", ["nan", "inf"])
def test_scatter_non_finite_wavenumber_exits_2(k, capsys):
    code, out, err = run(["scatter", "--family", "poschl-teller", "--l", "3/2",
                          "--k", k], capsys)
    assert code == 2
    assert out == ""
    assert "wavenumber" in err


@pytest.mark.parametrize("k", ["1e-300", "1e-200"])
def test_scatter_overflowing_amplitude_exits_3(k, capsys):
    # the incident amplitude grows like 1/k and |A|^2 overflows a double
    code, out, err = run(["scatter", "--family", "poschl-teller", "--l", "3/2",
                          "--k", k], capsys)
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    ["--l", "2", "--k", "1e300"],
    ["--l", "2", "--k", "1e154"],
    ["--family", "rosen-morse", "--nprime", "2", "--k", "1e200"],
    # k L = 20 k is past the double range, so the phase e^{ikL} is not a number
    ["--l", "1", "--k", "8.98846567431158e+306"],
], ids=["sech-1e300", "sech-1e154", "tilted-1e200", "sech-kL-past-double-range"])
def test_huge_wavenumber_exits_3_with_one_stderr_line(argv):
    # a subprocess sees numpy's RuntimeWarnings, which pytest would record apart
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop(CONFIG_ENV_VAR, None)
    proc = subprocess.run([sys.executable, "-m", "susyqm", "scatter", *argv],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("numerical failure in 'scatter'")
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr


@pytest.mark.parametrize("half_width", ["nan", "0", "-5", "inf"])
def test_scatter_bad_half_width_exits_2(half_width, capsys):
    code, out, err = run(["scatter", "--family", "poschl-teller", "--l", "2", "--k", "1",
                          f"--scatter-half-width={half_width}"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "half width must be positive and finite" in err


@pytest.mark.parametrize("argv", [
    ["scatter", "--family", "poschl-teller", "--l", "2", "--k", "1"],
    ["verify", "scatter"],
])
def test_config_zero_scatter_step_exits_2(argv, tmp_path, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("scatter_step = 0\n")
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "step must be positive and finite" in err


@pytest.mark.parametrize("argv", [
    ["verify", "spectra", "--grid-min=1e-300", "--grid-max=2e-300"],  # h^2 is 0.0
    ["verify", "all", "--grid-min=1e-300", "--grid-max=2e-300"],
    ["oracle", "--family", "poschl-teller", "--l", "2", "--grid-min=0",
     "--grid-max=2e-157"],  # h^2 = 1e-320, 1/h^2 = inf
])
def test_grid_too_fine_for_the_stencil_exits_3(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err.count("\n") == 1 and "past the double range" in err, err


@pytest.mark.parametrize("argv", [
    ["verify", "spectra", "--grid-min=-1e300", "--grid-max=1e300", "--grid-points=3"],
    ["deformed", "--alpha", "1", "--beta", "2", "--grid-min", "-0.4", "--grid-max", "1e300",
     "--grid-points", "11"],
])
def test_grid_too_coarse_for_the_stencil_exits_3(argv, capsys):
    # h^2 is past the double range; the message names the spacing
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "h^2 past the double range" in err, err
    assert "grid spacing h = " in err


def test_deformed_non_finite_residual_exits_3(capsys):
    # n'(n' + 1) and m^2 overflow, and the residual is NaN
    code, out, err = run(["deformed", "--alpha", "1e300", "--beta", "1e300"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure in 'deformed'") and err.count("\n") == 1, err
    assert "not finite" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--family", "poschl-teller", "--l", "2", "--grid-min=-inf"],
    ["verify", "spectra", "--grid-min=-1e308", "--grid-max=1e308"],
    ["verify", "all", "--grid-max=nan"],
    ["deformed", "--alpha", "1", "--beta", "2", "--grid-min=-inf", "--grid-max", "1",
     "--grid-points", "11"],
])
def test_grid_that_cannot_be_built_exits_2_before_running(argv, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(cli.RUNNERS, argv[0], calls.append)
    with pytest.raises(cli.UsageError, match="finite"):
        parse_command(argv)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["verify", "deformed", "--grid-points", "3", "--tol", "0"],
    ["verify", "maps", "--tol", "5"],
    ["verify", "shape-invariance", "--grid-min=-inf"],
    ["verify", "scatter", "--grid-max", "3"],
    ["verify", "riccati", "--tol", "1e-3"],
    ["verify", "ladder", "--grid-points", "801"],
])
def test_verify_section_rejects_grid_and_tol_flags_it_does_not_read(argv, monkeypatch,
                                                                     capsys):
    calls = []
    monkeypatch.setitem(cli.RUNNERS, "verify", calls.append)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: verify {argv[1]} does not read --")
    assert err.count("\n") == 1, err
    assert calls == []


@pytest.mark.parametrize("argv,flag", [
    (["verify", "maps", "--l-max", "3"], "--l-max"),
    (["verify", "ladder", "--p-max", "2"], "--p-max"),
    (["verify", "scatter", "--l-max", "3", "--p-max", "2"], "--l-max"),
    (["verify", "spectra", "--p-max", "2"], "--p-max"),
])
def test_verify_section_rejects_check_ranges_it_does_not_read(argv, flag, monkeypatch,
                                                               capsys):
    # only ladder, relations and all read --l-max; only relations and all --p-max
    calls = []
    monkeypatch.setitem(cli.RUNNERS, "verify", calls.append)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and calls == []
    assert err == f"error: verify {argv[1]} does not read {flag}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "riccati", "--grid-points", "801"],
    ["verify", "spectra", "--grid-points", "801", "--tol", "1e-3"],
    ["verify", "all", "--grid-min=-10", "--tol", "1e-3"],
    ["verify", "ladder", "--l-max", "3"],
    ["verify", "relations", "--l-max", "3", "--p-max", "2"],
    ["verify", "all", "--l-max", "3", "--p-max", "2"],
])
def test_verify_section_accepts_the_flags_it_reads(argv):
    assert parse_command(argv).parameters["section"] == argv[1]


@pytest.mark.parametrize("argv", [
    ["verify", "relations", "--l-max", "3", "--p-max", "2"],
    ["verify", "all", "--l-max", "3", "--p-max", "2"],
])
def test_verify_reading_check_ranges_exits_0(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["parameters"]["l_max"] == 3


def test_verify_echoes_default_check_ranges():
    # a default check range is resolved, and echoed, only where it is read
    assert parse_command(["verify", "maps"]).parameters == {"section": "maps"}
    assert parse_command(["verify", "ladder"]).parameters == {"section": "ladder", "l_max": 5}
    assert parse_command(["verify", "relations"]).parameters == {
        "section": "relations", "l_max": 5, "p_max": 4}


def test_verify_section_leaves_unread_grid_and_tol_of_the_config(tmp_path):
    # a config file serves every subcommand; a section echoes only what it reads
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("grid_points = 3\ntol = 0\n")
    assert parse_command(["verify", "maps", "--config", str(cfg)]).parameters == {
        "section": "maps"}
    params = parse_command(["verify", "spectra", "--config", str(cfg)]).parameters
    assert (params["grid_points"], params["tol"]) == (3, 0.0)


def test_deformed_takes_neither_grid_nor_tol_from_the_config(tmp_path):
    # the exception to flags over config over defaults: deformed derives its grid
    # from --alpha and --beta and keeps its own 1e-5 bound, since the config's tol
    # is the FD oracle's criterion; a flag still wins
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("tol = 0.5\ngrid_points = 5001\n")
    argv = ["deformed", "--alpha", "1", "--beta", "2", "--config", str(cfg)]
    params = parse_command(argv).parameters
    assert (params["tol"], params["grid_points"]) == (1e-5, 8501)
    assert parse_command([*argv, "--tol", "0.5"]).parameters["tol"] == 0.5
    oracle = parse_command(["oracle", "--family", "poschl-teller", "--l", "2",
                            "--config", str(cfg)]).parameters
    assert (oracle["tol"], oracle["grid_points"]) == (0.5, 5001)


UNREAD_FAMILY_FLAGS = [
    (["spectrum", "--family", "poschl-teller", "--l", "2", "--nprime", "3"],
     "spectrum --family poschl-teller does not read --nprime"),
    (["oracle", "--family", "poschl-teller", "--l", "2", "--B", "7"],
     "oracle --family poschl-teller does not read --B"),
    (["eigenfunction", "--family", "rosen-morse", "--nprime", "5", "--n", "0", "--l", "4"],
     "eigenfunction --family rosen-morse does not read --l"),
    (["spectrum", "--family", "rosen-morse", "--nprime", "2", "--l", "9", "--p", "1",
      "--q", "3/2"], "spectrum --family rosen-morse does not read --l"),
    (["scatter", "--l", "2", "--B", "0", "--k", "1"],
     "scatter --family poschl-teller does not read --B"),
    (["spectrum", "--family", "gegenbauer", "--p", "1", "--q", "2", "--B", "0"],
     "spectrum --family gegenbauer does not read --B"),
]


@pytest.mark.parametrize("argv,message", UNREAD_FAMILY_FLAGS,
                         ids=[" ".join(argv[:3]) for argv, _m in UNREAD_FAMILY_FLAGS])
def test_family_flag_the_family_does_not_read_exits_2(argv, message, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(cli.RUNNERS, argv[0], calls.append)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and calls == []
    assert err == f"error: {message}\n"


def _subparsers() -> dict:
    [action] = [a for a in cli._parser()._actions if a.dest == "subcommand"]
    return action.choices


def test_reads_table_matches_the_parser():
    # every key the table names is a flag of the subcommand or a config key, and
    # every flag a subcommand defines is read by it, one of its verify sections
    # or one of its families, so the parser and the table cannot drift apart
    for sub, parser in _subparsers().items():
        actions = {a.dest: a for a in parser._actions}
        flags = set(actions) - {"help", "format", "output", "config"}
        names = [sub]
        if sub == "verify":
            names += [f"verify {section}" for section in cli.VERIFY_SECTIONS]
        if "family" in actions:
            names += actions["family"].choices
        for name in names:
            assert set(cli.READS[name]) <= flags | set(cli.CONFIG_DEFAULTS), name
        assert flags <= {key for name in names for key in cli.READS[name]}, sub
    assert set(cli.READS) == set(_subparsers()) | {
        f"verify {section}" for section in cli.VERIFY_SECTIONS} | {
        "poschl-teller", "rosen-morse", "gegenbauer"}


def test_each_subcommand_has_a_flag_for_each_key_it_reads():
    # the subparsers are built from READS, so no flag is missing or extra
    for sub, parser in _subparsers().items():
        names = [sub]
        if sub == "verify":
            names += [f"verify {section}" for section in cli.VERIFY_SECTIONS]
        names += cli.FAMILIES.get(sub, ())
        keys = {key for name in names for key in cli.READS[name]} - {"section"}
        options = {opt for action in parser._actions for opt in action.option_strings}
        assert options == {f"--{key.replace('_', '-')}" for key in keys} | {
            "--format", "--output", "--config", "-h", "--help"}, sub
    options = {opt for action in _subparsers()["eigenfunction"]._actions
               for opt in action.option_strings}
    assert sorted(options) == sorted(["--family", "--l", "--nprime", "--B", "--n", "--z",
                                      "--format", "--output", "--config", "-h", "--help"])


MISSING_KEYS = [
    (["spectrum", "--l", "2"], "spectrum requires --family"),
    (["spectrum", "--family", "poschl-teller"], "spectrum --family poschl-teller requires --l"),
    (["spectrum", "--family", "rosen-morse", "--B", "1/2"],
     "spectrum --family rosen-morse requires --nprime"),
    (["spectrum", "--family", "gegenbauer", "--q", "3/2"],
     "spectrum --family gegenbauer requires --p"),
    (["spectrum", "--family", "gegenbauer", "--p", "1"],
     "spectrum --family gegenbauer requires --q"),
    (["eigenfunction", "--family", "poschl-teller", "--l", "2"],
     "eigenfunction --family poschl-teller requires --n"),
    (["eigenfunction", "--family", "poschl-teller", "--n", "0", "--z", "0.5"],
     "eigenfunction --family poschl-teller requires --l"),
    (["map", "--z", "0.5"], "map requires --gamma"),
    (["map", "--gamma", "1"], "map requires --z"),
    (["scatter", "--l", "2"], "scatter --family poschl-teller requires --k"),
    (["scatter", "--k", "1"], "scatter --family poschl-teller requires --l"),
    (["scatter", "--family", "rosen-morse", "--k", "1"],
     "scatter --family rosen-morse requires --nprime"),
    (["oracle", "--grid-points", "801"], "oracle requires --family"),
    (["deformed", "--beta", "2"], "deformed requires --alpha"),
    (["deformed", "--alpha", "1", "--n", "2"], "deformed requires --beta"),
]


@pytest.mark.parametrize("argv,message", MISSING_KEYS,
                         ids=[message.rsplit(" ", 1)[-1] + "-" + argv[0]
                              for argv, message in MISSING_KEYS])
def test_missing_key_exits_2_with_one_line(argv, message, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(cli.RUNNERS, argv[0], calls.append)
    code, out, err = run(argv, capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: {message}\n"


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(["spectrum", "--family", "poschl-teller", "--l", "1",
                          "--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(target) in err
    assert not target.exists()


def test_config_directory_exits_2(tmp_path, capsys):
    code, out, err = run(["spectrum", "--family", "poschl-teller", "--l", "1",
                          "--config", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(tmp_path) in err


def test_checks_spectra_nan_level_fails(monkeypatch):
    # a NaN after the first level is the case the builtin max() silently drops
    real = fd_oracle.bound_state_eigenvalues_batch

    def last_level_nan(*args, **kwargs):
        return [evs[:-1] + [math.nan] for evs in real(*args, **kwargs)]

    monkeypatch.setattr(fd_oracle, "bound_state_eigenvalues_batch", last_level_nan)
    params = parse_command(["verify", "spectra"]).parameters
    fd_checks = [c for c in cli.checks_spectra(params)
                 if c["id"].startswith("fd-vs-closed-form")]
    assert len(fd_checks) == 8
    assert not any(c["pass"] for c in fd_checks)
    assert all(math.isnan(c["computed"]) for c in fd_checks)


def test_checks_maps_nan_elimination_fails(monkeypatch):
    # the builtin max() keeps the first value when a later one is NaN
    real = cli.cmaps.first_derivative_coefficient

    def nan_after_first(gamma, zs):
        values = real(gamma, zs)
        values[1:] = math.nan
        return values

    monkeypatch.setattr(cli.cmaps, "first_derivative_coefficient", nan_after_first)
    elim = [c for c in cli.checks_maps({})
            if c["id"].startswith("first-derivative-elimination-")]
    assert len(elim) == 6
    assert not any(c["pass"] for c in elim)
    assert all(math.isnan(c["computed"]) for c in elim)


def test_spectrum_rejects_negative_depth(capsys):
    # -l(l+1) sech^2 z at l = -3 is the depth-2 well; an empty spectrum is wrong
    code, out, err = run(["spectrum", "--family", "poschl-teller", "--l", "-3"], capsys)
    assert code == 2
    assert out == ""
    assert "depth parameter" in err


def test_config_bad_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("grid_min = -10\ngrid_points = abc\n")
    code, out, err = run(["oracle", "--family", "poschl-teller", "--l", "1",
                          "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"{cfg}:2" in err and "grid_points" in err


@pytest.mark.parametrize("argv", [
    # near 2^1781, past the double range
    ["eigenfunction", "--family", "poschl-teller", "--l", "300", "--n", "250",
     "--z", "0.5"],
    # about -1.9e373, past the double range
    ["eigenfunction", "--family", "poschl-teller", "--l", "200", "--n", "199",
     "--z", "0.3"],
])
def test_float_overflow_exits_3(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


UNREAD_FLAGS = [
    (base, flag)
    for base in (["spectrum", "--family", "poschl-teller", "--l", "2"],
                 ["eigenfunction", "--family", "poschl-teller", "--l", "2", "--n", "0"],
                 ["map", "--gamma", "1", "--z", "0.5"])
    for flag in ("--grid-min", "--grid-max", "--grid-points", "--tol")
] + [
    (["scatter", "--family", "poschl-teller", "--l", "2", "--k", "1"], flag)
    for flag in ("--grid-min", "--grid-points", "--tol")
]


@pytest.mark.parametrize("base,flag", UNREAD_FLAGS,
                         ids=[base[0] + flag for base, flag in UNREAD_FLAGS])
def test_flag_the_subcommand_does_not_read_exits_2(base, flag, capsys):
    code, out, err = run(base + [flag, "5"], capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--family", "poschl-teller", "--l", "2", "--tol", "nan"],
    ["oracle", "--family", "poschl-teller", "--l", "2", "--tol=-1"],
    ["oracle", "--family", "poschl-teller", "--l", "2", "--tol", "inf"],
    ["verify", "spectra", "--tol", "nan"],
    ["verify", "maps", "--tol=-1"],
    ["deformed", "--alpha", "1", "--beta", "2", "--tol", "nan"],
])
def test_bad_tolerance_exits_2(argv, capsys):
    with pytest.raises(cli.UsageError, match="tol must be finite and nonnegative"):
        parse_command(argv)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: tol must be") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_config_bad_tolerance_exits_2(value, tmp_path, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text(f"tol = {value}\n")
    code, out, err = run(["verify", "maps", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: tol must be") and err.count("\n") == 1


def test_zero_tolerance_is_accepted():
    assert parse_command(["verify", "spectra", "--tol", "0"]).parameters["tol"] == 0.0


OVERSIZED = [
    (["spectrum", "--family", "poschl-teller", "--l", "1e15"], "1e+15 levels"),
    (["spectrum", "--family", "rosen-morse", "--nprime", "1e15"], "1e+15 levels"),
    (["spectrum", "--family", "gegenbauer", "--p", "100000000", "--q", "3/2"], "1e+08 levels"),
    (["oracle", "--family", "poschl-teller", "--l", "1e15"], "1e+15 levels"),
    (["deformed", "--alpha", "1", "--beta", "1.000001"], "5e+08 grid points"),
    (["verify", "all", "--grid-points", "10000000000"], "1e+10 grid points"),
    (["oracle", "--family", "poschl-teller", "--l", "2", "--grid-points", "10000000000"],
     "1e+10 grid points"),
    (["deformed", "--alpha", "1", "--beta", "2", "--grid-min", "-0.4", "--grid-max", "8",
      "--grid-points", "10000000000"], "1e+10 grid points"),
    (["scatter", "--k", "1", "--l", "2", "--scatter-half-width", "1e300"],
     "8e+303 RK4 lattice points"),
    # sizes past the double range
    (["spectrum", "--family", "poschl-teller", "--l", "1e400"], "1.000e+400 levels"),
    (["oracle", "--family", "rosen-morse", "--nprime", "1e400"], "1.000e+400 levels"),
    (["verify", "spectra", "--grid-points", str(10 ** 400)], "1.000e+400 grid points"),
]
SCATTER_STEP_1E_12 = [["scatter", "--family", "poschl-teller", "--l", "2", "--k", "1"],
                      ["verify", "scatter"], ["verify", "all"]]


def _peak_bytes(fn):
    """Peak traced allocation while fn runs, and what fn returned or raised."""
    tracemalloc.start()
    try:
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the caller inspects it
            result = exc
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _assert_oversized_rejected(argv, size_text, capsys):
    peak, exc = _peak_bytes(lambda: parse_command(argv))
    assert isinstance(exc, cli.UsageError)
    assert str(exc) == f"{size_text} requested, above the size cap of {cli.SIZE_CAP}"
    assert peak < 2 ** 20
    peak, code = _peak_bytes(lambda: main(argv))
    assert code == 2 and peak < 2 ** 20
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {exc}\n"


@pytest.mark.parametrize("argv,size_text", OVERSIZED)
def test_oversized_request_exits_2_without_allocating(argv, size_text, capsys):
    _assert_oversized_rejected(argv, size_text, capsys)


def test_gegenbauer_size_cap_counts_the_printed_levels(capsys):
    # q = 3/2 gives the sech well n' = p + 1, with p + 1 bound levels
    argv = ["spectrum", "--family", "gegenbauer", "--q", "3/2"]
    assert parse_command([*argv, "--p", "1999999"]).parameters["p"] == 1999999
    _assert_oversized_rejected([*argv, "--p", "2000000"], "2e+06 levels", capsys)


@pytest.mark.parametrize("argv", SCATTER_STEP_1E_12)
def test_tiny_scatter_step_exits_2_without_allocating(argv, tmp_path, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("scatter_step = 1e-12\n")
    _assert_oversized_rejected(argv + ["--config", str(cfg)], "1.6e+14 RK4 lattice points",
                               capsys)


def test_grid_points_are_budgeted_only_where_a_grid_is_read(tmp_path, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("grid_points = 10000000000\n")
    code, out, _ = run(["verify", "maps", "--config", str(cfg)], capsys)
    assert code == 0 and json.loads(out)["status"] == "pass"
    _assert_oversized_rejected(["verify", "spectra", "--config", str(cfg)],
                               "1e+10 grid points", capsys)


def test_scatter_step_is_not_budgeted_where_unused(tmp_path):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("scatter_step = 1e-12\n")
    assert parse_command(["verify", "spectra", "--config", str(cfg)]).subcommand == "verify"


@pytest.mark.parametrize("argv", [
    ["verify", "all"],
    ["oracle", "--family", "poschl-teller", "--l", "40"],
    ["deformed", "--alpha", "1", "--beta", "2", "--n", "1"],
    ["deformed", "--alpha", "2", "--beta", "1"],
    ["scatter", "--family", "poschl-teller", "--l", "2", "--k", "1"],
    ["spectrum", "--family", "poschl-teller", "--l", "60"],
    ["spectrum", "--family", "rosen-morse", "--nprime", "30", "--B", "20"],
    ["spectrum", "--family", "gegenbauer", "--p", "2", "--q", "3/2"],
])
def test_defaults_stay_far_below_size_cap(argv, monkeypatch):
    # admitted under a tenth of the cap, and budgeted at all: rejected under a cap of 0
    monkeypatch.setattr(cli, "SIZE_CAP", cli.SIZE_CAP // 10)
    parse_command(argv)
    monkeypatch.setattr(cli, "SIZE_CAP", 0)
    with pytest.raises(cli.UsageError, match=r"requested, above the size cap of 0$"):
        parse_command(argv)


fuzz_rationals = st.builds(lambda num, den: str(Fraction(num, den)),
                           st.integers(-300, 300), st.integers(1, 4))
# each family with only the flags it reads; an unread one would stop at exit 2
fuzz_family = st.one_of(
    st.builds(lambda l: ["--family", "poschl-teller", f"--l={l}"], fuzz_rationals),
    st.builds(lambda nprime, b: ["--family", "rosen-morse", f"--nprime={nprime}", f"--B={b}"],
              fuzz_rationals, fuzz_rationals))
# alpha, beta on quarter steps keep every deformed default grid small
fuzz_quarters = st.integers(-8, 16).map(lambda i: i / 4)
fuzz_argv = st.one_of(
    fuzz_family.map(lambda fam: ["spectrum", *fam]),
    st.builds(lambda fam, n, z: ["eigenfunction", *fam, f"--n={n}", f"--z={z!r}"],
              fuzz_family, st.integers(0, 60), st.floats(-30.0, 30.0)),
    st.builds(lambda fam, k: ["scatter", *fam, f"--k={k!r}"], fuzz_family, st.floats()),
    fuzz_family.map(lambda fam: ["oracle", *fam]),
    st.builds(lambda a, b, n: ["deformed", f"--alpha={a!r}", f"--beta={b!r}", f"--n={n}"],
              fuzz_quarters, fuzz_quarters, st.integers(0, 60)),
    st.builds(lambda gamma, z: ["map", f"--gamma={gamma!r}", f"--z={z!r}"],
              st.floats(), st.floats()),
)
PT = ["--family", "poschl-teller"]


fuzz_config = st.none() | st.sampled_from([
    "format = csv\n", "tol = nan\n", "tol = -1\n", "grid_points = abc\n", "grid_points = 5\n",
    "scatter_step = 1e-12\n", "scatter_half_width = inf\n",
])


def _reject_non_json_constant(name):
    raise ValueError(f"{name} is not JSON")


def _assert_line_matches_code(code, err):
    """Exit 2 is a rejected input, with argparse's usage text or one error line;
    exit 3 a numerical failure, with one line that says so."""
    if code == 2:
        assert err.startswith(("usage:", "error: ")), err
    if code == 3:
        assert err.startswith("numerical failure"), err
    if code in (2, 3) and not err.startswith("usage:"):  # argparse's own message
        assert err.count("\n") == 1 and err.endswith("\n"), err


@given(argv=fuzz_argv, config=fuzz_config)
@example(argv=["spectrum", *PT, "--l=-3"], config=None)
@example(argv=["spectrum", *PT, "--l=1"], config="grid_points = abc\n")
@example(argv=["spectrum", *PT, "--l=1e400"], config=None)
@example(argv=["oracle", *PT, "--l=2", "--B=7"], config=None)  # a flag the family does not read
@example(argv=["eigenfunction", *PT, "--l=200", "--n=199", "--z=0.0"], config=None)
# numpy overflow warnings of the RK4 march must not reach stderr
@example(argv=["scatter", *PT, "--l=2", "--k=1e300"], config=None)
@example(argv=["scatter", *PT, "--l=2", "--k=1e154"], config=None)
@example(argv=["scatter", "--family", "rosen-morse", "--nprime=2", "--k=1e200"], config=None)
# an overflowing residual is a numerical failure, not a NaN in the report
@example(argv=["deformed", "--alpha=1e300", "--beta=1e300"], config=None)
# tan(pi/4) rounds below 1, so z_of_theta overflows to -inf: a report holding
# an infinity is a numerical failure, not a non-JSON report
@example(argv=["map", "--gamma=-6.393154322601329e+18", "--z=0.0"], config=None)
@settings(max_examples=60, deadline=None)
# Hypothesis imports libcst to print a failure's patch; libcst's DeprecationWarning
# must not turn that report into an INTERNALERROR that ends the session
@pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst")
@pytest.mark.filterwarnings("error")
def test_exit_code_contract_fuzz(argv, config, tmp_path_factory):
    if config is not None:
        path = tmp_path_factory.mktemp("config") / "susyqm.conf"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    _assert_line_matches_code(code, err)
    if code in (0, 1) and parse_command(argv).fmt == "json":
        json.loads(out, parse_constant=_reject_non_json_constant)


# every verify section, with the grid flags drawn from all floats (nan and
# +-inf included), small check ranges and any tolerance; a flag may be absent
fuzz_verify_argv = st.builds(
    lambda section, flags: ["verify", section, *(f"--{key}={value!r}"
                                                 for key, value in flags.items())],
    st.sampled_from(cli.VERIFY_SECTIONS + ("all",)),
    st.fixed_dictionaries({}, optional={
        "grid-min": st.floats(), "grid-max": st.floats(),
        "grid-points": st.integers(0, 2001), "tol": st.floats(),
        "l-max": st.integers(-1, 3), "p-max": st.integers(-1, 3)}))


@given(argv=fuzz_verify_argv)
@example(argv=["verify", "all"])
@example(argv=["verify", "spectra", "--grid-min=1e-300", "--grid-max=2e-300"])
# a grid too coarse for every level is a failed check, not an Infinity
@example(argv=["verify", "spectra", "--grid-points=5"])
@settings(max_examples=80, deadline=None)
# Hypothesis imports libcst to print a failure's patch; libcst's DeprecationWarning
# must not turn that report into an INTERNALERROR that ends the session
@pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst")
@pytest.mark.filterwarnings("error")
def test_verify_exit_code_contract_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    _assert_line_matches_code(code, err)
    if code in (0, 1) and parse_command(argv).fmt == "json":
        json.loads(out, parse_constant=_reject_non_json_constant)


def test_fd_level_count_mismatch_names_both_counts(capsys):
    code, out, err = run(["verify", "spectra", "--grid-points", "5"], capsys)
    assert (code, err) == (1, "")
    records = {r["id"]: r for r in json.loads(
        out, parse_constant=_reject_non_json_constant)["sections"]["spectra"]}
    record = records["fd-vs-closed-form-sech-l-2"]
    assert record["computed"] == "1 FD levels, 2 closed-form"
    assert record["pass"] is False
    assert records["fd-level-count-sech-l-2"]["computed"] == 1


def test_spectrum_exits_0(capsys):
    code, out, _ = run(["spectrum", "--family", "poschl-teller", "--l", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"


# ---------------------------------------------------------------------------
# report content


def test_spectrum_csv_rows(capsys):
    code, out, _ = run(["spectrum", "--family", "poschl-teller", "--l", "3",
                        "--format", "csv"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "n,energy,kind"
    assert lines[1:] == ["0,-9.0,bound", "1,-4.0,bound", "2,-1.0,bound",
                         "3,0.0,threshold"]
    assert any(line.startswith("# l = 3") for line in out.splitlines())


# sha256 of the exact stdout of `spectrum`, taken when the rows still came
# from a per-level entry list; the sech and ultraspherical ones re-taken when
# their echo dropped the --B they never read, and nothing else changed
SPECTRUM_GOLDEN = [
    ("poschl-teller", "--l 0",
     "2a928d633084903b7cb4412946ffee47eff767743103cb0aa20e9335c606bf9b",
     "bb98e4b0d356506362918588cf9aaa9bc367db920382a92e3305d77db52a6a30"),
    ("poschl-teller", "--l 1",
     "fbd1fb29e2edcc70e34023196a203f87496d3cde7dd04ff5ad6fef3a83409e27",
     "09d4abaf50d56aad4856a7df44512bb3f34ef5edcb6e0c640d737ebf6f737670"),
    ("poschl-teller", "--l 5/2",
     "a9ed4d6b5da6142751179c0e46e6fd264c6d14dc0756d4e0266eb8729fc938ac",
     "1528dd6d1835195766248a3dd4195a5100bc3f6668a137119fff5cb8b57d3762"),
    ("poschl-teller", "--l 3",
     "df8ad13a290ff742fd5139d2e84eef226f34cca81de72fbfebb3f94f61a7b238",
     "d0ad35eb57ddc1df7f511c4d8a4dc0ceb59c89af218d9d968366d95e376cd8e8"),
    ("rosen-morse", "--nprime 2 --B 1",
     "cc300e945e1688efd021b990518f7c86ddefa1d10f30c5f4eecc971d99a50657",
     "2ec3a38718e24153eaf5f85960baf3abf827d7e1bb9d7617b94c6e275a43832a"),
    ("rosen-morse", "--nprime 5/2 --B 1/2",
     "f8fa95f88bb764d6977fad63cc1db06411133f65952a15e3513b5a716f2c1d73",
     "eaa196218110fd603590be5a193d75f7bfd4e137457f4862053ffa4d7b2fa176"),
    ("gegenbauer", "--p 0 --q 3/2",
     "754e5144f497d016daa5a1845e16e2e4e09e603b4e5e666496ac0b7b4e0efdf8",
     "1c13cce4f201da75ef4d83292ce7dce21a549a9b6b296508763b7c5fce54246f"),
    ("gegenbauer", "--p 1 --q 2",
     "f18ed50b1b4f244026101569e39faba25ca64932296bdfc7ccffc094a6ec2a8f",
     "63c2c887a0bf46ed4aa46208d9a9ae1f92dcf5b6f036a3a30d2f5507ca23a3d8"),
    ("gegenbauer", "--p 2 --q 3/2",
     "f8e3bca166186ac48b887b42d4d6bbdde2d76fc15965ea978b2ed960bd06e3d2",
     "1c0f6d227364264c925ac0a90e677112626c0aedf604d70beb524d749c2b623f"),
]


@pytest.mark.parametrize("family,flags,json_sha,csv_sha", SPECTRUM_GOLDEN,
                         ids=[f"{family}{flags.replace(' ', '')}"
                              for family, flags, _j, _c in SPECTRUM_GOLDEN])
def test_spectrum_golden(family, flags, json_sha, csv_sha, capsys):
    argv = ["spectrum", "--family", family, *flags.split()]
    for fmt, sha in (("json", json_sha), ("csv", csv_sha)):
        code, out, err = run(argv + ["--format", fmt], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


# sha256 of the exact stdout, and the exit code, of finite-difference runs
# far larger than the 21 levels of `verify spectra`: one operator with 21 or
# 41 brackets (the l = 40 grid resolves one level too many, so it exits 1), a
# tilted well, and the eight wells of `verify spectra` on a coarse grid.
# Taken when the Sturm counts still ran one row at a time with the pivot
# floor at every row; the sech wells and `verify spectra` re-taken when the
# echo dropped the keys they never read (--B; l_max, p_max, scatter_*), and
# nothing else changed.
EIGEN_GOLDEN = [
    ("oracle --family poschl-teller --l 20", 1,
     "3945bb049b65af974dbf1377e00a834cadc273895cb4a06c01ee2d4613867a99"),
    ("oracle --family poschl-teller --l 40", 1,
     "bbbb1e5965f44af1654fedee3f1bd972ad9213ebcc99158a40faf54d5d97a0a8"),
    ("oracle --family rosen-morse --nprime 7/2 --B 3", 0,
     "badc7e9dd0c1217aeb40d4305ea92e3a956420cdd47a7c8ea164f320d0f8a2df"),
    ("verify spectra --grid-points 801", 1,
     "c7c22680668235e5c63d1cc5a18db70717961786f0312838bb54bb7e0282b77f"),
]


@pytest.mark.parametrize("command,exit_code,sha", EIGEN_GOLDEN,
                         ids=[command.replace(" --", "-").replace(" ", "")
                              for command, _code, _sha in EIGEN_GOLDEN])
def test_eigen_golden(command, exit_code, sha, capsys):
    code, out, err = run(command.split(), capsys)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


# sha256 of the exact stdout, and the exit code, of the default finite-difference
# runs: the `verify spectra` batch, the whole verdict, a one-level sech well and
# a tilted well.  Taken while every multisection sweep counted all 63 interior
# shifts of each bracket in one pass.
SWEEP_GOLDEN = [
    ("verify spectra", 0,
     "d34ce97e56bb930f95b1cf52ef42d98bcf1bf7327d4d0ce2dbf38e4102fbf7af"),
    ("verify all", 0,
     "3cd1ea802ef9f512554224419f4e80a3a8f164814802f099719bdfa83088489e"),
    ("oracle --family poschl-teller --l 1", 0,
     "c06b789df7998f1647074565d8dde7ca7903b45e65d973e99634fc44b2f7a9d1"),
    ("oracle --family rosen-morse --nprime 2 --B 1/2", 0,
     "9d30aabe231af9781028dd6e5abba13d73ae0805aac78e88f2b7a5a653bc5b1e"),
]


@pytest.mark.parametrize("command,exit_code,sha", SWEEP_GOLDEN,
                         ids=[command.replace(" --", "-").replace(" ", "")
                              for command, _code, _sha in SWEEP_GOLDEN])
def test_sweep_golden(command, exit_code, sha, capsys):
    code, out, err = run(command.split(), capsys)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


# sha256 of the exact stdout, and the exit code, of `eigenfunction` (a sech
# level, the threshold state, a tilted level with and without --z) and of
# `scatter` (README's two runs and a tilted well), taken while each runner
# built its own well again after parse_command had admitted it
RUNNER_GOLDEN = [
    ("eigenfunction --family poschl-teller --l 5 --n 2 --z 0.3", 0,
     "262d1b12f7fd0e98fa00afff46a753ed4c88621e0c760ae4f3e4cef756501aa4"),
    ("eigenfunction --family poschl-teller --l 4 --n 4 --z 0.3", 0,
     "3f001d792dd12f55c445fed3f1c8847fd15e992de3dc8cd2a830226d92dbc4e3"),
    ("eigenfunction --family rosen-morse --nprime 2 --B 1/2 --n 0 --z 0.0", 0,
     "ebb9ad74638e1fa7cb9e8f67d6744eedff41df36c92451982d9378a1ead1f66d"),
    ("eigenfunction --family rosen-morse --nprime 2 --B 1/2 --n 0", 0,
     "4a00531ee6b95702bb6aae2c990e7917bb7bc06eb9b6ee691818e32801939dab"),
    ("scatter --family poschl-teller --l 2 --k 1", 0,
     "7db436bb90daed3a04c5f0703baba686e1a96993edd8d2d16aa3485eb9d60ab0"),
    ("scatter --l 7/4 --k 0.25 --scatter-half-width 15 --scatter-step 2e-3", 0,
     "b2e6bb7d2f7829596121321323cfe4982e4ccf242bdf9868164de3ea14e8ab3f"),
    ("scatter --family rosen-morse --nprime 2 --k 1", 0,
     "3c424796ab258eff6cd42555862de9e269ca996a9c4e1d122a6bee85cf3f027b"),
]


@pytest.mark.parametrize("command,exit_code,sha", RUNNER_GOLDEN,
                         ids=[command.replace(" --", "-").replace(" ", "")
                              for command, _code, _sha in RUNNER_GOLDEN])
def test_runner_golden(command, exit_code, sha, capsys):
    code, out, err = run(command.split(), capsys)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


# sha256 of the exact stdout, and the exit code, of `map` and `deformed`,
# taken when each scalar map function had its own copy of the formula and
# `deformed` its own chart test; `verify deformed` re-taken when its echo
# dropped the grid, tolerance and check-range keys it never read
MAP_DEFORMED_GOLDEN = [
    ("map --gamma 2 --z 1.5", 0,
     "2e66dcb44ca6ed89ac63e965e7649c5f425183a106a921592b99b49745de2789"),
    ("map --gamma -0.5 --z 1.25", 0,
     "a64314ac7b1a713513b8cc7c1ee20dcda67bb66cadd90c37a758f011c317f721"),
    ("map --gamma 0 --z 0.3", 0,
     "b1b0756085f53c989564585ef46afd36e638dad8015ab1aa9ea0430923613932"),
    ("map --gamma 1e-8 --z 2", 0,
     "a48e99101efbeaae192d5cc422aa824afde002f5b1433e4af3de6a9f5a5e5251"),
    ("map --gamma 1e-300 --z 5", 0,
     "ef4fc3bf03398c877e5b9e165a0101cee0d26d3e4a4a68c93d9e4ef6d0fa8a7f"),
    ("deformed --alpha 1 --beta 2 --n 1", 0,
     "2ef6514c35e4e6e0d20999f007a86bf52123a5719dd7fcdd1adc63ed00447495"),
    ("deformed --alpha 0.5 --beta 1.5 --n 2", 0,
     "5ff90a33277b3ff8e773d777597e2e0c3da9360ddd0a15a84c74a4c72028481c"),
    ("deformed --alpha 1 --beta 1", 0,
     "4fcec2799f33f6836be6c81a5ca1ca99dcf64da0d847e46a840c4e7f58e0f396"),
    ("verify deformed", 0,
     "1fa376e37663f1daa4c716ee7d3f39a2342b905b7d5a7d04f6b6d0160466c6c3"),
]


@pytest.mark.parametrize("command,exit_code,sha", MAP_DEFORMED_GOLDEN,
                         ids=[command.replace(" --", "-").replace(" ", "")
                              for command, _code, _sha in MAP_DEFORMED_GOLDEN])
def test_map_and_deformed_golden(command, exit_code, sha, capsys):
    code, out, err = run(command.split(), capsys)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


# sha256 of the exact stdout of the verify sections that build W, A, A^dagger
# and the ladder chain, taken when A and A^dagger were tanh_algebra ladder
# operators without the shift s
VERIFY_SECTION_GOLDEN = [
    ("verify riccati",
     "46adcb311c70aea5bdf098d7b144c86a34ace939600189dfedbcba868c206b64"),
    ("verify shape-invariance",
     "4ca3d56b5b8bbb4b9af64b167700ec9df85d8ae4ee6867cfe783a453c49637cc"),
    ("verify ladder",
     "74cdc0e47e228b956d52fe2b03443bb7ec41b19d2668c70489d5bc1b4faf94cf"),
    ("verify relations",
     "4392b6b0f81b336e4e3a6defa457950e2d3ef9da0a566e3bdad4b468f1fb5fe2"),
]


@pytest.mark.parametrize("command,sha", VERIFY_SECTION_GOLDEN,
                         ids=[command.replace(" ", "-") for command, _sha in VERIFY_SECTION_GOLDEN])
def test_verify_section_golden(command, sha, capsys):
    code, out, err = run(command.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


README = Path(__file__).resolve().parent.parent / "README.md"
README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    for line in block.splitlines() if line.startswith("susyqm ")
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_examples_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    if "--output" in argv:
        assert out == ""
        out = (tmp_path / argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
    if "csv" not in argv:
        json.loads(out, parse_constant=_reject_non_json_constant)


@pytest.mark.parametrize("z", ["40", "1000", "-800"])
def test_map_where_theta_rounds_to_pi_exits_3(z, capsys):
    # e^z overflows at z = 1000 and only rounds theta to pi at z = 40, and
    # theta underflows to 0 at z = -800: z is on the chart, but theta is a
    # point the inverse map cannot take back, a numerical failure
    code, out, err = run(["map", "--gamma", "0", "--z", z], capsys)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure in 'map'")
    assert err.count("\n") == 1 and "is not inside (0, pi)" in err, err


def test_non_finite_report_names_its_key_path(capsys):
    # json.dump names the number but not where it is in the report
    report = {"command": "verify", "sections": {"maps": [{"computed": 0.0},
                                                         {"computed": math.nan}]}}
    with pytest.raises(fd_oracle.NumericalError, match=r"\(at sections\.maps\[1\]\.computed\)$"):
        render_json(report)
    # tan(pi/4) rounds below 1, so the round trip overflows to -inf
    code, out, err = run(["map", "--gamma=-6.393154322601329e+18", "--z=0.0"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure in 'map': the report is not JSON")
    assert err.endswith(" (at roundtrip_z)\n") and err.count("\n") == 1, err


def test_map_report_contents(capsys):
    code, out, _ = run(["map", "--gamma", "2", "--z", "1.5"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["theta"] == pytest.approx(2.2143, abs=1e-4)
    assert rep["w"] == pytest.approx(0.6931, abs=1e-4)
    assert rep["sin_theta"] == pytest.approx(0.8, abs=1e-12)
    assert rep["sech_w"] == pytest.approx(0.8, abs=1e-12)
    assert rep["status"] == "pass"


def test_scatter_reflectionless_report(capsys):
    code, out, _ = run(["scatter", "--family", "poschl-teller", "--l", "2",
                        "--k", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["R2"] <= 1e-6
    assert all(c["pass"] for c in rep["checks"])


def test_scatter_report_diagnostics(capsys):
    argv = ["scatter", "--family", "poschl-teller", "--l", "3/2", "--k", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    diagnostics = json.loads(out)["diagnostics"]
    assert (diagnostics["rk4_steps_coarse"], diagnostics["rk4_steps_fine"]) == (40000, 80000)
    assert 0.0 <= diagnostics["step_halving_drift"] <= fd_oracle.STEP_HALVING_TOL
    assert run(argv, capsys)[1] == out


# R^2, T^2, flux defect and step-halving drift of `scatter` runs, as the
# march on four flat arrays of M - I gave them; the march in blocks moves
# them by rounding only
SCATTER_PINS = [
    (["--family", "poschl-teller", "--l", "3/2", "--k", "1"],
     0.007441950142796423, 0.9925580498572046, -1.1102230246251565e-15, 2.86316109709972e-15),
    (["--family", "rosen-morse", "--nprime", "5/2", "--k", "2"],
     1.3949272132892416e-05, 0.999986050727871, -3.774758283725532e-15,
     1.8416190339202998e-17),
    (["--family", "poschl-teller", "--l", "7/4", "--k", "0.25",
      "--scatter-half-width", "15"],
     0.39853681534099716, 0.6014631846590034, -4.440892098500626e-16, 2.6240121187015575e-13),
    (["--family", "poschl-teller", "--l", "0", "--k", "3"],
     4.930380657631343e-32, 1.000000000000004, -3.9968028886505635e-15,
     1.9366382682739073e-44),
    # 40001 coarse steps: an odd count, whose middle coarse step straddles z = 0
    (["--family", "poschl-teller", "--l", "3/2", "--k", "1",
      "--scatter-half-width", "20.0005"],
     0.0074419501427965395, 0.9925580498572021, 1.3322676295501878e-15,
     2.5890747878953846e-15),
]


@pytest.mark.parametrize("argv,r2,t2,flux_defect,drift", SCATTER_PINS)
def test_scatter_report_stays_pinned(argv, r2, t2, flux_defect, drift, capsys):
    code, out, _ = run(["scatter", *argv], capsys)
    assert code == 0
    rep = json.loads(out)
    got = (rep["R2"], rep["T2"], rep["flux_defect"], rep["diagnostics"]["step_halving_drift"])
    assert all(abs(x - pin) <= 1e-13 for x, pin in zip(got, (r2, t2, flux_defect, drift)))


def test_scatter_of_a_well_that_is_not_even_exits_3(odd_well, potential_calls, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(cli.PoschlTeller, "tanh_poly", lambda self: odd_well)
    code, out, err = run(["scatter", "--family", "poschl-teller", "--l", "1", "--k", "1"],
                         capsys)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "even" in err and "Traceback" not in err
    assert potential_calls == []


def test_eigenfunction_report(capsys):
    code, out, _ = run(["eigenfunction", "--family", "rosen-morse", "--nprime", "2",
                        "--B", "1/2", "--n", "0", "--z", "0.0"], capsys)
    assert code == 0
    rep = json.loads(out)
    wave = rep["wave"]
    assert wave["weight_exponent_one_minus_t"] == "7/8"
    assert wave["weight_exponent_one_plus_t"] == "9/8"
    assert rep["energy"] == pytest.approx(1.9375)
    assert wave["value_at_z"] == pytest.approx(1.0)


# 120-digit mpmath values of the closed forms at the exact point z; the
# polynomial parts have alternating coefficients of 100+ bits
@pytest.mark.parametrize("family,n,z,value", [
    (["poschl-teller", "--l", "60"], 59, "3", -2.2914578730649099e81),
    (["rosen-morse", "--nprime", "30", "--B", "39/2"], 25, "2", 6.2632083413102085),
    (["poschl-teller", "--l", "200"], 100, "10", 2.4970757126773187e-165),
    (["poschl-teller", "--l", "200"], 199, "0", 0.0),
], ids=["sech-60-59", "tilted-30-25", "sech-200-100", "sech-200-199"])
def test_deep_eigenfunction_value_at_z(family, n, z, value, capsys):
    code, out, err = run(["eigenfunction", "--family", *family, "--n", str(n), "--z", z],
                         capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["wave"]["value_at_z"] == pytest.approx(value, rel=1e-11, abs=0.0)


# past |z| ~ 9e307 the log of the small weight is -inf: a decaying wave
# underflows to a zero with the sign it has in that tail, and the threshold
# state, whose exponents are 0, keeps the polynomial value it has at z = +-400
@pytest.mark.parametrize("family,n,z,value", [
    (["poschl-teller", "--l", "3"], 1, "-1e308", -0.0),
    (["poschl-teller", "--l", "3"], 1, "1e308", 0.0),
    (["rosen-morse", "--nprime", "3", "--B", "1"], 1, "-1e308", -0.0),
    (["rosen-morse", "--nprime", "3", "--B", "1"], 1, "1e308", 0.0),
    (["poschl-teller", "--l", "3"], 3, "1e308", 6.0),
    (["poschl-teller", "--l", "3"], 3, "-1e308", -6.0),
], ids=["sech-3-1-left", "sech-3-1-right", "tilted-3-1-left", "tilted-3-1-right",
        "sech-threshold-right", "sech-threshold-left"])
def test_eigenfunction_far_in_a_tail(family, n, z, value, capsys):
    code, out, err = run(["eigenfunction", "--family", *family, "--n", str(n), f"--z={z}"],
                         capsys)
    assert (code, err) == (0, "")
    got = json.loads(out)["wave"]["value_at_z"]
    assert (got, math.copysign(1.0, got)) == (value, math.copysign(1.0, value))


def test_eigenfunction_rejects_filtered_level(capsys):
    code, _, _ = run(["eigenfunction", "--family", "rosen-morse", "--nprime", "2",
                      "--B", "1", "--n", "1"], capsys)
    assert code == 2


def test_oracle_report(capsys):
    code, out, _ = run(["oracle", "--family", "poschl-teller", "--l", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert [row["n"] for row in rep["levels"]] == [0, 1]
    assert all(row["abs_error"] <= 2e-3 for row in rep["levels"])


def test_oracle_level_count_record_reports_counts(capsys):
    # on the default grid the E = 0 half-bound state of the depth-40 well slips
    # below the FD ceiling, so one level too many is found
    code, out, _ = run(["oracle", "--family", "poschl-teller", "--l", "40"], capsys)
    assert code == 1
    [count] = [c for c in json.loads(out)["checks"] if c["id"] == "fd-level-count"]
    assert (count["computed"], count["expected"], count["pass"]) == (41, 40, False)


def test_oracle_lists_unpaired_levels(capsys):
    # the 41st FD eigenvalue of the depth-40 well has no closed-form partner
    code, out, _ = run(["oracle", "--family", "poschl-teller", "--l", "40"], capsys)
    assert code == 1
    rows = json.loads(out)["levels"]
    assert [row["n"] for row in rows] == list(range(41))
    assert all(row["closed_form"] is not None for row in rows[:40])
    extra = rows[40]
    assert (extra["closed_form"], extra["abs_error"]) == (None, None)
    assert isinstance(extra["fd_energy"], float) and extra["fd_energy"] < 0.0
    code, out, _ = run(["oracle", "--family", "poschl-teller", "--l", "40",
                        "--format", "csv"], capsys)
    assert out.splitlines()[-1].startswith("40,") and out.splitlines()[-1].endswith(",,")


def test_oracle_lists_unpaired_closed_form_levels(monkeypatch, capsys):
    # an FD solve that misses the top level leaves its closed form unpaired
    real = fd_oracle.bound_state_eigenvalues_batch

    def drop_top_level(requests, *args, **kwargs):
        return [evs[:-1] for evs in real(requests, *args, **kwargs)]

    monkeypatch.setattr(fd_oracle, "bound_state_eigenvalues_batch", drop_top_level)
    code, out, _ = run(["oracle", "--family", "poschl-teller", "--l", "3"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert [row["n"] for row in rep["levels"]] == [0, 1, 2]
    assert (rep["levels"][2]["fd_energy"], rep["levels"][2]["abs_error"]) == (None, None)
    assert rep["levels"][2]["closed_form"] == -1.0
    assert [c["id"] for c in rep["checks"]] == ["fd-level-count", "fd-level-0", "fd-level-1"]


def test_deformed_report(capsys):
    code, out, _ = run(["deformed", "--alpha", "1", "--beta", "2", "--n", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["residual"] <= 1e-5
    # the resolved chart-respecting grid is echoed for reproducibility
    assert "grid_min" in rep["parameters"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(["spectrum", "--family", "gegenbauer", "--p", "2",
                        "--q", "3/2", "--output", str(target)], capsys)
    assert code == 0 and out == ""
    rep = json.loads(target.read_text())
    assert rep["n_prime"] == "3"
    assert rep["target_level"] == 2 and rep["target_energy"] == -1.0
    assert rep["reflectionless"] is True


# ---------------------------------------------------------------------------
# verify


def test_verify_single_section(capsys):
    code, out, _ = run(["verify", "riccati"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert set(rep["sections"]) == {"riccati"}
    assert rep["summary"]["failed"] == 0


def test_verify_ladder_is_not_capped(capsys):
    code, out, _ = run(["verify", "ladder", "--l-max", "12"], capsys)
    assert code == 0
    checks = {c["id"]: c["pass"] for c in json.loads(out)["sections"]["ladder"]}
    assert checks["ladder-residuals-l-12"] is True
    assert checks["ladder-degree-parity-l-12"] is True
    assert len(checks) == 2 * 12 + 4


def test_verify_csv_rendering(capsys):
    code, out, _ = run(["verify", "shape-invariance", "--format", "csv"], capsys)
    assert code == 0
    header = [line for line in out.splitlines() if line.startswith("section,")]
    assert header == ["section,id,computed,expected,tolerance,provenance,pass"]


def assert_csv_rejected_before_running(argv, monkeypatch, capsys):
    # rejected while parsing: the runner (two RK4 marches for scatter) never starts
    calls = []
    monkeypatch.setitem(cli.RUNNERS, argv[0], calls.append)
    code, out, err = run([*argv, "--format", "csv"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: csv output is not defined for {argv[0]!r}\n"
    assert calls == []


def test_csv_unsupported_subcommand_exits_2(monkeypatch, capsys):
    assert_csv_rejected_before_running(["map", "--gamma", "1", "--z", "0.5"],
                                       monkeypatch, capsys)


@pytest.mark.parametrize("argv", [
    ["eigenfunction", "--family", "poschl-teller", "--l", "2", "--n", "0"],
    ["scatter", "--family", "poschl-teller", "--l", "2", "--k", "1"],
    ["deformed", "--alpha", "1", "--beta", "2"],
])
def test_csv_unsupported_numeric_subcommand_exits_2(argv, monkeypatch, capsys):
    assert_csv_rejected_before_running(argv, monkeypatch, capsys)


def test_csv_from_config_is_rejected_before_running(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("format = csv\n")
    calls = []
    monkeypatch.setitem(cli.RUNNERS, "scatter", calls.append)
    code, _, err = run(["scatter", "--l", "2", "--k", "1", "--config", str(cfg)], capsys)
    assert code == 2 and err == "error: csv output is not defined for 'scatter'\n"
    assert calls == []


# ---------------------------------------------------------------------------
# reproducibility


def argv_from_report(rep):
    # every echoed key but the positional section is the flag of the same name
    params = dict(rep["parameters"])
    argv = [rep["command"]]
    if "section" in params:
        argv.append(params.pop("section"))
    for key, value in sorted(params.items()):
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    return argv


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "rosen-morse", "--nprime", "5/2", "--B", "1/2"],
    ["map", "--gamma", "-0.5", "--z", "1.25"],
    ["oracle", "--family", "poschl-teller", "--l", "2", "--grid-points", "801"],
    ["deformed", "--alpha", "0.5", "--beta", "1.5", "--n", "2"],
    ["verify", "maps"],
    ["verify", "riccati"],
    ["verify", "ladder", "--l-max", "2"],
    ["verify", "scatter"],
    ["verify", "deformed"],
    ["scatter", "--l", "3/2", "--k", "1", "--scatter-half-width", "15"],
    ["verify", "scatter", "--scatter-step", "2e-3"],
])
def test_report_roundtrip_reproduces_itself(argv, capsys):
    code, first, _ = run(argv, capsys)
    assert code == 0
    rebuilt = argv_from_report(json.loads(first))
    code, second, _ = run(rebuilt, capsys)
    assert code == 0
    assert first == second


@pytest.mark.parametrize("argv", [
    ["scatter", "--family", "rosen-morse", "--nprime", "5/2", "--k", "2"],
    ["verify", "scatter"],
], ids=lambda argv: argv[0] + argv[1] if argv[0] == "verify" else argv[0])
def test_report_from_config_scatter_keys_replays_without_the_file(argv, tmp_path, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("scatter_half_width = 15\nscatter_step = 2e-3\n")
    code, first, _ = run([*argv, "--config", str(cfg)], capsys)
    assert code == 0
    rep = json.loads(first)
    assert (rep["parameters"]["scatter_half_width"],
            rep["parameters"]["scatter_step"]) == (15.0, 2e-3)
    code, second, _ = run(argv_from_report(rep), capsys)
    assert code == 0
    assert first == second


# ---------------------------------------------------------------------------
# config file


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("grid_points = 801  # coarser\ngrid_min = -10\ngrid_max = 10\n")
    code, out, _ = run(["oracle", "--family", "poschl-teller", "--l", "1",
                        "--config", str(cfg)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["parameters"]["grid_points"] == 801
    assert rep["parameters"]["grid_min"] == -10.0


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("grid_points = 501\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    code, out, _ = run(["oracle", "--family", "poschl-teller", "--l", "1"], capsys)
    assert code == 0
    assert json.loads(out)["parameters"]["grid_points"] == 501


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("grid_points = 501\n")
    code, out, _ = run(["oracle", "--family", "poschl-teller", "--l", "1",
                        "--config", str(cfg), "--grid-points", "901"], capsys)
    assert code == 0
    assert json.loads(out)["parameters"]["grid_points"] == 901


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "susyqm.conf"
    cfg.write_text("grid_pointz = 501\n")
    code, _, err = run(["spectrum", "--family", "poschl-teller", "--l", "1",
                        "--config", str(cfg)], capsys)
    assert code == 2 and "unknown config key" in err


def test_config_missing_file(capsys):
    code, _, _ = run(["spectrum", "--family", "poschl-teller", "--l", "1",
                      "--config", "/nonexistent/cfg"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# direct API


def test_execute_command_direct():
    admitted = parse_command(["spectrum", "--family", "poschl-teller", "--l", "1"])
    cmd = Command(subcommand="spectrum",
                  parameters={"family": "poschl-teller", "l": Fraction(1)},
                  well=admitted.well, fmt="json", output=None)
    report, code = execute_command(cmd)
    assert code == 0
    assert report["entries"][0] == {"n": 0, "energy": -1.0, "kind": "bound"}
    assert render_json(report).endswith("\n")
    assert render_csv(report).splitlines()[-1] == "1,0.0,threshold"


RM = ["--family", "rosen-morse", "--nprime", "2"]


@pytest.mark.parametrize("argv", [
    ["spectrum", *PT, "--l", "2"],
    ["spectrum", *RM, "--B", "1/2"],
    ["spectrum", "--family", "gegenbauer", "--p", "2", "--q", "3/2"],
    ["eigenfunction", *PT, "--l", "2", "--n", "1"],
    ["eigenfunction", *RM, "--n", "0", "--z", "0.5"],
    ["scatter", *PT, "--l", "2", "--k", "1"],
    ["scatter", *RM, "--k", "1"],
    ["oracle", *PT, "--l", "2"],
    ["oracle", *RM, "--B", "1/2"],
], ids=" ".join)
def test_family_command_builds_its_well_once(argv, monkeypatch, capsys):
    built = []
    for name in ("PoschlTeller", "RosenMorseII"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, cls=getattr(cli, name):
                            built.append(name) or cls(*args))
    assert run(argv, capsys)[0] == 0
    assert built == ["RosenMorseII" if "rosen-morse" in argv else "PoschlTeller"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "poschl-teller", "--l", "2"],
    ["eigenfunction", "--family", "poschl-teller", "--l", "2", "--n", "1"],
    ["map", "--gamma", "1", "--z", "0.5"],
    ["verify", "ladder"],
    ["scatter", "--family", "poschl-teller", "--l", "2", "--k", "1"],
    ["oracle", "--family", "poschl-teller", "--l", "2"],
    ["deformed", "--alpha", "1", "--beta", "2"],
], ids=lambda argv: argv[0])
def test_execute_command_leaves_parameters_unchanged(argv):
    cmd = parse_command(argv)
    before = copy.deepcopy(cmd.parameters)
    report, _ = execute_command(cmd)
    assert cmd.parameters == before
    assert set(report["parameters"]) == set(before)


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg["grid_points"] == 2001 and cfg["format"] == "json"
