import contextlib
import csv
import importlib.util
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reflection_scan_one_depth(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = load_script("reflection_scan").main(
        ["--l-min", "3/2", "--l-max", "3/2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["depth", "k", "R2_numeric", "R2_closed_form", "flux_defect"]
    [(depth, k, r2, r2_exact, flux)] = rows
    assert (float(depth), float(k)) == (1.5, 1.0)
    assert float(r2) == pytest.approx(float(r2_exact), abs=1e-9)
    assert abs(float(flux)) <= 1e-6


@pytest.mark.parametrize("argv", [
    ["--step", "0"],
    ["--step=-1/8"],
    ["--step", "1/0"],
    ["--l-min", "-1"],
    ["--k", "0"],
    ["--k", "nan"],
    ["--k", "inf"],
], ids=["step-0", "step-negative", "step-not-rational", "l-min-negative", "k-0",
        "k-nan", "k-inf"])
def test_reflection_scan_rejects_bad_arguments(argv, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    with pytest.raises(SystemExit) as exc:
        load_script("reflection_scan").main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_reflection_scan_numerical_failure_exits_3(tmp_path, capsys):
    # |A|^2 grows like 1/k^2 and overflows a double
    code = load_script("reflection_scan").main(
        ["--l-min", "3/2", "--l-max", "3/2", "--k", "1e-300",
         "--out", str(tmp_path / "scan.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("numerical failure")


def test_reflection_scan_overflow_exits_3(tmp_path, capsys):
    # V = -l(l+1) sech^2 z at l = 1e400 is past the double range
    code = load_script("reflection_scan").main(
        ["--l-min", "1e400", "--l-max", "1e400", "--out", str(tmp_path / "scan.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("numerical failure")


def test_reflection_scan_huge_wavenumber_exits_3_with_one_stderr_line(tmp_path):
    # a subprocess sees numpy's RuntimeWarnings, which pytest would record apart
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reflection_scan.py"), "--k", "1e300",
         "--out", str(tmp_path / "scan.csv")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=False)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("numerical failure")
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr


@pytest.mark.parametrize("argv,rows", [
    (["--l-max", "1e6"], "8.000e+6"),
    (["--l-min", "0", "--l-max", "1", "--step", "1/100000"], "1.000e+5"),
    (["--l-max", "1e400"], "8.000e+400"),
], ids=["l-max-1e6", "fine-step", "l-max-1e400"])
def test_reflection_scan_size_cap_exits_2(argv, rows, tmp_path, capsys, monkeypatch):
    module = load_script("reflection_scan")
    calls = []
    monkeypatch.setattr(module, "scattering_amplitudes",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "scan.csv"
    code = module.main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: {rows} scan rows requested, above the size cap of "
                   f"{module.ROW_CAP}\n")
    assert not out.exists()
    assert calls == []


def test_reflection_scan_row_count_at_cap_runs(tmp_path, monkeypatch):
    module = load_script("reflection_scan")
    calls = []

    def fake(fam, k):
        calls.append(fam.l)
        return SimpleNamespace(r2=0.0, flux_defect=0.0)

    monkeypatch.setattr(module, "scattering_amplitudes", fake)
    step = Fraction(1, module.ROW_CAP - 1)
    code = module.main(["--l-min", "0", "--l-max", "1", "--step", str(step),
                        "--out", str(tmp_path / "scan.csv")])
    assert code == 0
    assert len(calls) == module.ROW_CAP


fuzz_scan_rational = st.builds(lambda num, den: str(Fraction(num, den)),
                               st.integers(-2, 8), st.integers(1, 4))
# small rationals three times in four, else text that is no rational at all
# (1e400 parses, to 10^400)
fuzz_scan_text = st.one_of(
    fuzz_scan_rational, fuzz_scan_rational, fuzz_scan_rational,
    st.sampled_from(["", "abc", "1/0", "nan", "inf", "1e400", "0x10", "--k"]),
)


@st.composite
def fuzz_scan_argv(draw):
    lo, step = draw(fuzz_scan_text), draw(fuzz_scan_text)
    try:
        # --l-max at most four steps past --l-min: a scan that runs has at most 5 rows
        hi = str(Fraction(lo) + draw(st.integers(-1, 4)) * Fraction(step))
    except (ValueError, ZeroDivisionError):
        hi = draw(fuzz_scan_text)
    # every float, nan and +-inf included, and often one a scan can run at
    k = draw(st.floats() | st.floats(0.25, 4.0))
    return [f"--k={k!r}", f"--l-min={lo}", f"--l-max={hi}", f"--step={step}"]


@given(argv=fuzz_scan_argv())
@example(argv=["--k=1e300", "--l-min=1", "--l-max=1", "--step=1"])
@example(argv=["--k=1e-300", "--l-min=3/2", "--l-max=3/2", "--step=1"])
@example(argv=["--k=1.0", "--l-min=1e400", "--l-max=1e400", "--step=1"])
@settings(max_examples=60, deadline=None)
# Hypothesis imports libcst to print a failure's patch; libcst's DeprecationWarning
# must not turn that report into an INTERNALERROR that ends the session
@pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst")
@pytest.mark.filterwarnings("error")
def test_reflection_scan_exit_code_contract_fuzz(argv, tmp_path_factory):
    out = tmp_path_factory.mktemp("scan") / "scan.csv"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = load_script("reflection_scan").main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse's error(), after its usage text
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3) and not err.startswith("usage:"):
        assert err.count("\n") == 1 and err.endswith("\n"), err
