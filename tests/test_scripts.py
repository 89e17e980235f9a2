import csv
import importlib.util
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

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
