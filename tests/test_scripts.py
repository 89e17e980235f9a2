import csv
import importlib.util
from pathlib import Path

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
