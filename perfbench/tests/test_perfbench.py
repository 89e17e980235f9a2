"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------------
# seeded generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [op.argv for op in workloads.generate(workload, 7)]
    again = [op.argv for op in workloads.generate(workload, 7)]
    assert first == again
    assert all(isinstance(arg, str) for argv in first for arg in argv)


@pytest.mark.parametrize("workload", ["exact-tower", "scatter-sweep"])
def test_other_seed_other_argv(workload):
    assert ([op.argv for op in workloads.generate(workload, 1)]
            != [op.argv for op in workloads.generate(workload, 2)])


def _flags(argv) -> dict:
    return dict(arg[2:].split("=", 1) for arg in argv if arg.startswith("--") and "=" in arg)


@pytest.mark.parametrize("seed", range(20))
def test_exact_tower_inputs_are_admissible(seed):
    ops = workloads.generate("exact-tower", seed)
    assert len(ops) == workloads.TOWER_SECH_OPS + workloads.TOWER_TILTED_OPS + 1
    assert ops[-1].argv[:2] == ("verify", "relations")
    for op in ops[:-1]:
        flags = _flags(op.argv)
        n = int(flags["n"])
        assert -3.0 <= float(flags["z"]) <= 3.0
        if "l" in flags:
            depth = Fraction(flags["l"])
            assert 8 <= depth <= 60 and (2 * depth).denominator == 1
            assert 0 <= n < depth
        else:
            nprime, b = Fraction(flags["nprime"]), Fraction(flags["B"])
            assert 0 < nprime <= 30 and (2 * nprime).denominator == 1
            assert (2 * b).denominator == 1
            assert 0 <= n < nprime and (nprime - n) ** 2 > abs(b)


@pytest.mark.parametrize("seed", range(20))
def test_scatter_inputs_are_on_the_lattice(seed):
    ops = workloads.generate("scatter-sweep", seed)
    assert len(ops) == workloads.SCATTER_OPS
    families = [_flags(op.argv).get("B") for op in ops]
    assert families[0::2] == [None] * len(families[0::2])   # sech well
    assert set(families[1::2]) == {"0"}                       # B = 0 tilted well
    for op in ops:
        flags = _flags(op.argv)
        depth = Fraction(flags.get("l", flags.get("nprime")))
        assert Fraction(1, 4) <= depth <= 5 and (8 * depth).denominator == 1
        assert Fraction(flags["k"]) in workloads.SCATTER_KS


# ----------------------------------------------------------------------------
# output checks


def _verify_all_report(pairs) -> str:
    checks = [{"id": i, "pass": p} for i, p in pairs]
    return json.dumps({"sections": {"all": checks},
                       "summary": {"total": len(checks), "failed": 0}})


def test_verify_all_check_counts_doctored_reports():
    op = workloads.generate("verify-all", 1)[0]
    expected = workloads.load_expected_verify_all()
    assert len(expected) == 146 and all(p for _, p in expected)
    assert workloads.check(op, 0, _verify_all_report(expected)) == workloads.Verdict(146, 0)
    flipped = [list(pair) for pair in expected]
    flipped[10][1] = False
    assert workloads.check(op, 0, _verify_all_report(flipped)).failed == 1
    renamed = [list(pair) for pair in expected]
    renamed[3][0] = "something-else"
    assert workloads.check(op, 0, _verify_all_report(renamed)).failed == 1
    assert workloads.check(op, 0, _verify_all_report(expected[:-2])).failed == 2
    assert workloads.check(op, 1, _verify_all_report(expected)).failed == 146
    assert workloads.check(op, 0, "not json").failed == 146


def _eigen_report(op, **changes) -> str:
    flags = _flags(op.argv)
    report = {
        "energy_exact": str(op.expect["energy"]),
        "wave": {"weight_exponent_one_minus_t": "1", "weight_exponent_one_plus_t": "1",
                 "prefactor": "1", "poly_coefficients": ["1"],
                 "poly_degree": int(flags["n"]), "value_at_z": 0.5},
        "checks": [{"id": "eigenpair-residual", "pass": True}],
    }
    report.update(changes)
    return json.dumps(report)


def test_eigenfunction_check_counts_doctored_reports():
    op = next(o for o in workloads.generate("exact-tower", 1) if o.kind == "eigenfunction")
    good = workloads.check(op, 0, _eigen_report(op))
    assert (good.attempted, good.failed) == (1, 0) and good.exact_payload is not None
    wrong_energy = str(op.expect["energy"] + Fraction(1, 7))
    assert workloads.check(op, 0, _eigen_report(op, energy_exact=wrong_energy)).failed == 1
    failed_residual = [{"id": "eigenpair-residual", "pass": False}]
    assert workloads.check(op, 0, _eigen_report(op, checks=failed_residual)).failed == 1
    assert workloads.check(op, 0, _eigen_report(op, wave={})).failed == 1
    assert workloads.check(op, 1, _eigen_report(op)).failed == 1
    assert workloads.check(op, None, "").failed == 1


def test_scatter_check_counts_doctored_reports():
    op = workloads.generate("scatter-sweep", 1)[0]
    r2 = op.expect["r2"]

    def report(**fields):
        return json.dumps({"R2": r2, "T2": 1.0 - r2, "flux_defect": 0.0, **fields})

    assert workloads.check(op, 0, report()).failed == 0
    assert workloads.check(op, 0, report(R2=r2 + 1e-8)).failed == 1
    assert workloads.check(op, 0, report(flux_defect=2e-6)).failed == 1
    assert workloads.check(op, 0, report(R2=math.nan)).failed == 1
    assert workloads.check(op, 3, report()).failed == 1


def test_reflection_closed_form():
    assert workloads.sech_well_reflection(2.0, 1.0) < 1e-30
    half = workloads.sech_well_reflection(1.5, 1.0)
    assert half == pytest.approx(1.0 / (math.sinh(math.pi) ** 2 + 1.0))


def test_relations_check_count_matches_program():
    from susyqm import cli
    body = cli.run_verify({"section": "relations",
                           "l_max": workloads.TOWER_RELATIONS_L_MAX, "p_max": 4})
    assert body["summary"] == {"total": workloads.TOWER_RELATIONS_CHECKS, "failed": 0}


# ----------------------------------------------------------------------------
# latency statistics


def test_tail_percentile_keeps_ten_inputs_beyond():
    assert worker.tail_percentile(201) == 95.0
    assert worker.tail_percentile(40) == 75.0
    assert worker.tail_percentile(1000) == 99.0
    assert worker.tail_percentile(1) == 100.0
    assert worker.percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0
    assert worker.percentile([3.0, 1.0, 2.0, 4.0], 100.0) == 4.0


# ----------------------------------------------------------------------------
# tracer


def _susyqm_bindings() -> dict:
    """Every attribute, dict entry and counted method the tracer may replace."""
    import susyqm.cli  # noqa: F401  (loads every traced module)
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "susyqm" or name.startswith("susyqm."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        seen[(name, attr, key)] = item
    for short, cls_name, method, _counter in tracer_mod.COUNTED_METHODS:
        cls = getattr(sys.modules[f"susyqm.{short}"], cls_name)
        seen[(short, cls_name, method)] = cls.__dict__[method]
    return seen


def _eigen_ops():
    return [workloads.Op(("eigenfunction", "--family", "poschl-teller", "--l=3",
                          "--n=1", "--z=0.2"), "eigenfunction",
                         {"energy": Fraction(-4), "degree": 1}),
            workloads.Op(("eigenfunction", "--family", "rosen-morse", "--nprime=2",
                          "--B=1/2", "--n=0", "--z=0.1"), "eigenfunction",
                         {"energy": Fraction(6 - 4) - Fraction(1, 16), "degree": 0})]


def test_tracer_leaves_no_wrapper_installed():
    from susyqm import cli
    before = _susyqm_bindings()
    tr = tracer_mod.Tracer()
    with tr:
        assert cli.main is not before[("susyqm.cli", "main")]
        assert cli.RUNNERS["eigenfunction"] is not before[("susyqm.cli", "RUNNERS", "eigenfunction")]
        assert cli.ladder_chain is not before[("susyqm.cli", "ladder_chain")]
        worker.run_pass(cli, _eigen_ops(), tr)
    after = _susyqm_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    totals = tr.take_pass()
    worker.run_pass(cli, _eigen_ops())   # nothing recorded once uninstalled
    assert tr.spans == [] and not tr.counters
    assert totals["cli.main.calls"] == 2
    assert totals["tanh_algebra.ladder_chain.calls"] == 1
    assert totals["spectra.rosen_morse_eigenfunction.calls"] == 1
    assert totals["orthopoly.jacobi_poly.calls"] == 1   # looked up as spectra.jacobi_poly
    assert totals["tanh_algebra.HypWave.canonicalise.calls"] > 0
    assert totals["tanh_algebra.TanhPoly.mul.calls"] > 0
    assert totals["cli.checks"] == 2 and totals["cli.checks_failed"] == 0


def test_tracer_counts_numerical_errors():
    from susyqm import cli
    tr = tracer_mod.Tracer()
    tilted = ("scatter", "--family", "rosen-morse", "--nprime=2", "--B=1", "--k=1")
    with tr:
        code, _elapsed, _out = worker.run_op(cli, tilted)   # unequal tails
    assert code == 3
    assert tr.take_pass()["fd_oracle.numerical_errors"] == 1


def test_spans_nest_and_account_for_the_traced_wall():
    from susyqm import cli
    tr = tracer_mod.Tracer()
    runs = worker.measure(cli, _eigen_ops(), 0.0, tr)
    assert runs["plain"][0]["failed"] == 0 and runs["traced"][0]["failed"] == 0
    spans = tr.passes[0]
    roots = [s for s in spans if s[3] == -1]
    assert [tr.names[s[0]] for s in roots] == ["cli.main", "cli.main"]
    assert [s[4] for s in roots] == [0, 1]
    for index, start, end, parent, op, _outer in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
            assert spans[parent][4] == op
    values = worker.per_layer(runs["plain"], runs["traced"], runs["layers"])
    modules = sum(values[f"{m}.self_s"] for m in tracer_mod.MODULES
                  if f"{m}.self_s" in values)
    assert modules + values["bench.self_s"] == pytest.approx(values["trace.wall_s"])
    assert 0.0 <= values["bench.self_s"] < values["trace.wall_s"]


# ----------------------------------------------------------------------------
# BENCHMARK.json


def test_metric_names_and_units():
    s = spec()
    metrics = s["end_to_end"] + s["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and m["name"][0].isalnum() and len(m["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_names_are_ones_the_tracer_produces():
    import importlib
    counters = {c for *_rest, c in tracer_mod.COUNTED_METHODS} | {
        "fd_oracle.numerical_errors", "fd_oracle.bound_state_eigenvalues.eigenvalues",
        "tanh_algebra.max_coeff_bits", "cli.checks", "cli.checks_failed",
        "bench.self_s", "trace.wall_s", "trace.overhead_s", "trace.spans", "fail_ratio"}
    for metric in spec()["per_layer"]:
        name = metric["name"]
        if name in counters:
            continue
        module, *rest = name.split(".")
        assert module in tracer_mod.MODULES, name
        if rest in (["calls"], ["self_s"]):
            continue
        function, kind = rest
        assert kind in ("calls", "busy_s"), name
        mod = importlib.import_module(f"susyqm.{module}")
        assert callable(getattr(mod, function)), name
