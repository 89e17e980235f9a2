"""Seeded inputs and output checks for the three benchmark workloads.

Nothing here imports susyqm: the generators apply the admissibility rules of
the families themselves, and the checks compare each report with closed forms
computed here, so a wrong answer from the program cannot pass by agreeing
with itself.  The program only ever sees argv lists.

A workload is a list of ops; one pass runs every op once, in order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("verify-all", "exact-tower", "scatter-sweep")
DEFAULT_SEED = 1

EXPECTED_VERIFY_ALL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "expected", "verify_all_checks.json")

# exact-tower sizes: sech-well depths in 1/2 Z, tilted-well n' in 1/2 Z
TOWER_SECH_OPS = 100
TOWER_TILTED_OPS = 100
TOWER_SECH_DEPTH = (Fraction(8), Fraction(60))
TOWER_TILTED_NPRIME = (Fraction(1, 2), Fraction(30))
TOWER_TILTED_B_CAP = Fraction(20)
TOWER_RELATIONS_L_MAX = 24
# verify relations --l-max L reports L legendre links, 3 gegenbauer links,
# 4 jacobi ODEs, 3 gegenbauer ODEs and one reflection-symmetry check
TOWER_RELATIONS_CHECKS = TOWER_RELATIONS_L_MAX + 3 + 4 + 3 + 1

# scatter-sweep sizes: depth in (1/8) Z on [1/4, 5], k on a 1/4 lattice
SCATTER_OPS = 40
SCATTER_DEPTHS = tuple(Fraction(i, 8) for i in range(2, 41))
SCATTER_KS = tuple(Fraction(i, 4) for i in range(1, 13))
FLUX_TOL = 1e-6
REFLECTION_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its report must satisfy."""

    argv: tuple[str, ...]
    kind: str           # "verify-all", "eigenfunction", "relations", "scatter"
    expect: dict        # closed-form facts the check compares against


@dataclass(frozen=True)
class Verdict:
    """Ops attempted and failed in one call: a verify-all call stands for its
    146 checks, any other call for itself."""

    attempted: int
    failed: int
    exact_payload: object = None   # exact wave payload that feeds the digest


def _half_integers(lo: Fraction, hi: Fraction) -> list[Fraction]:
    return [Fraction(i, 2) for i in range(math.ceil(2 * lo), math.floor(2 * hi) + 1)]


def _stratified(rng: random.Random, count: int) -> list[float]:
    """One uniform draw from each of `count` equal strata of [0, 1), shuffled."""
    u = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(u)
    return u


def _z_arg(rng: random.Random) -> str:
    return f"{rng.uniform(-3.0, 3.0):.6f}"


def _levels_then_depths(rng: random.Random, count: int, lo: Fraction,
                        hi: Fraction) -> list[tuple[int, Fraction]]:
    """(n, depth) pairs: n stratified over [0, hi), depth in (1/2) Z on [max(lo, n + 1/2), hi].

    The cost of an exact eigenfunction grows with its level n, so drawing n
    from equal strata keeps the cost mix of a pass, and its slowest ops,
    nearly the same for every seed.
    """
    pairs = []
    for u in _stratified(rng, count):
        n = int(u * math.ceil(hi))
        depths = _half_integers(max(lo, n + Fraction(1, 2)), hi)
        pairs.append((n, rng.choice(depths)))
    return pairs


def _sech_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n, l in _levels_then_depths(rng, TOWER_SECH_OPS, *TOWER_SECH_DEPTH):
        argv = ("eigenfunction", "--family", "poschl-teller", f"--l={l}",
                f"--n={n}", f"--z={_z_arg(rng)}")
        ops.append(Op(argv, "eigenfunction",
                      {"energy": -(l - n) ** 2, "degree": n}))
    return ops


def _largest_b_below(bound: Fraction) -> Fraction:
    """Largest B in (1/2) Z with B < bound (bound > 0)."""
    return Fraction(math.ceil(2 * bound) - 1, 2)


def _tilted_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n, nprime in _levels_then_depths(rng, TOWER_TILTED_OPS, *TOWER_TILTED_NPRIME):
        s = nprime - n
        # admissible iff (n' - n)^2 > |B|, which also gives |B| < n'^2
        b_max = min(_largest_b_below(s * s), TOWER_TILTED_B_CAP)
        b = Fraction(rng.randint(-int(2 * b_max), int(2 * b_max)), 2)
        energy = nprime * (nprime + 1) - s * s - b * b / (s * s)
        argv = ("eigenfunction", "--family", "rosen-morse", f"--nprime={nprime}",
                f"--B={b}", f"--n={n}", f"--z={_z_arg(rng)}")
        ops.append(Op(argv, "eigenfunction", {"energy": energy, "degree": n}))
    return ops


def _scatter_ops(rng: random.Random) -> list[Op]:
    pairs = rng.sample([(d, k) for d in SCATTER_DEPTHS for k in SCATTER_KS], SCATTER_OPS)
    ops = []
    for i, (depth, k) in enumerate(pairs):
        # B = 0 tilted well is the sech well shifted by n'(n'+1): same |R|^2
        if i % 2 == 0:
            fam = ("--family", "poschl-teller", f"--l={depth}")
        else:
            fam = ("--family", "rosen-morse", f"--nprime={depth}", "--B=0")
        argv = ("scatter", *fam, f"--k={float(k)!r}")
        ops.append(Op(argv, "scatter",
                      {"r2": sech_well_reflection(float(depth), float(k))}))
    return ops


def generate(workload: str, seed: int) -> list[Op]:
    """The ops of one pass; the same (workload, seed) always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        return [Op(("verify", "all"), "verify-all", {})]
    if workload == "exact-tower":
        ops = _sech_ops(rng) + _tilted_ops(rng)
        rng.shuffle(ops)
        relations = Op(("verify", "relations", f"--l-max={TOWER_RELATIONS_L_MAX}"),
                       "relations", {"checks": TOWER_RELATIONS_CHECKS})
        return ops + [relations]
    if workload == "scatter-sweep":
        return _scatter_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _size(op: Op) -> int:
    """Ops one call stands for: its 146 checks for verify-all, else itself."""
    return len(load_expected_verify_all()) if op.kind == "verify-all" else 1


def ops_per_pass(ops: list[Op]) -> int:
    """Ops a pass counts toward ops_per_s."""
    return sum(_size(op) for op in ops)


# ----------------------------------------------------------------------------
# closed forms and checks


def sech_well_reflection(depth: float, k: float) -> float:
    """|R|^2 = sin^2(pi l) / (sinh^2(pi k) + sin^2(pi l)) for V = -l(l+1) sech^2 z."""
    s = math.sin(math.pi * depth) ** 2
    return s / (math.sinh(math.pi * k) ** 2 + s)


def load_expected_verify_all() -> list[list]:
    with open(EXPECTED_VERIFY_ALL, encoding="utf-8") as fh:
        return json.load(fh)


def _report_checks(report: dict) -> list[dict]:
    if "sections" in report:
        return [c for section in report["sections"].values() for c in section]
    return report["checks"]


def _wave_payload(report: dict) -> dict:
    wave = report["wave"]
    return {key: wave[key] for key in ("weight_exponent_one_minus_t",
                                       "weight_exponent_one_plus_t", "prefactor",
                                       "poly_coefficients", "poly_degree")}


def _wrong_verify_all(op: Op, report: dict) -> int:
    """Checks whose id or pass flag differ from this commit's, plus missing ones."""
    expected = load_expected_verify_all()
    got = [[c["id"], c["pass"]] for c in _report_checks(report)]
    return sum(g != e for g, e in zip(got, expected)) + abs(len(got) - len(expected))


def _wrong_eigenfunction(op: Op, report: dict) -> int:
    checks = report["checks"]
    ok = (len(checks) == 1 and checks[0]["id"] == "eigenpair-residual"
          and checks[0]["pass"] is True
          and Fraction(report["energy_exact"]) == op.expect["energy"]
          and report["wave"]["poly_degree"] == op.expect["degree"]
          and math.isfinite(report["wave"]["value_at_z"]))
    return 0 if ok else 1


def _wrong_relations(op: Op, report: dict) -> int:
    checks = _report_checks(report)
    ok = (len(checks) == op.expect["checks"]
          and all(c["pass"] is True for c in checks))
    return 0 if ok else 1


def _wrong_scatter(op: Op, report: dict) -> int:
    ok = (abs(report["flux_defect"]) <= FLUX_TOL
          and abs(report["R2"] - op.expect["r2"]) <= REFLECTION_TOL)
    return 0 if ok else 1


WRONG = {"verify-all": _wrong_verify_all, "eigenfunction": _wrong_eigenfunction,
         "relations": _wrong_relations, "scatter": _wrong_scatter}


def check(op: Op, code: int | None, stdout: str) -> Verdict:
    """Judge one op from its exit code and printed report.

    An unexpected exit code, or a report that does not parse or lacks a
    field, fails every op the call stands for.
    """
    size = _size(op)
    if code != 0:
        return Verdict(size, size)
    try:
        report = json.loads(stdout)
        wrong = WRONG[op.kind](op, report)
        payload = _wave_payload(report) if op.kind == "eigenfunction" else None
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
        return Verdict(size, size)
    return Verdict(size, min(wrong, size), payload)


def payload_digest(payloads: list) -> str:
    """sha256 of the exact wave payloads of one pass, in op order."""
    text = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
