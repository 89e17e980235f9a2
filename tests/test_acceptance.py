"""Acceptance suite: one test per exit criterion, at the pinned tolerances.

Each test prints a single PASS/FAIL line (run with -s or look at -v output).
Tolerances and grids are fixed here, not configurable, so a green run is the
package's exit contract.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from susyqm import (
    Grid, PoschlTeller, RosenMorseII, bound_state_eigenvalues, chart_grid,
    check_gegenbauer_identity, check_legendre_identity, discretize,
    eigen_residual_symbolic, gamma_deformed_residual, ladder_chain,
    scattering_amplitudes, sech_well_reflection_exact,
    shape_invariance_remainder, theta_of_z, w_of_z, z_of_theta,
)
from susyqm.cli import main as cli_main

ACCEPTANCE_GRID = Grid(-12.0, 12.0, 2001)


def report(criterion: int, label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion:2d} [{label}]: {status}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_sech_well_fd_spectra():
    t0 = time.time()
    worst = 0.0
    ok = True
    for l in range(1, 6):
        evs = bound_state_eigenvalues(
            discretize(PoschlTeller(l), ACCEPTANCE_GRID), below=-1e-6,
            max_count=l + 2)
        ok &= len(evs) == l
        for n, ev in enumerate(evs):
            err = abs(ev - float(PoschlTeller(l).energy(n)))
            worst = max(worst, err)
            ok &= err <= 2e-3
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(1, "sech-well FD spectra, depths 1..5", ok,
           f"worst error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_tilted_well_fd_spectra():
    t0 = time.time()
    worst = 0.0
    ok = True
    for n_prime, b in ((Fraction(2), Fraction(1, 2)), (Fraction(3), Fraction(1)),
                       (Fraction(5, 2), Fraction(1, 2))):
        fam = RosenMorseII(n_prime, b)
        evs = bound_state_eigenvalues(
            discretize(fam, ACCEPTANCE_GRID), below=fam.continuum_edge - 1e-9,
            max_count=8)
        levels = fam.levels()
        ok &= len(evs) == len(levels)
        for n, ev in zip(levels, evs):
            err = abs(ev - float(fam.energy(n)))
            worst = max(worst, err)
            ok &= err <= 2e-3
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(2, "tanh-tilted well FD spectra", ok,
           f"worst error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_exact_ladder_residuals():
    t0 = time.time()
    ok = all(
        eigen_residual_symbolic(
            ladder_chain(l, n), PoschlTeller(l), PoschlTeller(l).energy(n)
        ).is_zero
        for l in range(1, 11)
        for n in range(l)
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    report(3, "exact eigen-identities, depths 1..10", ok, f"{elapsed:.1f}s")


def test_criterion_04_shape_invariance():
    ks = [Fraction(i) for i in range(1, 11)] + [Fraction(3, 2), Fraction(5, 2)]
    ok = all(
        shape_invariance_remainder(k) == (k * k - (k - 1) ** 2, 0.0)
        for k in ks
    )
    report(4, "shape-invariance remainders, exact", ok)


def test_criterion_05_legendre_identity():
    ok = True
    try:
        for l in range(1, 9):
            for m in range(1, l + 1):
                check_legendre_identity(l, m)
    except ValueError as exc:
        ok = False
        print(f"proportionality failed: {exc}")
    report(5, "ladder vs derivative construction link, l <= 8", ok)


def test_criterion_06_gegenbauer_identity():
    ok = True
    try:
        for q in (Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)):
            for p in range(7):
                check_gegenbauer_identity(p, q)
    except ValueError as exc:
        ok = False
        print(f"proportionality failed: {exc}")
    report(6, "ultraspherical link, p <= 6, q in {3/2,5/2,7/2}", ok)


def test_criterion_07_reflectionless_iff_integer_depth():
    t0 = time.time()
    ok = True
    worst_integer = 0.0
    for l in (1, 2, 3):
        for k in (0.5, 1.0, 2.0):
            res = scattering_amplitudes(PoschlTeller(l), k)
            worst_integer = max(worst_integer, res.r2)
            ok &= res.r2 <= 1e-6
            ok &= abs(res.flux_defect) <= 1e-6
    # regression pin from the first oracle run: |R|^2 = 7.4420e-3 for all three
    # half-integer depths at k = 1 (analytic: 1/(sinh^2(pi) + 1))
    for n_prime in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        res = scattering_amplitudes(PoschlTeller(n_prime), 1.0)
        ok &= res.r2 >= 1e-3
        ok &= abs(res.r2 - 7.4420e-3) <= 1e-6
        ok &= abs(res.r2 - sech_well_reflection_exact(float(n_prime), 1.0)) <= 1e-9
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(7, "reflectionless iff integer depth", ok,
           f"max integer-depth |R|^2 = {worst_integer:.1e}, {elapsed:.1f}s")


def test_criterion_08_deformed_zero_energy():
    ok = True
    worst = 0.0
    step = 1e-3
    for alpha, beta in ((1.0, 2.0), (2.0, 1.0), (0.5, 1.5)):
        gamma = beta - alpha
        if gamma > 0:
            lo, hi = -0.5 / gamma, 8.0
        else:
            lo, hi = -8.0, 0.5 / (-gamma)
        grid = Grid(lo, hi, int(round((hi - lo) / step)) + 1)
        for n in (0, 1, 2):
            resid = gamma_deformed_residual(alpha, beta, n, grid)
            worst = max(worst, resid)
            ok &= resid <= 1e-5
    report(8, "deformed zero-energy residuals at h = 1e-3", ok,
           f"worst residual {worst:.2e}")


def test_criterion_09_coordinate_map_identities():
    ok = True
    for gamma in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        zg = chart_grid(gamma, -6.0, 6.0, 1000, margin_scale=1e-3)
        ok &= max(abs(z_of_theta(gamma, theta_of_z(gamma, z)) - z) for z in zg) <= 1e-12
        zt = chart_grid(gamma, -6.0, 6.0, 1000, margin_scale=2e-2)
        for z in zt:
            theta = theta_of_z(gamma, z)
            w = w_of_z(gamma, z)
            ok &= abs(math.sin(theta) - 1.0 / math.cosh(w)) <= 1e-12
            ok &= abs(math.cos(theta) + math.tanh(w)) <= 1e-12
    drift = max(abs(theta_of_z(1e-8, z) - theta_of_z(0.0, z))
                for z in np.linspace(-3.0, 3.0, 1000))
    ok &= drift <= 1e-6
    report(9, "coordinate-map identities on 1000-point grids", ok)


def test_criterion_10_verify_all_exits_zero(tmp_path, capsys):
    out = tmp_path / "verify_all.json"
    code = cli_main(["verify", "all", "--output", str(out)])
    rep = json.loads(out.read_text())
    ok = code == 0 and rep["status"] == "pass" and rep["summary"]["failed"] == 0
    with capsys.disabled():
        print()
        report(10, "full property suite via 'verify all'", ok,
               f"{rep['summary']['total']} checks")
