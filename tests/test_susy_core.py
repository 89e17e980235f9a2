from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import rationals
from susyqm import (
    ClosedFormSuperpotential, Grid, TanhPoly, annihilation_check,
    partner_potentials, poschl_teller_energy, riccati_residual,
    shape_invariance_remainder, si_level_energy,
)

GRID = Grid(-12.0, 12.0, 2001)


def closed(k, s=0):
    return ClosedFormSuperpotential(Fraction(k), Fraction(s))


def test_partner_examples():
    pair = partner_potentials(closed(1))
    assert pair.v1 == TanhPoly((-1, 0, 2))   # 1 - 2 sech^2 = 2t^2 - 1
    assert pair.v2 == TanhPoly((1,))         # constant 1
    assert pair.ground_offset == 1

    # W = k tanh z: V1 = k^2 - k(k+1) sech^2, i.e. k(k+1) t^2 - k
    for k in (2, 3, Fraction(5, 2)):
        pair = partner_potentials(closed(k))
        kf = Fraction(k)
        assert pair.v1 == TanhPoly((-kf, 0, kf * (kf + 1)))
        assert pair.ground_offset == kf * kf

    pair = partner_potentials(closed(0))
    assert pair.v1.is_zero and pair.v2.is_zero


@given(k=rationals, s=rationals)
@settings(max_examples=60)
def test_partner_difference_is_2wprime(k, s):
    w = ClosedFormSuperpotential(k, s)
    pair = partner_potentials(w)
    assert pair.v2 - pair.v1 == 2 * w.derivative_tanh_poly()


def test_riccati_roundtrip():
    w = closed(1)
    zs = GRID.zs()
    v1 = partner_potentials(w).v1.values(np.tanh(zs))
    assert riccati_residual(zs, v1, w) <= 1e-10


def test_riccati_detects_constant_offset():
    zs = GRID.zs()
    v1 = -2.0 / np.cosh(zs) ** 2
    assert riccati_residual(zs, v1, closed(1)) == pytest.approx(1.0, abs=1e-12)


def test_riccati_detects_sign_flip():
    zs = GRID.zs()
    v1 = 1.0 - 2.0 / np.cosh(zs) ** 2
    # W -> -W flips the W' term: residual sup |2 W'| = 2 sech^2(0)
    assert riccati_residual(zs, v1, closed(-1)) == pytest.approx(2.0, abs=1e-12)


def test_shape_invariance_examples():
    assert shape_invariance_remainder(1) == (Fraction(1), 0.0)
    assert shape_invariance_remainder(3) == (Fraction(5), 0.0)
    assert shape_invariance_remainder(Fraction(1, 2)) == (Fraction(0), 0.0)


@given(k=rationals)
def test_shape_invariance_for_all_rational_k(k):
    remainder, constancy = shape_invariance_remainder(k)
    assert remainder == k * k - (k - 1) ** 2
    assert constancy == 0.0


def test_si_recursion_reproduces_shifted_tower():
    for k in range(1, 8):
        for n in range(k):
            assert si_level_energy(k, n) == k * k + poschl_teller_energy(k, n)


def test_annihilation():
    assert annihilation_check(1).is_zero
    assert annihilation_check(5).is_zero
    assert annihilation_check(Fraction(3, 2)).is_zero
