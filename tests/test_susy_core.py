from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import rationals
from susyqm import (
    ClosedFormSuperpotential, Grid, HypWave, PoschlTeller, RosenMorseII, TanhPoly, discretize,
    eigen_residual_symbolic, partner_potentials, riccati_residual,
    shape_invariance_remainder, si_level_energy,
)
from susyqm.fd_oracle import bound_state_eigenvalues_batch

GRID = Grid(-12.0, 12.0, 2001)


def closed(k, s=0):
    return ClosedFormSuperpotential(Fraction(k), Fraction(s))


def test_partner_examples():
    pair = partner_potentials(closed(1))
    assert pair.v1 == TanhPoly((-1, 0, 2))   # 1 - 2 sech^2 = 2t^2 - 1
    assert pair.v2 == TanhPoly((1,))         # constant 1

    # W = k tanh z: V1 = k^2 - k(k+1) sech^2, i.e. k(k+1) t^2 - k
    for k in (2, 3, Fraction(5, 2)):
        pair = partner_potentials(closed(k))
        kf = Fraction(k)
        assert pair.v1 == TanhPoly((-kf, 0, kf * (kf + 1)))

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


# W = k tanh z + s, all with normalizable ground states e^{-int W}: |s| < k
PARTNER_SUPERPOTENTIALS = [(1, 0), (Fraction(3, 2), 0), (2, 0), (3, 0), (2, Fraction(1, 2)),
                           (3, 1), (Fraction(5, 2), Fraction(-1, 2))]


def test_partners_are_isospectral_on_the_grid():
    # the partner claim through the finite-difference oracle alone, with no
    # closed-form level: H1 = A^dagger A has a level at 0 and H2 = A A^dagger
    # has every other level of H1, E1[n + 1] = E2[n]
    pairs = [partner_potentials(closed(k, s)) for k, s in PARTNER_SUPERPOTENTIALS]
    evs = bound_state_eigenvalues_batch(
        [(discretize(v, GRID), float(min(v(-1), v(1))) - 1e-9, 10)
         for pair in pairs for v in (pair.v1, pair.v2)])
    for (k, s), e1, e2 in zip(PARTNER_SUPERPOTENTIALS, evs[0::2], evs[1::2]):
        assert len(e1) == len(e2) + 1, (k, s, e1, e2)
        assert abs(e1[0]) <= 2e-3, (k, s, e1)
        assert all(abs(a - b) <= 2e-3 for a, b in zip(e1[1:], e2)), (k, s, e1, e2)


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
            assert si_level_energy(k, n) == k * k + PoschlTeller(k).energy(n)


def test_annihilation():
    for k in (1, 5, Fraction(3, 2)):
        w = closed(k)
        assert w.apply_a(w.ground_state()).is_zero


def partner_family(w):
    """The closed-form well whose potential plus a constant is V1 = W^2 - W',
    and that constant."""
    if w.s == 0:
        return PoschlTeller(w.k), w.k * w.k
    return RosenMorseII(w.k, -w.k * w.s), w.s * w.s - w.k


@pytest.mark.parametrize("k,s", [
    (1, 0), (2, 0), (Fraction(3, 2), Fraction(1, 2)), (2, Fraction(1, 2)),
    (5, 0), (Fraction(7, 2), 0), (3, Fraction(-1, 2)),
], ids=str)
def test_partners_share_every_level_but_the_ground_state(k, s):
    # H1 = A^dagger A and H2 = A A^dagger, so A H1 = H2 A: A maps level n of
    # V1 onto a level of V2 at the same energy, and annihilates the ground state
    w = closed(k, s)
    pair = partner_potentials(w)
    fam, shift = partner_family(w)
    assert fam.tanh_poly() + TanhPoly.constant(shift) == pair.v1
    for n in fam.levels():
        psi, energy = fam.eigenfunction(n), fam.energy(n) + shift
        assert eigen_residual_symbolic(psi, pair.v1, energy).is_zero
        a_psi = w.apply_a(psi)
        if n == 0:
            assert a_psi.is_zero and energy == 0
        else:
            assert eigen_residual_symbolic(a_psi, pair.v2, energy).is_zero
            off = energy + Fraction(1, 1000)
            assert not eigen_residual_symbolic(a_psi, pair.v2, off).is_zero
        assert w.apply_a_dagger(a_psi) == HypWave(psi.a, psi.b, psi.poly,
                                                  energy * psi.prefactor)
