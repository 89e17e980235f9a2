import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from susyqm import (
    ChartDomainError, Grid, HypWave, PoschlTeller, RosenMorseII, TanhPoly,
    eigen_residual_symbolic, gamma_deformed_residual, gegenbauer_spectrum,
    ladder_chain, proportionality_constant,
)
from susyqm.cli import run_spectrum

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# sech-well tower


def spectrum_rows(**params):
    """(n, energy, kind) of each row of a `spectrum` report."""
    return [(e["n"], e["energy"], e["kind"]) for e in run_spectrum(params)["entries"]]


def test_pt_spectrum_integer_depth():
    fam = PoschlTeller(3)
    assert [(n, fam.energy(n)) for n in fam.levels()] == [(0, -9), (1, -4), (2, -1)]
    assert fam.threshold_level == 3 and fam.energy(3) == 0
    assert spectrum_rows(family="poschl-teller", l=Fraction(3)) == [
        (0, -9.0, "bound"), (1, -4.0, "bound"), (2, -1.0, "bound"),
        (3, 0.0, "threshold"),
    ]


def test_pt_spectrum_single_level():
    assert spectrum_rows(family="poschl-teller", l=Fraction(1)) == [
        (0, -1.0, "bound"), (1, 0.0, "threshold")]


def test_pt_spectrum_fractional_depth():
    fam = PoschlTeller(Fraction(5, 2))
    assert [fam.energy(n) for n in fam.levels()] == [Fraction(-25, 4), Fraction(-9, 4),
                                                     Fraction(-1, 4)]
    assert fam.threshold_level is None  # no threshold entry
    assert [kind for _n, _e, kind in spectrum_rows(family="poschl-teller", l=Fraction(5, 2))] \
        == ["bound"] * 3


def test_pt_spectrum_empty_for_nonpositive_depth():
    fam = PoschlTeller(0)
    assert list(fam.levels()) == [] and fam.threshold_level is None
    assert spectrum_rows(family="poschl-teller", l=Fraction(0)) == []


@given(l=st.fractions(min_value=Fraction(1, 4), max_value=Fraction(8),
                      max_denominator=4))
@settings(max_examples=60)
def test_pt_energies_increasing_and_negative(l):
    fam = PoschlTeller(l)
    assert len(fam.levels()) == math.ceil(l)
    energies = [fam.energy(n) for n in fam.levels()]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert all(e < 0 for e in energies)
    assert fam.threshold_level == (l if l.denominator == 1 else None)


# ---------------------------------------------------------------------------
# tanh-tilted well


def test_rm_spectrum_examples():
    fam = RosenMorseII(2, HALF)
    assert [float(fam.energy(n)) for n in fam.levels()] == [1.9375, 4.75]
    fam = RosenMorseII(2, 0)
    assert [float(fam.energy(n)) for n in fam.levels()] == [2.0, 5.0]
    # boundary case: (n'-1)^2 = 1 is not > |B| = 1, so only the ground state
    assert spectrum_rows(family="rosen-morse", nprime=Fraction(2), B=Fraction(1)) \
        == [(0, 1.75, "bound")]
    assert RosenMorseII(2, 1).threshold_level is None


def test_rm_preconditions():
    with pytest.raises(ValueError):
        RosenMorseII(2, 5)  # |B| >= n'^2
    with pytest.raises(ValueError):
        RosenMorseII(-1, 0)


def test_rm_reduces_to_shifted_sech_tower():
    for n_prime in (Fraction(2), Fraction(3), Fraction(7, 2)):
        for n in range(math.ceil(n_prime)):
            assert RosenMorseII(n_prime).energy(n) \
                == n_prime * (n_prime + 1) + PoschlTeller(n_prime).energy(n)


@given(n_prime=st.fractions(min_value=1, max_value=6, max_denominator=4),
       B=st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                      max_denominator=4))
@settings(max_examples=80)
def test_rm_spectrum_properties(n_prime, B):
    if abs(B) >= n_prime ** 2:
        with pytest.raises(ValueError):
            RosenMorseII(n_prime, B)
        return
    fam = RosenMorseII(n_prime, B)
    edge = n_prime * (n_prime + 1) - 2 * abs(B)
    energies = [fam.energy(n) for n in fam.levels()]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert all(e < edge for e in energies)


def test_rm_eigenfunction_examples():
    assert RosenMorseII(2, 0).eigenfunction(0) == HypWave.sech_power(2)
    w = RosenMorseII(2, HALF).eigenfunction(0)
    # decay exponents (s -+ r)/2 with s = 2, r = 1/4: weaker decay on the
    # side the tanh tilt pushes the state toward
    assert (w.a, w.b) == (Fraction(7, 8), Fraction(9, 8))
    assert w.poly == TanhPoly.one()


def test_rm_eigenfunction_matches_ladder_at_b_zero():
    for n_prime in (2, 3):
        for n in range(n_prime):
            c = proportionality_constant(
                RosenMorseII(n_prime, 0).eigenfunction(n), ladder_chain(n_prime, n))
            assert c != 0


def test_rm_eigenfunction_rejects_filtered_levels():
    with pytest.raises(ValueError):
        RosenMorseII(2, 1).eigenfunction(1)  # (n'-1)^2 = 1 not > 1


@pytest.mark.parametrize("n_prime,B", [
    (Fraction(2), HALF), (Fraction(3), Fraction(1)), (Fraction(5, 2), HALF),
    (Fraction(4), Fraction(-2)), (Fraction(7, 2), Fraction(3, 4)),
])
def test_rm_eigenpairs_have_zero_symbolic_residual(n_prime, B):
    fam = RosenMorseII(n_prime, B)
    for n in fam.levels():
        w = fam.eigenfunction(n)
        assert w.a > 0 and w.b > 0  # decays at both ends
        assert eigen_residual_symbolic(w, fam, fam.energy(n)).is_zero


@given(n_prime=st.fractions(min_value=Fraction(1, 4), max_value=Fraction(40),
                            max_denominator=4),
       b_share=st.fractions(min_value=Fraction(-1), max_value=Fraction(1),
                            max_denominator=64))
@settings(max_examples=60)
def test_rm_levels_match_enumeration(n_prime, b_share):
    B = b_share * n_prime ** 2
    if abs(B) >= n_prime ** 2:
        return
    admitted = [n for n in range(math.ceil(n_prime)) if (n_prime - n) ** 2 > abs(B)]
    assert list(RosenMorseII(n_prime, B).levels()) == admitted


def test_level_ranges_are_not_listed():
    assert len(RosenMorseII(10 ** 15, 0).levels()) == 10 ** 15
    assert len(RosenMorseII(10 ** 15, 10 ** 28).levels()) == 10 ** 15 - 10 ** 14
    assert PoschlTeller(Fraction(10 ** 15) + HALF).levels()[-1] == 10 ** 15


# ---------------------------------------------------------------------------
# ultraspherical reduction


def test_gegenbauer_spectrum_examples():
    red = gegenbauer_spectrum(2, Fraction(3, 2))
    assert red.n_prime == 3 and red.m_prime == 1
    assert 2 in PoschlTeller(red.n_prime).levels() and red.target_energy == -1
    assert red.reflectionless

    red = gegenbauer_spectrum(0, Fraction(3, 2))
    assert 0 in PoschlTeller(red.n_prime).levels() and red.target_energy == -1

    red = gegenbauer_spectrum(1, 2)
    assert red.n_prime == Fraction(5, 2) and red.m_prime == Fraction(3, 2)
    assert red.target_energy == Fraction(-9, 4)
    assert not red.reflectionless


def test_gegenbauer_spectrum_delegates_to_sech_tower():
    red = gegenbauer_spectrum(3, Fraction(5, 2))
    report = run_spectrum({"family": "gegenbauer", "p": 3, "q": Fraction(5, 2)})
    assert report["entries"] \
        == run_spectrum({"family": "poschl-teller", "l": red.n_prime})["entries"]
    assert red.target_energy == PoschlTeller(red.n_prime).energy(3) == -(red.m_prime ** 2)
    assert (report["target_level"], report["target_energy"]) == (3, -float(red.m_prime ** 2))


def test_gegenbauer_spectrum_rejects_small_q():
    with pytest.raises(ValueError):
        gegenbauer_spectrum(2, HALF)
    with pytest.raises(ValueError):
        gegenbauer_spectrum(-1, Fraction(3, 2))


# ---------------------------------------------------------------------------
# deformed zero-energy family


def deformed_grid(alpha, beta, step=1e-3):
    gamma = beta - alpha
    if abs(gamma) < 1e-7:
        lo, hi = -6.0, 6.0
    elif gamma > 0:
        lo, hi = -0.5 / gamma, 8.0
    else:
        lo, hi = -8.0, 0.5 / (-gamma)
    return Grid(lo, hi, int(round((hi - lo) / step)) + 1)


@pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (2.0, 1.0), (0.5, 1.5)])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_deformed_zero_energy_residuals(alpha, beta, n):
    assert gamma_deformed_residual(alpha, beta, n, deformed_grid(alpha, beta)) <= 1e-5


def test_deformed_reduces_to_sech_ground_state():
    # alpha = beta = 1: gamma = 0 and the candidate is plain sech z
    assert gamma_deformed_residual(1.0, 1.0, 0, Grid(-0.45, 3.0, 3451)) <= 1e-6


def test_deformed_rejects_grid_outside_chart():
    with pytest.raises(ChartDomainError):
        gamma_deformed_residual(1.0, 2.0, 0, Grid(-2.0, 2.0, 101))


def test_deformed_validates_indices():
    with pytest.raises(ValueError):
        gamma_deformed_residual(-1.5, 1.0, 0, Grid(-1.0, 1.0, 11))
    with pytest.raises(ValueError):
        gamma_deformed_residual(1.0, 2.0, -1, Grid(-0.4, 1.0, 11))


def test_deformed_wrong_candidate_has_large_residual():
    # level mismatch: evaluating the n = 1 operator on the n = 0 candidate
    # inflates the bracket by the n'(n'+1) difference, so the residual is O(1)
    g = deformed_grid(1.0, 2.0)
    good = gamma_deformed_residual(1.0, 2.0, 1, g)
    zs = g.zs()
    import numpy as np
    from susyqm.orthopoly import jacobi_values

    gamma, m = 1.0, 1.5
    w = np.log1p(gamma * zs) / gamma
    tw = np.tanh(w)
    v = (1 - tw * tw) ** (0.25 * (1.0 + 2.0)) * jacobi_values(0, 1.0, 2.0, -tw)
    n_prime_wrong = 1 + m  # operator for n = 1 applied to the n = 0 candidate
    bracket = n_prime_wrong * (n_prime_wrong + 1) / np.cosh(w) ** 2 - m * m - gamma * m * tw
    h2 = g.h ** 2
    vpp = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h2)
    bad = float(np.max(np.abs(vpp + bracket[2:-2] * v[2:-2] / (gamma * zs[2:-2] + 1) ** 2)))
    assert good <= 1e-5 < 0.1 <= bad
