import cmath
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from susyqm import (
    Grid, NumericalError, PoschlTeller, RosenMorseII,
    TanhPoly, TridiagonalOperator, bound_state_eigenvalues, discretize, fd_oracle,
    poschl_teller_energy, potential_values, rosen_morse_levels, scattering_amplitudes,
    sech_well_reflection_exact,
)

GRID = Grid(-12.0, 12.0, 2001)
HALF = Fraction(1, 2)
# the eight families of `verify spectra`, with their search ceilings
TILTED = [RosenMorseII(n, b) for n, b in ((Fraction(2), HALF), (Fraction(3), Fraction(1)),
                                          (Fraction(5, 2), HALF))]
SPECTRA_FAMILIES = ([(PoschlTeller(l), -1e-6, l + 2) for l in range(1, 6)]
                    + [(fam, fam.continuum_edge - 1e-9, 8) for fam in TILTED])




def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# discretization


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 11)
    assert Grid(-1.0, 1.0, 21).h == pytest.approx(0.1)


def test_tridiagonal_validation():
    with pytest.raises(ValueError):
        TridiagonalOperator(np.zeros(4), np.zeros(4))


def test_discretize_free_laplacian():
    op = discretize(PoschlTeller(0), Grid(-1.0, 1.0, 3))  # h = 1
    assert np.allclose(op.diagonal, [2.0, 2.0, 2.0])
    assert np.allclose(op.off_diagonal, [-1.0, -1.0])


def test_discretize_well_depth_at_origin():
    op = discretize(PoschlTeller(1), GRID)
    mid = GRID.points // 2
    assert op.diagonal[mid] == pytest.approx(2.0 / GRID.h ** 2 - 2.0, rel=1e-12)


def test_discretize_tilted_asymptote():
    op = discretize(RosenMorseII(2, HALF), GRID)
    # V -> n'(n'+1) - 2B = 5 at z -> +inf
    assert op.diagonal[-1] == pytest.approx(2.0 / GRID.h ** 2 + 5.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Sturm multisection


def test_free_laplacian_has_no_negative_eigenvalues():
    op = discretize(PoschlTeller(0), Grid(-12.0, 12.0, 201))
    assert bound_state_eigenvalues(op, below=-1e-9, max_count=3) == []


def test_pt_single_level():
    evs = bound_state_eigenvalues(discretize(PoschlTeller(1), GRID),
                                  below=-1e-6, max_count=3)
    assert len(evs) == 1
    assert evs[0] == pytest.approx(-1.0, abs=1e-3)


def test_pt_three_levels():
    evs = bound_state_eigenvalues(discretize(PoschlTeller(3), GRID),
                                  below=-1e-6, max_count=5)
    assert len(evs) == 3
    for ev, exact in zip(evs, (-9.0, -4.0, -1.0)):
        assert ev == pytest.approx(exact, abs=1e-3)


def test_max_count_exceeded_is_reported():
    with pytest.raises(NumericalError):
        bound_state_eigenvalues(discretize(PoschlTeller(5), GRID),
                                below=-1e-6, max_count=2)


def _reference_counts(op, shifts):
    """Eigenvalues strictly below each shift, counted in scipy's full spectrum."""
    from scipy.linalg import eigvalsh_tridiagonal

    evs = eigvalsh_tridiagonal(op.diagonal, op.off_diagonal)
    return [int(np.sum(evs < x)) for x in shifts]


def _counts(op, shifts):
    d, e2, pivmin = fd_oracle._stacked([op])
    return fd_oracle._counts_below(d, e2, np.asarray(shifts, dtype=float),
                                   np.zeros(len(shifts), np.intp), pivmin).tolist()


def test_sturm_count_matches_spectrum():
    op = discretize(PoschlTeller(3), GRID)
    assert _counts(op, [-1e-6, -2.0, -100.0]) == [3, 2, 0]
    assert _reference_counts(op, [-1e-6, -2.0, -100.0]) == [3, 2, 0]


def test_determinism_bit_identical():
    op = discretize(RosenMorseII(Fraction(5, 2), HALF), GRID)
    a = bound_state_eigenvalues(op, below=7.75 - 1e-9, max_count=5)
    b = bound_state_eigenvalues(op, below=7.75 - 1e-9, max_count=5)
    assert a == b


def test_sturm_matches_scipy():
    from scipy.linalg import eigh_tridiagonal

    for fam, below, max_count in SPECTRA_FAMILIES:
        op = discretize(fam, GRID)
        ours = bound_state_eigenvalues(op, below=below, max_count=max_count)
        ref = eigh_tridiagonal(op.diagonal, op.off_diagonal,
                               select="v", select_range=(-1e6, below))[0]
        assert len(ours) == len(ref) > 0
        assert np.max(np.abs(np.asarray(ours) - ref)) <= 1e-9


@pytest.mark.parametrize("index", [0, 4, 7])
def test_eigenvalues_are_bracketed_by_sturm_counts(index):
    fam, below, max_count = SPECTRA_FAMILIES[index]
    op = discretize(fam, GRID)
    tol = fd_oracle.BISECTION_TOL
    evs = bound_state_eigenvalues(op, below, max_count)
    shifts = [x for ev in evs for x in (ev - tol, ev + tol)]
    expected = [c for n in range(len(evs)) for c in (n, n + 1)]
    assert _counts(op, shifts) == _reference_counts(op, shifts) == expected


def test_exhausted_sweep_cap_raises():
    op = discretize(PoschlTeller(3), GRID)
    for max_iter in (0, 1, 5):
        with pytest.raises(NumericalError, match="multisection"):
            bound_state_eigenvalues(op, below=-1e-6, max_count=5, max_iter=max_iter)
    # the first bracket, [-12, 0], needs seven sweeps of 64 sub-intervals to reach 1e-10
    assert len(bound_state_eigenvalues(op, below=-1e-6, max_count=5, max_iter=7)) == 3


def test_tolerance_below_float_spacing_converges():
    from scipy.linalg import eigh_tridiagonal

    # near -2e7 neighbouring doubles are 3.7e-9 apart, wider than the 1e-10 tol
    op = TridiagonalOperator(np.array([-2e7, -1e7, 5.0]), np.array([1e-3, 1e-3]))
    ref = eigh_tridiagonal(op.diagonal, op.off_diagonal, eigvals_only=True)[:2]
    evs = bound_state_eigenvalues(op, below=0.0, max_count=3)
    assert len(evs) == 2
    for ev, exact in zip(evs, ref):
        assert abs(ev - exact) <= 2.0 * np.spacing(abs(exact))


def _spectra_requests():
    return [(discretize(fam, GRID), below, max_count)
            for fam, below, max_count in SPECTRA_FAMILIES]


def test_batch_equals_one_at_a_time():
    requests = _spectra_requests()
    batch = fd_oracle.bound_state_eigenvalues_batch(requests)
    assert batch == [bound_state_eigenvalues(*request) for request in requests]
    assert sum(map(len, batch)) == 21


def test_fd_eigenvalues_pinned():
    # sha256 of float.hex of the 21 eigenvalues of `verify spectra`, taken from
    # the one-operator-at-a-time solver; a faster oracle must show what it moved
    evs = fd_oracle.bound_state_eigenvalues_batch(_spectra_requests())
    assert _sha([[float.hex(ev) for ev in family] for family in evs]) == (
        "876bf74c1f45de109d5ede31c62dc4b8e003ca4b073879f693493b9cf6b364e1")


def test_batch_with_empty_members():
    pt3 = discretize(PoschlTeller(3), GRID)
    requests = [
        (discretize(PoschlTeller(0), GRID), -1e-6, 3),
        (discretize(PoschlTeller(2), GRID), -1e-6, 4),
        (pt3, -20.0, 5),    # below the Gershgorin bound, -12
        (discretize(TILTED[0], GRID), TILTED[0].continuum_edge - 1e-9, 8),
        (pt3, -10.0, 5),    # above the Gershgorin bound, below the lowest level, -9
        (pt3, -1e-6, 5),
    ]
    batch = fd_oracle.bound_state_eigenvalues_batch(requests)
    assert batch[0] == batch[2] == batch[4] == []
    for got, request in zip(batch, requests):
        assert got == bound_state_eigenvalues(*request)
    assert [len(evs) for evs in batch] == [0, 2, 0, 2, 0, 3]


def test_batch_max_count_overflow_in_later_member():
    pt5 = discretize(PoschlTeller(5), GRID)
    with pytest.raises(NumericalError) as alone:
        bound_state_eigenvalues(pt5, below=-1e-6, max_count=2)
    assert str(alone.value) == "5 eigenvalues found below -1e-06, exceeding max_count = 2"
    with pytest.raises(NumericalError) as batched:
        fd_oracle.bound_state_eigenvalues_batch(
            [(discretize(PoschlTeller(1), GRID), -1e-6, 3), (pt5, -1e-6, 2)])
    assert str(batched.value) == str(alone.value)


def test_batch_sweep_cap():
    requests = _spectra_requests()
    for max_iter in (0, 1, 5):
        with pytest.raises(NumericalError, match="multisection"):
            fd_oracle.bound_state_eigenvalues_batch(requests, max_iter=max_iter)
    assert fd_oracle.bound_state_eigenvalues_batch(requests, max_iter=7) == (
        fd_oracle.bound_state_eigenvalues_batch(requests))


def test_batch_rejects_operators_of_different_sizes():
    with pytest.raises(ValueError, match="same size"):
        fd_oracle.bound_state_eigenvalues_batch([
            (discretize(PoschlTeller(1), GRID), -1e-6, 3),
            (discretize(PoschlTeller(1), Grid(-12.0, 12.0, 1001)), -1e-6, 3)])


def test_counts_below_mixes_operators_per_column():
    ops = [discretize(fam, GRID) for fam in (PoschlTeller(3), TILTED[1], PoschlTeller(5))]
    d, e2, pivmin = fd_oracle._stacked(ops)
    # levels: -9, -4, -1 | 26/9, 31/4 below the edge 10 | -25, -16, -9, -4, -1
    shifts = np.array([-2.0, 3.0, -20.0, -100.0, 7.5, -1e-6, -3.0, -0.5, 9.0])
    owner = np.array([0, 1, 2, 0, 1, 2, 2, 0, 1])
    counts = fd_oracle._counts_below(d, e2, shifts, owner, pivmin)
    assert counts.tolist() == [_reference_counts(ops[k], [x])[0] for k, x in zip(owner, shifts)]
    assert counts.tolist() == [2, 1, 1, 0, 1, 5, 4, 3, 2]


def test_grid_convergence_is_second_order():
    errors = {}
    for points in (1001, 2001):
        evs = bound_state_eigenvalues(
            discretize(PoschlTeller(2), Grid(-12.0, 12.0, points)),
            below=-1e-6, max_count=3)
        errors[points] = [abs(ev - float(poschl_teller_energy(2, n)))
                          for n, ev in enumerate(evs)]
    for coarse, fine in zip(errors[1001], errors[2001]):
        assert 3.0 <= coarse / fine <= 5.0


# ---------------------------------------------------------------------------
# scattering


def test_reflectionless_integer_depth():
    assert scattering_amplitudes(PoschlTeller(1), 1.0).r2 <= 1e-6
    assert scattering_amplitudes(PoschlTeller(2), 0.5).r2 <= 1e-6


def test_free_potential_does_not_reflect():
    assert scattering_amplitudes(PoschlTeller(0), 1.0).r2 <= 1e-15


def test_half_integer_depth_reflects():
    res = scattering_amplitudes(PoschlTeller(Fraction(3, 2)), 1.0)
    assert res.r2 >= 1e-3
    assert abs(res.flux_defect) <= 1e-6


@pytest.mark.parametrize("l,k", [(0.5, 1.0), (1.5, 0.7), (2.5, 1.3), (1.25, 1.0)])
def test_reflection_matches_analytic_formula(l, k):
    computed = scattering_amplitudes(PoschlTeller(Fraction(l)), k).r2
    assert computed == pytest.approx(sech_well_reflection_exact(l, k), abs=1e-9)


def test_transmission_resonance_structure():
    # |T|^2 = 1 - |R|^2 and both lie in [0, 1]
    res = scattering_amplitudes(PoschlTeller(Fraction(1, 2)), 0.6)
    assert 0.0 <= res.r2 <= 1.0
    assert res.t2 == pytest.approx(1.0 - res.r2, abs=1e-6)


def test_scatter_shifted_symmetric_well():
    # B = 0 tilted well is the sech well on a pedestal: same reflection
    r_shifted = scattering_amplitudes(RosenMorseII(2, 0), 1.0).r2
    assert r_shifted <= 1e-6


def test_scatter_rejects_asymmetric_tails():
    with pytest.raises(NumericalError):
        scattering_amplitudes(RosenMorseII(2, HALF), 1.0)


def test_scatter_rejects_undecayed_window():
    with pytest.raises(NumericalError):
        scattering_amplitudes(PoschlTeller(1), 1.0, half_width=3.0)
    with pytest.raises(ValueError, match="half width"):
        scattering_amplitudes(PoschlTeller(1), 1.0, half_width=math.nan)


def test_scatter_rejects_bad_wavenumber():
    for k in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            scattering_amplitudes(PoschlTeller(1), k)


@pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf])
def test_scatter_rejects_bad_window(value):
    with pytest.raises(ValueError, match="half width must be positive and finite"):
        scattering_amplitudes(PoschlTeller(1), 1.0, half_width=value)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        scattering_amplitudes(PoschlTeller(1), 1.0, step=value)


def test_scatter_overflowing_amplitude_is_numerical_error():
    with pytest.raises(NumericalError, match="not finite doubles"):
        scattering_amplitudes(PoschlTeller(Fraction(3, 2)), 1e-300)


def _sequential_march(fam, k, energy, half_width, n_steps):
    """Reference: the classical RK4 march one step at a time on complex scalars."""
    zs = np.linspace(half_width, -half_width, 2 * n_steps + 1)
    v_shift = (potential_values(fam, zs) - energy).tolist()
    s = -2.0 * half_width / n_steps
    psi = cmath.exp(1j * k * half_width)
    dpsi = 1j * k * psi
    for j in range(n_steps):
        v0, v1, v2 = v_shift[2 * j], v_shift[2 * j + 1], v_shift[2 * j + 2]
        k1p, k1d = dpsi, v0 * psi
        k2p, k2d = dpsi + 0.5 * s * k1d, v1 * (psi + 0.5 * s * k1p)
        k3p, k3d = dpsi + 0.5 * s * k2d, v1 * (psi + 0.5 * s * k2p)
        k4p, k4d = dpsi + s * k3d, v2 * (psi + s * k3p)
        psi = psi + s / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
        dpsi = dpsi + s / 6.0 * (k1d + 2.0 * (k2d + k3d) + k4d)
    phase = cmath.exp(1j * k * half_width)
    a = 0.5 * (psi + dpsi / (1j * k)) * phase
    b = 0.5 * (psi - dpsi / (1j * k)) / phase
    return a, b


def _march_lattice(fam, energy, half_width, n_steps, points_per_step=2):
    """V - E on the half-step lattice of an n_steps march from +L to -L."""
    zs = np.linspace(half_width, -half_width, points_per_step * n_steps + 1)
    return potential_values(fam, zs) - energy


MARCH_FAMILIES = [(PoschlTeller(Fraction(3, 2)), 1.0), (PoschlTeller(2), 0.5),
                  (RosenMorseII(Fraction(5, 2), 0), 2.0)]


# 4097 is one odd chunk; MARCH_CHUNK + 1 and 2 * MARCH_CHUNK + 3 end in a
# short odd chunk; 40001 is odd and crosses two chunk boundaries as well
@pytest.mark.parametrize("n_steps", [4097, fd_oracle.MARCH_CHUNK + 1,
                                     2 * fd_oracle.MARCH_CHUNK + 3, 40001])
@pytest.mark.parametrize("fam,k", MARCH_FAMILIES)
def test_step_matrix_march_matches_sequential_rk4(fam, k, n_steps):
    energy = k * k + fam.asymptotes[0]
    a, b = fd_oracle._integrate_scattering(_march_lattice(fam, energy, 20.0, n_steps), k, 20.0)
    a_ref, b_ref = _sequential_march(fam, k, energy, 20.0, n_steps)
    assert isinstance(a, complex) and isinstance(b, complex)
    assert abs(abs(b) ** 2 / abs(a) ** 2 - abs(b_ref) ** 2 / abs(a_ref) ** 2) <= 1e-12
    assert abs(1.0 / abs(a) ** 2 - 1.0 / abs(a_ref) ** 2) <= 1e-12


@pytest.mark.parametrize("fam,k", MARCH_FAMILIES)
def test_coarse_march_on_every_other_fine_point(fam, k):
    # the coarse march reads every other point of the fine march's lattice;
    # those points differ from a directly spaced coarse lattice by rounding only
    energy = k * k + fam.asymptotes[0]
    n_steps = 40000
    a, b = fd_oracle._integrate_scattering(
        _march_lattice(fam, energy, 20.0, n_steps, points_per_step=4)[::2], k, 20.0)
    a_ref, b_ref = fd_oracle._integrate_scattering(
        _march_lattice(fam, energy, 20.0, n_steps), k, 20.0)
    assert abs(abs(b) ** 2 / abs(a) ** 2 - abs(b_ref) ** 2 / abs(a_ref) ** 2) <= 1e-12
    assert abs(1.0 / abs(a) ** 2 - 1.0 / abs(a_ref) ** 2) <= 1e-12


def test_ordered_product_delta_matches_matrix_product():
    # odd lengths carry a matrix up unchanged at some level of the tree
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 13):
        d = rng.normal(scale=0.1, size=(n, 2, 2))
        expected = np.eye(2)
        for dj in d:
            expected = (np.eye(2) + dj) @ expected
        got = fd_oracle._ordered_product_delta(d[:, 0, 0], d[:, 0, 1], d[:, 1, 0], d[:, 1, 1])
        assert all(isinstance(x, float) for x in got)
        assert np.allclose(np.reshape(got, (2, 2)), expected - np.eye(2), rtol=0.0,
                           atol=1e-14)


def test_scattering_reports_its_diagnostics(monkeypatch):
    sizes = []
    real = fd_oracle.potential_values

    def counting(fam, zs):
        sizes.append(len(zs))
        return real(fam, zs)

    monkeypatch.setattr(fd_oracle, "potential_values", counting)
    res = scattering_amplitudes(PoschlTeller(Fraction(3, 2)), 1.0, 20.0, 1e-2)
    # one fine half-step lattice for the tail check and both marches
    assert sizes == [4 * 4000 + 1]
    assert res.rk4_steps == (4000, 8000)
    assert res.step == 5e-3
    assert 0.0 < res.step_halving_drift <= fd_oracle.STEP_HALVING_TOL
    a, b = fd_oracle._integrate_scattering(
        _march_lattice(PoschlTeller(Fraction(3, 2)), 1.0, 20.0, 4000, points_per_step=4)[::2],
        1.0, 20.0)
    assert res.step_halving_drift == abs(res.r2 - abs(b) ** 2 / abs(a) ** 2)
