import cmath
import hashlib
import json
import math
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from susyqm import (
    Grid, NumericalError, PoschlTeller, RosenMorseII,
    TanhPoly, TridiagonalOperator, bound_state_eigenvalues, discretize, fd_oracle,
    potential_values, scattering_amplitudes,
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


@pytest.mark.parametrize("z_min,z_max", [
    (-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0), (-1.0, math.nan),
    (-1e308, 1e308),  # both finite, but the width overflows
])
def test_grid_rejects_bounds_it_cannot_span(z_min, z_max):
    with pytest.raises(ValueError, match="finite"):
        Grid(z_min, z_max, 11)


def test_grid_has_no_default_fields():
    with pytest.raises(TypeError):
        Grid()


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


@st.composite
def _closed_form_wells(draw):
    """(well, its V as a closed form in z written here, 1 + its |coefficients|)."""
    if draw(st.booleans()):
        l = draw(st.fractions(min_value=0, max_value=30, max_denominator=4))
        c = float(l * (l + 1))
        return PoschlTeller(l), lambda z: -c / np.cosh(z) ** 2, 1.0 + c
    n = draw(st.fractions(min_value=Fraction(1, 4), max_value=12, max_denominator=4))
    # |B| < n'^2, both signs
    b = n * n * draw(st.fractions(min_value=-1, max_value=1, max_denominator=8)
                     .filter(lambda f: abs(f) < 1))
    c, b2 = float(n * (n + 1)), 2.0 * float(b)
    return RosenMorseII(n, b), lambda z: c * np.tanh(z) ** 2 - b2 * np.tanh(z), 1.0 + c + abs(b2)


@given(well=_closed_form_wells(),
       z=st.lists(st.floats(min_value=-25.0, max_value=25.0), max_size=20))
def test_derived_potential_matches_the_closed_forms(well, z):
    # V is tanh_poly() alone; this ties it to -l(l+1) sech^2 z and to
    # n'(n'+1) tanh^2 z - 2B tanh z, the sign of B included, on a fixed grid
    # and on drawn points
    fam, closed_form, scale = well
    zs = np.concatenate((np.linspace(-25.0, 25.0, 101), z))
    derived = potential_values(fam.tanh_poly(), zs)
    assert np.max(np.abs(derived - closed_form(zs))) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# Sturm multisection


@pytest.mark.parametrize("z_max", [2e-300, 2e-157])
def test_discretize_rejects_a_spacing_past_the_double_range(z_max):
    with pytest.raises(NumericalError, match="past the double range"):
        discretize(PoschlTeller(1), Grid(0.0, z_max, 2001))


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
    """Counts of one operator, its shifts as one group."""
    d, e2, pivmin = fd_oracle._stacked([op])
    return fd_oracle._counts_below(d, e2, np.asarray(shifts, dtype=float)[None, :],
                                   np.zeros(1, np.intp), pivmin)[0].tolist()


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
    counts = fd_oracle._counts_below(d, e2, shifts[:, None], owner, pivmin)[:, 0]
    assert counts.tolist() == [_reference_counts(ops[k], [x])[0] for k, x in zip(owner, shifts)]
    assert counts.tolist() == [2, 1, 1, 0, 1, 5, 4, 3, 2]


def _counts_row_by_row(d, e2, shifts, owner, pivmin):
    """The Sturm row loop one row at a time, with the pivot floor applied at
    every row; shift j (flat) belongs to operator owner[j].  The blocked
    kernel must reproduce these counts exactly."""
    piv = pivmin.take(owner)
    neg_piv = -piv
    q = d[0].take(owner) - shifts
    q = np.where(np.abs(q) < piv, neg_piv, q)
    counts = (q < 0).astype(np.int64)
    for i in range(1, d.shape[0]):
        q = d[i].take(owner) - shifts - e2[i - 1].take(owner) / q
        q = np.where(np.abs(q) < piv, neg_piv, q)
        counts += q < 0
    return counts


def _blocked_against_row_by_row(d, e2, shifts, owner, block_rows):
    """Counts of the blocked kernel at block_rows rows per block, and of the
    row-by-row reference on the same flattened shifts."""
    pivmin = np.maximum(1.0, e2.max(axis=0, initial=0.0)) * 1e-300
    with mock.patch.object(fd_oracle, "COUNT_BLOCK", block_rows * shifts.size):
        blocked = fd_oracle._counts_below(d, e2, shifts, owner, pivmin)
    reference = _counts_row_by_row(d, e2, shifts.ravel(),
                                   np.repeat(owner, shifts.shape[1]), pivmin)
    return blocked.ravel().tolist(), reference.tolist()


def _plant_zero_pivot(d, e2, shifts, owner, group, row, s):
    """Make pivot `row` of shift (group, 0) exactly zero: rows row - 1 and row
    read d - s = 1, coupled by e2 = 1, and cut off from the rows above."""
    k = owner[group]
    shifts[group, 0] = s
    d[row - 1, k] = d[row, k] = s + 1.0
    e2[row - 1, k] = 1.0
    if row >= 2:
        e2[row - 2, k] = 0.0


@pytest.mark.parametrize("row,block_rows", [(4, 4), (6, 4), (1, 1), (2, 3), (8, 3)],
                         ids=["on-boundary", "mid-block", "row-1-own-block",
                              "mid-first-block", "last-short-block"])
def test_counts_below_floors_a_zero_pivot_in_any_block_position(row, block_rows):
    # d - s is -1 except a coupled pair of +1 rows whose second pivot is 0;
    # e2 is 0 elsewhere, so without the floor the next row reads 0 / 0 = NaN
    # and no later row counts
    rows = 10
    d = np.full((rows, 1), 2.0)
    e2 = np.zeros((rows - 1, 1))
    shifts = np.array([[3.0, 100.0]])
    owner = np.array([0])
    _plant_zero_pivot(d, e2, shifts, owner, 0, row, 3.0)
    blocked, reference = _blocked_against_row_by_row(d, e2, shifts, owner, block_rows)
    assert blocked == reference == [rows - 1, rows]


sturm_values = st.floats(-20.0, 20.0) | st.integers(-20, 20).map(float)


@st.composite
def sturm_cases(draw):
    rows = draw(st.integers(1, 24))
    n_ops = draw(st.integers(1, 3))
    groups, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d = np.array(draw(st.lists(sturm_values, min_size=rows * n_ops,
                               max_size=rows * n_ops))).reshape(rows, n_ops)
    e2 = np.array(draw(st.lists(st.floats(0.0, 20.0) | st.integers(0, 2).map(float),
                                min_size=(rows - 1) * n_ops,
                                max_size=(rows - 1) * n_ops))).reshape(rows - 1, n_ops)
    shifts = np.array(draw(st.lists(sturm_values, min_size=groups * width,
                                    max_size=groups * width))).reshape(groups, width)
    owner = np.array(draw(st.lists(st.integers(0, n_ops - 1), min_size=groups,
                                   max_size=groups)), dtype=np.intp)
    if rows >= 2:
        for _ in range(draw(st.integers(0, 2))):
            _plant_zero_pivot(d, e2, shifts, owner, draw(st.integers(0, groups - 1)),
                              draw(st.integers(1, rows - 1)),
                              float(draw(st.integers(-20, 20))))
    if draw(st.booleans()):
        d[draw(st.integers(0, rows - 1)), draw(st.integers(0, n_ops - 1))] = math.nan
    return d, e2, shifts, owner, draw(st.integers(1, rows + 1))


@given(sturm_cases())
@settings(max_examples=150, deadline=None)
def test_counts_below_equals_row_by_row_reference(case):
    blocked, reference = _blocked_against_row_by_row(*case)
    assert blocked == reference


@pytest.mark.parametrize("rows,block_rows", [(3, 1), (3, 2), (3, 3), (7, 3), (7, 8)])
def test_counts_below_block_lengths_on_an_operator(rows, block_rows):
    op = discretize(PoschlTeller(2), Grid(-12.0, 12.0, rows))
    d, e2, _pivmin = fd_oracle._stacked([op])
    shifts = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
    blocked, reference = _blocked_against_row_by_row(d, e2, shifts, np.zeros(3, np.intp),
                                                     block_rows)
    assert blocked == reference == _reference_counts(op, shifts.ravel())


def test_grid_convergence_is_second_order():
    errors = {}
    for points in (1001, 2001):
        evs = bound_state_eigenvalues(
            discretize(PoschlTeller(2), Grid(-12.0, 12.0, points)),
            below=-1e-6, max_count=3)
        errors[points] = [abs(ev - float(PoschlTeller(2).energy(n)))
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


def test_scatter_rejects_a_well_that_is_not_even(odd_well, potential_calls):
    # equal asymptotes, but V(-z) != V(z): the march's mirror half would be
    # wrong, so the well is refused before V is evaluated anywhere
    z = np.linspace(-3.0, 3.0, 61)
    assert np.allclose(np.tanh(z) / np.cosh(z) ** 2, potential_values(odd_well.tanh_poly(), z),
                       rtol=0.0, atol=1e-15)
    with pytest.raises(NumericalError, match="restricted to even wells"):
        scattering_amplitudes(odd_well, 1.0)
    assert potential_calls == []
    # the B = 0 tilted well and the free well are even, and still accepted
    assert scattering_amplitudes(RosenMorseII(2, 0), 1.0).r2 <= 1e-6
    assert scattering_amplitudes(PoschlTeller(0), 1.0).r2 <= 1e-15


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


def test_backward_step_is_the_adjugate_of_the_forward_step():
    # the march's mirror half rests on this: the step from u2 back to u0,
    # of size -s, is adj(M) for the forward step M, bit for bit; in
    # difference form [[D11, -D01], [-D10, D00]]
    rng = np.random.default_rng(11)
    for s in (1e-3, -2.5e-3, 0.37):
        u0, u1, u2 = rng.normal(scale=0.05, size=(3, 257))
        forward = fd_oracle._rk4_step_deltas(u0, u1, u2, s, np.empty((2, 2, 257)))
        backward = fd_oracle._rk4_step_deltas(u2, u1, u0, -s, np.empty((2, 2, 257)))
        (d00, d01), (d10, d11) = forward
        assert np.array_equal(backward, np.array([[d11, -d01], [-d10, d00]]))


def _sequential_march(fam, k, energy, half_width, n_steps):
    """Reference: the classical RK4 march one step at a time on complex scalars."""
    zs = np.linspace(half_width, -half_width, 2 * n_steps + 1)
    v_shift = (potential_values(fam.tanh_poly(), zs) - energy).tolist()
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


def _march_amplitudes(fam, k, half_width, n_steps):
    """(A, B) of the coarse march (n_steps) and of the fine one (2 n_steps)."""
    energy = k * k + float(fam.tanh_poly()(1))
    total = fd_oracle._march(fam.tanh_poly(), energy, half_width, n_steps)
    return [fd_oracle._amplitudes(p, k, half_width)
            for p in np.moveaxis(total, -1, 0).tolist()]


def _assert_same_probabilities(ab, ab_ref):
    (a, b), (a_ref, b_ref) = ab, ab_ref
    assert abs(abs(b) ** 2 / abs(a) ** 2 - abs(b_ref) ** 2 / abs(a_ref) ** 2) <= 1e-12
    assert abs(1.0 / abs(a) ** 2 - 1.0 / abs(a_ref) ** 2) <= 1e-12


MARCH_FAMILIES = [(PoschlTeller(Fraction(3, 2)), 1.0), (PoschlTeller(2), 0.5),
                  (RosenMorseII(Fraction(5, 2), 0), 2.0)]


# n_steps is the coarse march's step count; the fine march takes twice as
# many, in blocks of MARCH_BLOCK fine steps.  4097 is one block with an odd
# number of coarse steps; MARCH_BLOCK + 1 ends in a one-step block (two fine
# steps); 2 * MARCH_BLOCK + 3 ends in a short block of three coarse steps;
# 40001 crosses four block boundaries and ends in a short odd block
@pytest.mark.parametrize("n_steps", [4097, fd_oracle.MARCH_BLOCK + 1,
                                     2 * fd_oracle.MARCH_BLOCK + 3, 40001])
@pytest.mark.parametrize("fam,k", MARCH_FAMILIES)
def test_step_matrix_march_matches_sequential_rk4(fam, k, n_steps):
    energy = k * k + float(fam.tanh_poly()(1))
    coarse, fine = _march_amplitudes(fam, k, 20.0, n_steps)
    assert all(isinstance(x, complex) for x in (*coarse, *fine))
    _assert_same_probabilities(coarse, _sequential_march(fam, k, energy, 20.0, n_steps))
    _assert_same_probabilities(fine, _sequential_march(fam, k, energy, 20.0, 2 * n_steps))


@pytest.mark.parametrize("block", [2, 6, 8])
@pytest.mark.parametrize("n_steps", [3, 7, 12])
def test_march_in_small_blocks_matches_sequential_rk4(block, n_steps, monkeypatch):
    # block = 2: every block is a one-step block; 6: blocks of three coarse
    # steps, odd; a march whose fine steps are no multiple of the block ends short
    monkeypatch.setattr(fd_oracle, "MARCH_BLOCK", block)
    fam, k = PoschlTeller(Fraction(3, 2)), 1.0
    coarse, fine = _march_amplitudes(fam, k, 20.0, n_steps)
    energy = k * k
    _assert_same_probabilities(coarse, _sequential_march(fam, k, energy, 20.0, n_steps))
    _assert_same_probabilities(fine, _sequential_march(fam, k, energy, 20.0, 2 * n_steps))


@pytest.mark.parametrize("fam,k", MARCH_FAMILIES)
def test_coarse_march_on_every_other_fine_point(fam, k):
    # the coarse march reads 4 u = 4 s_f^2 (V - E) on every other point of the
    # fine march's lattice; s_c = 2 s_f exactly, so that is s_c^2 (V - E) to
    # the bit, and those points differ from a directly spaced coarse lattice
    # by rounding only
    energy = k * k + float(fam.tanh_poly()(1))
    n_steps = 40000
    s_f = -2.0 * 20.0 / (2 * n_steps)
    s_c = -2.0 * 20.0 / n_steps
    assert s_c == 2.0 * s_f
    v = potential_values(fam.tanh_poly(), np.linspace(20.0, -20.0, 4 * n_steps + 1))[::2] - energy
    assert np.array_equal(4.0 * (s_f * s_f * v), s_c * s_c * v)
    coarse, _fine = _march_amplitudes(fam, k, 20.0, n_steps)
    lattice = np.linspace(20.0, -20.0, 2 * n_steps + 1)
    u = s_c * s_c * (potential_values(fam.tanh_poly(), lattice) - energy)
    direct = fd_oracle._ordered_product_delta(fd_oracle._rk4_step_deltas(
        u[0:-1:2], u[1::2], u[2::2], s_c, np.empty((2, 2, n_steps))))
    _assert_same_probabilities(coarse, fd_oracle._amplitudes(direct.tolist(), k, 20.0))


def test_ordered_product_delta_matches_matrix_product():
    # odd lengths carry a matrix up unchanged at some level of the tree
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 13):
        d = rng.normal(scale=0.1, size=(2, 2, 3, n))  # three columns
        got = fd_oracle._ordered_product_delta(d)
        assert got.shape == (2, 2, 3)
        for col in range(3):
            expected = np.eye(2)
            for j in range(n):
                expected = (np.eye(2) + d[:, :, col, j]) @ expected
            assert np.allclose(got[:, :, col], expected - np.eye(2), rtol=0.0, atol=1e-14)
        # a column reduced alone gives the same bits as in the stack
        assert np.array_equal(fd_oracle._ordered_product_delta(d[:, :, 1]), got[:, :, 1])


def test_scattering_reports_its_diagnostics(potential_calls):
    fam = PoschlTeller(Fraction(3, 2))
    res = scattering_amplitudes(fam, 1.0, 20.0, 1e-2)
    # the half of one fine half-step lattice from L to 0 for both marches and
    # the tail check at L, and the other end, -L, for the tail check
    assert sum(len(z) for z, _v in potential_calls) == 2 * 4000 + 1 + 1
    assert res.rk4_steps == (4000, 8000)
    assert res.step == 5e-3
    assert 0.0 < res.step_halving_drift <= fd_oracle.STEP_HALVING_TOL
    assert all(type(x) is float for x in (res.r2, res.t2, res.flux_defect,
                                           res.step_halving_drift))
    (a, b), _fine = _march_amplitudes(fam, 1.0, 20.0, 4000)
    assert res.step_halving_drift == abs(res.r2 - abs(b) ** 2 / abs(a) ** 2)


# 40000 and 4000 are the coarse step counts of steps 1e-3 and 1e-2; on 77
# steps, odd, j dz + L misses 0 at the last point of the half lattice
@pytest.mark.parametrize("n_steps", [40000, 4000, 77])
def test_march_evaluates_each_lattice_point_once(n_steps, potential_calls):
    # after the lone end point -L, the blocks' lattices together are the half
    # np.linspace(L, -L, 4 n + 1)[:2 n + 1] with its last point exactly 0.0,
    # each point once, bit for bit, and no call is larger than one block's lattice
    v = PoschlTeller(Fraction(3, 2)).tanh_poly()
    fd_oracle._march(v, 1.0, 20.0, n_steps)
    (far, _v_far), *calls = potential_calls
    assert np.array_equal(far, [-20.0])
    lattice = np.linspace(20.0, -20.0, 4 * n_steps + 1)[:2 * n_steps + 1]
    lattice[-1] = 0.0
    assert max(len(z) for z, _v in calls) <= 2 * fd_oracle.MARCH_BLOCK + 1
    assert np.array_equal(np.concatenate([z for z, _v in calls]), lattice)
    assert np.array_equal(np.concatenate([vz for _z, vz in calls]),
                          potential_values(v, lattice))


class _UndecayedAtOneEnd:
    """A well that is even and has tails 0: its tanh_poly() is zero."""

    def tanh_poly(self):
        return TanhPoly.zero()


@pytest.mark.parametrize("bad_end", [1, -1])
def test_decay_checked_at_both_ends(bad_end, monkeypatch):
    # V = 0 inside |z| <= 19 but 1e-3 past 19 at one end: the evenness guard
    # lets the well through, and only the decay check can stop it.  -L is
    # evaluated on its own, +L on the first block's lattice, and both are
    # checked before any block is marched: two potential_values calls
    calls = []

    def undecayed(v, z):
        calls.append(z)
        return np.where(np.sign(z) == bad_end, 1e-3, 0.0) * (np.abs(z) > 19.0)

    monkeypatch.setattr(fd_oracle, "potential_values", undecayed)
    with pytest.raises(NumericalError, match=r"has not decayed at \|z\| = 20.0: "
                                             r"\|V - V_inf\| = 1\.000e-03"):
        scattering_amplitudes(_UndecayedAtOneEnd(), 1.0, 20.0, 1e-3)
    assert len(calls) == 2


# R^2, T^2, flux defect and step-halving drift of the twelve `verify scatter`
# cases (half width 20, step 1e-3), as the march on four flat arrays of
# M - I gave them; the march in blocks moves them by rounding only
VERIFY_SCATTER_PINS = [
    ("1", 0.5, 6.040486677576128e-30, 1.0000000000000002, -2.220446049250313e-16,
     6.428476820452596e-28),
    ("1", 1.0, 2.411264290372817e-31, 0.9999999999999987, 1.3322676295501878e-15,
     6.441157143206463e-29),
    ("1", 2.0, 4.938084377408865e-31, 0.9999999999999987, 1.3322676295501878e-15,
     1.025365102391827e-30),
    ("2", 0.5, 7.870150939623113e-28, 1.0, 0.0, 2.105101487414647e-25),
    ("2", 1.0, 6.983884201534769e-29, 0.9999999999999996, 4.440892098500626e-16,
     1.8816076904271898e-26),
    ("2", 2.0, 2.7887465594727175e-30, 1.0, 0.0, 3.7649696334036967e-28),
    ("3", 0.5, 2.1212057592384923e-26, 1.0000000000000007, -6.661338147750939e-16,
     5.378722735795502e-24),
    ("3", 1.0, 1.3042836695417698e-27, 1.0000000000000007, -6.661338147750939e-16,
     3.195918741187531e-25),
    ("3", 2.0, 1.482195685200422e-30, 1.0000000000000036, -3.552713678800501e-15,
     2.453147874059675e-27),
    ("1/2", 1.0, 0.007441950142796117, 0.9925580498572055, -1.5543122344752192e-15,
     4.380176776841438e-16),
    ("3/2", 1.0, 0.007441950142796423, 0.9925580498572046, -1.1102230246251565e-15,
     2.86316109709972e-15),
    ("5/2", 1.0, 0.0074419501427960884, 0.9925580498572042, -2.220446049250313e-16,
     6.019490461639521e-16),
]


@pytest.mark.parametrize("depth,k,r2,t2,flux_defect,drift", VERIFY_SCATTER_PINS)
def test_verify_scatter_cases_stay_pinned(depth, k, r2, t2, flux_defect, drift):
    res = scattering_amplitudes(PoschlTeller(Fraction(depth)), k, 20.0, 1e-3)
    got = (res.r2, res.t2, res.flux_defect, res.step_halving_drift)
    assert all(abs(x - pin) <= 1e-13 for x, pin in zip(got, (r2, t2, flux_defect, drift)))
