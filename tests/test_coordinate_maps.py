import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from susyqm import (
    ChartDomainError, chart_grid, chart_interval, first_derivative_coefficient,
    theta_of_z, w_of_z, z_of_theta,
)

GAMMAS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def test_theta_examples():
    assert theta_of_z(0.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert theta_of_z(2.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert theta_of_z(2.0, 1.5) == pytest.approx(2.0 * math.atan(2.0), abs=1e-14)


def test_z_of_theta_examples():
    assert z_of_theta(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert z_of_theta(1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert z_of_theta(2.0, 2.0 * math.atan(2.0)) == pytest.approx(1.5, abs=1e-12)


def test_w_examples():
    assert w_of_z(1.0, math.e - 1.0) == pytest.approx(1.0, abs=1e-14)
    assert w_of_z(0.0, 0.7) == 0.7
    w = w_of_z(2.0, 1.5)
    assert w == pytest.approx(math.log(2.0), abs=1e-14)
    # sech(ln 2) = 0.8 = sin(2 arctan 2)
    assert 1.0 / math.cosh(w) == pytest.approx(math.sin(theta_of_z(2.0, 1.5)), abs=1e-12)


def test_chart_domain_errors():
    with pytest.raises(ChartDomainError):
        theta_of_z(2.0, -0.5)  # gamma z + 1 = 0
    with pytest.raises(ChartDomainError):
        w_of_z(-1.0, 1.5)
    with pytest.raises(ChartDomainError):
        z_of_theta(1.0, 0.0)
    with pytest.raises(ChartDomainError):
        z_of_theta(1.0, math.pi)


def test_chart_interval():
    assert chart_interval(0.0) == (-math.inf, math.inf)
    lo, hi = chart_interval(2.0)
    assert lo == -0.5 and hi == math.inf
    lo, hi = chart_interval(-0.5)
    assert lo == -math.inf and hi == 2.0


def test_chart_grid_insets_singular_edge():
    zg = chart_grid(2.0, -10.0, 3.0, 500)
    assert zg[0] > -0.5
    assert zg[-1] == 3.0
    with pytest.raises(ChartDomainError):
        chart_grid(2.0, -10.0, -0.6, 100)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_roundtrip_on_chart_grid(gamma):
    zg = chart_grid(gamma, -6.0, 6.0, 1000, margin_scale=1e-3)
    worst = max(abs(z_of_theta(gamma, theta_of_z(gamma, z)) - z) for z in zg)
    assert worst <= 1e-12


@pytest.mark.parametrize("gamma", GAMMAS)
def test_monotone_increasing(gamma):
    zg = chart_grid(gamma, -6.0, 6.0, 1000, margin_scale=1e-3)
    thetas = [theta_of_z(gamma, z) for z in zg]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))
    assert all(0.0 < th < math.pi for th in thetas)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_map_point_invariants(gamma):
    for z in chart_grid(gamma, -5.0, 5.0, 37, margin_scale=2e-2):
        theta, w = theta_of_z(gamma, z), w_of_z(gamma, z)
        assert abs(math.sin(theta) - 1.0 / math.cosh(w)) <= 1e-12
        assert abs(math.cos(theta) + math.tanh(w)) <= 1e-12
        assert abs(math.sin(theta) * math.cosh(w) - 1.0) <= 1e-12


def test_small_gamma_limit_consistency():
    for z in np.linspace(-3.0, 3.0, 61):
        assert abs(theta_of_z(1e-8, z) - theta_of_z(0.0, z)) <= 1e-6
    # just above the branch switch the general formula must agree too
    for z in np.linspace(-3.0, 3.0, 61):
        assert abs(theta_of_z(2e-7, z) - theta_of_z(0.0, z)) <= 1e-6


def test_origin_is_fixed_point_of_all_branches():
    # the integration constant is chosen so z(pi/2) = 0 for every gamma
    for gamma in GAMMAS:
        assert abs(z_of_theta(gamma, math.pi / 2)) <= 1e-15


def test_first_derivative_elimination_examples():
    assert abs(first_derivative_coefficient(0.0, 0.3)) <= 1e-10
    assert abs(first_derivative_coefficient(1.5, 0.2)) <= 1e-10
    assert abs(first_derivative_coefficient(0.0, 0.0)) <= 1e-12  # symmetric point


@pytest.mark.parametrize("gamma", GAMMAS)
def test_first_derivative_elimination_mid_chart(gamma):
    pts = [z for z in np.linspace(-3.0, 3.0, 13) if gamma * z + 1.0 > 0.3]
    assert max(abs(first_derivative_coefficient(gamma, z)) for z in pts) <= 1e-10


@given(gamma=st.floats(-2.0, 2.0), x=st.floats(0.01, 0.99))
@example(gamma=2.0 ** -23, x=0.78125)  # just above GAMMA_SWITCH
@settings(max_examples=80)
def test_roundtrip_property(gamma, x):
    lo, hi = chart_interval(gamma)
    lo = max(lo, -6.0) + 0.05
    hi = min(hi, 6.0) - 0.05
    z = lo + x * (hi - lo)
    assert abs(z_of_theta(gamma, theta_of_z(gamma, z)) - z) <= 1e-10 * max(1.0, abs(z))


@pytest.mark.parametrize("gamma", GAMMAS + (1e-8,))
def test_arrays_give_the_pointwise_values(gamma):
    zg = chart_grid(gamma, -6.0, 6.0, 200, margin_scale=1e-3)
    thetas = theta_of_z(gamma, zg)
    for fn, xs, ys in ((theta_of_z, zg, thetas), (w_of_z, zg, w_of_z(gamma, zg)),
                       (z_of_theta, thetas, z_of_theta(gamma, thetas))):
        np.testing.assert_array_max_ulp(ys, [fn(gamma, float(x)) for x in xs], maxulp=2)
    zs = np.linspace(-3.0, 3.0, 13)
    zs = zs[gamma * zs + 1.0 > 0.3]
    np.testing.assert_allclose(first_derivative_coefficient(gamma, zs),
                               [first_derivative_coefficient(gamma, float(z)) for z in zs],
                               rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_complex_step_gives_the_closed_form_derivative(gamma):
    # d theta/dz = sech(w) dw/dz = sech(w) / (gamma z + 1)
    zg = chart_grid(gamma, -6.0, 6.0, 500, margin_scale=1e-3)
    step = theta_of_z(gamma, zg + 1e-20j).imag / 1e-20
    exact = 1.0 / (np.cosh(w_of_z(gamma, zg)) * (gamma * zg + 1.0))
    np.testing.assert_allclose(step, exact, rtol=1e-14, atol=0.0)


def test_chart_error_names_the_first_point_off_the_chart():
    with pytest.raises(ChartDomainError, match=r"^z = -0\.6 is outside the chart") as info:
        w_of_z(2.0, np.array([0.0, -0.6, -1.0, 3.0]))
    assert "\n" not in str(info.value)
    with pytest.raises(ChartDomainError, match=r"^z = nan is outside the chart"):
        theta_of_z(1.0, math.nan)
    with pytest.raises(ChartDomainError, match=r"^z = \(-1\.5\+1e-20j\) is outside"):
        theta_of_z(1.0, np.array([0.5 + 1e-20j, -1.5 + 1e-20j]))
    with pytest.raises(ChartDomainError, match=r"^theta = 0\.0 is not inside \(0, pi\)$"):
        z_of_theta(0.5, np.array([1.0, 0.0, 2.0]))
