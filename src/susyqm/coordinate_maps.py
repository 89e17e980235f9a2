"""Angle-to-line coordinate maps that remove the first-derivative term.

theta in (0, pi) is mapped to z on (part of) the real line by

    theta = 2 arctan(e^z)                      gamma = 0   (Gudermannian branch)
    theta = 2 arctan((gamma z + 1)^(1/gamma))  gamma != 0

with inverses z = ln tan(theta/2) and z = (tan^gamma(theta/2) - 1)/gamma.
Both choices kill the first-derivative coefficient of the transformed
angular equation and satisfy sin theta = sech w, cos theta = -tanh w with
w = ln(gamma z + 1)/gamma (w = z when gamma = 0), so theta = 2 arctan(e^w).

For gamma != 0 the map is only real on the chart gamma*z + 1 > 0; the
integration constant is chosen so that z(pi/2) = 0 on every branch.

Every function here is elementwise: z or theta may be a float or an array,
and z may be complex, which is how the complex step differentiates the map.
"""

from __future__ import annotations

import math

import numpy as np

# Below this |gamma| the general-power formulas lose precision while the
# Gudermannian limit is exact, so we switch branches.
GAMMA_SWITCH = 1e-7


class ChartDomainError(ValueError):
    """Requested point lies outside the real chart gamma*z + 1 > 0."""


def w_of_z(gamma: float, z):
    """w = ln(gamma z + 1)/gamma, the argument on which sech/tanh act; w = z at gamma = 0.

    Raises ChartDomainError unless Re(gamma z + 1) > 0 at every point.
    """
    gamma = float(gamma)
    if abs(gamma) < GAMMA_SWITCH:
        return z
    u = np.real(gamma * z + 1.0)
    off = np.logical_not(u > 0.0)
    if np.any(off):
        raise ChartDomainError(
            f"z = {np.extract(off, z)[0]} is outside the chart: "
            f"gamma*z + 1 = {np.extract(off, u)[0]} is not > 0 (gamma = {gamma})"
        )
    # log1p: log(gamma*z + 1) loses the digits of gamma*z when it is tiny
    return np.log1p(gamma * z) / gamma


def theta_of_z(gamma: float, z):
    """Map z to theta in (0, pi); strictly increasing on the chart."""
    return 2.0 * np.arctan(np.exp(w_of_z(gamma, z)))


def z_of_theta(gamma: float, theta):
    """Inverse of theta_of_z on theta in (0, pi)."""
    gamma = float(gamma)
    outside = np.logical_not(np.logical_and(0.0 < theta, theta < math.pi))
    if np.any(outside):
        raise ChartDomainError(f"theta = {np.extract(outside, theta)[0]} is not inside (0, pi)")
    log_tan_half = np.log(np.tan(0.5 * theta))
    if abs(gamma) < GAMMA_SWITCH:
        return log_tan_half
    # (tan^gamma(theta/2) - 1)/gamma, computed as expm1 for small exponents
    return np.expm1(gamma * log_tan_half) / gamma


def chart_interval(gamma: float) -> tuple[float, float]:
    """Open z-interval on which the map is real and monotone."""
    gamma = float(gamma)
    if abs(gamma) < GAMMA_SWITCH:
        return (-math.inf, math.inf)
    edge = -1.0 / gamma
    return (edge, math.inf) if gamma > 0 else (-math.inf, edge)


def chart_grid(gamma: float, z_min: float, z_max: float, points: int,
               margin_scale: float = 1e-6) -> np.ndarray:
    """Uniform grid on [z_min, z_max] clipped into the chart.

    The singular endpoint -1/gamma is inset by margin_scale*|1/gamma| so
    downstream evaluations stay finite.
    """
    gamma = float(gamma)
    if points < 2:
        raise ValueError("need at least two grid points")
    lo, hi = chart_interval(gamma)
    if abs(gamma) >= GAMMA_SWITCH:
        margin = margin_scale * abs(1.0 / gamma)
        lo = lo + margin if math.isfinite(lo) else lo
        hi = hi - margin if math.isfinite(hi) else hi
    z_min = max(float(z_min), lo)
    z_max = min(float(z_max), hi)
    if not z_min < z_max:
        raise ChartDomainError(
            f"requested range collapses after clipping to the chart ({lo}, {hi})"
        )
    return np.linspace(z_min, z_max, int(points))


def first_derivative_coefficient(gamma: float, z):
    """Residual of the first-derivative elimination condition, elementwise in z.

    The transformed equation keeps a first-derivative term with coefficient
    f' P(f) - f''/f', P(theta) = cot(theta) - gamma/sin(theta); a correct map
    makes it vanish.  f' is a complex step on theta_of_z itself,
    Im theta(z + 1e-20 i)/1e-20, and f'' a fourth-order stencil on those
    values with h = min(1e-4, 0.05 * distance to the chart edge) per point, so
    the check exercises the actual map rather than a separately derived
    formula.  The coefficient does not involve the eigenparameter m.

    Vanishes to ~1e-10 well inside the chart; for gamma > 1 the map has a
    fractional-power singularity at the chart edge, so the numerical check
    loses accuracy within a few percent of |1/gamma| of the edge.
    """
    gamma = float(gamma)
    theta = theta_of_z(gamma, z)
    lo, hi = chart_interval(gamma)
    h = np.minimum(1e-4, 0.05 * np.minimum(z - lo, hi - z))  # 1e-4 on unbounded sides

    def fprime(k):  # d theta/dz at z + k h
        return theta_of_z(gamma, z + k * h + 1e-20j).imag / 1e-20

    fp = fprime(0)
    fpp = (-fprime(2) + 8.0 * fprime(1) - 8.0 * fprime(-1) + fprime(-2)) / (12.0 * h)
    p_theta = (np.cos(theta) - gamma) / np.sin(theta)
    return fp * p_theta - fpp / fp
