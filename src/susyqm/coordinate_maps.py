"""Angle-to-line coordinate maps that remove the first-derivative term.

theta in (0, pi) is mapped to z on (part of) the real line by

    theta = 2 arctan(e^z)                      gamma = 0   (Gudermannian branch)
    theta = 2 arctan((gamma z + 1)^(1/gamma))  gamma != 0

with inverses z = ln tan(theta/2) and z = (tan^gamma(theta/2) - 1)/gamma.
Both choices kill the first-derivative coefficient of the transformed
angular equation and satisfy sin theta = sech w, cos theta = -tanh w with
w = ln(gamma z + 1)/gamma (w = z when gamma = 0).

For gamma != 0 the map is only real on the chart gamma*z + 1 > 0; the
integration constant is chosen so that z(pi/2) = 0 on every branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Below this |gamma| the general-power formulas lose precision while the
# Gudermannian limit is exact, so we switch branches.
GAMMA_SWITCH = 1e-7


class ChartDomainError(ValueError):
    """Requested point lies outside the real chart gamma*z + 1 > 0."""


@dataclass(frozen=True)
class MapPoint:
    """One mapped point; sin(theta) = sech(w) and cos(theta) = -tanh(w) hold."""

    z: float
    theta: float
    w: float


def _check_chart(gamma: float, z: float) -> float:
    u = gamma * z + 1.0
    if u <= 0.0:
        raise ChartDomainError(
            f"z = {z} is outside the chart: gamma*z + 1 = {u} <= 0 (gamma = {gamma})"
        )
    return u


def theta_of_z(gamma: float, z: float) -> float:
    """Map z to theta in (0, pi); strictly increasing on the chart."""
    gamma = float(gamma)
    z = float(z)
    if abs(gamma) < GAMMA_SWITCH:
        return 2.0 * math.atan(math.exp(z))
    _check_chart(gamma, z)
    # log1p: log(gamma*z + 1) loses the digits of gamma*z when it is tiny
    return 2.0 * math.atan(math.exp(math.log1p(gamma * z) / gamma))


def z_of_theta(gamma: float, theta: float) -> float:
    """Inverse of theta_of_z on theta in (0, pi)."""
    gamma = float(gamma)
    theta = float(theta)
    if not 0.0 < theta < math.pi:
        raise ChartDomainError(f"theta = {theta} is not inside (0, pi)")
    log_tan_half = math.log(math.tan(0.5 * theta))
    if abs(gamma) < GAMMA_SWITCH:
        return log_tan_half
    # (tan^gamma(theta/2) - 1)/gamma, computed as expm1 for small exponents
    return math.expm1(gamma * log_tan_half) / gamma


def w_of_z(gamma: float, z: float) -> float:
    """w = ln(gamma z + 1)/gamma, the argument on which sech/tanh act; w = z at gamma = 0."""
    gamma = float(gamma)
    z = float(z)
    if abs(gamma) < GAMMA_SWITCH:
        return z
    _check_chart(gamma, z)
    return math.log1p(gamma * z) / gamma


def map_point(gamma: float, z: float) -> MapPoint:
    return MapPoint(z=float(z), theta=theta_of_z(gamma, z), w=w_of_z(gamma, z))


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


def _theta_complex(gamma: float, z: complex) -> complex:
    """theta_of_z continued to complex z near the real chart (for derivatives)."""
    if abs(gamma) < GAMMA_SWITCH:
        return 2.0 * cmath.atan(cmath.exp(z))
    u = gamma * z + 1.0
    if u.real <= 0.0:
        raise ChartDomainError(f"complex evaluation left the chart at z = {z}")
    return 2.0 * cmath.atan(cmath.exp(cmath.log(u) / gamma))


def _theta_derivative(gamma: float, z: float) -> float:
    """d theta/dz by a complex step: exact to machine precision."""
    h = 1e-20
    return _theta_complex(gamma, complex(z, h)).imag / h


def first_derivative_coefficient(gamma: float, z: float) -> float:
    """Residual of the first-derivative elimination condition at z.

    The transformed equation keeps a first-derivative term with coefficient
    f' P(f) - f''/f', P(theta) = cot(theta) - gamma/sin(theta); a correct map
    makes it vanish.  f' is obtained by a complex step on the implemented map
    and f'' by a fourth-order stencil on those values, so the check exercises
    the actual map rather than a separately derived formula.  The coefficient
    does not involve the eigenparameter m.

    Vanishes to ~1e-10 well inside the chart; for gamma > 1 the map has a
    fractional-power singularity at the chart edge, so the numerical check
    loses accuracy within a few percent of |1/gamma| of the edge.
    """
    gamma = float(gamma)
    z = float(z)
    theta = theta_of_z(gamma, z)

    lo, hi = chart_interval(gamma)
    dist = min(z - lo, hi - z)  # inf on unbounded sides
    h = min(1e-4, 0.05 * dist) if math.isfinite(dist) else 1e-4

    fp = _theta_derivative(gamma, z)
    f_m2 = _theta_derivative(gamma, z - 2 * h)
    f_m1 = _theta_derivative(gamma, z - h)
    f_p1 = _theta_derivative(gamma, z + h)
    f_p2 = _theta_derivative(gamma, z + 2 * h)
    fpp = (-f_p2 + 8.0 * f_p1 - 8.0 * f_m1 + f_m2) / (12.0 * h)

    p_theta = (math.cos(theta) - gamma) / math.sin(theta)
    return fp * p_theta - fpp / fp
