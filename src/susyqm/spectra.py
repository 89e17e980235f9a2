"""Closed forms built on the wells of potentials.

The family classes in potentials own each well's admissibility, levels and
energies.  This module holds the tanh-tilted eigenfunction, the
ultraspherical reduction to the sech well and the zero-energy residual of the
log-deformed family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .coordinate_maps import GAMMA_SWITCH, w_of_z
from .orthopoly import jacobi_poly, jacobi_values
from .tanh_algebra import HypWave, as_fraction

if TYPE_CHECKING:  # potentials imports this module, and fd_oracle imports potentials
    from .fd_oracle import Grid
    from .potentials import RosenMorseII

__all__ = [
    "GegenbauerReduction", "rosen_morse_eigenfunction", "gegenbauer_spectrum",
    "check_deformed", "gamma_deformed_residual",
]


@dataclass(frozen=True)
class GegenbauerReduction:
    """Sech well n' = p + q - 1/2 seen by the ultraspherical family, and the exact
    energy of its target level n = p."""

    n_prime: Fraction
    m_prime: Fraction
    target_energy: Fraction
    reflectionless: bool


def rosen_morse_eigenfunction(fam: RosenMorseII, n: int) -> HypWave:
    """Closed-form level n of the tanh-tilted well fam (unnormalized).

    With s = n' - n, r = B/s and t = tanh z the wave is
    (1-t)^((s-r)/2) (1+t)^((s+r)/2) P_n^(s-r, s+r)(t), whose symbolic residual
    against V vanishes identically at E_n (the decay rates s -+ r match the two
    asymptotes); admission requires both exponents positive, i.e.
    fam.has_state(n).
    """
    n = int(n)
    if not fam.has_state(n):
        raise ValueError(
            f"level n = {n} is not a bound state of (n', B) = ({fam.n_prime}, {fam.B})"
        )
    s = fam.n_prime - n
    r = fam.B / s
    return HypWave((s - r) / 2, (s + r) / 2, jacobi_poly(n, s - r, s + r))


def gegenbauer_spectrum(p: int, q) -> GegenbauerReduction:
    """Sech-well tower for the degree-p ultraspherical family with parameter q.

    The well depth is n' = p + q - 1/2 and the distinguished level n = p has
    E = -(q - 1/2)^2; it exists only when q > 1/2.  The well is reflectionless
    exactly when n' is an integer, i.e. when q is half-integer.
    """
    p = int(p)
    if p < 0:
        raise ValueError("degree must be nonnegative")
    qf = as_fraction(q)
    if qf <= Fraction(1, 2):
        raise ValueError(f"need q > 1/2 for a decaying target state, got {qf}")
    m_prime = qf - Fraction(1, 2)
    n_prime = p + m_prime
    return GegenbauerReduction(
        n_prime=n_prime,
        m_prime=m_prime,
        target_energy=-(m_prime ** 2),
        reflectionless=(n_prime.denominator == 1),
    )


def check_deformed(alpha: float, beta: float, n: int, grid: Grid | None = None) -> None:
    """Raise ValueError unless gamma_deformed_residual can take these inputs.

    alpha and beta must be finite and > -1 and n >= 0; a grid, if given, needs
    the 7 points of the five-point stencil and must lie inside the chart
    gamma z + 1 > 0, which it does when its two ends do.
    """
    if n < 0:
        raise ValueError("level index must be nonnegative")
    if not (-1.0 < alpha < math.inf and -1.0 < beta < math.inf):
        raise ValueError(f"need finite alpha, beta > -1, got {alpha!r} and {beta!r}")
    if grid is not None:
        if grid.points < 7:
            raise ValueError("need at least 7 grid points for the five-point stencil")
        w_of_z(beta - alpha, np.array([grid.z_min, grid.z_max]))


def gamma_deformed_residual(alpha: float, beta: float, n: int, grid: Grid) -> float:
    """Sup-norm of the zero-energy equation applied to the deformed candidate.

    With gamma = beta - alpha, m = (alpha + beta)/2, n' = n + m and
    w = ln(gamma z + 1)/gamma, the candidate

        v_n(z) = (1 - tanh^2 w)^((alpha+beta)/4) * P_n^(alpha,beta)(-tanh w)

    must satisfy v'' + [n'(n'+1) sech^2 w - m^2 - gamma m tanh w] v/(gamma z + 1)^2 = 0.
    The second derivative is a five-point centered stencil on the supplied
    grid (O(h^4), so the certification is not limited by stencil truncation),
    and a small return value certifies the closed-form claim numerically.  A
    residual that is not finite raises FloatingPointError, and a spacing whose
    h^2 is past the double range raises the grid's NumericalError.
    """
    alpha = float(alpha)
    beta = float(beta)
    n = int(n)
    check_deformed(alpha, beta, n, grid)
    gamma = beta - alpha
    m = 0.5 * (alpha + beta)
    n_prime = n + m

    zs = grid.zs()
    w = w_of_z(gamma, zs)
    # (gamma z + 1)^2 at the stencil centres; 1 on the gamma = 0 branch, where w = z
    u2 = (gamma * zs[2:-2] + 1.0) ** 2 if abs(gamma) >= GAMMA_SWITCH else 1.0
    tw = np.tanh(w)
    sech2 = 1.0 / np.cosh(w) ** 2
    v = sech2 ** (0.25 * (alpha + beta)) * jacobi_values(n, alpha, beta, -tw)
    bracket = (n_prime * (n_prime + 1.0)) * sech2 - m * m - gamma * m * tw
    vpp = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (12.0 * grid.h2)
    resid = float(np.max(np.abs(vpp + bracket[2:-2] * v[2:-2] / u2)))
    # an overflow leaves NaN or inf, which must not pass or fail a check as a
    # number; an ArithmeticError needs no import of fd_oracle's NumericalError
    if not math.isfinite(resid):
        raise FloatingPointError(f"the zero-energy residual is not finite ({resid})")
    return resid
