"""Closed-form spectra and eigenfunctions for the three solvable families.

Level energies:

  sech well (depth l):     E_n = -(l - n)^2 for n = 0 .. ceil(l) - 1, plus a
                           zero-energy threshold level n = l when l is a positive integer
                           (bounded but non-normalizable, never counted as bound).
  tanh-tilted well:        E_n = n'(n'+1) - (n'-n)^2 - B^2/(n'-n)^2 on levels
                           with n < n' and (n'-n)^2 > |B| (both decay exponents
                           positive); always below the edge n'(n'+1) - 2|B|.
  ultraspherical tower:    delegates to the sech well with n' = p + q - 1/2;
                           level n = p carries E = -(q - 1/2)^2.

Eigenfunctions of the tanh-tilted well, with s = n' - n and r = B/s:

  v_n = (1-t)^((s-r)/2) (1+t)^((s+r)/2) P_n^(s-r, s+r)(t),  t = tanh z,

which makes the symbolic residual against V = n'(n'+1) tanh^2 z - 2B tanh z
vanish identically at E_n (the decay rates s -+ r match the two asymptotes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .coordinate_maps import ChartDomainError, GAMMA_SWITCH
from .orthopoly import jacobi_poly, jacobi_values
from .tanh_algebra import HypWave, as_fraction

if TYPE_CHECKING:  # fd_oracle imports potentials, which imports this module
    from .fd_oracle import Grid

__all__ = [
    "GegenbauerReduction", "poschl_teller_energy", "poschl_teller_levels",
    "rosen_morse_energy", "rosen_morse_levels", "rosen_morse_eigenfunction",
    "gegenbauer_spectrum", "gamma_deformed_residual",
]


@dataclass(frozen=True)
class GegenbauerReduction:
    """Sech well n' = p + q - 1/2 seen by the ultraspherical family, and the exact
    energy of its target level n = p."""

    n_prime: Fraction
    m_prime: Fraction
    target_energy: Fraction
    reflectionless: bool


def poschl_teller_energy(l, n: int) -> Fraction:
    """Exact E_n = -(l - n)^2 of the depth-l sech well."""
    lf = as_fraction(l)
    return -((lf - n) ** 2)


def poschl_teller_levels(l) -> range:
    """Bound level indices n = 0 .. ceil(l) - 1 of the depth-l sech well."""
    return range(math.ceil(as_fraction(l)))


def _validated_rm(n_prime, B) -> tuple[Fraction, Fraction]:
    np_ = as_fraction(n_prime)
    bf = as_fraction(B)
    if np_ <= 0:
        raise ValueError(f"n' must be positive, got {np_}")
    if abs(bf) >= np_ ** 2:
        raise ValueError(f"|B| = {abs(bf)} must be below n'^2 = {np_ ** 2}")
    return np_, bf


def rosen_morse_energy(n_prime, B, n: int) -> Fraction:
    """Exact E_n = n'(n'+1) - (n'-n)^2 - B^2/(n'-n)^2 of the tanh-tilted well."""
    np_ = as_fraction(n_prime)
    bf = as_fraction(B)
    s = np_ - n
    return np_ * (np_ + 1) - s * s - bf * bf / (s * s)


def rosen_morse_levels(n_prime, B) -> range:
    """Admitted level indices: n < n' and (n'-n)^2 > |B| (normalizable decay).

    (n'-n)^2 falls as n rises to n', so the admitted levels are 0 .. count - 1;
    count is found by bisection, without listing the levels.
    """
    np_, bf = _validated_rm(n_prime, B)
    lo, hi = 0, math.ceil(np_)  # level lo is admitted (|B| < n'^2); level hi is not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (np_ - mid) ** 2 > abs(bf):
            lo = mid
        else:
            hi = mid
    return range(hi)


def rosen_morse_eigenfunction(n_prime, B, n: int) -> HypWave:
    """Closed-form level n of the tanh-tilted well (unnormalized).

    With s = n' - n and r = B/s the wave is
    (1-t)^((s-r)/2) (1+t)^((s+r)/2) P_n^(s-r, s+r)(t); admission requires both
    exponents positive, i.e. (n'-n)^2 > |B|.
    """
    np_, bf = _validated_rm(n_prime, B)
    n = int(n)
    if n not in rosen_morse_levels(np_, bf):
        raise ValueError(
            f"level n = {n} is not a bound state of (n', B) = ({np_}, {bf})"
        )
    s = np_ - n
    r = bf / s
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
    n_prime = p + qf - Fraction(1, 2)
    return GegenbauerReduction(
        n_prime=n_prime,
        m_prime=qf - Fraction(1, 2),
        target_energy=poschl_teller_energy(n_prime, p),
        reflectionless=(n_prime.denominator == 1),
    )


def gamma_deformed_residual(alpha: float, beta: float, n: int, grid: Grid) -> float:
    """Sup-norm of the zero-energy equation applied to the deformed candidate.

    With gamma = beta - alpha, m = (alpha + beta)/2, n' = n + m and
    w = ln(gamma z + 1)/gamma, the candidate

        v_n(z) = (1 - tanh^2 w)^((alpha+beta)/4) * P_n^(alpha,beta)(-tanh w)

    must satisfy v'' + [n'(n'+1) sech^2 w - m^2 - gamma m tanh w] v/(gamma z + 1)^2 = 0.
    The second derivative is a five-point centered stencil on the supplied
    grid (O(h^4), so the certification is not limited by stencil truncation),
    and a small return value certifies the closed-form claim numerically.
    """
    alpha = float(alpha)
    beta = float(beta)
    n = int(n)
    if n < 0:
        raise ValueError("level index must be nonnegative")
    if alpha <= -1 or beta <= -1:
        raise ValueError("need alpha, beta > -1")
    if grid.points < 7:
        raise ValueError("need at least 7 grid points for the five-point stencil")
    gamma = beta - alpha
    m = 0.5 * (alpha + beta)
    n_prime = n + m

    zs = grid.zs()
    if abs(gamma) >= GAMMA_SWITCH:
        u = gamma * zs + 1.0
        if np.min(u) <= 0.0:
            raise ChartDomainError(
                f"grid touches the singular point z = {-1.0 / gamma}: "
                f"min(gamma*z + 1) = {np.min(u)}"
            )
        w = np.log1p(gamma * zs) / gamma
        u2 = u * u
    else:
        w = zs
        u2 = np.ones_like(zs)

    tw = np.tanh(w)
    sech2 = 1.0 / np.cosh(w) ** 2
    v = sech2 ** (0.25 * (alpha + beta)) * jacobi_values(n, alpha, beta, -tw)
    bracket = (n_prime * (n_prime + 1.0)) * sech2 - m * m - gamma * m * tw
    h2 = grid.h ** 2
    vpp = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (12.0 * h2)
    resid = vpp + bracket[2:-2] * v[2:-2] / u2[2:-2]
    return float(np.max(np.abs(resid)))
