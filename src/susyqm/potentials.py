"""Potential families shared by the exact algebra, the spectra and the grid oracles.

Sign conventions, fixed once for the whole package (c = hbar/sqrt(2m) = 1):

  sech well          V(z) = -l(l+1) sech^2 z                         (continuum edge 0)
  tanh-tilted well   V(z) = n'(n'+1) tanh^2 z - 2B tanh z            (edges n'(n'+1) -+ 2B)

Both wells are shape invariant and answer to one interface: tanh_poly() is V
as a polynomial P in t = tanh z, levels(), energy(n) and eigenfunction(n) the
closed forms of its bound states, has_state(n) whether eigenfunction(n)
exists, threshold_level the zero-energy edge state of an integer-depth sech
well, and fd_ceiling the energy below which the finite-difference oracle
counts bound levels.  V(z) = P(tanh z) is evaluated only by
potential_values; the tails are P(-1) and P(1), continuum_edge the lower.
The numeric oracles of fd_oracle take P alone, never a well.  Each class is
the only home of its well's admissibility, levels and exact energies.
The log-deformed zero-energy family has no level-independent potential, so it
is no family here; spectra.gamma_deformed_residual verifies it level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import spectra
from .tanh_algebra import HypWave, TanhPoly, as_fraction, ladder_chain


class _TanhWell:
    """What a well derives from its tanh_poly()."""

    @property
    def continuum_edge(self) -> float:
        """min(P(-1), P(1)), the lower tail, rounded once from the exact Fractions."""
        v = self.tanh_poly()
        return float(min(v(-1), v(1)))


@dataclass(frozen=True)
class PoschlTeller(_TanhWell):
    """Attractive sech^2 well with depth parameter l: V = -l(l+1) sech^2 z."""

    l: Fraction

    def __post_init__(self):
        object.__setattr__(self, "l", as_fraction(self.l))
        if self.l < 0:
            raise ValueError(f"depth parameter must be >= 0, got {self.l}")

    def tanh_poly(self) -> TanhPoly:
        c = self.l * (self.l + 1)
        return TanhPoly((-c, 0, c))  # -l(l+1)(1 - t^2)

    @property
    def fd_ceiling(self) -> float:
        return -1e-6

    def levels(self) -> range:
        """Bound level indices n = 0 .. ceil(l) - 1."""
        return range(math.ceil(self.l))

    def has_state(self, n: int) -> bool:
        """Whether eigenfunction(n) exists: a bound level or the threshold state."""
        return 0 <= n <= self.l

    @property
    def threshold_level(self) -> int | None:
        """Level n = l of the zero-energy edge state: bounded but not normalizable,
        so never among levels(); it exists only for a positive integer l."""
        return int(self.l) if self.l > 0 and self.l.denominator == 1 else None

    def energy(self, n: int) -> Fraction:
        """Exact E_n = -(l - n)^2."""
        return -((self.l - n) ** 2)

    def eigenfunction(self, n: int) -> HypWave:
        """Level n from the ladder chain; n = l is the integer-l threshold state."""
        return ladder_chain(self.l, n)


@dataclass(frozen=True)
class RosenMorseII(_TanhWell):
    """Shape-invariant well V = n'(n'+1) tanh^2 z - 2B tanh z, |B| < n'^2."""

    n_prime: Fraction
    B: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "n_prime", as_fraction(self.n_prime))
        object.__setattr__(self, "B", as_fraction(self.B))
        if self.n_prime <= 0:
            raise ValueError(f"n' must be positive, got {self.n_prime}")
        if abs(self.B) >= self.n_prime ** 2:
            raise ValueError(
                f"|B| = {abs(self.B)} must be below n'^2 = {self.n_prime ** 2} "
                "for the well to hold bound states"
            )

    def tanh_poly(self) -> TanhPoly:
        c = self.n_prime * (self.n_prime + 1)
        return TanhPoly((0, -2 * self.B, c))

    @property
    def fd_ceiling(self) -> float:
        return self.continuum_edge - 1e-9

    def levels(self) -> range:
        """Admitted level indices: n < n' and (n'-n)^2 > |B| (normalizable decay).

        (n'-n)^2 falls as n rises to n', so the admitted levels are 0 .. count - 1;
        count is found by bisection, without listing the levels.
        """
        lo, hi = 0, math.ceil(self.n_prime)  # level lo is admitted (|B| < n'^2); hi is not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.has_state(mid):
                lo = mid
            else:
                hi = mid
        return range(hi)

    def has_state(self, n: int) -> bool:
        """Whether n is in levels(), without the bisection: 0 <= n < n' and (n'-n)^2 > |B|."""
        return 0 <= n < self.n_prime and (self.n_prime - n) ** 2 > abs(self.B)

    @property
    def threshold_level(self) -> None:
        return None

    def energy(self, n: int) -> Fraction:
        """Exact E_n = n'(n'+1) - (n'-n)^2 - B^2/(n'-n)^2."""
        s = self.n_prime - n
        return self.n_prime * (self.n_prime + 1) - s * s - self.B * self.B / (s * s)

    def eigenfunction(self, n: int) -> HypWave:
        return spectra.rosen_morse_eigenfunction(self, n)


def potential_values(v: TanhPoly, z: np.ndarray) -> np.ndarray:
    """V(z) = P(tanh z) on given points, for a polynomial P such as a well's tanh_poly()."""
    return v.values(np.tanh(z))
