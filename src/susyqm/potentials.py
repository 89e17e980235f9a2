"""Potential families shared by the exact algebra, the spectra and the grid oracles.

Sign conventions, fixed once for the whole package (c = hbar/sqrt(2m) = 1):

  sech well          V(z) = -l(l+1) sech^2 z                         (continuum edge 0)
  tanh-tilted well   V(z) = n'(n'+1) tanh^2 z - 2B tanh z            (edges n'(n'+1) -+ 2B)

Both wells are shape invariant and answer to one interface: tanh_poly() and
values() give V, asymptotes and continuum_edge its tails, levels(), energy(n)
and eigenfunction(n) the closed forms of its bound states, threshold_level the
zero-energy edge state of an integer-depth sech well, and fd_ceiling the
energy below which the finite-difference oracle counts bound levels.  The
log-deformed zero-energy family has no level-independent potential, so it is
no family here; spectra.gamma_deformed_residual verifies it level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import spectra
from .tanh_algebra import HypWave, TanhPoly, as_fraction, ladder_chain


@dataclass(frozen=True)
class PoschlTeller:
    """Attractive sech^2 well with depth parameter l: V = -l(l+1) sech^2 z."""

    l: Fraction

    def __post_init__(self):
        object.__setattr__(self, "l", as_fraction(self.l))
        if self.l < 0:
            raise ValueError(f"depth parameter must be >= 0, got {self.l}")

    def tanh_poly(self) -> TanhPoly:
        c = self.l * (self.l + 1)
        return TanhPoly((-c, 0, c))  # -l(l+1)(1 - t^2)

    def values(self, z: np.ndarray) -> np.ndarray:
        c = float(self.l * (self.l + 1))
        return -c / np.cosh(np.asarray(z, dtype=float)) ** 2

    @property
    def asymptotes(self) -> tuple[float, float]:
        return (0.0, 0.0)

    @property
    def continuum_edge(self) -> float:
        return 0.0

    @property
    def fd_ceiling(self) -> float:
        return -1e-6

    def levels(self) -> range:
        return spectra.poschl_teller_levels(self.l)

    @property
    def threshold_level(self) -> int | None:
        """Level n = l of the zero-energy edge state: bounded but not normalizable,
        so never among levels(); it exists only for a positive integer l."""
        return int(self.l) if self.l > 0 and self.l.denominator == 1 else None

    def energy(self, n: int) -> Fraction:
        return spectra.poschl_teller_energy(self.l, n)

    def eigenfunction(self, n: int) -> HypWave:
        """Level n from the ladder chain; n = l is the integer-l threshold state."""
        return ladder_chain(self.l, n)


@dataclass(frozen=True)
class RosenMorseII:
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

    def values(self, z: np.ndarray) -> np.ndarray:
        t = np.tanh(np.asarray(z, dtype=float))
        return float(self.n_prime * (self.n_prime + 1)) * t * t - 2.0 * float(self.B) * t

    @property
    def asymptotes(self) -> tuple[float, float]:
        c = float(self.n_prime * (self.n_prime + 1))
        return (c + 2.0 * float(self.B), c - 2.0 * float(self.B))

    @property
    def continuum_edge(self) -> float:
        return float(self.n_prime * (self.n_prime + 1) - 2 * abs(self.B))

    @property
    def fd_ceiling(self) -> float:
        return self.continuum_edge - 1e-9

    def levels(self) -> range:
        return spectra.rosen_morse_levels(self.n_prime, self.B)

    @property
    def threshold_level(self) -> None:
        return None

    def energy(self, n: int) -> Fraction:
        return spectra.rosen_morse_energy(self.n_prime, self.B, n)

    def eigenfunction(self, n: int) -> HypWave:
        return spectra.rosen_morse_eigenfunction(self.n_prime, self.B, n)


PotentialFamily = PoschlTeller | RosenMorseII


def potential_values(fam: PotentialFamily, z: np.ndarray) -> np.ndarray:
    """Evaluate a family on given points."""
    return fam.values(z)
