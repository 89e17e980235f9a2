"""Factorization engine: superpotentials, partner potentials, shape invariance.

With c = hbar/sqrt(2m) = 1 a superpotential W gives the factorization
operators A = d/dz + W and A^dagger = -d/dz + W, the ground state e^{-int W}
that A annihilates, and the partner pair H1 = A^dagger A, H2 = A A^dagger with
V1 = W^2 - W', V2 = W^2 + W'.  For the closed family W = k tanh z + s both
partners are polynomials in t = tanh z, the pair is shape invariant for every
rational k, and the algebraic spectrum follows from the x-independent
remainders R(k) = V2(.;k) - V1(.;k-1) = k^2 - (k-1)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .potentials import potential_values
from .tanh_algebra import HypWave, TanhPoly, _d_poly, as_fraction


@dataclass(frozen=True)
class ClosedFormSuperpotential:
    """W(z) = k tanh z + s with exact rational k, s."""

    k: Fraction
    s: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "k", as_fraction(self.k))
        object.__setattr__(self, "s", as_fraction(self.s))

    def tanh_poly(self) -> TanhPoly:
        return TanhPoly((self.s, self.k))

    def derivative_tanh_poly(self) -> TanhPoly:
        return TanhPoly((self.k, 0, -self.k))  # k (1 - t^2)

    def ground_state(self) -> HypWave:
        """e^{-int W} = sech^k z e^{-s z} = (1-t)^((k+s)/2) (1+t)^((k-s)/2)."""
        return HypWave((self.k + self.s) / 2, (self.k - self.s) / 2, TanhPoly.one())

    def apply_a(self, w: HypWave) -> HypWave:
        """A w = (d/dz + W) w, exact."""
        return HypWave(w.a, w.b, _d_poly(w.a, w.b, w.poly) + self.tanh_poly() * w.poly,
                       w.prefactor)

    def apply_a_dagger(self, w: HypWave) -> HypWave:
        """A^dagger w = (-d/dz + W) w, exact."""
        return HypWave(w.a, w.b, -_d_poly(w.a, w.b, w.poly) + self.tanh_poly() * w.poly,
                       w.prefactor)


@dataclass(frozen=True)
class PartnerPair:
    """V1 = W^2 - W' and V2 = W^2 + W' as exact polynomials in t.

    V1 is the potential of H1 = A^dagger A, whose ground state sits at
    energy zero, and V2 that of H2 = A A^dagger.
    """

    v1: TanhPoly
    v2: TanhPoly


def partner_potentials(w: ClosedFormSuperpotential) -> PartnerPair:
    """Build the partner pair as exact polynomials in t = tanh z."""
    wp = w.tanh_poly()
    dwp = w.derivative_tanh_poly()
    return PartnerPair(v1=wp * wp - dwp, v2=wp * wp + dwp)


def riccati_residual(zs: np.ndarray, v1: np.ndarray, w: ClosedFormSuperpotential) -> float:
    """Sup-norm over the points zs of the samples v1 - (W^2 - W'), W from its polynomial."""
    zs = np.asarray(zs, dtype=float)
    wv = potential_values(w.tanh_poly(), zs)
    dv = float(w.k) / np.cosh(zs) ** 2
    return float(np.max(np.abs(np.asarray(v1, dtype=float) - (wv * wv - dv))))


def shape_invariance_remainder(k) -> tuple[Fraction, float]:
    """Remainder and z-dependence of V2(.;k) - V1(.;k-1) for W = k tanh z.

    Returns (remainder, constancy): the tanh family is shape invariant for
    every rational k, so constancy is exactly zero and the remainder equals
    k^2 - (k-1)^2.
    """
    kf = as_fraction(k)
    v2 = partner_potentials(ClosedFormSuperpotential(kf)).v2
    v1_shifted = partner_potentials(ClosedFormSuperpotential(kf - 1)).v1
    diff = v2 - v1_shifted
    remainder = diff.coefficient(0)
    z_dependent = TanhPoly(diff.coeffs[1:]) if diff.degree >= 1 else TanhPoly.zero()
    constancy = 0.0 if z_dependent.is_zero else float(max(abs(c) for c in z_dependent.coeffs))
    return remainder, constancy


def si_level_energy(k, n: int) -> Fraction:
    """Level n of V1(.;k) from the shape-invariance recursion: sum of remainders.

    E_n = sum_{j=0}^{n-1} R(k - j) telescopes to k^2 - (k-n)^2, i.e. the
    sech-well tower shifted so the ground state sits at zero.
    """
    kf = as_fraction(k)
    total = Fraction(0)
    for j in range(int(n)):
        total += shape_invariance_remainder(kf - j)[0]
    return total
