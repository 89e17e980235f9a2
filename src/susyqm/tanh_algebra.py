"""Exact rational algebra for wavefunctions of the form c*(1-t)^a*(1+t)^b*P(t), t = tanh z.

Every bound state handled by this package is such a product of fractional
powers of (1 -+ tanh z) and a polynomial in tanh z.  Since d/dz = (1-t^2) d/dt
maps this class into itself, differentiation, ladder operators and eigenvalue
residuals can all be carried out with exact Fraction coefficients; a closed
form is an eigenfunction if and only if its residual polynomial is identically
zero, with no tolerances involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

RationalLike = Union[int, Fraction]


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if not x.is_integer():
            raise TypeError(
                f"refusing inexact float {x!r} in exact arithmetic; pass a Fraction or string"
            )
        return Fraction(int(x))
    return Fraction(x)


class TanhPoly:
    """Polynomial in t = tanh z with exact Fraction coefficients.

    coeffs[i] is the coefficient of t**i.  Trailing zeros are trimmed on
    construction; the zero polynomial has empty coeffs and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TanhPoly is immutable")

    @classmethod
    def zero(cls) -> "TanhPoly":
        return cls()

    @classmethod
    def one(cls) -> "TanhPoly":
        return cls((1,))

    @classmethod
    def t(cls) -> "TanhPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "TanhPoly":
        return cls((c,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TanhPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("TanhPoly", self.coeffs))

    def __neg__(self) -> "TanhPoly":
        return TanhPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "TanhPoly") -> "TanhPoly":
        if not isinstance(other, TanhPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TanhPoly(out)

    def __sub__(self, other: "TanhPoly") -> "TanhPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TanhPoly):
            if self.is_zero or other.is_zero:
                return TanhPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, ci in enumerate(self.coeffs):
                if ci:
                    for j, cj in enumerate(other.coeffs):
                        out[i + j] += ci * cj
            return TanhPoly(out)
        c = as_fraction(other)
        return TanhPoly(tuple(c * x for x in self.coeffs))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "TanhPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = TanhPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "TanhPoly":
        """d/dt, exact."""
        return TanhPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def reflected(self) -> "TanhPoly":
        """The polynomial P(-t)."""
        return TanhPoly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int arguments, float otherwise."""
        if isinstance(x, (Fraction, int)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0.0
        xf = float(x)
        for c in reversed(self.coeffs):
            acc = acc * xf + float(c)
        return acc

    def values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized float Horner evaluation."""
        acc = np.zeros_like(x, dtype=float)
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def deflate(self, sign: int):
        """Divide by (1 - t) for sign=+1 or (1 + t) for sign=-1.

        Returns the quotient if the division is exact, else None.
        """
        if self.is_zero:
            return None
        root = Fraction(sign)  # (1 -+ t) vanishes at t = +-1
        rem = Fraction(0)
        quot = [Fraction(0)] * (len(self.coeffs) - 1)
        for i in range(len(self.coeffs) - 1, -1, -1):
            rem = rem * root + self.coeffs[i]
            if i > 0:
                quot[i - 1] = rem
        if rem != 0:
            return None
        # self = (t - root) * quot;  (1 - t) = -(t - 1), (1 + t) = (t + 1)
        q = TanhPoly(quot)
        return -q if sign == 1 else q

    def primitive(self):
        """Split into content * primitive with integer coefficients and positive lead.

        Returns (primitive, content) with self == content * primitive.
        """
        if self.is_zero:
            return TanhPoly.zero(), Fraction(0)
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        nums = [int(c * den) for c in self.coeffs]
        g = 0
        for v in nums:
            g = math.gcd(g, abs(v))
        if nums[-1] < 0:
            g = -g
        return TanhPoly(tuple(Fraction(v, g) for v in nums)), Fraction(g, den)

    def __repr__(self):
        if self.is_zero:
            return "TanhPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return "TanhPoly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class HypWave:
    """Closed form prefactor * (1-t)^a * (1+t)^b * poly(t), t = tanh z.

    Canonical form (established on construction):
      * the zero function is stored as a = b = 0, prefactor = 0, poly = 0;
      * poly is not divisible by (1-t) or (1+t) — such factors are folded
        into the exponents;
      * poly is integer-primitive with positive leading coefficient, the
        content living in prefactor.
    Equality of canonical forms is therefore equality of functions.
    a = b = m/2 with poly = 1 is sech^m z.
    """

    a: Fraction
    b: Fraction
    poly: TanhPoly
    prefactor: Fraction = Fraction(1)

    def __post_init__(self):
        a = as_fraction(self.a)
        b = as_fraction(self.b)
        pref = as_fraction(self.prefactor)
        poly = self.poly if isinstance(self.poly, TanhPoly) else TanhPoly(self.poly)
        if pref == 0 or poly.is_zero:
            a = b = Fraction(0)
            pref = Fraction(0)
            poly = TanhPoly.zero()
        else:
            while (q := poly.deflate(+1)) is not None:
                poly = q
                a += 1
            while (q := poly.deflate(-1)) is not None:
                poly = q
                b += 1
            poly, content = poly.primitive()
            pref *= content
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "prefactor", pref)

    @classmethod
    def sech_power(cls, m) -> "HypWave":
        m = as_fraction(m)
        return cls(m / 2, m / 2, TanhPoly.one())

    @classmethod
    def constant(cls, c) -> "HypWave":
        return cls(Fraction(0), Fraction(0), TanhPoly.one(), as_fraction(c))

    @property
    def is_zero(self) -> bool:
        return self.prefactor == 0

    def __neg__(self) -> "HypWave":
        return HypWave(self.a, self.b, self.poly, -self.prefactor)

    def __mul__(self, c) -> "HypWave":
        return HypWave(self.a, self.b, self.poly, self.prefactor * as_fraction(c))

    __rmul__ = __mul__

    def times_poly(self, p: TanhPoly) -> "HypWave":
        return HypWave(self.a, self.b, self.poly * p, self.prefactor)

    def shift_weight(self, da, db) -> "HypWave":
        """Multiply by (1-t)^da (1+t)^db; exponent bookkeeping only."""
        return HypWave(self.a + as_fraction(da), self.b + as_fraction(db),
                       self.poly, self.prefactor)

    def __add__(self, other: "HypWave") -> "HypWave":
        if not isinstance(other, HypWave):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a = min(self.a, other.a)
        b = min(self.b, other.b)
        shifts = (self.a - a, self.b - b, other.a - a, other.b - b)
        if any(s.denominator != 1 for s in shifts):
            raise ValueError(
                "cannot add waves whose weight exponents differ by non-integers"
            )
        one_minus_t = TanhPoly((1, -1))
        one_plus_t = TanhPoly((1, 1))

        def lifted(w: HypWave, da: Fraction, db: Fraction) -> TanhPoly:
            return (w.prefactor * w.poly) * one_minus_t ** int(da) * one_plus_t ** int(db)

        total = lifted(self, shifts[0], shifts[1]) + lifted(other, shifts[2], shifts[3])
        return HypWave(a, b, total)

    def __sub__(self, other: "HypWave") -> "HypWave":
        return self + (-other)

    def __call__(self, z: float) -> float:
        return eval_wave(self, z)


def _weight_factors(z: float) -> tuple[float, float]:
    """(1 - tanh z, 1 + tanh z) without cancellation for large |z|."""
    e = math.exp(-2.0 * abs(z))
    small = 2.0 * e / (1.0 + e)
    large = 2.0 / (1.0 + e)
    return (small, large) if z >= 0 else (large, small)


def eval_wave(w: HypWave, z: float) -> float:
    """Numerically evaluate a HypWave at a real point.

    Uses cancellation-free expressions for 1 -+ tanh z so that relative
    accuracy is near machine precision even far in the tails.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"non-finite evaluation point {z!r}")
    if w.is_zero:
        return 0.0
    one_minus, one_plus = _weight_factors(z)
    val = float(w.prefactor)
    if w.a:
        val *= one_minus ** float(w.a)
    if w.b:
        val *= one_plus ** float(w.b)
    return val * w.poly(math.tanh(z))


def eval_wave_array(w: HypWave, z: np.ndarray) -> np.ndarray:
    """Vectorized eval_wave over a real array."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite evaluation point in array")
    if w.is_zero:
        return np.zeros_like(z)
    e = np.exp(-2.0 * np.abs(z))
    small = 2.0 * e / (1.0 + e)
    large = 2.0 / (1.0 + e)
    pos = z >= 0
    one_minus = np.where(pos, small, large)
    one_plus = np.where(pos, large, small)
    val = float(w.prefactor) * np.ones_like(z)
    if w.a:
        val = val * one_minus ** float(w.a)
    if w.b:
        val = val * one_plus ** float(w.b)
    return val * w.poly.values(np.tanh(z))


def _d_poly(a: Fraction, b: Fraction, poly: TanhPoly) -> TanhPoly:
    """Polynomial part of d/dz applied at fixed weight exponents (a, b).

    d/dz [(1-t)^a (1+t)^b P] = (1-t)^a (1+t)^b [ (b(1-t) - a(1+t)) P + (1-t^2) P' ].
    """
    one = TanhPoly.one()
    t = TanhPoly.t()
    return (b * (one - t) - a * (one + t)) * poly + (one - t * t) * poly.derivative()


def differentiate_z(w: HypWave) -> HypWave:
    """Exact d/dz of a HypWave, canonicalized."""
    if w.is_zero:
        return w
    return HypWave(w.a, w.b, _d_poly(w.a, w.b, w.poly), w.prefactor)


def apply_ladder(k, w: HypWave) -> HypWave:
    """Apply the raising operator -d/dz + k tanh z exactly."""
    kf = as_fraction(k)
    if w.is_zero:
        return w
    poly = -_d_poly(w.a, w.b, w.poly) + kf * TanhPoly.t() * w.poly
    return HypWave(w.a, w.b, poly, w.prefactor)


def apply_lowering(k, w: HypWave) -> HypWave:
    """Apply the annihilation operator d/dz + k tanh z = -(-d/dz - k tanh z) exactly."""
    return -apply_ladder(-as_fraction(k), w)


def ladder_chain(n_prime, n: int) -> HypWave:
    """Unnormalized n-th state of the depth-n' sech^2 well.

    Builds sech^(n'-n) z and applies the raising operators with coefficients
    n'-n+1, ..., n' in increasing order.  The result carries weight exponents
    a = b = (n'-n)/2 and a polynomial of degree exactly n.  For n' - n > 0 the
    state is a bound state; n = n' gives the zero-energy edge state (seed 1,
    bounded but not normalizable); n > n' is rejected as a no-bound-state
    request.
    """
    np_ = as_fraction(n_prime)
    n = int(n)
    if n < 0:
        raise ValueError("level index n must be nonnegative")
    depth = np_ - n
    if depth < 0:
        raise ValueError(
            f"n' - n = {depth} < 0: no such state in the depth-{np_} well"
        )
    w = HypWave.sech_power(depth)
    for j in range(n):
        w = apply_ladder(depth + 1 + j, w)
    return w


def eigen_residual_symbolic(w: HypWave, fam, E) -> TanhPoly:
    """Residual polynomial of (-d^2/dz^2 + V - E) w for exact tanh-form potentials.

    The family must expose an exact polynomial V(tanh z) via fam.tanh_poly()
    (true for the sech^2 and tanh^2/tanh wells; a grid-sampled potential has
    no such form and is rejected — check it with fd_oracle.grid_residual).
    The common weight (1-t)^a (1+t)^b is factored out and the remaining
    polynomial returned: it is identically zero iff (w, E) is an exact
    eigenpair.
    """
    E = as_fraction(E)
    try:
        v_poly = fam.tanh_poly()
    except AttributeError:
        raise ValueError(
            f"potential family {fam!r} has no exact tanh-polynomial form; "
            "use the numeric grid residual instead"
        ) from None
    if w.is_zero:
        return TanhPoly.zero()
    d1 = _d_poly(w.a, w.b, w.poly)
    d2 = _d_poly(w.a, w.b, d1)
    residual = -d2 + (v_poly - TanhPoly.constant(E)) * w.poly
    return w.prefactor * residual
