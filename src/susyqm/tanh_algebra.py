"""Exact rational algebra for wavefunctions of the form c*(1-t)^a*(1+t)^b*P(t), t = tanh z.

Every bound state handled by this package is such a product of fractional
powers of (1 -+ tanh z) and a polynomial in tanh z.  Since d/dz = (1-t^2) d/dt
maps this class into itself, differentiation, the ladder chain and eigenvalue
residuals can all be carried out with exact rational coefficients (held as
ints times one rational content); a closed form is an eigenfunction if and
only if its residual polynomial is identically zero, with no tolerances
involved.

Normalise once: a loop that builds one result (the ladder chain, the Jacobi
recurrence in orthopoly, the eigen-residual) runs on unnormalised int lists
over one int denominator and takes its gcd only at the end, in
TanhPoly._from_ints.  The canonical split is unique, so the result has the
same fields as one normalised at every step.
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


def _split(ints: list[int], num: int, den: int) -> tuple[tuple[int, ...], int, int]:
    """(primitive part, content numerator, content denominator) of
    (num/den) * sum(ints[i] t^i), den > 0, in one gcd pass."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return (), 0, 1
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
    num *= g
    h = math.gcd(num, den)
    return tuple(ints), num // h, den // h


class TanhPoly:
    """Polynomial in t = tanh z with exact rational coefficients.

    Stored as content times primitive part (Knuth, TAOCP vol. 2, 4.6.1):
    `_prim` is a tuple of ints with gcd 1 and a positive last entry, and the
    content is the reduced ratio `_num / _den` with `_den > 0`; the zero
    polynomial is `()` with content 0/1.  The split is unique, so equal
    polynomials have equal fields.  By Gauss's lemma a product of primitive
    parts is primitive, so multiplication needs no gcd over the coefficients;
    every other operation is an int loop with at most one gcd pass.

    coeffs[i] is the coefficient of t**i as a Fraction.  Trailing zeros are
    trimmed on construction; the zero polynomial has empty coeffs and degree
    -1.  Instances are immutable and hashable.
    """

    __slots__ = ("_prim", "_num", "_den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        values = [c if type(c) is int else as_fraction(c) for c in coeffs]
        den = math.lcm(*(v.denominator for v in values))
        ints = [v.numerator * (den // v.denominator) for v in values]
        self._set(*_split(ints, 1, den))

    def _set(self, prim: tuple[int, ...], num: int, den: int) -> None:
        object.__setattr__(self, "_prim", prim)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _of(cls, prim: tuple[int, ...], num: int, den: int) -> "TanhPoly":
        """Instance from a primitive part and its reduced content num/den."""
        p = object.__new__(cls)
        p._set(prim, num, den)
        return p

    @classmethod
    def _from_ints(cls, ints: list[int], num: int, den: int) -> "TanhPoly":
        """(num/den) * sum(ints[i] t^i), den > 0."""
        return cls._of(*_split(ints, num, den))

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
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(self._num * v, self._den) for v in self._prim)

    @property
    def is_zero(self) -> bool:
        return not self._prim

    @property
    def degree(self) -> int:
        return len(self._prim) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._prim):
            return Fraction(self._num * self._prim[i], self._den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TanhPoly):
            return NotImplemented
        return (self._prim, self._num, self._den) == (other._prim, other._num, other._den)

    def __hash__(self):
        return hash(("TanhPoly", self._prim, self._num, self._den))

    def __neg__(self) -> "TanhPoly":
        return TanhPoly._of(self._prim, -self._num, self._den)

    def __add__(self, other: "TanhPoly") -> "TanhPoly":
        if not isinstance(other, TanhPoly):
            return NotImplemented
        if not other._prim:
            return self
        if not self._prim:
            return other
        # c1 p + c2 q = (g / den) (m1 p + m2 q) with integer m1, m2
        den = math.lcm(self._den, other._den)
        m1 = self._num * (den // self._den)
        m2 = other._num * (den // other._den)
        g = math.gcd(m1, m2)
        m1, m2 = m1 // g, m2 // g
        p, q = self._prim, other._prim
        if len(p) < len(q):
            p, q, m1, m2 = q, p, m2, m1
        out = [m1 * x + m2 * y for x, y in zip(p, q)]
        out += [m1 * x for x in p[len(q):]]
        return TanhPoly._from_ints(out, g, den)

    def __sub__(self, other: "TanhPoly") -> "TanhPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TanhPoly):
            # product of primitive parts, primitive by Gauss's lemma
            p, q = self._prim, other._prim
            if len(p) < len(q):
                p, q = q, p
            width = len(p)
            out = [0] * (width + len(q) - 1)
            for j, y in enumerate(q):
                if y:
                    out[j:j + width] = [o + y * x for o, x in zip(out[j:j + width], p)]
            prim, num, den = tuple(out), other._num, other._den
        else:
            c = other if type(other) is int else as_fraction(other)
            prim, num, den = self._prim, c.numerator, c.denominator
        num *= self._num
        if not num:
            return TanhPoly.zero()
        den *= self._den
        g = math.gcd(num, den)
        return TanhPoly._of(prim, num // g, den // g)

    def __rmul__(self, other):
        return self.__mul__(other)

    def derivative(self) -> "TanhPoly":
        """d/dt, exact."""
        return TanhPoly._from_ints([i * v for i, v in enumerate(self._prim)][1:],
                                   self._num, self._den)

    def reflected(self) -> "TanhPoly":
        """The polynomial P(-t)."""
        # coefficient i picks up (-1)^i; multiplying through by (-1)^degree
        # keeps the last entry positive, and the gcd is unchanged
        n = self.degree
        prim = tuple(-v if (n - i) % 2 else v for i, v in enumerate(self._prim))
        return TanhPoly._of(prim, -self._num if n % 2 else self._num, self._den)

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation at an int, a Fraction or a float, which is
        taken at its exact binary value."""
        return Fraction(*self._ratio(x))

    def _ratio(self, x) -> tuple[int, int]:
        """(num, den), den > 0, with P(x) = num / den exactly but not reduced."""
        # v^n P(u/v) = sum p_i u^i v^(n-i), all in ints
        u, v = x.as_integer_ratio()
        acc, v_power = 0, 1
        for c in reversed(self._prim):
            acc = acc * u + c * v_power
            v_power *= v
        return self._num * acc * v, self._den * v_power

    def values(self, x: np.ndarray) -> np.ndarray:
        """Vectorized float Horner evaluation, each coefficient correctly rounded, in
        place from the top: the doubles of acc = acc * x + c from acc = 0, NaN included."""
        if not self._prim:
            return np.zeros_like(x, dtype=float)
        top, *rest = [self._num * v / self._den for v in reversed(self._prim)]
        acc = np.multiply(x, 0.0, dtype=float)  # 0 x + c, NaN for a NaN x
        acc += top
        for c in rest:
            acc *= x
            acc += c
        return acc

    def deflate(self, sign: int):
        """Divide by (1 - t) for sign=+1 or (1 + t) for sign=-1.

        Returns the quotient if the division is exact, else None.
        """
        p = self._prim
        # exact iff P(sign) = 0
        if not p or (sum(p) if sign == 1 else sum(p[::2]) - sum(p[1::2])):
            return None
        # synthetic division by (t - sign), from the top
        rem = 0
        running = []
        for c in reversed(p[1:]):
            rem = rem * sign + c
            running.append(rem)
        # self = (t - sign) * quot, and quot is primitive with the same leading
        # entry (Gauss's lemma); (1 - t) = -(t - 1), (1 + t) = (t + 1)
        return TanhPoly._of(tuple(reversed(running)),
                            -self._num if sign == 1 else self._num, self._den)

    def primitive(self):
        """Split into content * primitive with integer coefficients and positive lead.

        Returns (primitive, content) with self == content * primitive.
        """
        if self.is_zero:
            return TanhPoly.zero(), Fraction(0)
        return TanhPoly._of(self._prim, 1, 1), Fraction(self._num, self._den)

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
    a = b = m/2 with poly = 1 is sech^m z.  A wave has no arithmetic of its
    own: operators act on poly at fixed weight exponents (_d_poly).
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

    @property
    def is_zero(self) -> bool:
        return self.prefactor == 0


_LN2 = math.log(2.0)


def _log_weights(z: float) -> tuple[float, float]:
    """(ln(1 - tanh z), ln(1 + tanh z)) without cancellation or underflow."""
    x = abs(z)
    large = _LN2 - math.log1p(math.exp(-2.0 * x))
    small = large - 2.0 * x
    return (small, large) if z >= 0 else (large, small)


def eval_wave(w: HypWave, z: float) -> float:
    """Numerically evaluate a HypWave at a real point.

    prefactor * P(t) is evaluated exactly at the double t = tanh z (a double
    is a dyadic rational), so the alternating coefficients of deep levels
    cannot cancel in floating point.  That exact value is split as m * 2^e
    with an int m of 64 or 65 bits and an int e; the weights (1 -+ tanh z)^a
    and ^b join as logarithms computed without cancellation, and only the
    final ldexp meets the double range.  The result is 0.0 only when the value is
    zero or underflows, and OverflowError means the value is past the range.
    So far in a tail that a weight's log is -inf, the value is a 0.0 with the
    sign of the exact part, and a weight whose exponent is 0 stays 1.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"non-finite evaluation point {z!r}")
    num, den = w.poly._ratio(math.tanh(z))
    num *= w.prefactor.numerator
    den *= w.prefactor.denominator
    if not num:
        return 0.0
    size = abs(num)
    e = size.bit_length() - den.bit_length() - 64
    m = size // (den << e) if e >= 0 else (size << -e) // den
    # an exponent of 0 adds no weight, even where its log is -inf (2|z| past
    # the double range); any other exponent makes the weight's log infinite there
    log_weight = sum(x * log for x, log in zip((float(w.a), float(w.b)), _log_weights(z))
                     if x)
    if log_weight == -math.inf:
        return 0.0 if num > 0 else -0.0
    if log_weight == math.inf:
        raise OverflowError(f"wave value at z = {z!r} is past the double range")
    k = math.floor(log_weight / _LN2)
    try:
        value = math.ldexp(float(m) * math.exp(log_weight - k * _LN2), e + k)
    except OverflowError:
        raise OverflowError(
            f"wave value near 2^{e + k + 64} at z = {z!r} is past the double range"
        ) from None
    return value if num > 0 else -value


def _d_ints(A: int, B: int, d: int, p: tuple[int, ...]) -> list[int]:
    """d times the t^i coefficients of _d_poly at exponents (A/d, B/d) for the
    int polynomial p: (B-A) p_i + d(i+1) p_(i+1) - (A+B+d(i-1)) p_(i-1)."""
    padded = (0, *p, 0, 0)  # padded[i + 1] = p_i
    return [(B - A) * mid + d * (i + 1) * hi - (A + B + d * (i - 1)) * lo
            for i, (lo, mid, hi) in enumerate(zip(padded, padded[1:], padded[2:]))]


def _d_poly(a: Fraction, b: Fraction, poly: TanhPoly) -> TanhPoly:
    """Polynomial part of d/dz applied at fixed weight exponents (a, b).

    d/dz [(1-t)^a (1+t)^b P] = (1-t)^a (1+t)^b [ (b(1-t) - a(1+t)) P + (1-t^2) P' ],
    whose t^i coefficient is (b-a) p_i + (i+1) p_(i+1) - (a+b+i-1) p_(i-1):
    with a = A/d and b = B/d, one int loop over the primitive part.
    """
    d = math.lcm(a.denominator, b.denominator)
    A = a.numerator * (d // a.denominator)
    B = b.numerator * (d // b.denominator)
    return TanhPoly._from_ints(_d_ints(A, B, d, poly._prim), poly._num, poly._den * d)


def _ladder_halves(depth: Fraction, n: int):
    """Yield, for j = 0 .. n, the nonzero half of the chain polynomial after j
    raising steps at depth δ: (-1)^j / D^j times the int list h, where h[k] is
    the coefficient of t^(j % 2 + 2k) and D is the denominator of δ.

    Step j applies A^dagger = -d/dz + k tanh z of W = k tanh z, k = δ + 1 + j
    (ClosedFormSuperpotential.apply_a_dagger).  It equals -cosh^k z (d/dz)
    sech^k z, and sech^k z only adds k/2 to both weight exponents, so at
    weights δ/2 it is -_d_poly at exponents (2δ + 1 + j)/2; with δ = N/D the
    t^i coefficient of that _d_poly times -D is
    D (i+1) p_(i+1) - (2N + (i+j) D) p_(i-1).  Step j's polynomial has parity
    (-1)^j, so only every other power is carried, and no gcd is taken.
    """
    N, D = depth.numerator, depth.denominator
    h = [1]
    yield h
    for j in range(n):
        r = (j + 1) % 2  # parity of the next degree
        pad = [0, *h, 0]
        h = [D * (i + 1) * hi - (2 * N + (i + j) * D) * lo
             for i, lo, hi in zip(range(r, j + 2, 2), pad[r:], pad[r + 1:])]
        yield h


def _ladder_wave(depth: Fraction, j: int, h: list[int]) -> HypWave:
    """The wave of _ladder_halves' entry j: one normalisation of the raw ints."""
    ints = [0] * (j + 1)
    ints[j % 2::2] = h
    half = depth / 2
    return HypWave(half, half, TanhPoly._from_ints(ints, (-1) ** j, depth.denominator ** j))


def _chain_depth(depth, n: int) -> tuple[Fraction, int]:
    depth, n = as_fraction(depth), int(n)
    if n < 0:
        raise ValueError("level index n must be nonnegative")
    if depth < 0:
        raise ValueError(
            f"n' - n = {depth} < 0: no such state in the depth-{depth + n} well"
        )
    return depth, n


def ladder_tower(depth, n: int) -> list[HypWave]:
    """[ladder_chain(depth + j, j) for j = 0 .. n], from one chain.

    ladder_chain(n', n) seeds sech^(n'-n) z and raises it n times, so the
    states of the wells n' = depth, depth + 1, ... that share the weight
    sech^depth z are the prefixes of one chain: n raising steps, not n^2/2.
    """
    depth, n = _chain_depth(depth, n)
    return [_ladder_wave(depth, j, h) for j, h in enumerate(_ladder_halves(depth, n))]


def ladder_chain(n_prime, n: int) -> HypWave:
    """Unnormalized n-th state of the depth-n' sech^2 well; ladder_tower's last entry.

    Builds sech^(n'-n) z and applies the raising operators with coefficients
    n'-n+1, ..., n' in increasing order.  The result carries weight exponents
    a = b = (n'-n)/2 and a polynomial of degree exactly n.  For n' - n > 0 the
    state is a bound state; n = n' gives the zero-energy edge state (seed 1,
    bounded but not normalizable); n > n' is rejected as a no-bound-state
    request.
    """
    depth, n = _chain_depth(as_fraction(n_prime) - int(n), n)
    for h in _ladder_halves(depth, n):
        pass  # only the last step is normalised
    return _ladder_wave(depth, n, h)


def eigen_residual_symbolic(w: HypWave, v: TanhPoly, E) -> TanhPoly:
    """Residual polynomial of (-d^2/dz^2 + V - E) w for V = v(tanh z).

    The common weight (1-t)^a (1+t)^b is factored out and the remaining
    polynomial returned: it is identically zero iff (w, E) is an exact
    eigenpair.
    """
    E = as_fraction(E)
    if w.is_zero:
        return TanhPoly.zero()
    # with a = A/d and b = B/d, the polynomial part of d^2/dz^2 at weights (a, b)
    # of P = (p_num/p_den) p is p_num / (p_den d^2) times _d_ints applied twice
    # to the int list p, and (V - E) P = (c_num/c_den) c is one product of
    # primitive parts, which needs no gcd (Gauss's lemma); over the common
    # denominator p_den d^2 c_den the residual is one int list, normalised once
    d = math.lcm(w.a.denominator, w.b.denominator)
    A = w.a.numerator * (d // w.a.denominator)
    B = w.b.numerator * (d // w.b.denominator)
    p = w.poly
    c = (v - TanhPoly.constant(E)) * p
    f1, f2 = -p._num * c._den, c._num * p._den * d * d
    out = [f1 * x for x in _d_ints(A, B, d, _d_ints(A, B, d, p._prim))]
    out += [0] * (len(c._prim) - len(out))
    out[:len(c._prim)] = [o + f2 * y for o, y in zip(out, c._prim)]
    return TanhPoly._from_ints(out, w.prefactor.numerator,
                               w.prefactor.denominator * p._den * d * d * c._den)
