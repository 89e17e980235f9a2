"""Recurrence-based orthogonal polynomials and the exact cross-family identities.

All coefficient arithmetic is exact (TanhPoly), so the classical second-order
equations these families satisfy are checked as polynomial identities and the
cross-family links are established with a single exact proportionality
constant rather than pointwise fits.  No Condon-Shortley phase is used
anywhere: the package fixes the positive convention and exposes the exact
constants it computes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .tanh_algebra import HypWave, TanhPoly, as_fraction, ladder_tower


class ProportionalityError(ValueError):
    """Two closed forms that were claimed proportional are not."""


def jacobi_poly(n: int, alpha, beta) -> TanhPoly:
    """Degree-n Jacobi polynomial P_n^(alpha,beta) with exact coefficients.

    Three-term recurrence seeded by P_0 = 1 and
    P_1 = (alpha + 1) + (alpha + beta + 2)(t - 1)/2; requires alpha, beta > -1.
    With alpha = A/d and beta = B/d the recurrence coefficients c0..c3 times
    d^3 are integers.  The loop carries P_j = u_j / e_j with e_j = c0_j e_(j-1),
    so c0_(j+1) e_j P_(j+1) = (c1 + c2 t) u_j - c3 c0_j u_(j-1) is an int
    vector with no division, and the only gcd is the final normalisation.
    """
    n = int(n)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a = as_fraction(alpha)
    b = as_fraction(beta)
    if a <= -1 or b <= -1:
        raise ValueError(f"need alpha, beta > -1, got ({a}, {b})")
    if n == 0:
        return TanhPoly.one()
    d = math.lcm(a.denominator, b.denominator)
    A = a.numerator * (d // a.denominator)
    B = b.numerator * (d // b.denominator)
    u_prev, u_cur = [1], [A - B, A + B + 2 * d]
    c0_cur = e = 2 * d  # P_1 = u_1 / (2d)
    for j in range(2, n + 1):
        s = 2 * j * d + A + B  # d (2j + alpha + beta)
        c0 = 2 * j * (j * d + A + B) * (s - 2 * d) * d
        c1 = (s - d) * (A * A - B * B)
        c2 = (s - d) * s * (s - 2 * d)
        c3 = 2 * (j * d + A - d) * (j * d + B - d) * s * c0_cur
        u_prev, u_cur = u_cur, [c1 * x + c2 * y - c3 * z for x, y, z in
                                zip(u_cur + [0], [0] + u_cur, u_prev + [0, 0])]
        c0_cur, e = c0, e * c0
    return TanhPoly._from_ints(u_cur, 1, e)


def jacobi_values(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Float Jacobi recurrence, vectorized; for real (possibly irrational) indices."""
    n = int(n)
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    a, b = float(alpha), float(beta)
    p_cur = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for j in range(2, n + 1):
        c0 = 2.0 * j * (j + a + b) * (2.0 * j + a + b - 2.0)
        c1 = (2.0 * j + a + b - 1.0) * (a * a - b * b)
        c2 = (2.0 * j + a + b - 1.0) * (2.0 * j + a + b) * (2.0 * j + a + b - 2.0)
        c3 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * (2.0 * j + a + b)
        p_prev, p_cur = p_cur, ((c1 + c2 * x) * p_cur - c3 * p_prev) / c0
    return p_cur


def gegenbauer_poly(p: int, q) -> TanhPoly:
    """Degree-p ultraspherical polynomial C_p^q, exact coefficients (q > -1/2, q != 0)."""
    p = int(p)
    if p < 0:
        raise ValueError("degree must be nonnegative")
    q = as_fraction(q)
    if q <= Fraction(-1, 2) or q == 0:
        raise ValueError(f"need q > -1/2 and q != 0, got {q}")
    c_prev = TanhPoly.one()
    if p == 0:
        return c_prev
    c_cur = TanhPoly((0, 2 * q))
    for j in range(2, p + 1):
        c_next = (TanhPoly((0, 2 * (j + q - 1))) * c_cur - (j + 2 * q - 2) * c_prev) * Fraction(1, j)
        c_prev, c_cur = c_cur, c_next
    return c_cur


def legendre_poly(l: int) -> TanhPoly:
    """Degree-l Legendre polynomial (Jacobi with alpha = beta = 0)."""
    return jacobi_poly(l, 0, 0)


def legendre_derivatives(l: int, m_max: int) -> list[TanhPoly]:
    """d^m/dt^m P_l(t) for m = 0 .. m_max: one derivative chain from one legendre_poly(l)."""
    chain = [legendre_poly(l)]
    for _ in range(m_max):
        chain.append(chain[-1].derivative())
    return chain


def assoc_legendre(l: int, m: int) -> HypWave:
    """(1-t^2)^(m/2) d^m/dt^m P_l(t) as a closed-form wave, positive convention."""
    l, m = int(l), int(m)
    if not 0 <= m <= l:
        raise ValueError(f"need 0 <= m <= l, got (l, m) = ({l}, {m})")
    return HypWave(Fraction(m, 2), Fraction(m, 2), legendre_derivatives(l, m)[m])


def jacobi_ode_residual(n: int, alpha, beta) -> TanhPoly:
    """(1-t^2) P'' + [beta - alpha - (alpha+beta+2) t] P' + n(n+alpha+beta+1) P, exact."""
    a = as_fraction(alpha)
    b = as_fraction(beta)
    p = jacobi_poly(n, a, b)
    one = TanhPoly.one()
    t = TanhPoly.t()
    return (one - t * t) * p.derivative().derivative() \
        + TanhPoly((b - a, -(a + b + 2))) * p.derivative() \
        + n * (n + a + b + 1) * p


def gegenbauer_ode_residual(p: int, q) -> TanhPoly:
    """(1-t^2) C'' - (2q+1) t C' + p(p+2q) C, exact."""
    qf = as_fraction(q)
    c = gegenbauer_poly(p, qf)
    one = TanhPoly.one()
    t = TanhPoly.t()
    return (one - t * t) * c.derivative().derivative() \
        - (2 * qf + 1) * t * c.derivative() + p * (p + 2 * qf) * c


def proportionality_constant(w1: HypWave, w2: HypWave) -> Fraction:
    """Exact constant c with w1 = c * w2, or ProportionalityError.

    Canonical forms make this a field comparison: the primitive polynomial
    parts and both weight exponents must coincide, and c is the prefactor
    ratio.
    """
    if w1.is_zero or w2.is_zero:
        raise ProportionalityError("proportionality with the zero function is undefined")
    if (w1.a, w1.b) != (w2.a, w2.b):
        raise ProportionalityError(
            f"weight exponents differ: ({w1.a}, {w1.b}) vs ({w2.a}, {w2.b})"
        )
    if w1.poly != w2.poly:
        raise ProportionalityError(
            f"polynomial parts differ: {w1.poly!r} vs {w2.poly!r}"
        )
    return w1.prefactor / w2.prefactor


def legendre_links(l: int, ms, towers) -> list[Fraction]:
    """Exact constants linking (1-t^2)^(m/2) d^m P_l to the ladder-built level l-m.

    One constant per m in ms, in order, all read from one derivative chain of
    P_l.  The ladder side is towers[m][l - m], where towers[m] is
    ladder_tower(m, k) for some k >= l - m, so one tower per depth serves every
    l.  Both sides are closed-form waves over t = tanh z; they must be exactly
    proportional for every 1 <= m <= l.
    """
    l, ms = int(l), [int(m) for m in ms]
    for m in ms:
        if not 1 <= m <= l:
            raise ValueError(f"need 1 <= m <= l, got (l, m) = ({l}, {m})")
    chain = legendre_derivatives(l, max(ms, default=0))
    return [proportionality_constant(HypWave(Fraction(m, 2), Fraction(m, 2), chain[m]),
                                     towers[m][l - m])
            for m in ms]


def check_legendre_identity(l: int, m: int) -> Fraction:
    """The constant of legendre_links for one m."""
    towers = {m: ladder_tower(m, l - m)} if 1 <= m <= l else {}  # legendre_links rejects the rest
    return legendre_links(l, [m], towers)[0]


def check_gegenbauer_identity(p: int, q) -> Fraction:
    """Exact constant c with (1-t^2)^((1-2q)/4) * assoc_legendre(p+q-1/2, q-1/2) = c * C_p^q.

    Requires half-integer q >= 3/2 so both indices on the left are integers.
    The combined weight exponent cancels to zero, so both sides are honest
    polynomials and the comparison is exact.
    """
    p = int(p)
    q = as_fraction(q)
    if q.denominator != 2 or q < Fraction(3, 2):
        raise ValueError(f"need half-integer q >= 3/2, got {q}")
    if p < 0:
        raise ValueError("degree must be nonnegative")
    n_tot = q + p - Fraction(1, 2)
    m_tot = q - Fraction(1, 2)
    shift = (1 - 2 * q) / 4
    lhs = assoc_legendre(int(n_tot), int(m_tot)).shift_weight(shift, shift)
    rhs = HypWave(0, 0, gegenbauer_poly(p, q))
    return proportionality_constant(lhs, rhs)
