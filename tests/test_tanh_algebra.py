import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import hyp_waves, nonzero_rationals, rationals, small_exponents, tanh_polys
from susyqm import (
    ClosedFormSuperpotential, HypWave, PoschlTeller, RosenMorseII, TanhPoly,
    eigen_residual_symbolic, eval_wave, ladder_chain, ladder_tower,
)
from susyqm.cli import _wave_payload
from susyqm.tanh_algebra import _d_poly

SECH = HypWave.sech_power(1)
T = TanhPoly.t()


def d_dz(w: HypWave) -> HypWave:
    # A = d/dz + W at W = 0 is d/dz
    return ClosedFormSuperpotential(0).apply_a(w)


# ---------------------------------------------------------------------------
# TanhPoly basics


def test_poly_trim_and_degree():
    assert TanhPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert TanhPoly().degree == -1
    assert TanhPoly((0,)).is_zero


def test_poly_deflate():
    # (1 - t)(1 + t) = 1 - t^2
    p = TanhPoly((1, 0, -1))
    q = p.deflate(+1)
    assert q == TanhPoly((1, 1))
    assert q.deflate(-1) == TanhPoly((1,))
    assert TanhPoly((1, 1)).deflate(+1) is None


def test_poly_primitive():
    prim, content = TanhPoly((Fraction(-3, 4), 0, Fraction(9, 4))).primitive()
    assert prim == TanhPoly((-1, 0, 3))
    assert content == Fraction(3, 4)
    prim, content = TanhPoly((0, Fraction(-2, 5))).primitive()
    assert prim == TanhPoly((0, 1)) and content == Fraction(-2, 5)


@given(p=tanh_polys(), q=tanh_polys())
def test_poly_ring_axioms(p, q):
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p


@given(p=tanh_polys(), q=tanh_polys())
def test_poly_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


# ---------------------------------------------------------------------------
# TanhPoly against a plain list-of-Fraction reference, coefficient by coefficient


def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(p, q):
    n = max(len(p), len(q))
    return ref_trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                    for i in range(n))


def ref_mul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return ref_trim(out)


def ref_eval(p, x):
    return sum((c * x ** i for i, c in enumerate(p)), Fraction(0))


def ref_d_poly(a, b, p):
    """(b(1-t) - a(1+t)) P + (1 - t^2) P', by convolution."""
    dp = [i * c for i, c in enumerate(p)][1:]
    return ref_add(ref_mul([b - a, -(a + b)], p), ref_mul([1, 0, -1], dp))


@given(p=tanh_polys(), q=tanh_polys(), c=rationals)
def test_poly_ops_match_reference(p, q, c):
    rp, rq = list(p.coeffs), list(q.coeffs)
    assert rp == ref_trim(rp) and all(isinstance(x, Fraction) for x in rp)
    assert list((p + q).coeffs) == ref_add(rp, rq)
    assert list((p - q).coeffs) == ref_add(rp, [-x for x in rq])
    assert list((-p).coeffs) == ref_trim(-x for x in rp)
    assert list((p * q).coeffs) == ref_mul(rp, rq)
    assert list((c * p).coeffs) == list((p * c).coeffs) == ref_trim(c * x for x in rp)
    assert list(p.derivative().coeffs) == ref_trim(i * x for i, x in enumerate(rp))[1:]
    assert list(p.reflected().coeffs) == ref_trim((-1) ** i * x for i, x in enumerate(rp))
    assert [p.coefficient(i) for i in range(-1, len(rp) + 1)] == [0, *rp, 0]
    assert p(c) == ref_eval(rp, c)
    assert p == TanhPoly(rp) and hash(p) == hash(TanhPoly(rp))


@given(p=tanh_polys(), sign=st.sampled_from([1, -1]), multiply=st.booleans())
def test_poly_deflate_matches_reference(p, sign, multiply):
    rp = list(p.coeffs)
    if multiply:  # make the division exact
        p, rp = p * TanhPoly((1, -sign)), ref_mul(rp, [1, -sign])
    q = p.deflate(sign)
    if q is None:
        assert not rp or ref_eval(rp, Fraction(sign)) != 0
    else:
        assert ref_mul([1, -sign], list(q.coeffs)) == rp


@given(p=tanh_polys())
def test_poly_primitive_matches_reference(p):
    prim, content = p.primitive()
    rp = list(p.coeffs)
    if not rp:
        assert prim.is_zero and content == 0
        return
    ints = list(prim.coeffs)
    assert all(x.denominator == 1 for x in ints) and ints[-1] > 0
    assert math.gcd(*(x.numerator for x in ints)) == 1
    assert ref_trim(content * x for x in ints) == rp


@given(a=small_exponents, b=small_exponents, p=tanh_polys(max_degree=6))
def test_d_poly_matches_reference(a, b, p):
    assert list(_d_poly(a, b, p).coeffs) == ref_d_poly(a, b, list(p.coeffs))


def ref_values(p, x):
    """The textbook allocating float Horner loop, acc = acc * x + c from acc = 0."""
    acc = np.zeros_like(x, dtype=float)
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


@given(p=tanh_polys(max_degree=8), x=st.lists(st.floats(-1.0, 1.0), max_size=40))
@example(p=TanhPoly.zero(), x=[0.5])
@example(p=TanhPoly.constant(Fraction(-7, 3)), x=[0.5])
def test_poly_values_match_the_allocating_horner_loop(p, x):
    # bit for bit, signed zeros and NaN included
    xs = np.array([*x, 0.0, -0.0, math.nan])
    got, want = p.values(xs), ref_values(list(p.coeffs), xs)
    assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# HypWave canonical form


def test_canonical_divides_out_weight_factors():
    w = HypWave(0, 0, TanhPoly((1, 0, -1)))  # (1 - t^2) -> pure weight
    assert (w.a, w.b) == (Fraction(1), Fraction(1))
    assert w.poly == TanhPoly.one()


def test_canonical_zero():
    w = HypWave(Fraction(1, 2), Fraction(3), TanhPoly(), Fraction(7))
    assert w.is_zero and w.prefactor == 0 and (w.a, w.b) == (0, 0)
    assert HypWave(1, 1, TanhPoly.one(), 0).is_zero


@given(w=hyp_waves())
def test_canonical_idempotent(w):
    again = HypWave(w.a, w.b, w.poly, w.prefactor)
    assert again == w


@given(w=hyp_waves())
def test_poly_not_divisible_by_weight_factors(w):
    assert w.poly.deflate(+1) is None
    assert w.poly.deflate(-1) is None


def test_add_aligns_integer_shifts():
    total = HypWave.sech_power(2) + HypWave.sech_power(4)
    # sech^2 (1 + sech^2) = (1-t)(1+t) * (2 - t^2)
    assert total == HypWave(1, 1, TanhPoly((2, 0, -1)))
    with pytest.raises(ValueError):
        HypWave.sech_power(1) + HypWave.sech_power(2)


# ---------------------------------------------------------------------------
# eval_wave


def test_eval_examples():
    assert eval_wave(SECH, 0.0) == 1.0
    assert abs(eval_wave(SECH, math.log(2)) - 0.8) <= 1e-14 * 0.8
    odd = HypWave(Fraction(1, 2), Fraction(1, 2), T, 3)  # 3 t sech z
    assert eval_wave(odd, 0.0) == 0.0


def test_eval_rejects_non_finite():
    with pytest.raises(ValueError):
        eval_wave(SECH, math.nan)
    with pytest.raises(ValueError):
        eval_wave(SECH, math.inf)


def test_eval_deep_tail_accuracy():
    # 1 - tanh z underflows catastrophically if formed naively
    w = HypWave(Fraction(1), Fraction(0), TanhPoly.one())  # (1 - t)
    z = 18.0
    exact = 2.0 * math.exp(-2.0 * z) / (1.0 + math.exp(-2.0 * z))
    assert abs(eval_wave(w, z) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("z", [1e308, -1e308, 1e200])
def test_eval_far_tail(z):
    # past |z| ~ 9e307, 2|z| overflows and the log of the small weight is -inf
    decaying = HypWave(Fraction(1), Fraction(1, 2), -T)  # -(1-t) sqrt(1+t) t
    assert eval_wave(decaying, z) == 0.0
    assert math.copysign(1.0, eval_wave(decaying, z)) == -math.copysign(1.0, z)
    # an exponent of 0 adds no weight, even where its log is -inf
    assert eval_wave(HypWave(0, 0, TanhPoly([1, 6])), z) == 1.0 + math.copysign(6.0, z)
    assert eval_wave(HypWave(0, 2, TanhPoly.one(), 3), -abs(z)) == 0.0
    assert eval_wave(HypWave(0, 2, TanhPoly.one(), 3), abs(z)) == 12.0  # 3 (1 + t)^2
    growing = HypWave(Fraction(-1), Fraction(-1), TanhPoly.one())  # cosh^2 z
    with pytest.raises(OverflowError, match="past the double range"):
        eval_wave(growing, z)


@given(w=hyp_waves(), z=st.floats(-8, 8))
@settings(max_examples=60)
def test_eval_matches_plain_weight_powers(w, z):
    # reference: the exact part rounded to a double, times the weights as
    # plain float powers, which neither underflow nor overflow on |z| <= 8
    e = math.exp(-2.0 * abs(z))
    small, large = 2.0 * e / (1.0 + e), 2.0 / (1.0 + e)
    one_minus, one_plus = (small, large) if z >= 0 else (large, small)
    ref = (float(w.prefactor * w.poly(math.tanh(z)))
           * one_minus ** float(w.a) * one_plus ** float(w.b))
    assert math.isclose(eval_wave(w, z), ref, rel_tol=1e-12, abs_tol=1e-300)


# ---------------------------------------------------------------------------
# differentiation and ladder operators


def test_differentiate_examples():
    assert d_dz(SECH) == HypWave(Fraction(1, 2), Fraction(1, 2), T, -1)
    assert d_dz(HypWave(0, 0, TanhPoly.one())).is_zero
    assert d_dz(HypWave(0, 0, T)) == HypWave(1, 1, TanhPoly.one())


def test_apply_a_dagger_examples():
    def a_dagger(k, w):
        return ClosedFormSuperpotential(k).apply_a_dagger(w)

    assert a_dagger(1, SECH) == HypWave(Fraction(1, 2), Fraction(1, 2), T, 2)
    assert a_dagger(0, HypWave(0, 0, TanhPoly.one())).is_zero
    assert a_dagger(2, SECH) == HypWave(Fraction(1, 2), Fraction(1, 2), T, 3)


@given(w=hyp_waves(), k=rationals, s=rationals)
@settings(max_examples=80)
def test_a_dagger_is_minus_derivative_plus_w(w, k, s):
    W = ClosedFormSuperpotential(k, s)
    direct = W.apply_a_dagger(w)
    assembled = -d_dz(w) + HypWave(w.a, w.b, w.poly * W.tanh_poly(), w.prefactor)
    assert direct == assembled
    # -d/dz + W = -e^{int W} (d/dz) e^{-int W}, and e^{-int W} only shifts the
    # weight exponents by those of the ground state
    g = W.ground_state()
    conjugated = HypWave(w.a, w.b, -_d_poly(w.a + g.a, w.b + g.b, w.poly), w.prefactor)
    assert direct == conjugated


@given(w=hyp_waves(), k=rationals, s=rationals)
@settings(max_examples=40)
def test_a_plus_a_dagger_is_2w(w, k, s):
    W = ClosedFormSuperpotential(k, s)
    total = W.apply_a(w) + W.apply_a_dagger(w)
    assert total == 2 * HypWave(w.a, w.b, w.poly * W.tanh_poly(), w.prefactor)


def test_ladder_chain_examples():
    assert ladder_chain(2, 1) == HypWave(Fraction(1, 2), Fraction(1, 2), T, 3)
    assert ladder_chain(2, 0) == HypWave.sech_power(2)
    top = ladder_chain(2, 2)  # zero-energy edge state, proportional to 3t^2 - 1
    assert (top.a, top.b) == (0, 0)
    assert top.poly == TanhPoly((-1, 0, 3))


def test_ladder_chain_rejects_impossible_levels():
    with pytest.raises(ValueError):
        ladder_chain(2, 3)
    with pytest.raises(ValueError):
        ladder_chain(Fraction(3, 2), -1)


@pytest.mark.parametrize("l", [1, 2, 3, 5, 8])
def test_ladder_chain_degree_and_parity(l):
    for n in range(l + 1):
        w = ladder_chain(l, n)
        assert w.a == w.b == Fraction(l - n, 2)
        assert w.poly.degree == n
        assert w.poly.reflected() == ((-1) ** n) * w.poly


def test_ladder_chain_large_tower_needs_bigints():
    # raw coefficients (content times primitive part) overflow 64-bit ints
    # around n' ~ 20, so exact arithmetic must be arbitrary precision
    w = ladder_chain(20, 19)
    assert max(abs((w.prefactor * c).numerator) for c in w.poly.coeffs) > 2 ** 63
    assert eigen_residual_symbolic(w, PoschlTeller(20).tanh_poly(), -1).is_zero


depths = st.one_of(
    st.integers(0, 12).map(Fraction),
    st.integers(0, 24).map(lambda k: Fraction(2 * k + 1, 2)),
    st.fractions(min_value=0, max_value=12, max_denominator=6),
)


@given(depth=depths, n=st.integers(0, 12))
@settings(max_examples=60)
def test_ladder_tower_matches_repeated_raising(depth, n):
    # reference: sech^depth z raised one operator at a time, k = depth + 1, depth + 2, ...
    w = HypWave.sech_power(depth)
    expected = [w]
    for j in range(n):
        w = ClosedFormSuperpotential(depth + 1 + j).apply_a_dagger(w)
        expected.append(w)
    assert ladder_tower(depth, n) == expected
    assert ladder_chain(depth + n, n) == expected[-1]


def test_ladder_tower_rejects_negative_depth_and_length():
    with pytest.raises(ValueError, match="< 0"):
        ladder_tower(Fraction(-1, 2), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        ladder_tower(2, -1)


def payload_sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of the canonical fields, taken from the chain that normalised every step
@pytest.mark.parametrize("build, sha", [
    (lambda: ladder_chain(300, 299),
     "c86c0fd1e50092f34fdedba0e549c3f445121383da929dc8605893695f9061ff"),
    (lambda: ladder_chain(Fraction(601, 2), 300),
     "8f419d036d10482326ba04cfedfcc14e501e51c77e2d6ba04e1fb0dfd5665c3b"),
], ids=["sech-300-299", "sech-601/2-300"])
def test_deep_ladder_chain_golden(build, sha):
    w = build()
    assert payload_sha([str(w.a), str(w.b), str(w.prefactor),
                        [str(c) for c in w.poly.coeffs]]) == sha


# ---------------------------------------------------------------------------
# symbolic eigen-residuals


def ref_residual(w, v, E):
    """-_d_poly(_d_poly(P)) + (V - E) P from TanhPoly operations, times the prefactor."""
    d2 = _d_poly(w.a, w.b, _d_poly(w.a, w.b, w.poly))
    return w.prefactor * (-d2 + (v - TanhPoly.constant(E)) * w.poly)


wells = st.one_of(
    depths.filter(lambda l: l > 0).map(PoschlTeller),
    st.builds(lambda n_prime, f: RosenMorseII(n_prime, f * n_prime ** 2),
              st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4),
              st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10),
                           max_denominator=10)),
)


@given(w=hyp_waves(), fam=wells, E=rationals)
@settings(max_examples=80)
def test_residual_matches_reference(w, fam, E):
    v = fam.tanh_poly()
    assert eigen_residual_symbolic(w, v, E) == ref_residual(w, v, E)


@given(fam=wells, data=st.data())
@settings(max_examples=40)
def test_residual_of_eigenpairs_matches_reference(fam, data):
    n = data.draw(st.sampled_from(fam.levels()[:10]))
    w, E, v = fam.eigenfunction(n), fam.energy(n), fam.tanh_poly()
    assert eigen_residual_symbolic(w, v, E).is_zero
    shifted = E + Fraction(1, 1000)
    resid = eigen_residual_symbolic(w, v, shifted)
    assert not resid.is_zero and resid == ref_residual(w, v, shifted)


def test_residual_examples():
    v1, v2 = PoschlTeller(1).tanh_poly(), PoschlTeller(2).tanh_poly()
    assert eigen_residual_symbolic(SECH, v1, -1).is_zero
    w = HypWave(Fraction(1, 2), Fraction(1, 2), T, 3)
    assert eigen_residual_symbolic(w, v2, -1).is_zero
    # wrong energy: residual is (E_true - E) w = -1 * w
    assert eigen_residual_symbolic(SECH, v1, 0) == TanhPoly((-1,))


@pytest.mark.parametrize("l", [1, 2, 3, 4, 6])
def test_tower_residuals_zero(l):
    for n in range(l):
        w = ladder_chain(l, n)
        well = PoschlTeller(l)
        assert eigen_residual_symbolic(w, well.tanh_poly(), well.energy(n)).is_zero


# ---------------------------------------------------------------------------
# numeric/symbolic consistency


@pytest.mark.parametrize("w", [
    SECH,
    ladder_chain(3, 2),
    ladder_chain(Fraction(7, 2), 1),
    HypWave(Fraction(7, 8), Fraction(9, 8), TanhPoly.one()),
])
def test_derivative_matches_finite_difference(w):
    d = d_dz(w)
    h = 1e-4
    for z in np.linspace(-5.0, 5.0, 41):
        fd = (eval_wave(w, z + h) - eval_wave(w, z - h)) / (2.0 * h)
        assert abs(eval_wave(d, z) - fd) <= 1e-6


# ---------------------------------------------------------------------------
# golden pins: sha256 of exact report payloads, taken from the earlier
# Fraction-per-coefficient TanhPoly


@pytest.mark.parametrize("build, sha", [
    (lambda: ladder_chain(60, 59),
     "7a658d6b7f19e593cfca3c0eb44525c6d97029f1ef82b7bac5795c11d827cb51"),
    (lambda: ladder_chain(Fraction(121, 2), 30),
     "39e6d2b6329e5847cbfddf3a5efa3e633bf566612e4e2e13dad04bac6a8920b8"),
    (lambda: RosenMorseII(30, Fraction(39, 2)).eigenfunction(25),
     "4f0a08f3c6b2b68c96eba372336760847b22ca600a7f10de9571a8e22cbaf6a9"),
], ids=["sech-60-59", "sech-121/2-30", "tilted-30-39/2-25"])
def test_wave_payload_golden(build, sha):
    assert payload_sha(_wave_payload(build())) == sha
