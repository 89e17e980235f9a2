import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from susyqm import (
    ClosedFormSuperpotential, HypWave, ProportionalityError, TanhPoly, assoc_legendre,
    check_gegenbauer_identity, check_legendre_identity, gegenbauer_poly,
    jacobi_poly, ladder_chain, ladder_tower, legendre_poly, proportionality_constant,
)
from susyqm.orthopoly import legendre_derivatives, legendre_links
from susyqm.orthopoly import (
    gegenbauer_ode_residual, jacobi_ode_residual, jacobi_values,
)

jacobi_indices = st.fractions(min_value=Fraction(-3, 4), max_value=Fraction(4),
                              max_denominator=4)


def test_jacobi_examples():
    assert jacobi_poly(0, 1, 2) == TanhPoly.one()
    assert jacobi_poly(1, 0, 0) == TanhPoly.t()
    assert jacobi_poly(1, 1, 2) == TanhPoly((Fraction(-1, 2), Fraction(5, 2)))


def test_jacobi_validates_indices():
    with pytest.raises(ValueError):
        jacobi_poly(2, -1, 0)
    with pytest.raises(ValueError):
        jacobi_poly(-1, 0, 0)


@given(n=st.integers(0, 6), alpha=jacobi_indices, beta=jacobi_indices)
@settings(max_examples=60)
def test_jacobi_ode_identity(n, alpha, beta):
    assert jacobi_ode_residual(n, alpha, beta).is_zero


@given(n=st.integers(0, 6), alpha=jacobi_indices, beta=jacobi_indices)
@settings(max_examples=60)
def test_jacobi_reflection_symmetry(n, alpha, beta):
    assert jacobi_poly(n, alpha, beta).reflected() == ((-1) ** n) * jacobi_poly(n, beta, alpha)


def ref_jacobi(n, a, b):
    """Coefficients of P_n^(a,b) from the textbook recurrence, one Fraction each."""
    p_prev, p = [Fraction(1)], [(a - b) / 2, (a + b + 2) / 2]
    if n == 0:
        return p_prev
    for j in range(2, n + 1):
        c0 = 2 * j * (j + a + b) * (2 * j + a + b - 2)
        c1 = (2 * j + a + b - 1) * (a * a - b * b)
        c2 = (2 * j + a + b - 1) * (2 * j + a + b) * (2 * j + a + b - 2)
        c3 = 2 * (j + a - 1) * (j + b - 1) * (2 * j + a + b)
        p_prev, p = p, [(c1 * x + c2 * y - c3 * z) / c0
                        for x, y, z in zip(p + [0], [0] + p, p_prev + [0, 0])]
    return p


@given(n=st.integers(0, 16), alpha=jacobi_indices, beta=jacobi_indices)
@settings(max_examples=80)
def test_jacobi_matches_fraction_recurrence(n, alpha, beta):
    assert list(jacobi_poly(n, alpha, beta).coeffs) == ref_jacobi(n, alpha, beta)


def test_jacobi_float_values_match_exact():
    xs = np.linspace(-1.0, 1.0, 11)
    for n, a, b in ((0, 1.0, 2.0), (3, 0.5, 1.5), (5, 0.0, 0.0)):
        exact = jacobi_poly(n, Fraction(a), Fraction(b)).values(xs)
        assert np.max(np.abs(jacobi_values(n, a, b, xs) - exact)) <= 1e-12


def test_jacobi_values_match_scipy():
    from scipy.special import eval_jacobi

    xs = np.linspace(-1.0, 1.0, 7)
    for n, a, b in ((2, 1.0, 2.0), (4, 0.3, 1.7), (6, -0.4, 2.2)):
        ref = eval_jacobi(n, a, b, xs)
        assert np.max(np.abs(jacobi_values(n, a, b, xs) - ref)) <= 1e-10


def test_gegenbauer_examples():
    assert gegenbauer_poly(0, 1) == TanhPoly.one()
    assert gegenbauer_poly(1, 1) == TanhPoly((0, 2))
    assert gegenbauer_poly(2, 1) == TanhPoly((-1, 0, 4))


def test_gegenbauer_validates():
    with pytest.raises(ValueError):
        gegenbauer_poly(2, 0)
    with pytest.raises(ValueError):
        gegenbauer_poly(2, Fraction(-3, 4))


@given(p=st.integers(0, 6),
       q=st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(4),
                      max_denominator=4).filter(lambda f: f != 0))
@settings(max_examples=60)
def test_gegenbauer_ode_identity(p, q):
    assert gegenbauer_ode_residual(p, q).is_zero


@pytest.mark.parametrize("eps", [Fraction(1, 8), Fraction(1, 16), Fraction(1, 64)])
def test_gegenbauer_jacobi_bridge_near_legendre(eps):
    # C_p^q is proportional to P_p^(q-1/2, q-1/2); at q -> 1/2 this is Legendre
    q = Fraction(1, 2) + eps
    for p in range(5):
        lhs = HypWave(0, 0, gegenbauer_poly(p, q))
        rhs = HypWave(0, 0, jacobi_poly(p, q - Fraction(1, 2), q - Fraction(1, 2)))
        proportionality_constant(lhs, rhs)  # raises if not proportional


def test_assoc_legendre_examples():
    assert assoc_legendre(1, 1) == ClosedFormSuperpotential(1).ground_state()
    assert assoc_legendre(2, 1) == HypWave(Fraction(1, 2), Fraction(1, 2), TanhPoly.t(), 3)
    assert assoc_legendre(2, 0) == HypWave(0, 0, TanhPoly((-1, 0, 3)), Fraction(1, 2))
    assert legendre_poly(2) == TanhPoly((Fraction(-1, 2), 0, Fraction(3, 2)))


def test_assoc_legendre_rejects_bad_orders():
    with pytest.raises(ValueError):
        assoc_legendre(2, 3)
    with pytest.raises(ValueError):
        assoc_legendre(2, -1)


def test_proportionality_error_paths():
    with pytest.raises(ProportionalityError):
        proportionality_constant(ClosedFormSuperpotential(1).ground_state(),
                                 ClosedFormSuperpotential(2).ground_state())
    with pytest.raises(ProportionalityError):
        proportionality_constant(
            HypWave(0, 0, TanhPoly.t()), HypWave(0, 0, TanhPoly((1, 1))))
    with pytest.raises(ProportionalityError):
        proportionality_constant(HypWave(0, 0, TanhPoly.one(), 0),
                                 ClosedFormSuperpotential(1).ground_state())


def test_legendre_identity_frozen_constants():
    assert check_legendre_identity(1, 1) == 1
    assert check_legendre_identity(2, 1) == 1
    assert check_legendre_identity(3, 2) == 3


def test_legendre_identity_all_orders():
    for l in range(1, 9):
        for m in range(1, l + 1):
            c = check_legendre_identity(l, m)
            assert c != 0


def test_legendre_identity_validates():
    with pytest.raises(ValueError):
        check_legendre_identity(2, 0)
    with pytest.raises(ValueError):
        check_legendre_identity(2, 3)


def test_legendre_links_read_one_derivative_chain():
    towers = {m: ladder_tower(m, 8 - m) for m in range(1, 9)}
    for l in range(1, 9):
        chain = legendre_derivatives(l, l)
        poly = legendre_poly(l)
        for m in range(l + 1):
            assert chain[m] == poly
            poly = poly.derivative()
        assert legendre_links(l, range(1, l + 1), towers) == [
            check_legendre_identity(l, m) for m in range(1, l + 1)]
    assert legendre_links(5, [], towers) == []
    with pytest.raises(ValueError, match="1 <= m <= l"):
        legendre_links(4, [1, 5], towers)
    with pytest.raises(ValueError, match="1 <= m <= l"):
        check_legendre_identity(2, 3)


def test_legendre_identity_matches_pointwise():
    # the exact constant must also hold numerically at arbitrary points
    from susyqm import eval_wave

    for l, m in ((3, 1), (5, 4), (8, 8)):
        c = float(check_legendre_identity(l, m))
        lhs = assoc_legendre(l, m)
        rhs = ladder_chain(l, l - m)
        for z in (-1.3, 0.2, 2.7):
            assert eval_wave(lhs, z) == pytest.approx(c * eval_wave(rhs, z), rel=1e-12)


def test_gegenbauer_identity_frozen_constants():
    # constants depend only on q: 1, 3, 15 for q = 3/2, 5/2, 7/2
    for p in range(7):
        assert check_gegenbauer_identity(p, Fraction(3, 2)) == 1
        assert check_gegenbauer_identity(p, Fraction(5, 2)) == 3
        assert check_gegenbauer_identity(p, Fraction(7, 2)) == 15


def test_gegenbauer_identity_example_values():
    # degree-1, q = 3/2: both sides equal 3t
    assert gegenbauer_poly(1, Fraction(3, 2)) == TanhPoly((0, 3))
    assert check_gegenbauer_identity(1, Fraction(3, 2)) == 1
    assert check_gegenbauer_identity(0, Fraction(3, 2)) == 1


def test_gegenbauer_identity_validates():
    with pytest.raises(ValueError):
        check_gegenbauer_identity(2, Fraction(1, 2))  # below 3/2
    with pytest.raises(ValueError):
        check_gegenbauer_identity(2, 2)  # not half-integer


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_jacobi_and_legendre_golden():
    # sha256 of the printed Fractions, taken from the earlier Fraction-per-coefficient TanhPoly
    coeffs = [str(c) for c in jacobi_poly(24, Fraction(1, 2), Fraction(3, 2)).coeffs]
    assert _sha(coeffs) == "a7fa1e4abbe218a0e0e246b60a47bbc1c396be665859a5de65b843f5d416415f"
    constants = [str(check_legendre_identity(24, m)) for m in range(1, 25)]
    assert _sha(constants) == "f301126252200376fee3efd97ad1a16e78081ee2429c577d8600d67683285e27"


def test_deep_jacobi_golden():
    # taken from the recurrence that normalised every step, where the ints are largest
    coeffs = [str(c) for c in jacobi_poly(300, Fraction(1, 3), Fraction(7, 5)).coeffs]
    assert _sha(coeffs) == "bf00a14ac1312bce6d22db23a21719fb119826e387695355abe99f4a534a43dc"
