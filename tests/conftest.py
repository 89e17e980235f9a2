"""Shared strategies and fixtures for the test suite."""

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest

from susyqm import Grid, HypWave, TanhPoly, fd_oracle

rationals = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)
nonzero_rationals = rationals.filter(lambda f: f != 0)
small_exponents = st.fractions(min_value=Fraction(-2), max_value=Fraction(3),
                               max_denominator=4)


@st.composite
def tanh_polys(draw, max_degree: int = 4):
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_degree + 1))
    return TanhPoly(coeffs)


@st.composite
def nonzero_tanh_polys(draw, max_degree: int = 4):
    poly = draw(tanh_polys(max_degree=max_degree).filter(lambda p: not p.is_zero))
    return poly


@st.composite
def hyp_waves(draw):
    return HypWave(
        a=draw(small_exponents),
        b=draw(small_exponents),
        poly=draw(nonzero_tanh_polys()),
        prefactor=draw(nonzero_rationals),
    )


@pytest.fixture(scope="session")
def default_grid():
    return Grid(-12.0, 12.0, 2001)


class OddWell:
    """V = tanh z sech^2 z: equal asymptotes 0, but V(-z) = -V(z), so not even.

    A test-only well with the family interface that scattering reads.
    """

    def __repr__(self):
        return "OddWell()"

    def tanh_poly(self) -> TanhPoly:
        return TanhPoly((0, 1, 0, -1))  # t (1 - t^2)


@pytest.fixture
def odd_well():
    return OddWell()


@pytest.fixture
def potential_calls(monkeypatch):
    """Every z array and V array that fd_oracle evaluates by potential_values."""
    calls = []
    real = fd_oracle.potential_values

    def recording(v, z):
        values = real(v, z)
        calls.append((np.array(z), np.array(values)))
        return values

    monkeypatch.setattr(fd_oracle, "potential_values", recording)
    return calls
