"""Unit and property tests for the power-series algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffheflow.series import (evaluate_at_one, magnitude_coefficient,
                             pade_at_one, reciprocal_coefficient)
import scalar_kernels as scalar
from scalar_kernels import SeriesOrderError, convolve


def build_companions(i_series):
    """Reciprocal and magnitude companion series of ``i_series``."""
    n = len(i_series) - 1
    f = np.zeros(n + 1, dtype=complex)
    m = np.zeros(n + 1)
    f[0] = 1.0 / i_series[0]
    m[0] = abs(i_series[0])
    for k in range(1, n + 1):
        f[k] = reciprocal_coefficient(f, i_series, k)
        m[k] = magnitude_coefficient(m, i_series, k)
    return f, m


class TestConvolve:
    def test_known_product(self):
        a = [1.0, 2.0, 3.0]
        b = [4.0, 5.0, 6.0]
        assert convolve(a, b, 0) == 4.0
        assert convolve(a, b, 1) == 13.0
        assert convolve(a, b, 2) == 28.0

    def test_order_beyond_length_raises(self):
        with pytest.raises(SeriesOrderError):
            convolve([1.0], [1.0, 2.0], 1)


class TestReciprocal:
    def test_geometric_series(self):
        # 1 / (1 - a/2) has coefficients (1/2)**k
        i = np.array([1.0, -0.5, 0.0, 0.0, 0.0], dtype=complex)
        f = np.zeros(5, dtype=complex)
        f[0] = 1.0
        for k in range(1, 5):
            f[k] = reciprocal_coefficient(f, i, k)
        assert np.allclose(f, [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_cauchy_identity(self):
        rng = np.random.default_rng(7)
        i = rng.normal(size=8) + 1j * rng.normal(size=8)
        i[0] = 1.0 + 0.5j
        f, _ = build_companions(i)
        assert abs(convolve(f, i, 0) - 1.0) < 1e-14
        for k in range(1, 8):
            assert abs(convolve(f, i, k)) < 1e-12


class TestMagnitude:
    def test_cauchy_square_identity(self):
        rng = np.random.default_rng(11)
        i = rng.normal(size=10) + 1j * rng.normal(size=10)
        i[0] = 0.8 - 0.3j
        _, m = build_companions(i)
        conj_i = np.conj(i)
        for k in range(10):
            lhs = convolve(m, m, k)
            rhs = convolve(i, conj_i, k)
            assert abs(lhs - rhs) < 1e-10
            assert abs(rhs.imag) < 1e-12

    def test_real_positive_constant(self):
        i = np.array([2.0 + 0j, 0, 0, 0])
        _, m = build_companions(i)
        assert np.allclose(m, [2.0, 0, 0, 0])


class TestEvaluate:
    def test_partial_sum(self):
        assert evaluate_at_one([1.0, 2.0, 3.0]) == 6.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            evaluate_at_one([])

    def test_pade_resums_geometric_tail(self):
        # geometric series with ratio 0.6: partial sums converge slowly,
        # the diagonal approximant is exact for a rational function
        r = 0.6
        c = r ** np.arange(9)
        exact = 1.0 / (1.0 - r)
        assert abs(evaluate_at_one(c, pade=True) - exact) < 1e-10
        assert abs(c.sum() - exact) > 1e-3

    def test_pade_short_series_falls_back(self):
        c = np.array([1.0, 0.5, 0.25])
        assert evaluate_at_one(c, pade=True) == c.sum()

    def test_pade_degenerate_falls_back(self):
        c = np.zeros(7)
        c[0] = 1.0
        assert pade_at_one(c) == 1.0

    def test_pade_exact_for_rational_series(self):
        # (1 + 0.3a) / (1 - 0.5a): a [1/1] function, so the 4x4 denominator
        # block of the [4/4] form is rank deficient and the degree must drop
        k = np.arange(1, 9)
        c = np.concatenate(([1.0], 0.5 ** k + 0.3 * 0.5 ** (k - 1)))
        assert abs(pade_at_one(c) - 1.3 / 0.5) < 1e-12

    def test_pade_geometric_tail_independent_of_rounding(self):
        # the exact geometric coefficients make the denominator block
        # singular to rounding, where LU may or may not meet an exact zero
        # pivot depending on the LAPACK build; perturbing them by a few ulp
        # changes which.  The rank decision must treat all of them alike.
        c = 0.6 ** np.arange(9)
        exact = pade_at_one(c)
        rng = np.random.default_rng(3)
        for _ in range(20):
            ulps = rng.integers(-4, 5, size=c.size)
            perturbed = c * (1.0 + ulps * np.finfo(float).eps)
            assert abs(pade_at_one(perturbed) - exact) < 1e-10

    @pytest.mark.parametrize("c", [np.ones(9), np.arange(1.0, 10.0)],
                             ids=["1/(1-a)", "1/(1-a)^2"])
    def test_pade_pole_at_one_is_not_finite(self, c):
        # a denominator vanishing at 1 must not be replaced by the partial
        # sum (or a huge rounding-level quotient): the solver's finiteness
        # check then stops the series loudly
        value = evaluate_at_one(c, pade=True)
        assert not np.isfinite(value)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                min_size=3, max_size=12),
       st.floats(0.3, 2.0), st.floats(0, 2 * np.pi))
def test_companion_identities_property(coeffs, lead_mag, lead_ang):
    """Reciprocal and magnitude companions satisfy their defining identities
    for arbitrary coefficient data with a well-scaled leading term."""
    i = np.array([complex(re, im) for re, im in coeffs])
    i[0] = lead_mag * np.exp(1j * lead_ang)
    f, m = build_companions(i)
    n = len(i) - 1
    scale = max(1.0, float(np.max(np.abs(f))) ** 2)
    for k in range(n + 1):
        unit = 1.0 if k == 0 else 0.0
        assert abs(convolve(f, i, k) - unit) < 1e-9 * scale
        assert abs(convolve(m, m, k) - convolve(i, np.conj(i), k)) \
            < 1e-9 * max(1.0, float(np.max(m)) ** 2)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 5), n=st.integers(1, 20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_row_recurrences_match_scalar_oracle(rows, n, seed):
    """One row-wise call per order gives, for every row, the scalar
    recurrence's coefficient from the same lower orders, within 1e-12 of the
    sum of its summands' magnitudes (the summation error bound); a 1-D call
    is the same series as a one-row call, bitwise."""
    rng = np.random.default_rng(seed)
    i = 0.5 * (rng.normal(size=(rows, n + 1))
               + 1j * rng.normal(size=(rows, n + 1)))
    i[:, 0] = rng.uniform(0.3, 2.0, rows) * np.exp(2j * np.pi
                                                   * rng.random(rows))
    f = np.zeros_like(i)
    m = np.zeros(i.shape)
    f[:, 0], m[:, 0] = 1.0 / i[:, 0], np.abs(i[:, 0])
    for k in range(1, n + 1):
        f[:, k] = reciprocal_coefficient(f, i, k)
        m[:, k] = magnitude_coefficient(m, i, k)
        for r in range(rows):
            fr, mr, ir = f[r], m[r], i[r]
            lead = abs(ir[0])
            f_mag = sum(abs(fr[d] * ir[k - d]) for d in range(k)) / lead
            m_mag = (sum(abs(ir[d] * ir[k - d]) for d in range(k + 1))
                     + sum(abs(mr[d] * mr[k - d]) for d in range(1, k))
                     ) / (2.0 * lead)
            assert abs(fr[k] - scalar.reciprocal_coefficient(fr, ir, k)) \
                <= 1e-12 * f_mag
            assert abs(mr[k] - scalar.magnitude_coefficient(mr, ir, k)) \
                <= 1e-12 * m_mag
            one = slice(r, r + 1)
            for fn, c in ((reciprocal_coefficient, f),
                          (magnitude_coefficient, m)):
                row = fn(c[one], i[one], k)
                assert row.shape == (1,)
                assert fn(c[r], ir, k).tobytes() == row[0].tobytes()
