"""Power-series algebra in the embedding parameter.

All series are plain sequences of coefficients ``c[0..n]`` representing
``sum(c[d] * alpha**d)``.  The reciprocal and magnitude recurrences are the
order-by-order companions used by the injected-voltage and equivalent-
reactance control modes.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import toeplitz

#: smallest leading coefficient for which reciprocal/magnitude companions
#: are considered well defined
EPS_ZERO = 1e-9

#: singular values of the Pade denominator block below this fraction of its
#: largest count as zero; also the relative size at which the denominator
#: is taken to vanish at alpha = 1
PADE_RTOL = 1e-12


class SeriesOrderError(ValueError):
    """A coefficient beyond the available order was requested."""


class SingularSeriesError(ZeroDivisionError):
    """Leading coefficient too small for a reciprocal/magnitude recurrence."""


def reciprocal_coefficient(f, i_series, n: int) -> complex:
    """Order-n coefficient of the reciprocal of ``i_series``.

    ``f`` holds the reciprocal coefficients through order n-1; the returned
    value makes the Cauchy product of the two series vanish at order n.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if len(f) < n or len(i_series) <= n:
        raise SeriesOrderError(f"insufficient coefficients for order {n}")
    lead = i_series[0]
    if abs(lead) <= EPS_ZERO:
        raise SingularSeriesError("reciprocal of a series with ~zero leading "
                                  "coefficient (zero current guess?)")
    return -sum(f[d] * i_series[n - d] for d in range(n)) / lead


def magnitude_coefficient(m, i_series, n: int) -> float:
    """Order-n coefficient of the magnitude series of ``i_series``.

    Defined by the Cauchy-square identity |I|(a) * |I|(a) = I(a) * conj-I(a),
    where conj-I has coefficient-wise conjugated entries.  ``m`` holds the
    magnitude coefficients through order n-1 (m[0] = |i_series[0]|).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if len(m) < n or len(i_series) <= n:
        raise SeriesOrderError(f"insufficient coefficients for order {n}")
    lead = abs(i_series[0])
    if lead <= EPS_ZERO:
        raise SingularSeriesError("magnitude series of a series with ~zero "
                                  "leading coefficient")
    cross = sum(i_series[d] * np.conj(i_series[n - d]) for d in range(n + 1))
    self_sq = sum(m[d] * m[n - d] for d in range(1, n))
    return float((cross.real - self_sq) / (2.0 * lead))


def evaluate_at_one(coeffs, pade: bool = False):
    """Value of the series at alpha = 1: partial sum, or the degree-reduced
    diagonal Pade approximant of ``pade_at_one`` when ``pade`` is set and
    there are at least four coefficients.

    ``coeffs`` may be an array of shape ``(..., k)`` holding one series of
    k coefficients per leading index (one per bus, say); the result then
    has shape ``(...)``, and a 1-D series gives a scalar.
    """
    c = np.atleast_1d(coeffs)
    if c.shape[-1] == 0:
        raise ValueError("empty series")
    if not pade or c.shape[-1] < 4:
        return c.sum(axis=-1)
    if c.ndim == 1:
        return pade_at_one(c)
    rows = c.reshape(-1, c.shape[-1])
    return np.array([pade_at_one(r) for r in rows],
                    dtype=complex).reshape(c.shape[:-1])


def pade_at_one(coeffs) -> complex:
    """Diagonal Pade approximant of the series evaluated at 1.

    Starts from the [L/L] form on the first 2L + 1 coefficients (an even
    count drops the last one).  The denominator coefficients b satisfy the
    Toeplitz system ``sum(b[j] * c[L + 1 + i - j], j=0..M) = 0`` for
    i = 0..M-1.  Its numerical rank, from an SVD relative to the block's
    largest singular value (``PADE_RTOL``), sets the denominator degree M:
    a rank-deficient block lowers M to its rank and is rebuilt, and the
    full-rank block's null vector is the denominator.  The numerator keeps
    degree L, where Gonnet, Guettel & Trefethen ("Robust Pade approximation
    via SVD", SIAM Review 2013) lower both degrees.  An exactly rational
    series thus resums to its value at 1 whether or not its block is
    exactly singular in floating point; a zero block leaves M = 0, the
    partial sum of the first L + 1 coefficients.  A denominator that vanishes at 1 to within
    ``PADE_RTOL`` (a pole at 1) gives an infinite value.
    """
    c = np.asarray(coeffs, dtype=complex)
    L = M = (c.size - 1) // 2
    b = np.ones(1, dtype=complex)
    while M > 0:
        block = toeplitz(c[L + 1:L + M + 1], c[L + 1 - M:L + 2][::-1])
        _, sv, vh = np.linalg.svd(block)
        rank = int(np.count_nonzero(sv > PADE_RTOL * sv[0]))
        if rank == M:
            b = vh[-1].conj()
            break
        M = rank
    denom = b.sum()
    if abs(denom) <= PADE_RTOL * np.abs(b).sum():
        return complex(np.inf)
    return np.convolve(c[:L + 1], b)[:L + 1].sum() / denom
