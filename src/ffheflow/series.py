"""Power-series algebra in the embedding parameter.

All series are plain sequences of coefficients ``c[0..n]`` representing
``sum(c[d] * alpha**d)``; an array of shape ``(..., k)`` holds one series
per row.  Every Cauchy-product coefficient is one ``cauchy`` row dot over
all rows at once.  The reciprocal and magnitude recurrences are the
order-by-order companions used by the injected-voltage and equivalent-
reactance control modes, one call per order for every companion row.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import toeplitz

#: singular values of the Pade denominator block below this fraction of its
#: largest count as zero; also the relative size at which the denominator
#: is taken to vanish at alpha = 1
PADE_RTOL = 1e-12


def cauchy(a, b):
    """Per row, the dot ``a[..., :] @ b[..., :]`` over the last axis, as a
    stacked matmul: the 1-D ``@`` summation, for all rows at once."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def reciprocal_coefficient(f, i_series, n: int):
    """Order-n coefficients of the reciprocals of the rows of ``i_series``.

    ``f`` holds the reciprocal coefficients through order n-1 (more are
    ignored); the returned values make the Cauchy product of each pair of
    rows vanish at order n.  Arrays of shape ``(..., k)`` give one value
    per row; a 1-D pair is one series.
    """
    f, i = np.asarray(f), np.asarray(i_series)
    return -cauchy(f[..., :n], i[..., n:0:-1]) / i[..., 0]


def magnitude_coefficient(m, i_series, n: int):
    """Order-n coefficients of the magnitude series of the rows of
    ``i_series``.

    Defined by the Cauchy-square identity |I|(a) * |I|(a) = I(a) * conj-I(a),
    where conj-I has coefficient-wise conjugated entries.  ``m`` holds the
    magnitude coefficients through order n-1 (m[..., 0] = |i_series[..., 0]|).
    Shapes as for :func:`reciprocal_coefficient`.
    """
    m, i = np.asarray(m), np.asarray(i_series)
    cross = cauchy(i[..., :n + 1], np.conj(i[..., n::-1])).real
    self_sq = cauchy(m[..., 1:n], m[..., n - 1:0:-1])
    lead = i[..., 0]
    return (cross - self_sq) / (2.0 * np.hypot(lead.real, lead.imag))


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
