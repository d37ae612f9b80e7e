"""Brute-force Hankel determinants, read off the series coefficients.

This is the route that checks the fraction, so it must never read it:
it builds the matrices (f_{a+b+ell}) from raw Taylor coefficients and
hands them to the fraction-free kernels of `algebra`. The module
imports only `algebra` and `qseries`; `tests/test_oracle.py` holds it
to that, statically and with the fraction modules made to raise.
"""

from __future__ import annotations

from .algebra import PrecisionError, Series, ZZ, det_fraction_free, leading_minors
from .qseries import metallic_series


def hankel_bruteforce(F: Series, ell: int, j: int):
    """Determinant of the j x j matrix (f_{a+b+ell}) of series
    coefficients, computed fraction-free. j = 0 gives 1. Requires
    precision at least ell + 2j - 1."""
    if ell < 0 or j < 0:
        raise ValueError("shift and size must be >= 0")
    dom = F.dom
    if j == 0:
        return dom.from_int(1)
    needed = ell + 2 * j - 1
    if F.prec < needed:
        raise PrecisionError(
            f"Hankel determinant of size {j} at shift {ell} needs series "
            f"precision >= {needed}, got {F.prec}"
        )
    coeffs = F.coeffs
    rows = [[coeffs[a + b + ell] for b in range(j)] for a in range(j)]
    return det_fraction_free(rows, dom)


def hankel_bruteforce_values(n: int, ell: int, count: int) -> list:
    """First count Hankel determinants of the ell-fold shift of the
    metallic series, from one fraction-free elimination."""
    return hankel_window(metallic_series(n, ell + 2 * count), ell, count)


def hankel_window(F: Series, ell: int, count: int) -> list:
    """[hankel_bruteforce(F, ell, j) for j in range(count)] for an integer
    series, read off the leading minors of the single (count-1) x (count-1)
    matrix (f_{a+b+ell})."""
    if F.dom is not ZZ:
        # leading_minors divides with //, exact only on integers
        raise ValueError(f"the one-pass window needs a series over ZZ, got {F.dom}")
    size = max(count - 1, 0)
    if size and F.prec < ell + 2 * size - 1:
        raise PrecisionError(
            f"Hankel determinants up to size {size} at shift {ell} need "
            f"series precision >= {ell + 2 * size - 1}, got {F.prec}"
        )
    coeffs = F.coeffs
    rows = [coeffs[ell + a:ell + a + size] for a in range(size)]
    return leading_minors(rows)[:count]
