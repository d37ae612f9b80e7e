"""Brute-force Hankel determinants, read off the series coefficients.

This is the route that checks the fraction, so it must never read it:
it builds the matrix (f_{a+b+ell}) from raw Taylor coefficients and
reads every determinant of a window off the leading minors that the
fraction-free kernel of `algebra` gives in one elimination. The module
imports only `algebra` and `qseries`; `tests/test_oracle.py` holds it
to that, statically and with the fraction modules made to raise.
"""

from __future__ import annotations

from .algebra import PrecisionError, Series, ZZ, leading_minors
from .qseries import metallic_series


def hankel_bruteforce_values(n: int, ell: int, count: int) -> list:
    """First count Hankel determinants of the ell-fold shift of the
    metallic series, from one fraction-free elimination."""
    return hankel_window(metallic_series(n, ell + 2 * count), ell, count)


def hankel_window(F: Series, ell: int, count: int) -> list:
    """The Hankel determinants det (f_{a+b+ell})_{a,b<j} of an integer
    series for j = 0 .. count-1 (j = 0 gives 1), read off the leading
    minors of the single (count-1) x (count-1) matrix (f_{a+b+ell})."""
    if ell < 0 or count < 0:
        # a negative slice bound would wrap around to the series' end
        raise ValueError("shift and size must be >= 0")
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
