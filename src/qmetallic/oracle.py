"""Brute-force Hankel determinants, read off the series coefficients.

This is the route that checks the fraction, so it must never read it:
it builds the matrix (f_{a+b+ell}) from raw Taylor coefficients and
reads every determinant of a window off the leading minors that its
own fraction-free kernel, `leading_minors`, gives in one elimination.
The kernel reduces integer rows left-looking, by dot products, while
its pivots are +-1, and finishes with Bareiss steps after the first
that is not; `algebra.det_fraction_free` calls it for matrices over ZZ.
The module imports only `algebra` and `qseries`; `tests/test_oracle.py`
holds it to that, statically and with the fraction modules made to
raise.
"""

from __future__ import annotations

from operator import mul

from .algebra import PrecisionError, ZZ
from .qseries import Series, metallic_series


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


def leading_minors(rows) -> list:
    """Every leading principal minor of a square integer matrix, from one
    fraction-free elimination: [1, d_1, ..., d_n], d_k of the top-left
    k x k block.

    Rows are processed in order; each pivots on its leftmost nonzero
    column not yet used. Pivoting only moves rightward, so rows 0..k-1
    have pivots in exactly columns 0..k-1 when d_k != 0; d_k is then the
    Bareiss pivot of row k-1 (the minor of rows 0..k-1 on their pivot
    columns, taken in pivot order) times the sign of the pivot-column
    permutation. A row without a pivot depends on the rows above it, so
    every larger minor vanishes.

    The elimination runs in two phases. While every pivot is +-1, the
    rows are taken left-looking. Input row h_i is reduced by the plain
    (Gaussian) rows above it, row k kept as U_k, its reduced row times
    its pivot, so that U_k is 1 in its pivot column pc_k. The multipliers
    are c_k = h_i[pc_k] - sum_{t<k} c_t U_t[pc_k], and each live entry
    is h_i[j] - sum_k c_k U_k[j]. With unit pivots no step divides, so
    every update only adds integer products, and each entry is one dot
    product, run in C by sum(map(mul, ...)) over per-column lists of the
    U_k, each entry stored once. The Bareiss pivot is the product det of
    the plain pivots, +-1.

    At the first pivot that is not a unit, its row and the rows below are
    brought up to date row by row, subtracting c_k U_k for each unit step
    in turn: on the windows the hand-off comes after at most five unit
    steps, too few for a dot product per entry to pay for its call.
    Right-looking Bareiss steps (x*piv - f*y) / prev then finish the
    elimination; every division is exact (Sylvester's identity), so the
    entries stay in ZZ. A Bareiss row after the unit steps is det times
    the plain row, so the first Bareiss step takes the plain rows and
    pivot with prev = det, which gives the Bareiss rows; its Bareiss
    pivot is det times the plain one. A step whose divisor prev is +-1
    skips the division, and one whose pivot is +-1 skips a product:
    (x - g*y) / (prev*piv), g = f*piv. Those unit steps are written as
    plain differences x - g*y, which ran 3-12 % faster on the scan
    windows (orders 79-167) than the negated -(g*y - x). A row with
    prev*piv = 1 and f = 0 is unchanged.

    Any entry that is not an int (a Fraction, say) is refused, since the
    floor division would silently round it.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("leading minors of a non-square matrix")
        if not {int}.issuperset(map(type, row)):
            bad = next(x for x in row if type(x) is not int)
            raise TypeError(f"leading minors need int entries, got {type(bad).__name__}")
    live = list(range(n))  # original index of each column not yet pivoted
    cols = [[] for _ in live]  # per live column, its entries in the rows above
    steps = []  # per unit pivot: its column and that column's list
    minors = [1]
    inversions = 0
    det = 1

    def multipliers(h):
        c = []
        for pc, col in steps:
            c.append(h[pc] - sum(map(mul, c, col)))
        return c

    def reduced(h):
        c = multipliers(h)
        return [h[j] - sum(map(mul, c, col)) for j, col in zip(live, cols)]

    def updated(h):
        out = list(map(h.__getitem__, live))
        for c, u in zip(multipliers(h), urows):
            if c:
                out = [x - c * y for x, y in zip(out, u)]
        return out

    i = 0  # the first row of the Bareiss phase
    for i, h in enumerate(rows):
        row = reduced(h)
        pos = next((p for p, x in enumerate(row) if x), None)
        if pos is None:
            return minors + [0] * (n - i)
        p = row[pos]
        if p != 1 and p != -1:
            break
        det *= p
        for col, x in zip(cols, row):
            col.append(x * p)
        steps.append((live[pos], cols[pos]))
        del live[pos], cols[pos]
        # Each of the pos live columns left of the pivot is pivoted by
        # a later row. When d_k != 0 that row is above row k, so the sum
        # over rows < k counts the inversions of their pivot columns.
        inversions += pos
        minors.append(0 if live and live[0] <= i else (-det if inversions & 1 else det))
    else:
        return minors
    urows = list(zip(*cols))  # the live entries of each U_k
    m = list(map(updated, rows[i:]))
    prev = det
    for k, row in enumerate(m, i):
        pos = next((p for p, x in enumerate(row) if x), None)
        if pos is None:
            break
        piv = row[pos]
        del live[pos], row[pos]
        inversions += pos
        unit = piv == 1 or piv == -1
        q = prev * piv if unit else prev
        for r in range(k - i + 1, len(m)):
            mr = m[r]
            f = mr.pop(pos)
            if unit:
                g = f * piv
                if q == 1:
                    if f:
                        m[r] = [x - g * y for x, y in zip(mr, row)]
                elif q == -1:
                    m[r] = [g * y - x for x, y in zip(mr, row)]
                else:
                    m[r] = [(x - g * y) // q for x, y in zip(mr, row)]
            elif q == 1:
                m[r] = [x * piv - f * y for x, y in zip(mr, row)]
            elif q == -1:
                m[r] = [f * y - x * piv for x, y in zip(mr, row)]
            else:
                m[r] = [(x * piv - f * y) // q for x, y in zip(mr, row)]
        if k == i:
            piv *= det
        prev = piv
        minors.append(0 if live and live[0] <= k else (-piv if inversions & 1 else piv))
    return minors + [0] * (n + 1 - len(minors))
