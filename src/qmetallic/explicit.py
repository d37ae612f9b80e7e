"""The closed forms of Theorem 5.1 for n >= 3.

One (anti)period of the base determinants Delta_j^(0) is zero except at
the support indices s of the fraction terms 3p + cls (cls in {0, 1, 2}),
and each is given in closed form with its sign: `explicit_support_index`
and `explicit_delta`, assembled by `explicit_delta_sequence`. The same
support is also decided by residue conditions on j alone
(`support_membership`), and read off the fraction's own bookkeeping by
`support_sets`. `verify` checks them against the two routes and the
fraction's bookkeeping; nothing here computes a determinant.
"""

from __future__ import annotations

from . import template


def _sign_pow(e: int) -> int:
    return -1 if e % 2 else 1


def explicit_delta(n: int, p: int, cls: int) -> int:
    """Closed-form value of the determinant at the support index of
    fraction term 3p + cls (cls in {0, 1, 2}), for n >= 3.

    Raises ValueError when p falls outside the displayed range of the
    requested class.
    """
    if n < 3:
        raise ValueError("closed forms assume n >= 3 (smaller n are tabulated)")
    half = n * (n - 1) // 2
    if cls == 0:
        if 0 <= p <= n - 1:
            return _sign_pow(p * half + p * (p - 1) // 2)
        if p == n:
            return _sign_pow(n * (n + 1) * (n + 2) // 2)
        if n + 1 <= p <= 2 * n - 2:
            return _sign_pow((p + 1) * half + n)
    elif cls == 1:
        if 0 <= p <= 2 * n - 2:
            return _sign_pow(p * half + p * (p + 1) // 2)
    elif cls == 2:
        if 0 <= p <= n - 2:
            return _sign_pow((p + 1) * half)
        if p == n - 1:
            return _sign_pow(n * (n - 1) ** 2 // 2)
        if n <= p <= 2 * n - 3:
            return _sign_pow(p * half + (p + 1) * (p + 2) // 2)
    else:
        raise ValueError(f"cls must be 0, 1 or 2, got {cls}")
    raise ValueError(f"p={p} is outside the displayed range of class {cls} for n={n}")


def explicit_support_index(n: int, p: int, cls: int) -> int:
    """Closed-form support index s of fraction term 3p + cls, n >= 3."""
    if n < 3:
        raise ValueError("closed forms assume n >= 3")
    if cls == 0:
        if 0 <= p <= n - 1:
            return p * (n + 1)
        if p == n:
            return (n + 1) ** 2
        if n + 1 <= p <= 2 * n - 2:
            return 1 + (p + 3) * n
    elif cls == 1:
        if 0 <= p <= n - 1:
            return 1 + p * (n + 1)
        if n <= p <= 2 * n - 2:
            return n + (p + 1) * (n + 1)
    elif cls == 2:
        if 0 <= p <= n - 2:
            return (p + 1) * n
        if p == n - 1:
            return n * (n + 1)
        if n <= p <= 2 * n - 3:
            return (p + 2) * (n + 1)
    else:
        raise ValueError(f"cls must be 0, 1 or 2, got {cls}")
    raise ValueError(f"p={p} is outside the displayed range of class {cls} for n={n}")


def _class_ranges(n: int):
    # (cls, max p) triples tiling the fraction terms 0..6n-6, 1..6n-5, 2..6n-7
    return ((0, 2 * n - 2), (1, 2 * n - 2), (2, 2 * n - 3))


def explicit_delta_sequence(n: int) -> list:
    """One full (anti)period of determinant values, reconstructed purely
    from the closed-form support indices and signs (zero off-support)."""
    P = 2 * n * (n + 1)
    out = [0] * P
    for cls, pmax in _class_ranges(n):
        for p in range(pmax + 1):
            out[explicit_support_index(n, p, cls)] = explicit_delta(n, p, cls)
    return out


def support_membership(n: int, j: int):
    """(membership, witness) of index j in the nonzero-determinant set.

    Membership is decided by residue conditions (i)-(v) inside one
    period window, after reducing j by multiples of 2n(n+1) (the window
    keeps its right endpoint). n >= 3.
    """
    if n < 3:
        raise ValueError("the residue characterization assumes n >= 3")
    if j < 0:
        raise ValueError("index must be >= 0")
    P = 2 * n * (n + 1)
    if j > P:
        j = (j - 1) % P + 1
    if j % (n + 1) == 0:
        return True, "i"
    if j % (n + 1) == 1 and 1 <= j <= n * n:
        return True, "ii"
    if j % (n + 1) == n and n + (n + 1) ** 2 <= j <= n + (2 * n - 1) * (n + 1):
        return True, "iii"
    if j % n == 0 and n <= j <= (n - 1) * n:
        return True, "iv"
    if j % n == 1 and 1 + (n + 4) * n <= j <= 1 + (2 * n + 1) * n:
        return True, "v"
    return False, None


def support_sets(n: int):
    """The three support classes within one period window, as sets:
    support indices of fraction terms congruent to 0, 1, 2 mod 3."""
    prof = template.support_profile(template.expected_hfraction(n), 6 * n - 4)
    out = ([], [], [])
    for i, s in enumerate(prof.s_seq):
        out[i % 3].append(s)
    return tuple(frozenset(c) for c in out)
