"""Shared constructors used by the test modules."""

from qmetallic import HFTerm, PeriodicHFraction, Poly, Series, ZZ


def term(triple, dom=ZZ):
    k, v, d = triple
    return HFTerm(k=k, v=dom.coerce(v), d=Poly(dom, d)).validate()


def fraction(head, cycle, dom=ZZ):
    """Build a periodic fraction from (k, v, D) literals."""
    return PeriodicHFraction(
        head=term(head, dom),
        preamble=(),
        cycle=tuple(term(t, dom) for t in cycle),
    )


def term_tuple(t):
    """Plain-data view of an HFTerm, comparable against golden literals."""
    return (t.k, int(t.v), [int(c) for c in t.d.coeffs])


def series(coeffs, prec=None, dom=ZZ):
    if prec is None:
        prec = len(coeffs)
    return Series(dom, [dom.coerce(c) for c in coeffs][:prec], prec)
