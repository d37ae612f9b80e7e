"""Seeded request lists for the benchmark workloads.

A request is one `qmetallic` command line. Each workload is a fixed list
of slots; a slot names a request class, the class's size parameter `n`
and the variants the seed may pick from (output format, shift `ell`,
prime `p`). The seed picks one variant per slot and the order of the
slots. It never adds, drops or resizes a slot, so the amount of work in
a workload does not depend on the seed.

Every variant of every slot is listed by `universe`, which is what the
recorded output digests cover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("text", "json", "csv")

# The first three primes at or above 10^k, k = 0..13: modp requests span
# every decade from GF(2) up to about 10^13. 2^61-1 is left out because
# the trial-division primality test does not return for it.
PRIMES_BY_DECADE = (
    (2, 3, 5),
    (11, 13, 17),
    (101, 103, 107),
    (1009, 1013, 1019),
    (10007, 10009, 10037),
    (100003, 100019, 100043),
    (1000003, 1000033, 1000037),
    (10000019, 10000079, 10000103),
    (100000007, 100000037, 100000039),
    (1000000007, 1000000009, 1000000021),
    (10000000019, 10000000033, 10000000061),
    (100000000003, 100000000019, 100000000057),
    (1000000000039, 1000000000061, 1000000000063),
    (10000000000037, 10000000000051, 10000000000099),
)


@dataclass(frozen=True)
class Request:
    cls: str  # request class, the same in every seed
    n: str  # the class's size parameter, the same in every seed
    argv: tuple  # command line after `qmetallic`

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Slot:
    cls: str
    n: str
    variants: tuple  # of argv tuples


def _slot(cls, n, variants) -> Slot:
    return Slot(cls, str(n), tuple(tuple(str(a) for a in v) for v in variants))


def _formats(*argv):
    return [argv + ("--format", f) for f in FORMATS]


def _oracle():
    # the three callers of the brute-force determinant oracle
    for n in range(3, 7):
        yield _slot("hankel-both", n, _formats("hankel", "--n", n, "--source", "both"))
    for n in (4, 5):
        for ell in (n + 2, n + 3):
            yield _slot("scan", n, _formats("scan", "--n", n, "--ell", ell))
    for n in (5, 6):
        yield _slot("verify-thm51", n, _formats("verify", "--suite", "thm51", "--n", n))


def _suites():
    # theorem suites that never call the oracle
    yield _slot("verify-thmA", "10..24", _formats("verify", "--suite", "thmA", "--n", "10..24"))
    for suite in ("thmB", "thmC", "thmD", "symmetries"):
        yield _slot(f"verify-{suite}", "20..30",
                    _formats("verify", "--suite", suite, "--n", "20..30"))


def _interactive():
    # many short requests of every subcommand
    for n in range(1, 7):
        yield _slot("series", n, _formats("series", "--n", n, "--prec", 12 + 4 * n))
    for ell in range(6):
        for argv in _formats("hfrac", "--n", 4, "--ell", ell):
            yield _slot("hfrac", 4, [argv])
    for n in (3, 5, 7, 9, 12):
        yield _slot("hankel-formula", n, [
            argv
            for ell in range(n + 2)
            for argv in _formats("hankel", "--n", n, "--ell", ell, "--source", "formula")
        ])
    for suite, n_range in (("thmA", "1..6"), ("thmB", "1..4"), ("thmC", "1..4"),
                           ("thmD", "1..4"), ("symmetries", "3..6")):
        yield _slot(f"verify-{suite}", n_range,
                    _formats("verify", "--suite", suite, "--n", n_range))
    for k, primes in enumerate(PRIMES_BY_DECADE):
        n = 1 + k % 6
        yield _slot(f"modp-1e{k}", n, [
            argv
            for ell in range(n + 2)
            for p in primes
            for argv in _formats("modp", "--n", n, "--ell", ell, "--p", p)
        ])
    for n in (2, 3):
        yield _slot("scan", n, [
            argv for ell in (n + 2, n + 3) for argv in _formats("scan", "--n", n, "--ell", ell)
        ])


WORKLOADS = {
    "oracle": _oracle,
    "suites": _suites,
    "interactive": _interactive,
}

# the no-work invocation timed as set-up
SETUP_ARGV = ("--version",)


def slots(workload: str) -> list:
    return list(WORKLOADS[workload]())


def requests(workload: str, seed: int) -> list:
    """The request list of one pass: one variant per slot, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    out = [Request(s.cls, s.n, rng.choice(s.variants)) for s in slots(workload)]
    rng.shuffle(out)
    return out


def universe() -> list:
    """Every command line any seed of any workload can produce, plus the
    set-up probe."""
    keys = {SETUP_ARGV}
    for name in WORKLOADS:
        for s in slots(name):
            keys.update(s.variants)
    return sorted(keys)
