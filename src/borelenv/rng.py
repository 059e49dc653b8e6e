"""Deterministic pseudo-randomness for the verification suites.

The generator is SplitMix64: state advances by the 64-bit golden-gamma
constant and outputs are finalized with two xor-shift-multiply rounds.
It is tiny, well studied, and trivially portable, so a seed reproduces
the same stream on any platform or language.

Bounded draws use plain ``next() % m``; the slight modulo bias is
irrelevant here (draws are test inputs, not statistics) and keeping the
rule trivial keeps it reproducible.

Trial streams are derived, not split: trial k of a criterion uses
``SplitMix64(seed ^ (GAMMA * (k + 1) mod 2^64))`` so a counterexample can
be replayed from its (seed, offset) pair alone.
"""

from __future__ import annotations

from .errors import InvalidInput
from .linalg import FieldSpec, Matrix, _rank

__all__ = [
    "SplitMix64",
    "derive_stream",
    "random_matrix",
    "random_invertible",
    "random_upper_invertible",
    "random_singular",
    "QBOUND",
]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

QBOUND = 9  # integer entry bound for rational test data


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, m: int) -> int:
        """Uniform-ish draw from [0, m)."""
        if m <= 0:
            raise InvalidInput("bound must be positive")
        return self.next_u64() % m

    def randint(self, lo: int, hi: int) -> int:
        """Draw from the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def derive_stream(seed: int, offset: int) -> SplitMix64:
    """The stream for trial ``offset`` of a run seeded with ``seed``."""
    return SplitMix64(seed ^ ((_GAMMA * (offset + 1)) & _MASK))


def _scalar(rng: SplitMix64, field: FieldSpec):
    if field.p is None:
        return rng.randint(-QBOUND, QBOUND)
    return rng.below(field.p)


def _nonzero_scalar(rng: SplitMix64, field: FieldSpec):
    if field.p is None:
        v = rng.randint(-QBOUND, QBOUND - 1)
        return v if v < 0 else v + 1  # skip zero, keep the range symmetric
    return 1 + rng.below(field.p - 1)


def random_matrix(rng: SplitMix64, field: FieldSpec, n: int) -> Matrix:
    return Matrix.from_rows(field, [[_scalar(rng, field) for _ in range(n)] for _ in range(n)])


def random_invertible(rng: SplitMix64, field: FieldSpec, n: int) -> Matrix:
    """Rejection sampling: draw dense matrices until one has full rank."""
    while True:
        m = random_matrix(rng, field, n)
        if _rank(m) == n:
            return m


def random_upper_invertible(rng: SplitMix64, field: FieldSpec, n: int) -> Matrix:
    rows = []
    for i in range(n):
        row = [field.zero()] * i
        row.append(field.coerce(_nonzero_scalar(rng, field)))
        row.extend(_scalar(rng, field) for _ in range(n - i - 1))
        rows.append(row)
    return Matrix.from_rows(field, rows)


def random_singular(rng: SplitMix64, field: FieldSpec, n: int) -> Matrix:
    """A matrix forced to be singular: one row is a combination of others."""
    m = random_matrix(rng, field, n)
    if n == 1:
        return Matrix.zeros(field, 1, 1)
    rows = m.rows_list()
    target = rng.below(n)
    combo = [0] * n
    for k in range(n):
        if k == target:
            continue
        c = _scalar(rng, field)
        combo = [x + c * y for x, y in zip(combo, rows[k])]
    rows[target] = combo  # from_rows coerces it into the field
    return Matrix.from_rows(field, rows)
