"""Deterministic pseudo-randomness for the verification suites.

The generator is SplitMix64: state advances by the 64-bit golden-gamma
constant and outputs are finalized with two xor-shift-multiply rounds.
It is tiny, well studied, and trivially portable, so a seed reproduces
the same stream on any platform or language.

Bounded draws use plain ``next() % m``; the slight modulo bias is
irrelevant here (draws are test inputs, not statistics) and keeping the
rule trivial keeps it reproducible.  A matrix is drawn once, as ints in
[-QBOUND, QBOUND] over Q or residues over F_p; its rank is tested on them by
``_kernel._echelon_push``, up to the first dependent row, and one ``Matrix``
is built by the trusted constructor.  ``tests/test_rng.py`` pins each
constructor's ``next_u64`` calls and output against the naive path.

Trial streams are derived, not split: trial k of a criterion uses
``SplitMix64(seed ^ (GAMMA * (k + 1) mod 2^64))`` so a counterexample can
be replayed from its (seed, offset) pair alone.
"""

from __future__ import annotations

from fractions import Fraction

from ._kernel import _echelon_push
from .errors import InvalidInput
from .linalg import FieldSpec, Matrix

__all__ = [
    "SplitMix64", "derive_stream", "random_matrix", "random_invertible",
    "random_upper_invertible", "random_singular", "QBOUND",
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


def _draws(rng: SplitMix64, p: int | None, count: int) -> list[int]:
    """``count`` draws, one ``next_u64`` each: ints in [-QBOUND, QBOUND]
    over Q (p None), residues in [0, p) over F_p."""
    if p is None:
        return [rng.randint(-QBOUND, QBOUND) for _ in range(count)]
    return [rng.below(p) for _ in range(count)]


def _nonzero(rng: SplitMix64, p: int | None) -> int:
    if p is None:
        v = rng.randint(-QBOUND, QBOUND - 1)
        return v if v < 0 else v + 1  # skip zero, keep the range symmetric
    return 1 + rng.below(p - 1)


_FRACTION = {v: Fraction(v) for v in range(-QBOUND, QBOUND + 1)}


def _entries(p: int | None, ints: list[int]) -> list:
    """Drawn ints as field elements: Fractions over Q, the residues over F_p."""
    return list(map(_FRACTION.__getitem__, ints)) if p is None else ints


def random_matrix(rng: SplitMix64, field: FieldSpec, n: int) -> Matrix:
    return Matrix(field, n, n, tuple(_entries(field.p, _draws(rng, field.p, n * n))))


def random_invertible(rng: SplitMix64, field: FieldSpec, n: int) -> Matrix:
    """Rejection sampling: draw dense matrices until one has full rank."""
    while True:
        ints, out, leads = _draws(rng, field.p, n * n), [], []
        if all(_echelon_push(field.p, out, leads, ints[i : i + n]) for i in range(0, n * n, n)):
            return Matrix(field, n, n, tuple(_entries(field.p, ints)))


def random_upper_invertible(rng: SplitMix64, field: FieldSpec, n: int) -> Matrix:
    ints = []
    for i in range(n):
        ints += [0] * i + [_nonzero(rng, field.p)] + _draws(rng, field.p, n - i - 1)
    return Matrix(field, n, n, tuple(_entries(field.p, ints)))


def random_singular(rng: SplitMix64, field: FieldSpec, n: int) -> Matrix:
    """A matrix forced to be singular: one row is a combination of others."""
    p, ints = field.p, _draws(rng, field.p, n * n)
    if n == 1:
        return Matrix.zeros(field, 1, 1)
    t = rng.below(n) * n
    coefs = [(k, _draws(rng, p, 1)[0]) for k in range(0, n * n, n) if k != t]
    combo = [sum(c * ints[k + j] for k, c in coefs) for j in range(n)]
    ents = _entries(p, ints)  # the combination row can leave the table's range
    ents[t : t + n] = map(Fraction, combo) if p is None else (x % p for x in combo)
    return Matrix(field, n, n, tuple(ents))
