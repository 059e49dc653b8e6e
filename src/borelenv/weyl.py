"""The symmetric group S_n as the Weyl group of GL_n.

Permutations use 1-based one-line notation: ``images[j-1]`` is the image
of j, matching the usual interval conventions and the JSON interface.

The permutation-matrix convention is fixed once and inherited everywhere:
``perm_matrix(w)`` has its 1 in column j at row w(j), so P_w e_j = e_{w(j)}
and w -> P_w is a group homomorphism.

>>> compose(Permutation((2, 3, 1)), Permutation((2, 1, 3))).images
(3, 2, 1)
>>> length(Permutation((3, 1, 2)))
2
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from operator import le

from .errors import InvalidInput, ResourceGuard
from .linalg import FieldSpec, Matrix

__all__ = [
    "Permutation",
    "compose",
    "length",
    "longest_element",
    "bruhat_leq",
    "perm_matrix",
    "transposition_set",
    "enumerate_group",
]

ENUMERATION_LIMIT = 8


@dataclass(frozen=True)
class Permutation:
    """Element of S_n in 1-based one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise InvalidInput("permutations need n >= 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise InvalidInput(f"{self.images} is not a permutation of 1..{n}")

    def __hash__(self) -> int:
        return hash(self.images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        """Image of j under the permutation (1-based)."""
        if not 1 <= j <= self.n:
            raise InvalidInput(f"argument {j} outside 1..{self.n}")
        return self.images[j - 1]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        """The transposition exchanging i and j inside S_n."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidInput("transposition entries outside 1..n")
        img = list(range(1, n + 1))
        img[i - 1], img[j - 1] = j, i
        return cls(tuple(img))

    def inverse(self) -> "Permutation":
        img = [0] * self.n
        for j, w in enumerate(self.images, start=1):
            img[w - 1] = j
        return Permutation(tuple(img))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.images)) + ")"


def _check_same_n(u: Permutation, w: Permutation):
    if u.n != w.n:
        raise InvalidInput(f"size mismatch: S_{u.n} vs S_{w.n}")


def compose(u: Permutation, w: Permutation) -> Permutation:
    """(u o w)(j) = u(w(j))."""
    _check_same_n(u, w)
    return Permutation(tuple(u.images[wj - 1] for wj in w.images))


def length(w: Permutation) -> int:
    """Coxeter length of w, realized as its inversion count."""
    img = w.images
    return sum(1 for i in range(w.n) for j in range(i + 1, w.n) if img[i] > img[j])


def longest_element(n: int) -> Permutation:
    """The order-reversing involution j -> n+1-j, of maximal length."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    return Permutation(tuple(range(n, 0, -1)))


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order via the tableau criterion (Ehresmann).

    u <= w iff for every j < n the sorted prefix u(1..j) is entrywise <= the
    sorted prefix w(1..j); Björner–Brenti, *Combinatorics of Coxeter
    Groups*, Thm 2.6.3.
    """
    _check_same_n(u, w)
    a, b = [], []  # the sorted prefixes, each grown by one insort
    for x, y in zip(u.images[:-1], w.images[:-1]):
        insort(a, x)
        insort(b, y)
        if not all(map(le, a, b)):
            return False
    return True


def perm_matrix(w: Permutation, field: FieldSpec) -> Matrix:
    """The permutation matrix P_w with P_w e_j = e_{w(j)}."""
    n = w.n
    one, zero = field.one(), field.zero()
    ents = [zero] * (n * n)
    for j in range(1, n + 1):
        ents[(w(j) - 1) * n + (j - 1)] = one
    return Matrix(field, n, n, tuple(ents))


@lru_cache(maxsize=16)
def transposition_set(n: int) -> tuple[Permutation, ...]:
    """The identity together with all transpositions, (n^2-n+2)/2 elements.

    Order is deterministic: identity first, then transpositions (i, j) with
    i > j sorted lexicographically by (j, i).  Built once per n (16 kept).
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    out = [Permutation.identity(n)]
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            out.append(Permutation.transposition(n, i, j))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_group(n: int) -> tuple[Permutation, ...]:
    """All of S_n in lexicographic one-line order; guarded at n <= 8.

    Built once per n: repeat calls return the same tuple (Permutations are
    frozen).  Errors are raised again on every call; they are never cached.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if n > ENUMERATION_LIMIT:
        raise ResourceGuard(f"refusing to enumerate S_{n} ({n}! elements)")
    return tuple(Permutation(img) for img in itertools.permutations(range(1, n + 1)))
