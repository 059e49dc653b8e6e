"""Complete flags, relative position, and tangent spaces of the incidence
variety of (matrix, flag) pairs.

A complete flag in k^n is the chain of spans of the leading columns of an
invertible matrix.  Everything here reads two echelon bases that depend on
the flag alone and are built once per flag, with no matrix inverted: its
key, the canonical column echelon that flags compare and hash by, and its
dual, whose row suffixes span the annihilators of the flag's steps, read
off the key by back-substitution.  The adapted basis is a representative.

Stabilizer convention: ``stabilizer_algebra(flag_from_matrix(g))`` equals
g @ b0 @ g^-1 for b0 the upper triangular algebra.  This is the opposite
conjugation direction from :mod:`borelenv.envelope` (which uses
g^-1 @ b0 @ g); the bridge identity is

    stabilizer_algebra(flag_from_matrix(inverse(g))) == borel_from_g(g).algebra

and both directions are kept deliberately, each in its home module.  Both
algebras come from one builder, the span of a flag against its dual flag:
stab(flag(h)) takes the flag's key for h's columns and reads the dual off
it by the back-substitution borel(g) applies to g's rows.  So criterion
7's bridge, stab(flag(h)) == borel(inverse(h)), checks that
``linalg.inverse`` agrees with that back-substitution, read from h's
columns on one side and from inverse(h)'s rows on the other.

Tangent spaces are coordinatized concretely.  The tangent space of the
flag variety at any point is identified with the strictly lower triangular
matrices (the unipotent-opposite chart through that point), giving
n(n-1)/2 chart coordinates ordered lexicographically by (row, col) with
row > col.  The fiber square over 0 has tangent chart ⊕ (stab ∩ stab) ⊕
chart at (F1, F2); on the diagonal its projection ``dpi2`` is the tangent
space of the incidence variety at (0, F), stab(F) ⊕ chart.  The coordinate
flag of w has stabilizer borel(P_w^-1), so the tangent sum is the envelope
sum of stab(F_h) over S_n, the memoized loop of :mod:`borelenv.envelope`
(one small kernel per w), shared with borel(h^-1)'s oracle.  The CLI's
ledger of the n! terms' dimensions forms no intersection: each is the law
n(n+1)/2 - ℓ(relative position).  The n! fiber tangents through
``tangent_fiber`` and ``dpi2`` are the test oracle of both; the builder's
is the stability conditions, solved as one kernel in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from ._kernel import _flag_echelon
from .decomp import _echelon_cell
from .envelope import _borel_span, _dual_flag, _intersection_sum
from .errors import InvalidInput, ResourceGuard
from .linalg import Matrix, Subspace, _matrix_flag, _span_int, subspace_from_rows, subspace_intersect
from .weyl import Permutation, enumerate_group, length

__all__ = [
    "Flag",
    "TangentSpaceFiber",
    "flag_from_matrix",
    "stabilizer_algebra",
    "relative_position",
    "tangent_fiber",
    "dpi2",
    "tangent_sum_check",
]

TANGENT_SUM_LIMIT = 6


def chart_dim(n: int) -> int:
    return n * (n - 1) // 2


class Flag:
    """A complete flag: an adapted basis, the key it compares and hashes by,
    the canonical echelon of its columns (:func:`_kernel._flag_echelon`),
    and the dual read off that key when first asked.  Key and dual depend
    on the flag alone; building the key is the rank check."""

    def __init__(self, adapted_basis: Matrix):
        if not adapted_basis.is_square:
            raise InvalidInput("adapted basis must be square")
        self.adapted_basis = h = adapted_basis
        self.n = n = h.nrows
        self.field = h.field
        self._key = tuple(_matrix_flag(h, [h.col(j) for j in range(n)]))

    @cached_property
    def _dual(self) -> list:
        """The dual flag in echelon form: rows b..n span ann(F_{b-1}), read
        off the key reversed as borel(g) reads g^-1's columns off g's rows
        (:func:`envelope._dual_flag`)."""
        return _dual_flag(self.field.p, self._key[::-1])[::-1]

    def __eq__(self, other):
        if not isinstance(other, Flag):
            return NotImplemented
        return self.field == other.field and self._key == other._key

    def __hash__(self):
        return hash((self.field, self._key))

    def __repr__(self):
        return f"Flag(n={self.n}, field={self.field})"


def flag_from_matrix(g: Matrix) -> Flag:
    """The flag of leading-column spans of invertible g."""
    return Flag(g)


@lru_cache(maxsize=8)
def stabilizer_algebra(f: Flag) -> Subspace:
    """{M in gl_n : M F_i ⊆ F_i for all i}, as a subspace of k^(n^2).

    For the adapted basis h this is h @ b0 @ h^-1, spanned by c_a ⊗ r_b,
    a <= b, for c_a column a of h and r_b row b of h^-1, and fixed by the
    flags span(c_1..c_a) = F_a and span(r_b..r_n) = ann(F_{b-1}): the key
    and the dual, so no matrix is formed.  Cached with a small bound: the
    tangent cover asks once per flag, so hits come from callers that repeat
    a flag.  Eight entries hold the 7 flags of the GL_2 prelude within one
    pass, and the drawn flags that end the pass evict them, so no work
    carries from one run to the next.
    """
    return _borel_span(f.field, list(f._key), f._dual)


def relative_position(f1: Flag, f2: Flag) -> Permutation:
    """The unique w with f2 in the f1-Borel orbit through w's coordinate flag.

    w is the Bruhat cell of h1^-1 @ h2, h1 and h2 the adapted bases.  In
    h1's basis F1_i = span(e_1..e_i) and F2_j is spanned by the first j
    columns of h1^-1 @ h2, so dim(F1_i ∩ F2_j) = j - r(i+1, j), r(i, j) the
    number of pivots of RREF(rows i..n) in columns 1..j, whose second
    difference is 1 exactly where row i adds column j to those pivots: the
    reading of :func:`bruhat_cell`, one echelon instead of n^2 joint ranks.
    The cell is read from D1 @ K2 instead, D1 with f1's dual as rows and K2
    with f2's key as columns.  D1's row suffixes span those of h1^-1, so
    D1 = T @ h1^-1 with T upper triangular; K2's column prefixes span those
    of h2, so K2 = h2 @ b2 with b2 upper triangular.  Then D1 @ K2 =
    T @ (h1^-1 @ h2) @ b2, and the label is a two-sided invariant.
    """
    if f1.n != f2.n or f1.field != f2.field:
        raise InvalidInput("flags live in different spaces")
    p = f1.field.p
    d1k2 = [[sum(x * y for x, y in zip(d, k)) for k in f2._key] for d in f1._dual]
    rows = d1k2 if p is None else [[x % p for x in row] for row in d1k2]  # unreduced, a lead could vanish
    return _echelon_cell(_flag_echelon(p, rows[::-1]))


# ---------------------------------------------------------------------------
# Tangent spaces


@dataclass(frozen=True)
class TangentSpaceFiber:
    """Tangent space of the fiber square at ((flag1, 0, flag2)).

    Lives in chart ⊕ k^(n^2) ⊕ chart; equals
    chart ⊕ (stab(flag1) ∩ stab(flag2)) ⊕ chart.
    """

    flags: tuple[Flag, Flag]
    space: Subspace


def tangent_fiber(f1: Flag, f2: Flag) -> TangentSpaceFiber:
    if f1.n != f2.n or f1.field != f2.field:
        raise InvalidInput("flags live in different spaces")
    n, cd = f1.n, chart_dim(f1.n)
    width = 2 * cd + n * n
    mid = subspace_intersect(stabilizer_algebra(f1), stabilizer_algebra(f2))
    units = [[int(c == t) for c in range(width)] for t in (*range(cd), *range(cd + n * n, width))]
    rows = units[:cd] + [[0] * cd + list(r) + [0] * cd for r in mid.prim_rows()] + units[cd:]
    return TangentSpaceFiber((f1, f2), _span_int(f1.field, rows, width))


def dpi2(t: TangentSpaceFiber) -> Subspace:
    """Project the fiber tangent space onto the (gl_n ⊕ second chart) block."""
    n = t.flags[0].n
    cd = chart_dim(n)
    rows = [list(r)[cd:] for r in t.space.rows()]
    return subspace_from_rows(n * n + cd, rows, field=t.flags[0].field)


def _tangent_sum(h: Matrix):
    """(holds, stab, gl): stab(flag(h)), and gl the sum of its intersections
    with the stabilizers of all coordinate flags.

    The coordinate flag of w has stabilizer borel(P_w^-1), and {w^-1} is
    all of S_n, so gl is the memoized :func:`envelope._intersection_sum`
    of stab over S_n, the one sum borel(h^-1)'s brute-force envelope also
    reads: a kernel on stab's rows per w until the sum has rank dim(stab),
    which returns stab itself.  The tangent space at (0, flag(h)) and the
    projected fiber tangents' sum both carry the full chart block, so the
    sum covers it exactly when gl == stab (the fiber route is the oracle).
    """
    if not h.is_square:
        raise InvalidInput("square matrix required")
    n = h.nrows
    if n > TANGENT_SUM_LIMIT:
        raise ResourceGuard(f"tangent sum guarded at n <= {TANGENT_SUM_LIMIT}")
    stab = stabilizer_algebra(flag_from_matrix(h))
    gl = _intersection_sum(stab, enumerate_group(n))
    return gl == stab, stab, gl


def tangent_sum_check(h: Matrix):
    """Check that the projected fiber tangents over all coordinate flags sum
    to the full tangent space at (0, flag(h)).

    Returns ``(holds, ledger)`` where the ledger lists, for each w in S_n in
    enumeration order, the dimension of stab(coordinate flag of w) ∩
    stab(flag(h)); it is built only here, for the CLI's output, by the law
    n(n+1)/2 - ℓ(relative position): flag(P_w)'s dual is P_w^-1, so
    :func:`relative_position` reads the cell of P_w^-1 @ K, K with
    flag(h)'s key as columns, off K's rows in the order w.  ``holds`` is
    True for every invertible h; False would indicate an implementation
    bug, and callers treat it as such.
    """
    holds, _, _ = _tangent_sum(h)
    n, rows, ws = h.nrows, list(zip(*flag_from_matrix(h)._key)), enumerate_group(h.nrows)  # K's rows
    cells = [_echelon_cell(_flag_echelon(h.field.p, [rows[t - 1] for t in w.images[::-1]])) for w in ws]
    return holds, tuple((w, n * (n + 1) // 2 - length(cell)) for w, cell in zip(ws, cells))
