"""Complete flags, relative position, and tangent spaces of the incidence
variety of (matrix, flag) pairs.

A complete flag in k^n is the chain of spans of the leading columns of an
invertible matrix.  Its identity is one canonical column-echelon basis,
built once per flag: flags compare and hash by it, so the adapted basis is
a representative and a cache lookup costs one tuple hash.

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
row > col.  The tangent space of the incidence variety at a point (0, F)
is then stab(F) ⊕ chart inside k^(n^2) ⊕ k^(n(n-1)/2), and the fiber
square over 0 has tangent chart ⊕ (stab ∩ stab) ⊕ chart.  The coordinate
flag of w has stabilizer borel(P_w^-1), so the tangent sum is the envelope
sum of stab(F_h) over S_n, the memoized loop of :mod:`borelenv.envelope`
(one small kernel per w), shared with borel(h^-1)'s oracle.  The n! fiber
tangents through ``tangent_fiber`` and ``dpi2`` are its test oracle; the
builder's is the stability conditions, solved as one kernel in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .decomp import bruhat_cell
from .envelope import _borel_span, _dual_flag, _intersection_sum, _matrix_flag, _translate_coords
from .errors import ContractViolation, InvalidInput, ResourceGuard
from .linalg import FieldSpec, Matrix, Subspace, _intersect_with_coordinates, inverse, subspace_from_rows, subspace_intersect
from .weyl import Permutation, enumerate_group

__all__ = [
    "Flag",
    "TangentSpaceGtilde",
    "TangentSpaceFiber",
    "flag_from_matrix",
    "stabilizer_algebra",
    "relative_position",
    "tangent_gtilde",
    "tangent_fiber",
    "dpi2",
    "tangent_sum_check",
]

TANGENT_SUM_LIMIT = 6


def chart_dim(n: int) -> int:
    return n * (n - 1) // 2


class Flag:
    """A complete flag: an adapted basis, inverted only when first asked,
    and the key it compares and hashes by, the canonical echelon of its
    columns (:func:`envelope._flag_echelon`), which depends on the flag
    alone; building it is the rank check."""

    def __init__(self, adapted_basis: Matrix):
        if not adapted_basis.is_square:
            raise InvalidInput("adapted basis must be square")
        self.adapted_basis = h = adapted_basis
        self.n = n = h.nrows
        self.field = h.field
        self._key = tuple(_matrix_flag(h, [h.col(j) for j in range(n)]))

    @cached_property
    def _inverse(self) -> Matrix:
        return inverse(self.adapted_basis)

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


@lru_cache(maxsize=128)
def stabilizer_algebra(f: Flag) -> Subspace:
    """{M in gl_n : M F_i ⊆ F_i for all i}, as a subspace of k^(n^2).

    For the adapted basis h this is h @ b0 @ h^-1, spanned by c_a ⊗ r_b,
    a <= b, for c_a column a of h and r_b row b of h^-1, and fixed by the
    flags span(c_1..c_a) = F_a and span(r_b..r_n) = ann(F_{b-1}).  The key
    is the first in echelon form; the second is its dual, read off the key
    reversed as borel(g) reads g^-1's columns off g's rows
    (:func:`envelope._dual_flag`), so no matrix is formed.  Cached with a
    small bound: the tangent cover asks once per flag, so hits come from
    callers that repeat a flag, and the bound keeps a long run from holding
    the flag of every h it has seen.
    """
    return _borel_span(f.field, list(f._key), _dual_flag(f.field.p, f._key[::-1])[::-1])


def relative_position(f1: Flag, f2: Flag) -> Permutation:
    """The unique w with f2 in the f1-Borel orbit through w's coordinate flag.

    w is the Bruhat cell of h = g1^-1 @ g2, g1 and g2 the adapted bases.
    Proof: in g1's basis F1_i = span(e_1..e_i) and F2_j is spanned by the
    first j columns of h, so dim(F1_i ∩ F2_j) = j - r(i+1, j), r(i, j) the
    number of pivots of RREF(rows i..n of h) in columns 1..j, whose second
    difference is 1 exactly where row i adds column j to those pivots: the
    reading of :func:`bruhat_cell`, n RREFs instead of n^2 joint ranks.
    """
    if f1.n != f2.n or f1.field != f2.field:
        raise InvalidInput("flags live in different spaces")
    return bruhat_cell(f1._inverse @ f2.adapted_basis)


# ---------------------------------------------------------------------------
# Tangent spaces


@dataclass(frozen=True)
class TangentSpaceGtilde:
    """Tangent space of the incidence variety at (0, base_flag).

    Lives in k^(n^2) ⊕ chart; equals stab(base_flag) ⊕ (full chart), so its
    dimension is always n^2.
    """

    base_flag: Flag
    space: Subspace


@dataclass(frozen=True)
class TangentSpaceFiber:
    """Tangent space of the fiber square at ((flag1, 0, flag2)).

    Lives in chart ⊕ k^(n^2) ⊕ chart; equals
    chart ⊕ (stab(flag1) ∩ stab(flag2)) ⊕ chart.
    """

    flags: tuple[Flag, Flag]
    space: Subspace


def _block_diag_space(fld: FieldSpec, blocks) -> Subspace:
    """Canonical subspace from block-supported canonical pieces.

    ``blocks`` is a list of (offset, width, subspace_or_None); None means
    the full block.  Offsets are increasing and non-overlapping, so the
    pieces' canonical rows, padded in block order, are again canonical.
    """
    total = sum(w for _, w, _ in blocks)
    prim = []
    pivots = []
    for offset, width, piece in blocks:
        if piece is None:
            for t in range(width):
                row = [0] * total
                row[offset + t] = 1
                prim.append(tuple(row))
                pivots.append(offset + t)
        else:
            for r, pc in zip(piece.prim_rows(), piece._pivots):
                row = [0] * total
                row[offset : offset + width] = list(r)
                prim.append(tuple(row))
                pivots.append(offset + pc)
    return Subspace._from_prim(total, fld, prim, pivots)


def tangent_gtilde(f: Flag) -> TangentSpaceGtilde:
    n, fld = f.n, f.field
    cd = chart_dim(n)
    space = _block_diag_space(fld, [(0, n * n, stabilizer_algebra(f)), (n * n, cd, None)])
    if space.dim != n * n:
        raise ContractViolation("tangent space has wrong dimension")
    return TangentSpaceGtilde(f, space)


def tangent_fiber(f1: Flag, f2: Flag) -> TangentSpaceFiber:
    if f1.n != f2.n or f1.field != f2.field:
        raise InvalidInput("flags live in different spaces")
    n, fld = f1.n, f1.field
    cd = chart_dim(n)
    mid = subspace_intersect(stabilizer_algebra(f1), stabilizer_algebra(f2))
    space = _block_diag_space(
        fld, [(0, cd, None), (cd, n * n, mid), (cd + n * n, cd, None)]
    )
    return TangentSpaceFiber((f1, f2), space)


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
    stab(flag(h)); it is built only here, for the CLI's output.  ``holds``
    is True for every invertible h; False would indicate an implementation
    bug, and callers treat it as such.
    """
    holds, stab, _ = _tangent_sum(h)
    ledger = tuple(
        (w, _intersect_with_coordinates(stab, _translate_coords(w.inverse().images)).dim)
        for w in enumerate_group(h.nrows)
    )
    return holds, ledger
