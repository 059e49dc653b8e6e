"""Triangular-times-permutation factorizations of square matrices.

Two factorizations:

* Bruhat: every invertible g splits as u1 @ P_s @ u2 with u1, u2 upper
  triangular invertible, read off one row sweep; the cell label s is
  unique, and :func:`bruhat_cell` reads it independently off the lead
  that each row adds to the echelon of the rows below it.

* ULP: every square m, singular or not, splits as u @ l @ P_p with u upper
  triangular and l lower triangular.  The factor named by ``normalization``
  is made unipotent.  The unipotent-lower variant always exists and is
  computed directly; the unipotent-upper variant can be infeasible for
  singular m (see :class:`~borelenv.errors.UlpInfeasible`).  It is decided
  by rank tests on sets of columns: m @ P_p^-1 = U @ L with U unipotent
  upper holds iff, for every row i, row i of m restricted to the columns T
  that p sends past position i + 1 lies in the span of the rows below it
  restricted to T (the lemma in :func:`_ul_split`).  The test depends on
  the set T alone, so at most 2^n - 2 small ranks decide every p.

The sweeps run on integer rows (v, d) standing for v/d (residues, d = 1,
over F_p), updated by ``_kernel.peel``; each returned entry is built once,
and the self-checks compare products by integer dot products.  Over F_p a
Matrix holds its entries in [0, p), so a directly built one recomposes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Literal

from ._kernel import _lead, int_rows, peel, ratio, unit_row
from .errors import ContractViolation, InvalidInput, NotInvertible, ResourceGuard, UlpInfeasible
from .linalg import Matrix, _int_shape, _matrix_flag, _rref_prim
from .weyl import Permutation

__all__ = [
    "BruhatFactors",
    "UlpFactors",
    "bruhat_decompose",
    "bruhat_cell",
    "ulp_decompose",
]

Normalization = Literal["upper", "lower"]

# The walk over S_n stays n! dict lookups; the rank tests number at most
# 2^n - 2.  Worst case measured at n = 8 (2-core x86-64 VM, Python 3.11):
# an infeasible input walks all 40,320 permutations after up to 254 tests,
# 0.025-0.04 s over F_2, F_101 and Q ([[1, 1], [0, 0]] (+) I_6 and seeded
# singular inputs); the former n! split search took 2.0 s on the former.
ULP_SEARCH_LIMIT = 8


def _search_guard(n: int) -> None:
    if n > ULP_SEARCH_LIMIT:
        raise ResourceGuard(f"unipotent-upper search needs {n}! permutation trials")


@dataclass(frozen=True)
class BruhatFactors:
    u1: Matrix
    s: Permutation
    u2: Matrix

    def recompose(self) -> Matrix:
        return self.u1.permute_cols(self.s) @ self.u2


@dataclass(frozen=True)
class UlpFactors:
    u: Matrix
    l: Matrix
    p: Permutation
    normalization: Normalization

    def recompose(self) -> Matrix:
        return (self.u @ self.l).permute_cols(self.p)


def _square(f, rows) -> Matrix:
    """A square Matrix from rows of field elements, trusted: no coercion."""
    return Matrix(f, len(rows), len(rows), tuple(x for r in rows for x in r))


def _rows(m: Matrix) -> list[tuple]:
    return [m.row(i) for i in range(m.nrows)]


def _require_square(m: Matrix) -> Matrix:
    if not m.is_square:
        raise InvalidInput(f"square matrix required, got {m.nrows}x{m.ncols}")
    return m


def bruhat_decompose(g: Matrix) -> BruhatFactors:
    """Split invertible g as u1 @ P_s @ u2 with u1, u2 upper triangular.

    One row sweep over the columns, left to right: the pivot of column j is
    its lowest nonzero entry, in row i, and row operations clear the
    entries above it.  Column j is then zero outside row i, so the column
    operations that would clear the rest of row i touch nothing else: row i
    as it stands is row j of u2, and it is set to zero.  A row is reduced
    only before it becomes a pivot row, so the row operations compose with
    no cross terms: u1[r][i] is the multiplier that cleared m[r][j].
    """
    g = _require_square(g)
    f, n, p, zero, one = g.field, g.nrows, g.field.p, g.field.zero(), g.field.one()
    rows, u2, images = int_rows(_rows(g), p), [None] * n, [0] * n
    u1 = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for j in range(n):
        i = next((r for r in range(n - 1, -1, -1) if rows[r][0][j]), None)
        if i is None:
            raise NotInvertible("matrix is singular")
        images[j] = i + 1
        mi, di = rows[i]
        x, rec, e = unit_row(mi, di, j, p)
        for r in range(i):
            v, d = rows[r]
            if v[j]:
                u1[r][i] = ratio(v[j] * rec, d * e, p)
                rows[r] = peel(v, d, x, e, v[j], p)
        u2[j], rows[i] = [ratio(y, di, p) for y in mi], ([0] * n, 1)
    factors = BruhatFactors(_square(f, u1), Permutation(tuple(images)), _square(f, u2))
    # (u1 @ P_s)'s column j is u1's column s(j)
    left = [tuple(r[w - 1] for w in factors.s.images) for r in _rows(factors.u1)]
    _check_product(left, [factors.u2.entries[j::n] for j in range(n)], g, "Bruhat recomposition failed")
    return factors


def bruhat_cell(g: Matrix) -> Permutation:
    """The Bruhat cell label of invertible g, read off the flag echelon of
    its rows bottom-up (:func:`_echelon_cell`)."""
    g = _require_square(g)
    return _echelon_cell(_matrix_flag(g, g.rows_list()[::-1]))


def _echelon_cell(echelon: list) -> Permutation:
    """The cell label w of the square matrix whose rows, bottom-up, have
    this flag echelon (``_kernel._flag_echelon``).  The leads of rows i..n's
    vectors are the pivot columns P_i of RREF(rows i..n), so w(j) = i for
    the lead j of row i's vector, in P_i but not in P_{i+1}: there the
    corner rank r(i, j) = |P_i ∩ columns 1..j| (RREF pivots are leftmost)
    has second difference 1.  The corner ranks are two-sided invariants
    under upper triangular multiplication, so the label does not depend on
    any elimination."""
    row_at = {_lead(v): len(echelon) - k for k, v in enumerate(echelon)}  # vector k is row n - k's
    return Permutation(tuple(row_at[j] for j in sorted(row_at)))


# ---------------------------------------------------------------------------
# ULP


def _ulp_sweep(m: Matrix):
    """_ulp_lower's sweep in integer shape: (perm, claimed, res, units, coefs).

    Row i claims column claimed[i] (perm sends it to i + 1), with residue
    res[i] = (v, d) and peel row units[i] (unit_row there, or the unit
    vector if the residue vanishes); coefs[i][k], k >= i, is u[i][k] as
    (num, den)."""
    n, p = m.nrows, m.field.p
    res = int_rows(_rows(m), p)
    claimed, units = [0] * n, [None] * n
    coefs = [[(0, 1)] * n for _ in range(n)]
    free = set(range(n))
    for i in range(n - 1, -1, -1):
        v, d = res[i]
        for k in range(n - 1, i, -1):
            a = v[claimed[k]]
            if a:
                coefs[i][k] = (a, d)
                x, _, e = units[k]
                v, d = peel(v, d, x, e, a, p)
        j = next((c for c in range(n - 1, -1, -1) if v[c]), None)
        if j is None:
            j = max(free)
            units[i] = ([1 if c == j else 0 for c in range(n)], 0, 1)
        else:
            coefs[i][i] = (v[j], d)
            units[i] = unit_row(v, d, j, p)
        res[i], claimed[i] = (v, d), j
        free.discard(j)
    return Permutation(tuple(c + 1 for c in claimed)).inverse(), claimed, res, units, coefs


def _ulp_lower(m: Matrix) -> UlpFactors:
    """Unipotent-lower ULP; always exists.

    Rows are processed bottom-up.  Row i of m is peeled against the rows
    already built; the residue is supported on the columns not yet claimed,
    and its deepest nonzero column (or the deepest free column when the
    residue vanishes) becomes this row's claim.  The claims define the
    permutation; the scaled residues assemble into the unipotent lower
    factor.
    """
    f, n, p, zero = m.field, m.nrows, m.field.p, m.field.zero()
    base, claimed, _, units, coefs = _ulp_sweep(m)
    u = [[ratio(*coefs[i][k], p) if k >= i else zero for k in range(n)] for i in range(n)]
    lower = [[ratio(x[c], e, p) for c in claimed] for x, _, e in units]
    return UlpFactors(_square(f, u), _square(f, lower), base, "lower")


def _ul_split(b: Matrix):
    """b = U @ L with U unipotent upper, L lower; None when impossible.

    Rows of L are forced bottom-up: L_n = B_n, and each earlier row must
    reduce, modulo the rows below it, to something supported on its leading
    columns.  Lemma: the split exists iff, for every row i, b[i, >i] lies in
    the row span of b[i+1:, >i], i.e. rank(b[i:, >i]) = rank(b[i+1:, >i]).
    Proof: b[i+1:] = U' @ L[i+1:] with U' unipotent, so b[i+1:, >i] and
    L[i+1:, >i] have one row span S; b[i, >i] = sum_{k>i} U[i, k] L[k, >i]
    lies in S; conversely b[i, >i] in S gives t with b[i, >i] =
    t @ L[i+1:, >i], and L[i] = b[i] - t @ L[i+1:] is zero past i.  So
    this single pass succeeds exactly when every row passes.  With rows
    (w, e) for w/e, t_k L_k = (s_k/d0) w_k for s_k = row[-1]/row[pc] off the
    primitive RREF of [w_k columns | v], v/d0 the row being split.
    """
    f, n, p, zero, one = b.field, b.nrows, b.field.p, b.field.zero(), b.field.one()
    rows = int_rows(_rows(b), p)
    u = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n - 2, -1, -1):
        v, d = rows[i]
        cols = range(i + 1, n)
        aug = [[rows[k][0][c] for k in cols] + [v[c]] for c in cols]
        prim, _, pivots = _rref_prim(f, aug, n - i)
        if n - 1 - i in pivots:
            return None
        d0 = d
        for row, pc in zip(prim, pivots):
            if row[-1]:  # t_k L_k as peel's (a/d) (x/e): a = row[-1] d, e = row[pc] d0
                k = i + 1 + pc
                u[i][k] = ratio(row[-1] * rows[k][1], row[pc] * d0, p)
                v, d = peel(v, d, rows[k][0], row[pc] * d0, row[-1] * d, p)
        if any(v[i + 1 :]):
            raise ContractViolation("residual row escaped its lower support")
        rows[i] = (v, d)
    return _square(f, u), _square(f, [[ratio(y, d, p) for y in v] for v, d in rows])


def _ulp_upper(m: Matrix) -> UlpFactors:
    f, n, zero = m.field, m.nrows, m.field.zero()
    base, claimed, res, units, coefs = _ulp_sweep(m)
    if all(coefs[i][i][0] for i in range(n)):
        # move u's diagonal into l: u's column k times r_k/e_k, l's row i the residue
        u = [[ratio(a * units[k][1], b * units[k][2], f.p) if k >= i else zero
              for k, (a, b) in enumerate(row)] for i, row in enumerate(coefs)]
        lower = [[ratio(v[c], d, f.p) for c in claimed] for v, d in res]
        return UlpFactors(_square(f, u), _square(f, lower), base, "upper")
    # Singular corner: the first p with m @ P_p^-1 = U @ L, trying base and
    # then S_n in lexicographic order.  The factorization with a unipotent
    # upper factor does not always exist; when no p passes the rank test of
    # _ul_split's lemma, that proves infeasibility exactly.
    _search_guard(n)
    split = _ul_split(m.permute_cols(base.inverse()))
    if split is not None:
        return UlpFactors(split[0], split[1], base, "upper")
    splits = _column_set_test(m)
    for img in itertools.permutations(range(1, n + 1)):
        if img != base.images and splits(img):
            p = Permutation(img)
            split = _ul_split(m.permute_cols(p.inverse()))
            if split is None:
                raise ContractViolation("rank test passed but the U @ L split failed")
            return UlpFactors(split[0], split[1], p, "upper")
    raise UlpInfeasible("no upper*lower*permutation factorization has a unipotent upper factor")


def _column_set_test(m: Matrix):
    """splits(images): whether m @ P_p^-1 = U @ L, p = Permutation(images).

    _ul_split's lemma, row by row: row i (0-based) sees the columns
    T = {c : p(c) > i + 1} of m, and i = n - 1 - |T|, so each set T is
    tested once: one RREF of T's columns, rows i+1.. then row i, in which
    row i is in the span of the rows below iff the last column has no pivot.
    """
    f, n = m.field, m.nrows
    cols = _int_shape(f, [m.col(c) for c in range(n)])  # column scaling keeps ranks
    passed: dict[int, bool] = {}

    def splits(images) -> bool:
        at = [0] * n  # at[k] = column at position k + 1
        for c, pos in enumerate(images):
            at[pos - 1] = c
        mask, members = 0, []
        for i in range(n - 2, -1, -1):  # T grows by the column at position i + 2
            c = at[i + 1]
            mask |= 1 << c
            members.append(c)
            ok = passed.get(mask)
            if ok is None:
                rows = [list(cols[k][i + 1 :]) + [cols[k][i]] for k in members]
                ok = passed[mask] = n - 1 - i not in _rref_prim(f, rows, n - i)[2]
            if not ok:
                return False
        return True

    return splits


def ulp_decompose(m: Matrix, normalization: Normalization = "lower") -> UlpFactors:
    """Factor any square m as u @ l @ P_p, u upper and l lower triangular.

    ``normalization`` names the factor forced to have an all-ones diagonal.
    The result is deterministic for a given input and normalization.
    Raises UlpInfeasible for the (singular-input, "upper") corner where the
    factorization provably does not exist.
    """
    m = _require_square(m)
    if normalization not in ("upper", "lower"):
        raise InvalidInput(f"unknown normalization {normalization!r}")
    factors = _ulp_lower(m) if normalization == "lower" else _ulp_upper(m)
    _validate_ulp(m, factors)
    return factors


def _validate_ulp(m: Matrix, factors: UlpFactors):
    u, l, n = factors.u, factors.l, m.nrows
    if not u.is_upper_triangular():
        raise ContractViolation("u factor is not upper triangular")
    if not l.is_lower_triangular():
        raise ContractViolation("l factor is not lower triangular")
    named = u if factors.normalization == "upper" else l
    # a field element is 1 iff its numerator equals its denominator (1 for an int)
    if any(x.numerator != x.denominator for x in named.entries[:: n + 1]):
        raise ContractViolation("normalized factor is not unipotent")
    # (u @ l @ P_p)'s column j is (u @ l)'s column p(j)
    cols = [l.entries[w - 1 :: n] for w in factors.p.images]
    _check_product(_rows(u), cols, m, "ULP recomposition failed")


def _check_product(rows, cols, target: Matrix, message: str):
    """Raise ContractViolation(message) unless the product of these rows and
    columns is target, by integer dot products: mod p over F_p; over Q, each
    row and column over its common denominator, against target's entries
    cross-multiplied.  No Fraction is built or compared."""
    p, cols = target.field.p, int_rows(cols, target.field.p)
    if p:
        ok = tuple(sum(map(mul, r, c)) % p for r in rows for c, _ in cols) == target.entries
    else:
        ok = all(sum(map(mul, r, c)) * y.denominator == y.numerator * dr * dc
                 for (r, dr), t in zip(int_rows(rows, p), _rows(target)) for (c, dc), y in zip(cols, t))
    if not ok:
        raise ContractViolation(message)
