"""Triangular-times-permutation factorizations of square matrices.

Two factorizations:

* Bruhat: every invertible g splits as u1 @ P_s @ u2 with u1, u2 upper
  triangular invertible, read off one row sweep; the cell label s is
  unique, and :func:`bruhat_cell` reads it independently off the pivot
  column that each row adds to the RREF of the rows from it down.

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

Over F_p a Matrix holds its entries reduced into [0, p) (its constructor
reduces them), so the factors of a directly built Matrix recompose to a
Matrix equal to it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal

from .errors import ContractViolation, InvalidInput, NotInvertible, ResourceGuard, UlpInfeasible
from .linalg import Matrix, _int_shape, _rref_prim, solve_exact
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


def _require_square(m: Matrix) -> Matrix:
    """m, checked square."""
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
    f = g.field
    n = g.nrows
    zero = f.zero()
    m = g.rows_list()
    u1 = [[f.one() if i == j else zero for j in range(n)] for i in range(n)]
    u2 = [None] * n
    images = [0] * n
    for j in range(n):
        i = next((r for r in range(n - 1, -1, -1) if m[r][j] != zero), None)
        if i is None:
            raise NotInvertible("matrix is singular")
        images[j] = i + 1
        piv = m[i][j]
        for r in range(i):
            if m[r][j] != zero:
                fac = u1[r][i] = f.div(m[r][j], piv)
                m[r] = [f.sub(x, f.mul(fac, y)) for x, y in zip(m[r], m[i])]
        u2[j], m[i] = m[i], [zero] * n
    factors = BruhatFactors(_square(f, u1), Permutation(tuple(images)), _square(f, u2))
    if factors.recompose() != g:
        raise ContractViolation("Bruhat recomposition failed")
    return factors


def bruhat_cell(g: Matrix) -> Permutation:
    """The Bruhat cell label of invertible g, from the pivots of row blocks.

    With P_i the pivot columns of RREF(rows i..n), w(j) is the i with column
    j in P_i but not in P_{i+1}: there the corner rank r(i, j) = |P_i ∩
    columns 1..j| (RREF pivots are leftmost) has second difference 1.  The
    corner ranks are two-sided invariants under upper triangular
    multiplication, so the label does not depend on any elimination.
    """
    g = _require_square(g)
    n = g.nrows
    rows = _int_shape(g.field, g.rows_list())
    images = [0] * n
    below: set[int] = set()
    for i in range(n, 0, -1):
        pivots = set(_rref_prim(g.field, rows[i - 1 :], n)[2])
        if not below <= pivots:
            raise ContractViolation("pivot sets of the row blocks do not nest")
        if pivots == below:
            raise NotInvertible(f"row {i} adds no pivot column: matrix is singular")
        (c,) = pivots - below
        images[c] = i
        below = pivots
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# ULP


def _ulp_lower(m: Matrix) -> UlpFactors:
    """Unipotent-lower ULP; always exists.

    Rows are processed bottom-up.  Row i of m is peeled against the rows
    already built; the residue is supported on the columns not yet claimed,
    and its deepest nonzero column (or the deepest free column when the
    residue vanishes) becomes this row's claim.  The claims define the
    permutation; the scaled residues assemble into the unipotent lower
    factor.
    """
    f = m.field
    n = m.nrows
    zero, one = f.zero(), f.one()
    x_rows: list[list] = [None] * n  # type: ignore[list-item]
    claimed: list[int] = [0] * n  # claimed[k] = column claimed at stage k
    free = set(range(n))
    u = [[zero] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        v = list(m.row(i))
        for k in range(n - 1, i, -1):
            coef = v[claimed[k]]
            u[i][k] = coef
            if coef != zero:
                xk = x_rows[k]
                v = [f.sub(a, f.mul(coef, b)) for a, b in zip(v, xk)]
        support = [c for c in range(n) if v[c] != zero]
        if support:
            j = max(support)
            u[i][i] = v[j]
            inv = f.inv(v[j])
            x_rows[i] = [f.mul(inv, a) for a in v]
        else:
            j = max(free)
            u[i][i] = zero
            x_rows[i] = [one if c == j else zero for c in range(n)]
        claimed[i] = j
        free.discard(j)
    images = [0] * n
    for k in range(n):
        images[claimed[k]] = k + 1
    p = Permutation(tuple(images))
    lower = [[x_rows[k][claimed[c]] for c in range(n)] for k in range(n)]
    return UlpFactors(_square(f, u), _square(f, lower), p, "lower")


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
    this single pass succeeds exactly when every row passes.
    """
    f = b.field
    n = b.nrows
    zero, one = f.zero(), f.one()
    l_rows: list[list] = [None] * n  # type: ignore[list-item]
    u = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        tail = n - 1 - i
        v = list(b.row(i))
        if tail:
            # coefficients t with sum_k t_k L_k matching v on columns > i
            cols = range(i + 1, n)
            a = Matrix(f, tail, tail, tuple(l_rows[k][c] for c in cols for k in range(i + 1, n)))
            t = solve_exact(a, [v[c] for c in cols])
            if t is None:
                return None
            for idx, k in enumerate(range(i + 1, n)):
                u[i][k] = t[idx]
                if t[idx] != zero:
                    v = [f.sub(x, f.mul(t[idx], y)) for x, y in zip(v, l_rows[k])]
        if any(v[c] != zero for c in range(i + 1, n)):
            raise ContractViolation("residual row escaped its lower support")
        l_rows[i] = v
    return _square(f, u), _square(f, l_rows)


def _ulp_upper(m: Matrix) -> UlpFactors:
    f = m.field
    n = m.nrows
    zero = f.zero()
    base = _ulp_lower(m)
    diag = [base.u.at(i, i) for i in range(n)]
    if all(d != zero for d in diag):
        # move the diagonal of u into l
        u = _square(f, [[f.div(base.u.at(i, k), diag[k]) for k in range(n)] for i in range(n)])
        lower = _square(f, [[f.mul(diag[i], base.l.at(i, k)) for k in range(n)] for i in range(n)])
        return UlpFactors(u, lower, base.p, "upper")
    # Singular corner: the first p with m @ P_p^-1 = U @ L, trying base.p and
    # then S_n in lexicographic order.  The factorization with a unipotent
    # upper factor does not always exist; when no p passes the rank test of
    # _ul_split's lemma, that proves infeasibility exactly.
    if n > ULP_SEARCH_LIMIT:
        raise ResourceGuard(f"unipotent-upper search needs {n}! permutation trials")
    split = _ul_split(m.permute_cols(base.p.inverse()))
    if split is not None:
        return UlpFactors(split[0], split[1], base.p, "upper")
    splits = _column_set_test(m)
    for img in itertools.permutations(range(1, n + 1)):
        if img != base.p.images and splits(img):
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
    if not factors.u.is_upper_triangular():
        raise ContractViolation("u factor is not upper triangular")
    if not factors.l.is_lower_triangular():
        raise ContractViolation("l factor is not lower triangular")
    one = m.field.one()
    named = factors.u if factors.normalization == "upper" else factors.l
    if any(named.at(i, i) != one for i in range(m.nrows)):
        raise ContractViolation("normalized factor is not unipotent")
    if factors.recompose() != m:
        raise ContractViolation("ULP recomposition failed")
