"""Row-level elimination kernels.

Two reduced-row-echelon cores sit behind the public linalg API:

* prime fields: rows as lists of Python ints, Gauss-Jordan that updates
  only the rows with a nonzero factor, inverses by Fermat exponentiation;
* rationals: integer rows, Gauss-Jordan that clears a column with
  row[c]*v - v[c]*row and keeps every updated row primitive (content 1).

Both use the same pivot rule (leftmost column, topmost usable row), so
each computes the unique RREF of its input.

There is one elimination path, and it runs on integers.  A row of
Fractions enters it through :func:`clear_denominators` (scaling a row keeps
its span, so the RREF is unchanged); over Q the canonical form comes out
in the primitive shape (integer rows with content 1 and positive pivot),
which determines the RREF proper by row <-> row/pivot.  Fractions are built
again only by :func:`fracs_from_primitive`, where linalg returns a public
``Matrix`` or ``Subspace.basis``, and by :func:`ratio` for decomp's factors,
whose sweeps carry each row as a pair (v, d) standing for v/d and tell Q
from F_p only through :func:`int_rows`, :func:`peel` and :func:`unit_row`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ContractViolation

__all__ = [
    "rref_fp",
    "rref_q_int",
    "clear_denominators",
    "fracs_from_primitive",
    "reduce_row",
    "reduce_row_q",
    "reduce_row_fp",
    "int_rows",
    "peel",
    "unit_row",
    "ratio",
]


def rref_fp(rows: list, width: int, p: int):
    """RREF of integer rows modulo the prime p.

    Returns (rows, rank, pivot_cols); rows is a list of int tuples of the
    same length as the input, zero rows at the bottom.
    """
    a = [[x % p for x in row] for row in rows]
    nrows = len(a)
    r = 0
    pivots: list[int] = []
    for c in range(width):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        rr = a[r]
        v = rr[c]
        if v != 1:
            inv = pow(v, p - 2, p)
            rr = a[r] = [x * inv % p for x in rr]
        for i in range(nrows):
            f = a[i][c]
            if f and i != r:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], rr)]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in a], r, pivots


def clear_denominators(row) -> tuple[list[int], int]:
    """Integers and one common denominator d with row == ints / d.

    Entries are ints or Fractions; both carry numerator and denominator.
    """
    d = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def _primitive(row: list[int], pivot_col: int) -> tuple[int, ...]:
    g = 0
    for x in row:
        if x:
            g = math.gcd(g, x)
            if g == 1:
                break
    if g == 0:
        return tuple(row)
    if row[pivot_col] < 0:
        g = -g
    return tuple(x // g for x in row)


def _clear(v, row, c: int) -> list[int]:
    """Primitive part of row[c]*v - v[c]*row: v with column c cleared by
    row, g = gcd(row[c], v[c]) divided out of both factors first."""
    g = math.gcd(row[c], v[c])
    p, f = row[c] // g, v[c] // g
    w = [p * x - f * y for x, y in zip(v, row)]
    g = math.gcd(*w)
    return [x // g for x in w] if g > 1 else w


def rref_q_int(irows: list, width: int):
    """Gauss-Jordan on integer rows that keeps every updated row primitive.

    Returns (prim_rows, rank, pivot_cols): the primitive canonical shape,
    zero rows dropped.  Each row stays a nonzero multiple of the row that
    plain Fraction elimination holds, so the zero patterns and pivots are
    the same; the test suite pins the result against it bitwise.
    """
    a = list(irows)
    nrows = len(a)
    r = 0
    pivots: list[int] = []
    for c in range(width):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        rr = a[r]
        for i in range(nrows):
            if i != r and a[i][c]:
                a[i] = _clear(a[i], rr, c)
        pivots.append(c)
        r += 1
    out = [_primitive(a[t], c) for t, c in enumerate(pivots)]
    for i in range(r, nrows):
        if any(a[i]):
            raise ContractViolation("dependent row failed to vanish")
    return out, r, pivots


def reduce_row_q(v: list[int], prim, pivots) -> list[int]:
    """Reduce an integer row against primitive canonical rows over Q.

    Returns the primitive residue; all zeros iff the row lies in the span
    of the given rows.
    """
    for row, pc in zip(prim, pivots):
        if v[pc]:
            v = _clear(v, row, pc)
    return v


def reduce_row_fp(v: list[int], prim, pivots, p: int) -> list[int]:
    """Reduce a residue row against canonical rows over F_p (unit pivots)."""
    for row, pc in zip(prim, pivots):
        coef = v[pc]
        if coef:
            v = [(x - coef * y) % p for x, y in zip(v, row)]
    return v


def reduce_row(v: list[int], rows, pivots, p: int | None) -> list[int]:
    """v reduced in order at the pivots of integer-shape rows, each zero at
    the earlier pivots: over Q primitive rows, over F_p unit pivots."""
    return reduce_row_q(v, rows, pivots) if p is None else reduce_row_fp(v, rows, pivots, p)


def int_rows(rows, p: int | None) -> list:
    """Rows as pairs (v, d) with row == v/d: integers over their common
    denominator over Q, the residues as given and d = 1 over F_p."""
    return [clear_denominators(r) for r in rows] if p is None else [(r, 1) for r in rows]


def peel(v: list[int], d: int, x, e: int, a: int, p: int | None) -> tuple[list[int], int]:
    """v/d - (a/d) * (x/e) as (row, denominator).  Over F_p, d = e = 1 and
    the row is (v - a*x) % p; over Q, with g = gcd(e, a), it is
    (e/g)*v - (a/g)*x over d*e/g, with the content they share divided out."""
    if p is not None:
        return [(y - a * z) % p for y, z in zip(v, x)], 1
    g = math.gcd(e, a)
    e, a = e // g, a // g
    w, d = [e * y - a * z for y, z in zip(v, x)], d * e
    g = math.gcd(d, *w)
    return ([y // g for y in w], d // g) if g > 1 else (w, d)


def unit_row(v: list[int], d: int, c: int, p: int | None):
    """(x, r, e) with x/e = v / v[c] and r/e = d / v[c], for v[c] != 0: over
    F_p x is a tuple, v times one inverse, and e = 1; over Q x = v and e = v[c]."""
    if p is not None:
        inv = pow(v[c], p - 2, p)
        return tuple([y * inv % p for y in v]), inv, 1
    return v, d, v[c]


def ratio(num: int, den: int, p: int | None):
    """num/den as a field element: a Fraction over Q; over F_p, where the
    sweeps keep every denominator 1, the residue of num."""
    return Fraction(num, den) if p is None else num % p


def _lead(v) -> int:
    return v.index(next(filter(None, v)))  # the first nonzero value first occurs at the lead


def _echelon_push(p: int | None, out: list, leads: list, v) -> bool:
    """Whether the integer-shape row v grows span(out), a flag echelon whose
    rows lead at ``leads``; if so, v reduced at those leads in order, its
    lead made 1 over F_p, primitive and positive over Q, is appended."""
    v = reduce_row(v, out, leads, p)
    if not any(v):
        return False
    leads.append(lead := _lead(v))
    out.append(_primitive(v, lead) if p is None else unit_row(v, 1, lead, p)[0])
    return True


def _flag_echelon(p: int | None, vecs: list) -> list:
    """The canonical echelon basis of the flag span(vecs[:1]) ⊂ span(vecs[:2])
    ⊂ ..., vecs pushed in order: step k has one line vanishing at the earlier
    leads, so the output depends on the flag alone; a dependent vec drops."""
    out, leads = [], []
    for v in vecs:
        _echelon_push(p, out, leads, v)
    return out


def fracs_from_primitive(prim_rows, pivots) -> list[tuple[Fraction, ...]]:
    """Materialize the RREF proper from the primitive integer shape."""
    out = []
    for row, c in zip(prim_rows, pivots):
        piv = row[c]
        out.append(tuple(Fraction(x, piv) for x in row))
    return out

