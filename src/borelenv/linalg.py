"""Exact dense linear algebra over Q and prime fields F_p.

Scalars are plain values: ``fractions.Fraction`` over Q (always in lowest
terms with positive denominator) and python ints in ``[0, p)`` over F_p.
A :class:`FieldSpec` owns the arithmetic; matrices and subspaces carry
their field and reject mixed-field operands.

Subspaces are kept in canonical form: their basis is the unique reduced
row-echelon basis, so two subspaces are equal as sets iff their bases
compare equal entry by entry.  There are no tolerances anywhere; all
comparisons are exact.

Every elimination (``rref``, ``inverse``, ``kernel``, all subspace
operations and decomp's factorization sweeps) runs on one integer-shape
path: rows enter it through ``_int_shape`` or ``_kernel.int_rows`` (over
Q, ``clear_denominators`` scales each row to integers), ``_rref_prim`` or
``_kernel.peel`` reduces them, and Fractions are built only where a public
``Matrix`` or ``Subspace.basis`` is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from ._kernel import _echelon_push, _flag_echelon, clear_denominators, fracs_from_primitive, reduce_row, rref_fp, rref_q_int
from .errors import InvalidInput, NotInvertible, ResourceGuard

__all__ = [
    "FieldSpec",
    "Matrix",
    "RrefResult",
    "Subspace",
    "rref",
    "inverse",
    "kernel",
    "subspace_from_rows",
    "subspace_intersect",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster 2017).
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ResourceGuard at or above PRIMALITY_LIMIT."""
    if p >= PRIMALITY_LIMIT:
        raise ResourceGuard(f"primality of moduli >= {PRIMALITY_LIMIT} is not decided")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q when ``p`` is None, else F_p for prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise InvalidInput(f"modulus {self.p} is not prime")

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    # -- scalar arithmetic ------------------------------------------------

    def coerce(self, x):
        if self.p is None:
            if isinstance(x, bool):
                raise InvalidInput("bool is not a scalar")
            if type(x) is Fraction:  # immutable, so no copy is needed
                return x
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            if isinstance(x, str):
                # "1e999999999" would expand to a billion-digit integer
                if "e" in x or "E" in x:
                    raise InvalidInput(f"exponent in rational literal {x!r}; write num/den")
                try:
                    return Fraction(x)
                except (ValueError, ZeroDivisionError) as exc:
                    raise InvalidInput(f"bad rational literal {x!r}") from exc
            raise InvalidInput(f"bad rational entry {x!r}")
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidInput(f"bad F_{self.p} entry {x!r}")
        return x % self.p

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with exact entries, row-major storage.

    The constructor trusts its entries to be field elements but reduces them
    into [0, p) over F_p, so equal matrices hash equal; ``from_rows`` coerces.
    Permutations act as index shuffles under weyl's convention
    P_w e_j = e_{w(j)}: ``permute_cols(w)`` is m @ P_w (column j is column
    w(j) of m), ``permute_rows(w)`` is P_w @ m (row w(i) is row i of m).
    """

    field: FieldSpec
    nrows: int
    ncols: int
    entries: tuple

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise InvalidInput("negative matrix dimensions")
        if len(self.entries) != self.nrows * self.ncols:
            raise InvalidInput("entry count does not match shape")
        p = self.field.p
        if p is not None and self.entries and (min(self.entries) < 0 or max(self.entries) >= p):
            object.__setattr__(self, "entries", tuple(x % p for x in self.entries))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise InvalidInput("ragged rows")
        ents = tuple(field.coerce(x) for r in rows for x in r)
        return cls(field, nrows, ncols, ents)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        ents = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(field, n, n, ents)

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero()
        return cls(field, nrows, ncols, (zero,) * (nrows * ncols))

    # -- access -----------------------------------------------------------

    def at(self, i: int, j: int):
        """Entry at 0-based position (i, j)."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise InvalidInput(f"index ({i}, {j}) out of range")
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.ncols + j] for i in range(self.nrows))

    def rows_list(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.nrows)]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_upper_triangular(self) -> bool:
        e, c = self.entries, self.ncols
        return not any(e[i * c + j] for i in range(self.nrows) for j in range(min(i, c)))

    def is_lower_triangular(self) -> bool:
        e, c = self.entries, self.ncols
        return not any(e[i * c + j] for i in range(self.nrows) for j in range(i + 1, c))

    # -- arithmetic -------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise InvalidInput(f"mixed fields {self.field} and {other.field}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise InvalidInput("shape mismatch in product")
        m, k = other.ncols, self.ncols
        rows = [self.entries[i * k : (i + 1) * k] for i in range(self.nrows)]
        cols = [other.entries[j::m] for j in range(m)]
        p = self.field.p
        if p is not None:
            ents = tuple(sum(map(mul, r, c)) % p for r in rows for c in cols)
            return Matrix(self.field, self.nrows, m, ents)
        # integer shape: one common denominator per row of A and per column
        # of B, integer dot products, one Fraction per output entry
        rows, cols = [clear_denominators(r) for r in rows], [clear_denominators(c) for c in cols]
        ents = tuple(Fraction(sum(map(mul, r, c)), dr * dc) for r, dr in rows for c, dc in cols)
        return Matrix(self.field, self.nrows, m, ents)

    def permute_cols(self, w) -> "Matrix":
        """self @ P_w for a Permutation w: column j is column w(j) of self."""
        if w.n != self.ncols:
            raise InvalidInput("permutation size does not match the columns")
        e, src = self.entries, [c - 1 for c in w.images]
        ents = tuple(e[b + c] for b in range(0, len(e), self.ncols) for c in src)
        return Matrix(self.field, self.nrows, self.ncols, ents)

    def permute_rows(self, w) -> "Matrix":
        """P_w @ self for a Permutation w: row w(i) is row i of self."""
        if w.n != self.nrows:
            raise InvalidInput("permutation size does not match the rows")
        ents = tuple(x for i in w.inverse().images for x in self.row(i - 1))
        return Matrix(self.field, self.nrows, self.ncols, ents)

    def flatten(self) -> tuple:
        """Row-major entry tuple; the coordinates used for gl_n subspaces."""
        return self.entries

    def __str__(self) -> str:
        rows = [" ".join(str(x) for x in self.row(i)) for i in range(self.nrows)]
        return "[" + "; ".join(rows) + "]"


class RrefResult(NamedTuple):
    reduced: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


def _reduced(field: FieldSpec, rows: list, width: int):
    """(RREF rows as field elements, zero rows dropped; pivots) of rows of
    field elements, reduced in integer shape and materialized once."""
    prim, _, pivots = _rref_prim(field, _int_shape(field, rows), width)
    return (fracs_from_primitive(prim, pivots) if field.p is None else prim), pivots


def rref(m: Matrix) -> RrefResult:
    """The unique reduced row-echelon form of m, with rank and pivots."""
    rows, pivots = _reduced(m.field, m.rows_list(), m.ncols)
    ents = tuple(x for row in rows for x in row)
    ents += (m.field.zero(),) * (len(m.entries) - len(ents))
    return RrefResult(Matrix(m.field, m.nrows, m.ncols, ents), len(pivots), tuple(pivots))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises NotInvertible if singular."""
    if not m.is_square:
        raise InvalidInput("inverse of a non-square matrix")
    n = m.ncols
    one, zero = m.field.one(), m.field.zero()
    aug = [list(m.row(i)) + [one if j == i else zero for j in range(n)] for i in range(n)]
    rows, pivots = _reduced(m.field, aug, 2 * n)
    if list(pivots[:n]) != list(range(n)):
        left_rank = sum(1 for c in pivots if c < n)
        raise NotInvertible(f"matrix of rank {left_rank} < {n}")
    return Matrix(m.field, n, n, tuple(x for row in rows for x in row[n:]))


def kernel(m: Matrix) -> Subspace:
    """Right kernel {x : m @ x = 0} as a canonical subspace of k^ncols."""
    f = m.field
    return _span_int(f, _kernel_rows(f, _int_shape(f, m.rows_list()), m.ncols), m.ncols)


def _kernel_rows(field: FieldSpec, rows: list, width: int) -> list:
    """Basis of the right kernel of rows already in integer shape (entries
    in [0, p) over F_p): with L the lcm of the primitive pivots (1 over
    F_p), x_f = L at a free column f and x_c = -row[f] * L / row[c] at each
    pivot c."""
    prim, _, pivots = _rref_prim(field, rows, width)
    scale = lcm(*(row[c] for row, c in zip(prim, pivots)))
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        v = [0] * width
        v[f] = scale
        for row, c in zip(prim, pivots):
            v[c] = -row[f] * (scale // row[c])
        basis.append(v if field.p is None else [x % field.p for x in v])
    return basis


# ---------------------------------------------------------------------------
# Subspaces


class Subspace:
    """A linear subspace of k^d in canonical reduced-echelon basis form.

    Equality and hashing compare the canonical form entry by entry, which
    is exactly set equality of the subspaces.  Over Q the canonical basis
    is mirrored internally by primitive integer rows (content 1, positive
    pivot); the two shapes determine each other, and the integer shape is
    what intersections and span sums compute with.  Every instance is
    built from that integer shape, by ``_from_prim``, and keeps nothing
    else: a coordinate subspace is an ordinary instance.
    """

    __slots__ = ("ambient_dim", "field", "_prim", "_pivots", "_basis")

    @classmethod
    def _from_prim(cls, ambient_dim: int, field: FieldSpec, prim, pivots):
        s = cls.__new__(cls)
        s.ambient_dim = ambient_dim
        s.field = field
        s._prim = tuple(tuple(r) for r in prim)
        s._pivots = tuple(pivots)
        s._basis = None
        return s

    @property
    def basis(self) -> Matrix:
        """The canonical basis matrix (materialized lazily over Q)."""
        if self._basis is None:
            if self.field.p is None:
                rows = fracs_from_primitive(self._prim, self._pivots)
            else:
                rows = self._prim
            self._basis = Matrix(
                self.field, len(rows), self.ambient_dim, tuple(x for r in rows for x in r)
            )
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._prim)

    def rows(self) -> tuple:
        b = self.basis
        return tuple(b.row(i) for i in range(b.nrows))

    def prim_rows(self) -> tuple:
        """Canonical integer shape: residues over F_p, primitive rows over Q."""
        return self._prim

    def contains(self, vector: Sequence) -> bool:
        v = [self.field.coerce(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise InvalidInput("vector length does not match ambient dimension")
        return not any(reduce_row(_int_shape(self.field, [v])[0], self._prim, self._pivots, self.field.p))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self._prim == other._prim
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.field, self._prim))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, field={self.field})"


def _rref_prim(field: FieldSpec, rows: list, width: int):
    """(prim rows, rank, pivots) for rows already in integer shape."""
    if field.p is None:
        return rref_q_int(rows, width)
    reduced, rank, pivots = rref_fp(rows, width, field.p)
    return reduced[:rank], rank, pivots


def _span_int(field: FieldSpec, rows: list, width: int) -> Subspace:
    """The canonical span of rows already in integer shape."""
    prim, _, pivots = _rref_prim(field, rows, width)
    return Subspace._from_prim(width, field, prim, pivots)


def _int_shape(field: FieldSpec, rows) -> list:
    """Rows of field elements as kernel-ready integer rows: over Q each row
    scaled by its common denominator (which keeps spans and ranks), over
    F_p the rows as given, since field elements are residues already."""
    if field.p is None:
        return [clear_denominators(r)[0] for r in rows]
    return list(rows)


def _matrix_flag(m: Matrix, vecs: list) -> list:
    """``_kernel._flag_echelon`` of vecs, the rows or columns of square m as
    field elements; NotInvertible with m's rank if a vec reduces to zero."""
    out = _flag_echelon(m.field.p, _int_shape(m.field, vecs))
    if len(out) < len(vecs):
        raise NotInvertible(f"matrix of rank {len(out)} < {m.nrows}")
    return out


def subspace_from_rows(ambient_dim: int, vectors: Iterable, field: FieldSpec) -> Subspace:
    """Canonical subspace of k^ambient_dim spanned by the given row vectors."""
    rows = [list(v) for v in vectors]
    if any(len(r) != ambient_dim for r in rows):
        raise InvalidInput("vector length does not match ambient dimension")
    coerced = [[field.coerce(x) for x in r] for r in rows]
    return _span_int(field, _int_shape(field, coerced), ambient_dim)


def _check_compatible(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise InvalidInput("ambient dimension mismatch")
    if a.field != b.field:
        raise InvalidInput("field mismatch")


def _coordinate_subspace(ambient_dim: int, field: FieldSpec, coords) -> Subspace:
    """The span of the unit vectors at ``coords``; the sorted unit rows are
    already the canonical (and primitive) basis."""
    pivots = sorted(coords)
    prim = [tuple(1 if c == u else 0 for c in range(ambient_dim)) for u in pivots]
    return Subspace._from_prim(ambient_dim, field, prim, pivots)


def _intersect_with_coordinates(s: Subspace, coords: frozenset[int]) -> Subspace:
    """Intersection of s with the coordinate subspace on ``coords``.

    A basis row whose pivot lies outside ``coords`` is dropped first: in
    RREF its pivot column is zero in every other row, so no vector that
    uses it lies in the intersection.  The rest take one elimination with
    the complement columns ordered first: the reduced rows whose pivots land
    past the complement block are supported on ``coords`` and span exactly
    the intersection.  Because ``coords`` is taken in increasing order,
    un-permuting the surviving rows lands them already in canonical form.
    """
    width = s.ambient_dim
    comp = [c for c in range(width) if c not in coords]
    if not comp:
        return s
    inside = sorted(coords)
    order = comp + inside
    f = s.field
    reordered = [[row[c] for c in order] for row, pc in zip(s._prim, s._pivots) if pc in coords]
    prim, _, pivots = _rref_prim(f, reordered, width)
    k = len(comp)
    out = []
    for row, pc in zip(prim, pivots):
        if pc >= k:  # then row[:k] is zero, and row[k:] sits on ``inside``
            vec = [0] * width
            for c, x in zip(inside, row[k:]):
                vec[c] = x
            out.append(vec)
    return Subspace._from_prim(width, f, out, [inside[pc - k] for pc in pivots if pc >= k])


def _coordinate_kernel(s: Subspace, coords: frozenset[int]) -> list:
    """Rows λ of length ``s.dim`` spanning {λ : λ·B is supported on
    ``coords``}, B the canonical rows of s.  As in
    :func:`_intersect_with_coordinates`, λ_t = 0 when row t's pivot lies
    outside ``coords``; each other column outside is a non-pivot column of
    B and gives one equation on the kept λ_t."""
    keep = [t for t, pc in enumerate(s._pivots) if pc in coords]
    skip, pos = coords.union(s._pivots), dict(zip(keep, range(len(keep))))
    eqs = [[s._prim[t][c] for t in keep] for c in range(s.ambient_dim) if c not in skip]
    basis = _kernel_rows(s.field, eqs, len(keep))
    return [[v[pos[t]] if t in pos else 0 for t in range(s.dim)] for v in basis]


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Canonical intersection of two subspaces of the same ambient space, by
    one algorithm, Zassenhaus: the rref of [A | A; B | 0], whose rows with
    zero left half carry the intersection in their right half.  Library code
    that holds a coordinate subspace as its index set intersects through
    :func:`_intersect_with_coordinates`, or two such sets as sets."""
    _check_compatible(a, b)
    width, f = a.ambient_dim, a.field
    stacked = [list(r) + list(r) for r in a.prim_rows()]
    stacked += [list(r) + [0] * width for r in b.prim_rows()]
    prim = _rref_prim(f, stacked, 2 * width)[0]
    return _span_int(f, [row[width:] for row in prim if not any(row[:width])], width)


class SpanAccumulator:
    """Incrementally growing span of integer-shape rows; internal helper.
    It keeps a flag echelon (``_kernel._echelon_push``), whose length is the
    rank, and builds the canonical form on demand, in ``to_subspace``."""

    __slots__ = ("ambient_dim", "field", "_rows", "_leads")

    def __init__(self, ambient_dim: int, field: FieldSpec):
        self.ambient_dim = ambient_dim
        self.field = field
        self._rows: list = []
        self._leads: list = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add_rows(self, rows: Iterable) -> bool:
        grew, p = False, self.field.p
        for r in rows:
            grew |= _echelon_push(p, self._rows, self._leads, r)
        return grew

    def to_subspace(self) -> Subspace:
        return _span_int(self.field, self._rows, self.ambient_dim)

    def equals(self, s: Subspace) -> bool:
        return self.dim == s.dim and self.to_subspace() == s
