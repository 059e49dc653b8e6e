"""Borel subalgebras of gl_n and the envelope of their Weyl intersections.

A Borel subalgebra is represented as a canonical subspace of k^(n^2) via
row-major flattening.  The conjugation convention here is

    borel(g) = { g^-1 @ M @ g : M upper triangular },

so ``borel_from_g(identity)`` is the upper triangular algebra and
``borel_from_g(P_w0)`` the lower triangular one.  (The flag module uses
the opposite stabilizer convention g @ b0 @ g^-1 and builds it with the
same :func:`_borel_span`, from its flag and :func:`_dual_flag`; the two
meet through
``stabilizer_algebra(flag_from_matrix(inverse(g))) == borel_from_g(g)``.)

The central fact made executable here: every Borel subalgebra equals the
span of its intersections with the coordinate Borels borel(P_w), w in S_n,
and a certificate for that span can be produced constructively by peeling
witness matrices out of triangular data (:func:`devissage_witness`).  The
witness route needs only a small translate of the identity-plus-
transpositions subset of S_n and reads its certificate off the ULP sweep
of g; the brute-force route (:func:`envelope_bruteforce`) sums the
intersections directly, each as a small kernel in the algebra's own
coordinates, and serves as the oracle.  Inside the module a coordinate
Borel is its field-free index set (:func:`_translate_coords`), and
:func:`borel_translate` builds the subspace for public callers.  borel(g)
is built from g's row flag alone, with no inverse: the column flag of
g^-1 is read off that flag's echelon form (:class:`BorelConjugate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from typing import Sequence

from ._kernel import _primitive, int_rows, peel, ratio, reduce_row, unit_row
from .decomp import _ulp_sweep
from .errors import ContractViolation, InvalidInput, NotInvertible, ResourceGuard
from .linalg import FieldSpec, Matrix, SpanAccumulator, Subspace, subspace_intersect
from .linalg import _coordinate_kernel, _coordinate_subspace, _int_shape, _intersect_with_coordinates, _rank, _rref_prim, _span_int
from .weyl import Permutation, compose, enumerate_group, transposition_set

__all__ = [
    "BorelConjugate",
    "DevissageWitness",
    "EnvelopeCertificate",
    "borel_from_g",
    "borel_translate",
    "borel_intersection_dim",
    "devissage_witness",
    "witness_basis",
    "envelope_certificate",
    "envelope_bruteforce",
    "verify_certificate",
]

FULL_GROUP_LIMIT = 6
RESTRICTED_LIMIT = 12


def lower_pairs(n: int) -> list[tuple[int, int]]:
    """1-based (row, col) pairs with row >= col, in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]


def _lead(v) -> int:
    return v.index(next(filter(None, v)))  # the first nonzero value first occurs at the lead


def _flag_echelon(p: int | None, vecs: list) -> list:
    """The canonical echelon basis of the flag span(vecs[:1]) ⊂ span(vecs[:2])
    ⊂ ...: each integer-shape vec reduced at the leads of the earlier ones,
    in order, then its lead made 1 over F_p, primitive with a positive lead
    over Q.  Step k has one line vanishing at the earlier leads, so the
    output depends on the flag alone.  A dependent vec reduces to zero and
    raises StopIteration, having no lead."""
    out, leads = [], []
    for v in vecs:
        v = reduce_row(v, out, leads, p)
        leads.append(lead := _lead(v))
        out.append(_primitive(v, lead) if p is None else tuple(unit_row(v, 1, lead, p)[0]))
    return out


def _matrix_flag(m: Matrix, vecs: list) -> list:
    """``_flag_echelon`` of vecs, the rows or columns of square m as field
    elements; NotInvertible with m's rank if a vec reduces to zero."""
    try:  # a vec reduced to zero has no lead
        return _flag_echelon(m.field.p, _int_shape(m.field, vecs))
    except StopIteration:
        raise NotInvertible(f"matrix of rank {_rank(m)} < {m.nrows}") from None


def _dual_flag(p: int | None, rows: list) -> list:
    """The dual of a flag given from the bottom, as ``BorelConjugate`` keeps
    g's rows: for rows[a:] spanning each step, the echelon basis out with
    out[:a] spanning ann(rows[a:]), from column lead(rows[a]) of E^-1 for
    each a, E the rows sorted by lead, by back-substitution."""
    e = {_lead(r): r for r in rows}  # keys in flag order
    return _flag_echelon(p, [_inverse_col(e, c, p) for c in e])


class BorelConjugate:
    """The Borel subalgebra g^-1 @ uppers @ g for a fixed invertible g.

    Obtain it through :func:`borel_from_g`, which shares one instance per g:
    the brute-force oracle, both certificate routes and the caller then use
    one ``algebra``.  The defining matrix is validated eagerly; the subspace
    is computed lazily, once per coset B·g (:func:`_row_flag_algebra`), and
    its dimension is checked there.

    borel(g) is spanned by c_a ⊗ r_b, a <= b (c_a column a of g^-1, r_b row
    b of g), and fixed by the flags span(c_1..c_a), span(r_b..r_n).  g^-1 is
    not formed.  The rows in echelon form from the bottom, r'_b, keep the row
    flag (a row vanishes iff g is singular); sorted by lead they make an
    upper triangular E, and column lead(r'_a) of E^-1 is orthogonal to every
    r'_b, b != a, so lies in ker(r_{a+1}..r_n) = span(c_1..c_a) but not in
    span(c_1..c_{a-1}).  Echelon forms of both flags keep the span, hence
    its RREF, and give the products distinct leads: sorted, they reach the
    RREF in echelon form.
    """

    def __init__(self, g: Matrix):
        if not g.is_square:
            raise InvalidInput("conjugating matrix must be square")
        self.g = g
        self.n = g.nrows
        self._rows = _matrix_flag(g, g.rows_list()[::-1])[::-1]

    @cached_property
    def algebra(self) -> Subspace:
        return _row_flag_algebra(self.g.field, tuple(self._rows))


@lru_cache(maxsize=8)
def _row_flag_algebra(f: FieldSpec, rows: tuple) -> Subspace:
    """borel(g) from g's row flag, which fixes the coset B·g and so the
    Borel; the key holds the field, since rows over F_p and Q can be equal."""
    # the column flag of g^-1, read off the row flag
    return _borel_span(f, _dual_flag(f.p, rows), rows)


def _borel_span(f: FieldSpec, left: list, right: list) -> Subspace:
    """span(left[a] ⊗ right[b] : a <= b) for two echelon flags in integer
    shape (see :class:`BorelConjugate`), checked to have dimension n(n+1)/2."""
    n = len(left)
    gens = [[x * y for x in left[a] for y in right[b]] for a in range(n) for b in range(a, n)]
    prim, rank, pivots = _rref_prim(f, sorted(gens, key=_lead), n * n)
    if rank != n * (n + 1) // 2:
        raise ContractViolation("conjugated Borel has wrong dimension")
    return Subspace._from_prim(n * n, f, prim, pivots)


def _inverse_col(e: dict, c: int, p: int | None):
    """Column c of E^-1 up to a nonzero factor, E upper triangular with row
    e[i] at lead i, by back-substitution that divides by nothing: over F_p
    the leads are 1, over Q each step rescales; primitive over Q."""
    x = [0] * len(e)
    x[c] = 1
    for i in range(c - 1, -1, -1):
        s = sum(e[i][k] * x[k] for k in range(i + 1, c + 1))
        if p is not None:
            x[i] = -s % p
        elif s:
            g = gcd(e[i][i], s)
            x = [y * (e[i][i] // g) for y in x]
            x[i] = -s // g
    return x if p is not None else _primitive(x, c)


@lru_cache(maxsize=8)
def borel_from_g(g: Matrix) -> BorelConjugate:
    """The subspace {g^-1 @ M @ g : M upper triangular} of k^(n^2).

    Equal matrices over the same field share one BorelConjugate (the last
    eight are kept), so its algebra is built once per g.  Errors such as
    NotInvertible are raised again on every call; they are never cached.
    """
    return BorelConjugate(g)


@lru_cache(maxsize=1024)
def _translate_coords(images: tuple) -> frozenset[int]:
    """The support of borel(P_w), images = w.images: the row-major entries
    (r, c), 0-based, with w(r) <= w(c), for every field.  The internal
    callers read it here; 1,024 are kept, so all of S_1..S_6 fit."""
    n = len(images)
    return frozenset(r * n + c for r, a in enumerate(images) for c, b in enumerate(images) if a <= b)


@lru_cache(maxsize=4096)
def borel_translate(w: Permutation, field: FieldSpec) -> Subspace:
    """borel(P_w): the coordinate subspace on the entries (r, c) with w(r) <= w(c)."""
    return _coordinate_subspace(w.n * w.n, field, _translate_coords(w.images))


def borel_intersection_dim(w1: Permutation, w2: Permutation, field: FieldSpec | None = None) -> int:
    """dim(borel(P_w1) ∩ borel(P_w2)); field defaults to Q."""
    if w1.n != w2.n:
        raise InvalidInput("size mismatch")
    f = field or FieldSpec.rational()
    return subspace_intersect(borel_translate(w1, f), borel_translate(w2, f)).dim


# ---------------------------------------------------------------------------
# Devissage


@dataclass(frozen=True)
class DevissageWitness:
    """One peeled basis matrix of the lower triangular Borel.

    ``a`` is supported in row i on columns j..i with a leading 1 in column
    j; it lies in the lower triangular algebra and in borel(P_s @ u^-1) for
    the u it was built from, s the (i, j)-transposition.
    """

    i: int
    j: int
    x: tuple
    a: Matrix
    s: Permutation


def _witness_row(coefs, rows, p) -> list[int]:
    """sum_t coefs[t] * rows[t], reduced over F_p.  a is rank one, so
    left @ a @ right is left's column i times (1, x) @ rows j..i of right;
    with coefs = (1, x) and rows j..i of right, each scaled to integers,
    this is that row factor times a nonzero scalar."""
    out = [0] * len(rows[0])
    for c, row in zip(coefs, rows):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return out if p is None else [x % p for x in out]


def _escapes(tag: tuple, col, row) -> bool:
    """Whether col ⊗ row leaves borel(P_w), tag = w.images: it holds entry
    (r, c) iff w(r) <= w(c), so the product stays inside iff the largest
    w(r) on col's support is at most the smallest w(c) on row's.  Over F_p
    both factors must be reduced.  An all-zero factor counts as escaped."""
    top = max((t for t, x in zip(tag, col) if x), default=len(tag) + 1)
    return top > min((t for t, x in zip(tag, row) if x), default=0)


def devissage_witness(u: Matrix, i: int, j: int) -> DevissageWitness:
    """The (i, j) witness for u, 1-based, i >= j: entry (i, j) of
    :func:`witness_basis`, whose peel checks every witness."""
    n = u.nrows
    if not (1 <= j <= i <= n):
        raise InvalidInput(f"need 1 <= j <= i <= n, got (i, j) = ({i}, {j})")
    return witness_basis(u)[i * (i - 1) // 2 + j - 1]


def witness_basis(u: Matrix) -> tuple[DevissageWitness, ...]:
    """All n(n+1)/2 witnesses for u, ordered lexicographically by (i, j).

    Witness (i, j) is e^{i,j} + sum_l x_l e^{i,j+l}, (1, x) row j of u^-1 on
    columns j..i over its first entry.  They are peeled from the unipotent
    u' = u @ D^-1, D = diag(u), by the restricted route's :func:`_peel` with
    q the identity: row j of u'^-1 is u[j, j] times row j of u^-1, so x is
    the same, and borel(P_s @ D @ u^-1) = borel(P_s @ u^-1), as P_s D P_s^-1
    is diagonal.  So each witness is checked to lie in borel(P_s @ u^-1).

    Their matrices form a basis of the lower triangular algebra, and the
    change of basis from the elementary matrices is unipotent triangular.
    """
    if not u.is_square:
        raise InvalidInput("u must be square")
    if not u.is_upper_triangular():
        raise InvalidInput("u must be upper triangular")
    n, f, p = u.nrows, u.field, u.field.p
    if any(u.at(t, t) == f.zero() for t in range(n)):
        raise InvalidInput("u must have a nonzero diagonal")
    # column c of u' is x/e, column c of u over its diagonal entry
    cols = [unit_row(v, d, c, p) for c, (v, d) in enumerate(int_rows([u.col(c) for c in range(n)], p))]
    d = lcm(*(e for _, _, e in cols))
    right = [[x[a] * (d // e) for x, _, e in cols] for a in range(n)]  # u' = right / d
    inv = _unipotent_inverse([(r, d) for r in right], p)
    zero, one, wits = f.zero(), f.one(), []
    for (i, j), img, _, coefs, _ in _peel(inv, right, range(1, n + 1), p):
        x = tuple(ratio(c, coefs[0], p) for c in coefs[1:])
        ents = [zero] * (n * n)
        ents[(i - 1) * n + j - 1 : (i - 1) * n + i] = (one,) + x  # row i, columns j..i
        wits.append(DevissageWitness(i, j, x, Matrix(f, n, n, tuple(ents)), Permutation(img)))
    return tuple(wits)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class EnvelopeCertificate:
    """Machine-checkable witness that tagged vectors span a Borel.

    Every entry is a flattened gl_n vector together with the Weyl element w
    whose translate borel(P_w) contains it; ``spans`` records whether the
    entries span the whole target algebra.
    """

    target: BorelConjugate
    entries: tuple  # of (vector tuple, Permutation)
    spans: bool

    witness_set: tuple = dataclass_field(default=())


def verify_certificate(cert: EnvelopeCertificate) -> bool:
    """Recheck every claim in the certificate from scratch.

    Each vector is coerced once (a non-scalar entry raises InvalidInput).
    Translate membership is a zero pattern on borel(P_w)'s index set;
    algebra membership follows when the span is the algebra, and only
    otherwise is each vector reduced against it.  ``spans`` must agree with
    that comparison.  Failures return False, so forged certificates are
    rejected, not crashed on.  The CLI and the restricted suite run this
    recheck; it shares only ``_span_int`` and ``_translate_coords`` with
    the certificate routes.
    """
    target = cert.target
    n, f = target.n, target.g.field
    rows = []
    for vec, w in cert.entries:
        if len(vec) != n * n or w.n != n:
            return False
        v = [f.coerce(x) for x in vec]
        coords = _translate_coords(w.images)
        if any(x and c not in coords for c, x in enumerate(v)):
            return False
        rows.append(v)
    span, algebra = _span_int(f, _int_shape(f, rows), n * n), target.algebra
    if span != algebra and not all(algebra.contains(v) for v in rows):
        return False
    return cert.spans == (span == algebra)


def _certificate_greedy(target: BorelConjugate, ws: Sequence[Permutation]) -> EnvelopeCertificate:
    n, f = target.n, target.g.field
    if any(w.n != n for w in ws):
        raise InvalidInput("weyl_set size does not match the matrix")
    algebra = target.algebra
    acc = SpanAccumulator(n * n, f)
    entries = []
    for w in ws:
        # the rows lie in the algebra, so once it is spanned none is accepted
        if acc.dim == algebra.dim:
            break
        inter = _intersect_with_coordinates(algebra, _translate_coords(w.images))
        for prim, row in zip(inter.prim_rows(), inter.rows()):
            if acc.add_rows([prim]):
                entries.append((tuple(row), w))
    spans = acc.equals(algebra)
    return EnvelopeCertificate(target, tuple(entries), spans, tuple(ws))


def _unipotent_inverse(rows: list, p: int | None) -> list:
    """u^-1 for a unipotent upper triangular u given by integer rows (v, d),
    row a of u being v/d, by back-substitution through ``peel``: the rows of
    u^-1 as pairs (w, e), w/e.  u's shape is checked, not assumed."""
    n = len(rows)
    if any(any(v[:a]) or v[a] != d for a, (v, d) in enumerate(rows)):
        raise ContractViolation("conjugated lower factor is not unipotent upper triangular")
    inv = [None] * n
    for a in range(n - 1, -1, -1):
        (v, d), w, e = rows[a], [int(c == a) for c in range(n)], 1
        for k in range(a + 1, n):
            if v[k]:  # w/e - (v[k]/d) * inv[k]
                x, xe = inv[k]
                w, e = peel(w, e, x, xe * d, v[k] * e, p)
        inv[a] = (w, e)
    return inv


def _column(rows: list, i: int) -> tuple[list, int]:
    """Column i of integer rows (x, e), x/e each, over its least common denominator."""
    d = lcm(*(e // gcd(x[i], e) for x, e in rows))
    return [x[i] * d // e for x, e in rows], d


def _peel(inv: list, right: list, qimg, p: int | None):
    """The witnesses a of a unipotent upper triangular u2, each conjugated to
    left @ a @ right = col ⊗ row, left = P_q^-1 @ u2^-1 and right = u2 @ P_q:
    yields (i, j), s∘q's images, left's column i over its denominator, row
    j of u2^-1 on columns j..i (a's (1, x), scaled) and the row factor, in
    lexicographic (i, j) order, each after :func:`_escapes` has passed it.
    inv is u2^-1 as rows (w, e), right u2 @ P_q over one denominator."""
    left = [inv[t - 1] for t in qimg]  # left's row r is row q(r) of u2^-1
    cols = [_column(left, i) for i in range(len(inv))]
    for i, j in lower_pairs(len(inv)):
        coefs = inv[j - 1][0][j - 1 : i]
        rowv = _witness_row(coefs, right[j - 1 : i], p)
        img = tuple(j if x == i else i if x == j else x for x in qimg)  # s∘q
        if _escapes(img, cols[i - 1][0], rowv):
            raise ContractViolation(f"witness ({i}, {j}) escaped its translate")
        yield (i, j), img, cols[i - 1], coefs, rowv


def _certificate_devissage(target: BorelConjugate) -> EnvelopeCertificate:
    """The witness route: entry (i, j) is P_q^-1 u2^-1 a u2 P_q, tagged s∘q,
    for the (i, j) witness a of u2 = P_w0 @ l @ P_w0, (1, x) read off row j
    of u2^-1, where g = u @ l @ P_p is the unipotent-lower ULP and q = w0∘p.

    All of it is read off the ULP sweep, with no factor built: row k of
    l @ P_p is the peel row units[k], so right = u2 @ P_q = P_w0 @ l @ P_p
    is those rows bottom-up, and q sends the column row k claimed to n - k.
    u2 and u2^-1 stay integer rows; each entry is the outer product of a
    column of left = P_q^-1 @ u2^-1 and a row factor, over one denominator.
    Membership in borel(P_{s∘q}) is an index test on the two factors, and
    the vectors must span borel(g) (one ``_span_int``), so a public caller
    never gets an unchecked ``spans=True``.
    """
    n, f, p = target.n, target.g.field, target.g.field.p
    _, claimed, _, units, _ = _ulp_sweep(target.g)
    lp = []  # l @ P_p's rows bottom-up, (x, e) for x/e; over Q x is a residue of any content
    for x, _, e in units[::-1]:
        g = gcd(e, *x)
        lp.append(([y // g for y in x], e // g))
    # u2[a][b] = l[n-1-a][n-1-b], and l's row k is units[k] on the claimed columns
    inv = _unipotent_inverse([([x[c] for c in claimed[::-1]], e) for x, e in lp], p)
    d = lcm(*(e for _, e in lp))
    right = [[y * (d // e) for y in x] for x, e in lp]
    qimg = [n - claimed.index(c) for c in range(n)]
    entries, vecs, zero = [], [], Fraction(0)
    for _, img, (col, e), coefs, rowv in _peel(inv, right, qimg, p):
        vec = [a * b for a in col for b in rowv]
        den = e * coefs[0] * d  # the entry is vec / den
        if p is None:
            entries.append((tuple(Fraction(x, den) if x else zero for x in vec), Permutation(img)))
        else:
            scale = pow(den, p - 2, p)
            entries.append((tuple(x * scale % p for x in vec), Permutation(img)))
        vecs.append(vec)
    if _span_int(f, vecs, n * n) != target.algebra:
        raise ContractViolation("devissage certificate does not span borel(g)")
    q = Permutation(tuple(qimg))
    translate = tuple(compose(t, q) for t in transposition_set(n))
    return EnvelopeCertificate(target, tuple(entries), True, translate)


def envelope_certificate(
    g: Matrix,
    weyl_set: Sequence[Permutation] | None = None,
    *,
    restricted: bool = False,
) -> EnvelopeCertificate:
    """Produce a certificate that borel(g) is spanned by tagged vectors.

    With ``restricted=True`` the construction follows the witness route:
    factor g, peel the witness basis, and conjugate it into borel(g); the
    tags then lie in a single translate of the identity-plus-transpositions
    subset, and the certificate always spans.  Otherwise intersections with
    the translates in ``weyl_set`` (default: all of S_n, guarded at n <= 6)
    are accumulated greedily; a too-small caller-supplied set yields
    ``spans=False``, which is informative output rather than an error.
    """
    target = borel_from_g(g)
    if restricted:
        if weyl_set is not None:
            raise InvalidInput("restricted mode computes its own translate")
        if target.n > RESTRICTED_LIMIT:
            raise ResourceGuard(f"restricted certificates guarded at n <= {RESTRICTED_LIMIT}")
        return _certificate_devissage(target)
    if weyl_set is None:
        if target.n > FULL_GROUP_LIMIT:
            raise ResourceGuard(f"full-group certificates guarded at n <= {FULL_GROUP_LIMIT}")
        ws = list(enumerate_group(target.n))
    else:
        ws = list(dict.fromkeys(weyl_set))  # first of each repeat, in order
    return _certificate_greedy(target, ws)


@lru_cache(maxsize=None)
def _rotations(n: int) -> dict:
    return {tuple((k + j) % n + 1 for j in range(n)): k for k in range(n)}


def _rotations_first(ws: Sequence[Permutation], n: int) -> list[Permutation]:
    """ws (no repeats) in one pass: the k-th powers of the n-cycle, images
    (k+1, ..., n, 1, ..., k), by k, then the rest in the caller's order."""
    rots, first, rest = _rotations(n), {}, []
    for w in ws:
        k = rots.get(w.images)
        if k is None:
            rest.append(w)
        else:
            first[k] = w
    return [first[k] for k in sorted(first)] + rest


@lru_cache(maxsize=8)
def _intersection_sum(algebra: Subspace, ws: tuple[Permutation, ...]) -> Subspace:
    """Sum of algebra ∩ borel(P_w) over ws, stopping once it is all of
    ``algebra``: every later term lies in it and cannot grow the sum.
    Memoized on (algebra, ws), a canonical Subspace by its prim rows: the
    sum is the Borel's, not g's, and verify's GL_2 prelude holds 7 Borels
    in 54 elements.  Eight are kept, so a criterion sums each once, and
    the sampled sums that end its pass evict them before the next run.

    It is taken in the algebra's coordinates: B its canonical rows, each
    term is λ·B for the λ rows of one small kernel (``_coordinate_kernel``)
    and λ ↦ λ·B is injective, so the sum is full once the λ rows reach
    rank dim; only a sum that is not is mapped back through B.

    ws is visited rotations first: the powers of the n-cycle, then the rest
    in the caller's order.  Rotated coordinate Borels overlap little, so
    for a generic Borel algebra the sum is full after n terms (lexicographic
    order needed 34 of the 120 elements of S_5).  The order depends on n
    alone, and the result does not depend on it: a sum is order-free.
    """
    f, width = algebra.field, algebra.ambient_dim
    acc = SpanAccumulator(algebra.dim, f)
    for w in _rotations_first(ws, isqrt(width)):
        acc.add_rows(_coordinate_kernel(algebra, _translate_coords(w.images)))
        if acc.dim == algebra.dim:
            return algebra
    prim, lams = algebra.prim_rows(), acc.to_subspace().prim_rows()
    rows = [[sum(x * b[c] for x, b in zip(lam, prim)) for c in range(width)] for lam in lams]
    return _span_int(f, rows, width)


def envelope_bruteforce(g: Matrix, weyl_set: Sequence[Permutation]) -> Subspace:
    """Sum of the intersections borel(g) ∩ borel(P_w) over the given set.

    The independent oracle: no witness machinery, just the intersections,
    each the λ-kernel of one small system in borel(g)'s own coordinates,
    summed by the memoized :func:`_intersection_sum`: one sum per algebra
    for every caller, the tangent cover of :mod:`borelenv.flags` too.
    """
    target = borel_from_g(g)
    n = target.n
    if n > FULL_GROUP_LIMIT:
        raise ResourceGuard(f"envelope_bruteforce guarded at n <= {FULL_GROUP_LIMIT}")
    ws = tuple(dict.fromkeys(weyl_set))
    if any(w.n != n for w in ws):
        raise InvalidInput("weyl_set size does not match the matrix")
    return _intersection_sum(target.algebra, ws)
