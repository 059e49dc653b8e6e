"""Independent reference implementations used only as test oracles.

Deliberately naive: plain Gauss-Jordan over Fraction / residues, textbook
pivoting, no shortcuts.  The production kernels must match these bitwise.
"""

from __future__ import annotations

from fractions import Fraction


# Field arithmetic for the oracles, kept apart from the library's: field
# elements are Fractions over Q and residues in [0, p) over F_p.
def _reduce(f, x):
    return x if f.p is None else x % f.p


def _sub(f, a, b):
    return _reduce(f, a - b)


def _mul(f, a, b):
    return _reduce(f, a * b)


def _neg(f, a):
    return _reduce(f, -a)


def _inv(f, a):
    if not a:
        raise ZeroDivisionError("inverse of zero")
    return 1 / Fraction(a) if f.p is None else pow(a, f.p - 2, f.p)


def _div(f, a, b):
    return _mul(f, a, _inv(f, b))


def naive_rref_q(rows):
    """Reduced row-echelon form over Q by eager Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], 0, []
    ncols = len(m[0])
    r = 0
    pivots = []
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m], r, pivots


def naive_rref_fp(rows, p):
    """Reduced row-echelon form over F_p by per-element modular elimination."""
    m = [[int(x) % p for x in row] for row in rows]
    if not m:
        return [], 0, []
    ncols = len(m[0])
    r = 0
    pivots = []
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m], r, pivots


def rank_by_minors(rows):
    """Rank over Q as the largest size of a nonvanishing minor.

    Exponential; fine for the tiny matrices it is used on.
    """
    from itertools import combinations

    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0

    def det(idx_r, idx_c):
        k = len(idx_r)
        if k == 0:
            return Fraction(1)
        sub = [[m[i][j] for j in idx_c] for i in idx_r]
        if k == 1:
            return sub[0][0]
        total = Fraction(0)
        sign = 1
        for t in range(k):
            if sub[0][t] != 0:
                minor_r = list(range(1, k))
                total += sign * sub[0][t] * det(
                    [idx_r[i] for i in minor_r],
                    [idx_c[j] for j in range(k) if j != t],
                )
            sign = -sign
        return total

    for size in range(min(nr, nc), 0, -1):
        for rows_idx in combinations(range(nr), size):
            for cols_idx in combinations(range(nc), size):
                if det(list(rows_idx), list(cols_idx)) != 0:
                    return size
    return 0


def naive_inverse(rows, p=None):
    """Inverse of a square matrix by naive Gauss-Jordan on [m | I]."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, rank, pivots = naive_rref_q(aug) if p is None else naive_rref_fp(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [list(r[n:]) for r in red[:n]]


def naive_matmul(a, b):
    """Row-major entries of the Matrix product a @ b, by the triple loop.

    Over Q every multiply-add is a Fraction operation; over F_p every one
    is reduced mod p.
    """
    p = a.field.p
    out = []
    for i in range(a.nrows):
        for j in range(b.ncols):
            acc = Fraction(0) if p is None else 0
            for t in range(a.ncols):
                if p is None:
                    acc = acc + Fraction(a.at(i, t)) * Fraction(b.at(t, j))
                else:
                    acc = (acc + a.at(i, t) * b.at(t, j)) % p
            out.append(acc)
    return tuple(out)


def naive_bruhat_decompose(g):
    """Split invertible g as u1 @ P_s @ u2 with u1, u2 upper triangular.

    Elimination sweeps columns left to right; the pivot of each column is
    its lowest nonzero entry.  Entries above the pivot are cleared by row
    operations (upper triangular on the left), the rest of the pivot row by
    column operations (upper triangular on the right).  What remains is a
    monomial matrix P_s @ D whose scaling D is folded into u2.
    """
    from borelenv.decomp import BruhatFactors, _require_square, _square
    from borelenv.errors import ContractViolation, NotInvertible
    from borelenv.weyl import Permutation

    g = _require_square(g)
    f = g.field
    n = g.nrows
    zero = f.zero()
    m = g.rows_list()
    u1 = [[f.one() if i == j else zero for j in range(n)] for i in range(n)]
    u2 = [[f.one() if i == j else zero for j in range(n)] for i in range(n)]
    images = [0] * n
    for j in range(n):
        pivot_row = None
        for i in range(n - 1, -1, -1):
            if m[i][j] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            raise NotInvertible(f"column {j} is zero")
        i = pivot_row
        images[j] = i + 1
        piv = m[i][j]
        for r in range(i):
            if m[r][j] == zero:
                continue
            fac = _div(f, m[r][j], piv)
            # m <- L(r,i;-fac) m  and  u1 <- u1 L(r,i;+fac)
            m[r] = [_sub(f, x, _mul(f, fac, y)) for x, y in zip(m[r], m[i])]
            for t in range(n):
                u1[t][i] = f.add(u1[t][i], _mul(f, fac, u1[t][r]))
        for c in range(j + 1, n):
            if m[i][c] == zero:
                continue
            fac = _div(f, m[i][c], piv)
            # m <- m R(j,c;-fac)  and  u2 <- R(j,c;+fac) u2
            for t in range(n):
                m[t][c] = _sub(f, m[t][c], _mul(f, fac, m[t][j]))
            u2[j] = [f.add(x, _mul(f, fac, y)) for x, y in zip(u2[j], u2[c])]
    s = Permutation(tuple(images))
    # m is now P_s @ D with D = diag(m[s(j), j]); fold D into u2.
    for j in range(n):
        d = m[images[j] - 1][j]
        u2[j] = [_mul(f, d, x) for x in u2[j]]
    factors = BruhatFactors(_square(f, u1), s, _square(f, u2))
    if factors.recompose() != g:
        raise ContractViolation("Bruhat recomposition failed")
    return factors


def naive_bruhat_cell(g):
    """The Bruhat cell label of invertible g from all n^2 corner ranks.

    With r(i, j) = rank of the submatrix on rows i..n and columns 1..j,
    w(j) is the unique i where the second difference of r equals 1.  One
    RREF per corner: no reuse between corners.
    """
    from borelenv.decomp import _require_square
    from borelenv.errors import ContractViolation, NotInvertible
    from borelenv.linalg import Matrix, rref
    from borelenv.weyl import Permutation

    _require_square(g)
    n = g.nrows
    rk = [[0] * (n + 1) for _ in range(n + 2)]  # rk[i][j], 1-based, rk[n+1][*] = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sub = Matrix.from_rows(g.field, [list(g.row(r)[:j]) for r in range(i - 1, n)])
            rk[i][j] = rref(sub).rank
    if rk[1][n] < n:
        raise NotInvertible(f"matrix of rank {rk[1][n]} < {n}")
    images = []
    for j in range(1, n + 1):
        hits = [
            i
            for i in range(1, n + 1)
            if rk[i][j] - rk[i + 1][j] - rk[i][j - 1] + rk[i + 1][j - 1] == 1
        ]
        if len(hits) != 1:
            raise ContractViolation("corner rank profile is not a permutation")
        images.append(hits[0])
    return Permutation(tuple(images))


def flag_steps(f):
    """F_1 ⊂ ... ⊂ F_n, F_i the canonical span of the first i columns of
    the flag's adapted basis: one RREF per step."""
    from borelenv.linalg import subspace_from_rows

    h = f.adapted_basis
    cols = [h.col(j) for j in range(f.n)]
    return tuple(subspace_from_rows(f.n, cols[:i], field=f.field) for i in range(1, f.n + 1))


def naive_relative_position(f1, f2):
    """The relative position of two flags from all n^2 intersection ranks.

    With r(i, j) = dim(F1_i ∩ F2_j) = i + j - rank of the stacked step
    bases, w(j) is the unique i where the second difference of r equals 1.
    One RREF per (i, j): no reuse between cells.
    """
    from borelenv.errors import ContractViolation, InvalidInput
    from borelenv.linalg import Matrix, rref
    from borelenv.weyl import Permutation

    if f1.n != f2.n or f1.field != f2.field:
        raise InvalidInput("flags live in different spaces")
    n = f1.n
    steps1, steps2 = flag_steps(f1), flag_steps(f2)
    r = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        rows_i = [list(v) for v in steps1[i - 1].rows()]
        for j in range(1, n + 1):
            stacked = rows_i + [list(v) for v in steps2[j - 1].rows()]
            r[i][j] = i + j - rref(Matrix.from_rows(f1.field, stacked)).rank
    images = []
    for j in range(1, n + 1):
        hits = [
            i
            for i in range(1, n + 1)
            if r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1] == 1
        ]
        if len(hits) != 1:
            raise ContractViolation("rank table is not a permutation profile")
        images.append(hits[0])
    return Permutation(tuple(images))


def _naive_rank_table(w):
    # table[i][j] = #{a <= j : w(a) >= i}, 1-based i, j
    n = w.n
    table = [[0] * (n + 1) for _ in range(n + 2)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            table[i][j] = table[i][j - 1] + (1 if w.images[j - 1] >= i else 0)
    return table


def naive_bruhat_leq(u, w):
    """Bruhat order via the rank-matrix criterion.

    u <= w iff #{a <= j : u(a) >= i} <= #{a <= j : w(a) >= i} for all i, j.
    """
    tu, tw = _naive_rank_table(u), _naive_rank_table(w)
    n = u.n
    return all(tu[i][j] <= tw[i][j] for i in range(1, n + 1) for j in range(1, n + 1))


def naive_witness_coefficients(u, i, j):
    """The (i, j) witness coefficients x of upper triangular u, 1-based.

    Forward substitution on the peeling system of size i - j: for
    r = 1..i-j, sum_{c <= r} u[j+c, j+r] x_c = -u[j, j+r].
    """
    from borelenv.linalg import Matrix

    f = u.field
    size = i - j
    if size:
        sys_rows = [
            [u.at(j + c - 1, j + r - 1) if c <= r else f.zero() for c in range(1, size + 1)]
            for r in range(1, size + 1)
        ]
        rhs = [[_neg(f, u.at(j - 1, j + r - 1))] for r in range(1, size + 1)]
        sol = solve_lower_triangular(
            Matrix.from_rows(f, sys_rows), Matrix.from_rows(f, rhs)
        )
        x = sol.col(0)
    else:
        x = ()
    return tuple(x)


def naive_borel_algebra(g):
    """borel(g) = {g^-1 @ M @ g : M upper} as (rref rows, rank, pivots).

    Generators are the Fraction outer products of column a of g^-1 with
    row b of g, a <= b, reduced by naive_rref_q / naive_rref_fp; zero rows
    are dropped.
    """
    p, n = g.field.p, g.nrows
    rows = [[Fraction(x) for x in g.row(i)] for i in range(n)]
    inv = naive_inverse(rows, p)
    gens = [
        [Fraction(inv[r][a]) * rows[b][c] for r in range(n) for c in range(n)]
        for a in range(n)
        for b in range(a, n)
    ]
    if p is None:
        red, rank, pivots = naive_rref_q(gens)
    else:
        red, rank, pivots = naive_rref_fp([[int(x) for x in r] for r in gens], p)
    return red[:rank], rank, pivots


def naive_subspace_sum(parts):
    """Canonical span of the union of the given subspaces' bases (at least
    one part, all in one ambient space over one field)."""
    from borelenv.linalg import subspace_from_rows

    first = parts[0]
    return subspace_from_rows(first.ambient_dim, [r for s in parts for r in s.rows()], field=first.field)


def naive_stabilizer_algebra(f):
    """{M in gl_n : M F_i ⊆ F_i for all i}, solved from the stability
    conditions: for each step F_i but the last, every basis vector v of F_i
    and z of its annihilator give (M v) . z = 0, one linear condition on the
    n^2 entries of M; the stabilizer is the kernel of all of them.
    """
    from borelenv.linalg import Matrix, kernel

    n, field = f.n, f.field
    conditions = []
    for step in flag_steps(f)[:-1]:  # F_n imposes nothing
        annihilator = kernel(step.basis).rows()
        for v in step.rows():
            for z in annihilator:
                conditions.extend(_mul(field, zr, vc) for zr in z for vc in v)
    return kernel(Matrix(field, len(conditions) // (n * n), n * n, tuple(conditions)))


def fiber_tangent_sum(h):
    """(holds, ledger, gl_n block) of the tangent cover, the long way round.

    For every w in S_n: the coordinate flag of w as a Flag, the fiber
    tangent space at (flag(w), flag(h)) and its dpi2 projection.  The
    projections are summed in one naive_subspace_sum, the gl_n block is read
    off the rows of that sum, and the sum holds when it is the tangent space
    at (0, flag(h)), the projected fiber tangent at (flag(h), flag(h)).
    Only public API is used.
    """
    from borelenv.flags import chart_dim, dpi2, flag_from_matrix, tangent_fiber
    from borelenv.linalg import subspace_from_rows
    from borelenv.weyl import enumerate_group, perm_matrix

    n, field = h.nrows, h.field
    fh = flag_from_matrix(h)
    ledger, parts = [], []
    for w in enumerate_group(n):
        fiber = tangent_fiber(flag_from_matrix(perm_matrix(w, field)), fh)
        ledger.append((w, fiber.space.dim - 2 * chart_dim(n)))
        parts.append(dpi2(fiber))
    total = naive_subspace_sum(parts)
    gl = subspace_from_rows(n * n, [list(r)[: n * n] for r in total.rows()], field=field)
    return total == dpi2(tangent_fiber(fh, fh)), tuple(ledger), gl


def naive_tangent_ledger(h):
    """For each w in S_n in enumeration order, dim(stab(flag(h)) ∩
    borel(P_w^-1)), the stabilizer of w's coordinate flag: one Zassenhaus
    intersection per w, public API only."""
    from borelenv.envelope import borel_translate
    from borelenv.flags import flag_from_matrix, stabilizer_algebra
    from borelenv.linalg import subspace_intersect
    from borelenv.weyl import enumerate_group

    stab = stabilizer_algebra(flag_from_matrix(h))
    return tuple(
        (w, subspace_intersect(stab, borel_translate(w.inverse(), h.field)).dim) for w in enumerate_group(h.nrows)
    )


class SingularSystem(Exception):
    """A triangular system has a zero diagonal entry and cannot be solved."""


def solve_lower_triangular(lower, rhs):
    """Solve lower @ x = rhs by forward substitution.

    ``lower`` must be square lower triangular; a zero diagonal entry raises
    SingularSystem.  ``rhs`` is a column matrix; the unique solution column
    is returned.
    """
    from borelenv.errors import InvalidInput
    from borelenv.linalg import Matrix

    if not lower.is_square:
        raise InvalidInput("coefficient matrix must be square")
    if not lower.is_lower_triangular():
        raise InvalidInput("coefficient matrix must be lower triangular")
    n = lower.nrows
    if rhs.nrows != n or rhs.ncols != 1:
        raise InvalidInput("right-hand side must be an n x 1 column")
    lower._check_same_field(rhs)
    f = lower.field
    zero = f.zero()
    for i in range(n):
        if lower.at(i, i) == zero:
            raise SingularSystem(f"zero diagonal entry at position {i}")
    x = []
    for i in range(n):
        acc = rhs.at(i, 0)
        for k in range(i):
            acc = _sub(f, acc, _mul(f, lower.at(i, k), x[k]))
        x.append(_div(f, acc, lower.at(i, i)))
    return Matrix(f, n, 1, tuple(x))


def solve_exact(a, b):
    """Any exact solution x of a @ x = b, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    from borelenv.errors import InvalidInput
    from borelenv.linalg import _reduced

    f = a.field
    bb = [f.coerce(x) for x in b]
    if len(bb) != a.nrows:
        raise InvalidInput("right-hand side length mismatch")
    aug = [list(a.row(i)) + [bb[i]] for i in range(a.nrows)]
    rows, pivots = _reduced(f, aug, a.ncols + 1)
    if a.ncols in pivots:
        return None
    x = [f.zero()] * a.ncols
    for row, c in zip(rows, pivots):
        x[c] = row[a.ncols]
    return x


def naive_ulp_lower(m):
    """Unipotent-lower ULP; always exists.  The FieldSpec row sweep that
    decomp._ulp_lower ran before it moved to integer shape, kept verbatim.

    Rows are processed bottom-up.  Row i of m is peeled against the rows
    already built; the residue is supported on the columns not yet claimed,
    and its deepest nonzero column (or the deepest free column when the
    residue vanishes) becomes this row's claim.  The claims define the
    permutation; the scaled residues assemble into the unipotent lower
    factor.
    """
    from borelenv.decomp import UlpFactors, _square
    from borelenv.weyl import Permutation

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
                v = [_sub(f, a, _mul(f, coef, b)) for a, b in zip(v, xk)]
        support = [c for c in range(n) if v[c] != zero]
        if support:
            j = max(support)
            u[i][i] = v[j]
            inv = _inv(f, v[j])
            x_rows[i] = [_mul(f, inv, a) for a in v]
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


def naive_ul_split(b):
    """b = U @ L with U unipotent upper, L lower; None when impossible.  The
    FieldSpec sweep that decomp._ul_split ran before it moved to integer
    shape, kept verbatim: one solve_exact per row.

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
    from borelenv.decomp import _square
    from borelenv.errors import ContractViolation
    from borelenv.linalg import Matrix

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
                    v = [_sub(f, x, _mul(f, t[idx], y)) for x, y in zip(v, l_rows[k])]
        if any(v[c] != zero for c in range(i + 1, n)):
            raise ContractViolation("residual row escaped its lower support")
        l_rows[i] = v
    return _square(f, u), _square(f, l_rows)


def naive_ulp_upper(m):
    """The unipotent-upper ULP of square m by the complete permutation search.

    The direct branch moves the diagonal of the unipotent-lower factor into
    l.  Otherwise naive_ul_split is run on m @ P_p^-1 for base.p, then for every
    p of S_n in lexicographic order, and the first split wins; exhausting
    S_n proves UlpInfeasible.  n! eliminations on an infeasible input.
    """
    import itertools

    from borelenv.decomp import UlpFactors, _square
    from borelenv.errors import UlpInfeasible
    from borelenv.weyl import Permutation

    f = m.field
    n = m.nrows
    zero = f.zero()
    base = naive_ulp_lower(m)
    diag = [base.u.at(i, i) for i in range(n)]
    if all(d != zero for d in diag):
        u = _square(f, [[_div(f, base.u.at(i, k), diag[k]) for k in range(n)] for i in range(n)])
        lower = _square(f, [[_mul(f, diag[i], base.l.at(i, k)) for k in range(n)] for i in range(n)])
        return UlpFactors(u, lower, base.p, "upper")
    candidates = itertools.chain(
        [base.p], (Permutation(img) for img in itertools.permutations(range(1, n + 1)))
    )
    seen = set()
    for p in candidates:
        if p.images in seen:
            continue
        seen.add(p.images)
        split = naive_ul_split(m.permute_cols(p.inverse()))
        if split is not None:
            u, lower = split
            return UlpFactors(u, lower, p, "upper")
    raise UlpInfeasible("no upper*lower*permutation factorization has a unipotent upper factor")


def naive_subspace_intersect(a_rows, b_rows, p=None):
    """The RREF basis (zero rows dropped) of span(a_rows) ∩ span(b_rows).

    The kernel of the stacked bases: z = (x, y) with x @ A + y @ B = 0 is
    read off the naive RREF of [A^T | B^T], and each kernel vector gives
    the intersection vector x @ A = -(y @ B).  Over Q when p is None.
    """
    rref = naive_rref_q if p is None else (lambda rows: naive_rref_fp(rows, p))
    stacked = [list(r) for r in a_rows] + [list(r) for r in b_rows]
    if not a_rows or not b_rows:
        return []
    k, width = len(a_rows), len(stacked[0])
    red, rank, pivots = rref([[row[c] for row in stacked] for c in range(width)])
    vecs = []
    for free in range(len(stacked)):
        if free in pivots:
            continue
        z = [0] * len(stacked)
        z[free] = 1
        for r, pc in enumerate(pivots):
            z[pc] = -red[r][free]
        vecs.append([sum(z[t] * stacked[t][c] for t in range(k)) for c in range(width)])
    if not vecs:
        return []
    red, rank, _ = rref(vecs)
    return [tuple(r) for r in red[:rank]]


def _naive_conjugate_witness(left, right, i, j, x):
    """left @ a @ right for a = e^{i,j} + sum_l x_l e^{i,j+l}, as factors:
    a is rank one, so the product is the outer product of left's column i
    with (1, x) @ rows j..i of right; the caller multiplies out what it needs.
    """
    f = left.field
    zero = f.zero()
    rowv = [zero] * right.ncols
    for r, val in enumerate((f.one(),) + x, start=j - 1):
        if val != zero:
            rowv = [f.add(acc, _mul(f, val, y)) for acc, y in zip(rowv, right.row(r))]
    return left.col(i - 1), rowv


def naive_translate_index_set(w):
    """The support of borel(P_w) from its definition: the 0-based row-major
    entries (r, c) with w(r) <= w(c), the Weyl element called 1-based."""
    n = w.n
    return frozenset(r * n + c for r in range(n) for c in range(n) if w(r + 1) <= w(c + 1))


def naive_first_visits(n):
    """The Weyl elements the envelope oracle visits first, each once, in
    order: e, w0, t, w0∘t, ..., t^(n-1), w0∘t^(n-1), then c^0, ..., c^(n-1).
    Each is a product of transpositions (i, i+1) and (i, n+1-i): t = a∘b is
    the bipartite Coxeter element, a = (1 2)(3 4)... and b = (2 3)(4 5)...,
    w0 = (1 n)(2 n-1)... reverses 1..n and c = (1 2)(2 3)...(n-1 n) sends
    j to j + 1 mod n, so c^k has images (k+1, ..., n, 1, ..., k)."""
    from borelenv.weyl import Permutation, compose

    def product(pairs):
        out = Permutation.identity(n)
        for i, j in pairs:
            out = compose(out, Permutation.transposition(n, i, j))
        return out

    a = product((i, i + 1) for i in range(1, n, 2))
    b = product((i, i + 1) for i in range(2, n, 2))
    w0 = product((i, n + 1 - i) for i in range(1, n // 2 + 1))
    c = product((i, i + 1) for i in range(1, n))
    t, power, seq = compose(a, b), Permutation.identity(n), []
    for _ in range(n):
        seq += [power, compose(w0, power)]
        power = compose(t, power)
    power = Permutation.identity(n)
    for _ in range(n):
        seq.append(power)
        power = compose(c, power)
    out = []
    for w in seq:
        if w not in out:
            out.append(w)
    return out


def _naive_checked_span(target, entries):
    """The span of the entries' vectors, or None when some vector or tag has
    the wrong size or a vector lies outside the algebra or its translate.
    """
    from borelenv.linalg import _int_shape, _span_int

    n, f = target.n, target.g.field
    rows = []
    for vec, w in entries:
        if len(vec) != n * n or w.n != n:
            return None
        v = [f.coerce(x) for x in vec]
        coords = naive_translate_index_set(w)
        if any(x and c not in coords for c, x in enumerate(v)):
            return None
        rows.append(v)
    span, algebra = _span_int(f, _int_shape(f, rows), n * n), target.algebra
    if span != algebra and not all(algebra.contains(v) for v in rows):
        return None
    return span


def naive_certificate_devissage(g):
    """The restricted (witness-route) certificate of g, built with Fractions.

    Entry (i, j) is P_q^-1 u2^-1 a u2 P_q, tagged s∘q, for the (i, j)
    witness a of u2, x by forward substitution (naive_witness_coefficients),
    so no witness code is shared with the package.  Every row factor is a
    sum of FieldSpec products, every vector a FieldSpec outer product, and
    the entries are checked by one span that coerces them again.
    """
    from borelenv.decomp import ulp_decompose
    from borelenv.envelope import (
        EnvelopeCertificate,
        borel_from_g,
        lower_pairs,
    )
    from borelenv.errors import ContractViolation
    from borelenv.linalg import Matrix, inverse
    from borelenv.weyl import Permutation, compose, longest_element, transposition_set

    target = borel_from_g(g)
    n, f = target.n, g.field
    factors = ulp_decompose(g, "lower")
    w0 = longest_element(n)
    # P_w0 @ l @ P_w0 reverses the row-major entries of l
    u2 = Matrix(f, n, n, factors.l.entries[::-1])
    if not u2.is_upper_triangular():
        raise ContractViolation("conjugated lower factor is not upper triangular")
    q = compose(w0, factors.p)
    u2_inv = inverse(u2)
    # right = u2 @ P_q, and its inverse is P_q^-1 @ u2^-1
    right, left = u2.permute_cols(q), u2_inv.permute_rows(q.inverse())
    entries = []
    for i, j in lower_pairs(n):
        col, rowv = _naive_conjugate_witness(left, right, i, j, naive_witness_coefficients(u2, i, j))
        vec = tuple(_mul(f, a, b) for a in col for b in rowv)
        entries.append((vec, compose(Permutation.transposition(n, i, j), q)))
    span = _naive_checked_span(target, entries)
    if span is None:
        raise ContractViolation("devissage certificate failed self-verification")
    translate = tuple(compose(t, q) for t in transposition_set(n))
    return EnvelopeCertificate(target, tuple(entries), span == target.algebra, translate)
