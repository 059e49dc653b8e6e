"""Exact-kernel tests: scalars, rref, triangular solves, subspaces."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelenv._kernel import _clear, clear_denominators, reduce_row_q, rref_fp, rref_q_int
from borelenv.errors import InvalidInput, NotInvertible, ResourceGuard
from borelenv.linalg import (
    PRIMALITY_LIMIT,
    FieldSpec,
    Matrix,
    SpanAccumulator,
    inverse,
    kernel,
    rref,
    subspace_from_rows,
    subspace_intersect,
    _coordinate_subspace,
    _int_shape,
    _intersect_with_coordinates,
    _is_prime,
    _kernel_rows,
)
from borelenv.rng import SplitMix64, random_invertible, random_matrix

from borelenv.weyl import enumerate_group, perm_matrix

from reference import (
    naive_inverse,
    naive_matmul,
    naive_rref_fp,
    naive_rref_q,
    naive_subspace_intersect,
    naive_subspace_sum,
    rank_by_minors,
    SingularSystem,
    solve_exact,
    solve_lower_triangular,
)

Q = FieldSpec.rational()
F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)

FIELDS = [Q, F2, F5, FieldSpec.prime(101)]


class TestFieldSpec:
    def test_prime_modulus_checked(self):
        with pytest.raises(InvalidInput):
            FieldSpec.prime(6)
        with pytest.raises(InvalidInput):
            FieldSpec.prime(1)
        FieldSpec.prime(2)
        FieldSpec.prime(97)

    def test_primality_matches_trial_division(self):
        def trial_division(p):
            return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

        for p in range(10**4):
            assert _is_prime(p) == trial_division(p), p

    def test_strong_pseudoprimes_rejected(self):
        # Carmichael numbers, and the least strong pseudoprime to every
        # prime base up to 37 (so base 41 is needed below PRIMALITY_LIMIT)
        for n in (561, 41041, 318665857834031151167461):
            assert not _is_prime(n)
            with pytest.raises(InvalidInput):
                FieldSpec.prime(n)

    def test_large_prime_is_fast(self):
        # trial division would need about 2^30 steps here
        assert FieldSpec.prime(2**61 - 1).p == 2**61 - 1

    def test_primality_guard(self):
        with pytest.raises(ResourceGuard):
            FieldSpec.prime(PRIMALITY_LIMIT)

    def test_rational_coercion_canonical(self):
        x = Q.coerce("-4/6")
        assert x == Fraction(-2, 3)
        assert x.denominator == 3  # positive denominator, lowest terms

    def test_rational_exponent_rejected(self):
        # Fraction("1e<k>") builds a k-digit integer; the wire format is num/den
        for literal in ("1e100000", "2E3", "1.5e-2", "-3e0"):
            with pytest.raises(InvalidInput):
                Q.coerce(literal)
        assert Q.coerce("1.5") == Fraction(3, 2)

    def test_fp_residue_range(self):
        assert F5.coerce(-3) == 2
        assert F5.coerce(12) == 2
        with pytest.raises(InvalidInput):
            F5.coerce("3")

    def test_field_axioms_seeded(self):
        # a thousand random triples per field, checked exactly
        for field in FIELDS:
            rng = SplitMix64(2024)
            for _ in range(1000):
                if field.p is None:
                    a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
                else:
                    a, b, c = (rng.below(field.p) for _ in range(3))
                assert field.add(a, b) == field.add(b, a)
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))


class TestRref:
    def test_identity(self):
        m = Matrix.identity(Q, 3)
        res = rref(m)
        assert res.reduced == m
        assert res.rank == 3
        assert res.pivot_cols == (0, 1, 2)

    def test_zero(self):
        m = Matrix.zeros(F5, 2, 2)
        res = rref(m)
        assert res.reduced == m and res.rank == 0 and res.pivot_cols == ()

    def test_rank_one_example(self):
        m = Matrix.from_rows(Q, [[2, 4], [1, 2]])
        res = rref(m)
        assert res.reduced == Matrix.from_rows(Q, [[1, 2], [0, 0]])
        assert res.rank == 1
        assert res.pivot_cols == (0,)
        assert rank_by_minors([[2, 4], [1, 2]]) == 1

    def test_idempotent(self):
        rng = SplitMix64(7)
        for field in FIELDS:
            for _ in range(25):
                m = random_matrix(rng, field, 4)
                once = rref(m).reduced
                assert rref(once).reduced == once

    def test_matches_naive_reference_bitwise(self):
        rng = SplitMix64(99)
        for _ in range(150):
            nr = 1 + rng.below(5)
            nc = 1 + rng.below(6)
            rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            got = rref(Matrix.from_rows(Q, rows))
            ref_rows, ref_rank, ref_piv = naive_rref_q(rows)
            assert got.reduced.rows_list() == [list(r) for r in ref_rows]
            assert got.rank == ref_rank and list(got.pivot_cols) == ref_piv
            for p in (2, 5, 101):
                f = FieldSpec.prime(p)
                gotp = rref(Matrix.from_rows(f, [[x % p for x in r] for r in rows]))
                refp_rows, refp_rank, refp_piv = naive_rref_fp(rows, p)
                assert gotp.reduced.rows_list() == [list(r) for r in refp_rows]
                assert gotp.rank == refp_rank and list(gotp.pivot_cols) == refp_piv

    def test_large_primes_match_naive_reference(self):
        # products of residues of these primes do not fit in 64 bits
        rng = SplitMix64(101)
        for p in (4_294_967_311, 2**61 - 1):
            assert (p - 1) ** 2 > 2**63 - 1
            for _ in range(50):
                nr = 1 + rng.below(4)
                nc = 1 + rng.below(5)
                rows = [[rng.below(p) for _ in range(nc)] for _ in range(nr)]
                rows.append([2 * x for x in rows[0]])  # force a dependent row
                assert rref_fp(rows, nc, p) == naive_rref_fp(rows, p)
        p = 4_294_967_311
        f = FieldSpec.prime(p)
        rows = [[rng.below(p) for _ in range(4)] for _ in range(3)]
        got = rref(Matrix.from_rows(f, rows))
        ref_rows, ref_rank, ref_piv = naive_rref_fp(rows, p)
        assert got.reduced.rows_list() == [list(r) for r in ref_rows]
        assert got.rank == ref_rank and list(got.pivot_cols) == ref_piv

    def test_fraction_inputs(self):
        m = Matrix.from_rows(Q, [["1/2", "1/3"], ["1/4", "1/6"]])
        assert rref(m).rank == 1

    def test_mixed_field_rejected(self):
        a = Matrix.identity(Q, 2)
        b = Matrix.identity(F5, 2)
        with pytest.raises(InvalidInput):
            a @ b


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rref_idempotence_property(rows):
    m = Matrix.from_rows(Q, rows)
    reduced = rref(m).reduced
    assert rref(reduced).reduced == reduced


class TestSolveLowerTriangular:
    """Forward substitution, kept in reference for the witness oracle."""

    def test_scalar(self):
        lower = Matrix.from_rows(Q, [[1]])
        rhs = Matrix.from_rows(Q, [[-1]])
        assert solve_lower_triangular(lower, rhs) == rhs

    def test_identity_returns_rhs(self):
        lower = Matrix.identity(F5, 3)
        rhs = Matrix.from_rows(F5, [[1], [2], [4]])
        assert solve_lower_triangular(lower, rhs) == rhs

    def test_worked_example(self):
        lower = Matrix.from_rows(Q, [[2, 0], [1, 3]])
        rhs = Matrix.from_rows(Q, [[4], [5]])
        x = solve_lower_triangular(lower, rhs)
        assert x == Matrix.from_rows(Q, [[2], [1]])
        assert lower @ x == rhs

    def test_substitution_reproduces_rhs(self):
        rng = SplitMix64(5)
        for field in FIELDS:
            for _ in range(30):
                n = 1 + rng.below(5)
                rows = []
                for i in range(n):
                    row = [field.coerce(rng.randint(-9, 9)) if j < i else field.zero() for j in range(n)]
                    d = rng.randint(1, 9) if field.p is None else 1 + rng.below(field.p - 1)
                    row[i] = field.coerce(d)
                    rows.append(row)
                lower = Matrix.from_rows(field, rows)
                rhs = Matrix.from_rows(field, [[rng.randint(-9, 9) if field.p is None else rng.below(field.p)] for _ in range(n)])
                assert lower @ solve_lower_triangular(lower, rhs) == rhs

    def test_zero_diagonal_raises(self):
        lower = Matrix.from_rows(Q, [[0, 0], [1, 3]])
        with pytest.raises(SingularSystem):
            solve_lower_triangular(lower, Matrix.from_rows(Q, [[1], [1]]))

    def test_not_lower_rejected(self):
        m = Matrix.from_rows(Q, [[1, 1], [0, 1]])
        with pytest.raises(InvalidInput):
            solve_lower_triangular(m, Matrix.from_rows(Q, [[1], [1]]))


class TestInverse:
    def test_examples(self):
        assert inverse(Matrix.identity(Q, 3)) == Matrix.identity(Q, 3)
        u = Matrix.from_rows(Q, [[1, 1], [0, 1]])
        assert inverse(u) == Matrix.from_rows(Q, [[1, -1], [0, 1]])
        s = Matrix.from_rows(F5, [[0, 1], [1, 0]])
        assert inverse(s) == s

    def test_roundtrip(self):
        rng = SplitMix64(11)
        for field in FIELDS:
            for _ in range(20):
                n = 1 + rng.below(4)
                m = random_invertible(rng, field, n)
                assert m @ inverse(m) == Matrix.identity(field, n)

    def test_singular_raises(self):
        with pytest.raises(NotInvertible):
            inverse(Matrix.zeros(Q, 2, 2))
        with pytest.raises(NotInvertible):
            inverse(Matrix.from_rows(F2, [[1, 1], [1, 1]]))

    def test_unreduced_fp_entries_match_from_rows(self):
        # a Matrix built directly reduces its entries mod p, entries past
        # int64 included
        m = Matrix(F5, 2, 2, (7, -1, 10**30 + 3, 4))
        r = Matrix.from_rows(F5, [[2, 4], [3, 4]])
        assert inverse(m) == inverse(r)
        assert rref(m) == rref(r)
        assert kernel(m) == kernel(r)
        s = Matrix(F5, 2, 3, (6, 10**30, -4, 12, -(10**40), 2**70))
        t = Matrix.from_rows(F5, [[1, 0, 1], [2, 0, 4]])
        assert rref(s) == rref(t)
        assert kernel(s) == kernel(t)


ORACLE_FIELDS = FIELDS + [FieldSpec.prime(2**61 - 1)]


def _random_entries(rng, field, count):
    if field.p is not None:
        return tuple(rng.below(field.p) for _ in range(count))
    # zero, negative, integer and non-integer entries
    return tuple(Fraction(rng.randint(-9, 9), 1 + rng.below(4)) for _ in range(count))


class TestMatmulOracle:
    SHAPES = [(1, 4, 3), (4, 1, 4), (3, 4, 1), (0, 3, 2), (2, 0, 3), (3, 2, 0), (5, 4, 3)]

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
    def test_matches_triple_loop(self, field):
        rng = SplitMix64(307)
        for n, k, m in self.SHAPES:
            for _ in range(6):
                a = Matrix(field, n, k, _random_entries(rng, field, n * k))
                b = Matrix(field, k, m, _random_entries(rng, field, k * m))
                prod = a @ b
                assert (prod.nrows, prod.ncols) == (n, m)
                assert prod.entries == naive_matmul(a, b)
                if field.p is None:
                    assert all(type(x) is Fraction for x in prod.entries)
                else:
                    assert all(0 <= x < field.p for x in prod.entries)

    def test_q_entries_stay_in_lowest_terms(self):
        a = Matrix.from_rows(Q, [["1/2", "-1/3"], [0, "5/6"]])
        b = Matrix.from_rows(Q, [["2/3", 0], ["3/2", "-6/5"]])
        assert (a @ b).entries == (Fraction(-1, 6), Fraction(2, 5), Fraction(5, 4), -1)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            Matrix.zeros(Q, 2, 3) @ Matrix.zeros(Q, 2, 3)

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
    def test_permute_matches_perm_matrix_products(self, field):
        # non-square partners, so a row/column mix-up cannot pass
        rng = SplitMix64(311)
        for n in range(1, 5):
            for w in enumerate_group(n):
                pw = perm_matrix(w, field)
                m = Matrix(field, n + 1, n, _random_entries(rng, field, (n + 1) * n))
                assert m.permute_cols(w) == m @ pw
                m = Matrix(field, n, n + 2, _random_entries(rng, field, n * (n + 2)))
                assert m.permute_rows(w) == pw @ m

    def test_permute_size_mismatch(self):
        w = enumerate_group(3)[1]
        with pytest.raises(InvalidInput):
            Matrix.zeros(Q, 3, 2).permute_cols(w)
        with pytest.raises(InvalidInput):
            Matrix.zeros(Q, 2, 3).permute_rows(w)


def _naive_rref(rows, field):
    return naive_rref_q(rows) if field.p is None else naive_rref_fp(rows, field.p)


def _oracle_matrix(rng, field, nr, nc):
    """Random entries (non-integer over Q); often a dependent last row."""
    ents = list(_random_entries(rng, field, nr * nc))
    if nr >= 3 and rng.below(2):
        c = field.coerce(rng.randint(-3, 3))
        ents[-nc:] = [field.coerce(c * x + y) for x, y in zip(ents[:nc], ents[nc : 2 * nc])]
    return Matrix(field, nr, nc, tuple(ents))


class TestEliminationOracle:
    """rref, inverse, kernel and solve_exact against the naive Gauss-Jordan
    of tests/reference.py on wide, tall and square matrices."""

    SHAPES = [(2, 5), (3, 6), (1, 4), (5, 2), (6, 3), (4, 1), (1, 1), (3, 3), (4, 4), (5, 5)]

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
    def test_rref_and_kernel(self, field):
        rng = SplitMix64(313)
        for nr, nc in self.SHAPES:
            for _ in range(8):
                m = _oracle_matrix(rng, field, nr, nc)
                ref_rows, ref_rank, ref_piv = _naive_rref(m.rows_list(), field)
                got = rref(m)
                assert got.reduced.rows_list() == [list(r) for r in ref_rows]
                assert got.rank == ref_rank and list(got.pivot_cols) == ref_piv
                # kernel: one vector per free column of the naive RREF, then
                # the naive RREF of those vectors is the canonical basis
                basis = []
                for f in (c for c in range(nc) if c not in ref_piv):
                    v = [field.zero()] * nc
                    v[f] = field.one()
                    for row, c in zip(ref_rows, ref_piv):
                        v[c] = field.coerce(-row[f])
                    basis.append(v)
                want = _naive_rref(basis, field)[0] if basis else []
                k = kernel(m)
                assert k.basis.rows_list() == [list(r) for r in want if any(r)]
                for v in k.rows():
                    assert m @ Matrix(field, nc, 1, tuple(v)) == Matrix.zeros(field, nr, 1)

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
    def test_inverse(self, field):
        rng = SplitMix64(317)
        for n in range(1, 6):
            for _ in range(10):
                m = _oracle_matrix(rng, field, n, n)
                try:
                    want = naive_inverse(m.rows_list(), field.p)
                except ValueError:
                    with pytest.raises(NotInvertible):
                        inverse(m)
                    continue
                assert inverse(m).rows_list() == want

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
    def test_solve_exact(self, field):
        # the reference solution: RREF of [a | b], free variables zero
        rng = SplitMix64(331)
        for nr, nc in self.SHAPES:
            for _ in range(8):
                a = _oracle_matrix(rng, field, nr, nc)
                if rng.below(2):  # a consistent right-hand side a @ x
                    x = Matrix(field, nc, 1, _random_entries(rng, field, nc))
                    b = list((a @ x).entries)
                else:
                    b = list(_random_entries(rng, field, nr))
                rows, _, piv = _naive_rref([r + [y] for r, y in zip(a.rows_list(), b)], field)
                got = solve_exact(a, b)
                if nc in piv:
                    assert got is None
                    continue
                want = [field.zero()] * nc
                for row, c in zip(rows, piv):
                    want[c] = row[nc]
                assert got == want
                assert a @ Matrix(field, nc, 1, tuple(got)) == Matrix(field, nr, 1, tuple(b))


class TestRrefFpOracle:
    """The F_p kernel against naive_rref_fp on the full (rows, rank,
    pivots) triple, zero rows included, on the shapes the library sends."""

    PRIMES = (2, 3, 5, 101, 2**31 - 1)

    @staticmethod
    def _check(rows, width, p):
        before = [list(r) for r in rows]
        got = rref_fp(rows, width, p)
        assert got == naive_rref_fp(rows, p)
        assert len(got[0]) == len(rows)
        assert all(type(x) is int for row in got[0] for x in row)
        assert [list(r) for r in rows] == before  # the input is not modified

    @pytest.mark.parametrize("p", PRIMES)
    def test_edge_cases(self, p):
        self._check([], 4, p)
        self._check([[0, 0, 0]], 3, p)
        self._check([[0] * 4 for _ in range(3)], 4, p)
        self._check([[1, 2, 3], [1, 2, 3], [0, 0, 0], [2, 4, 6]], 3, p)
        self._check([[-1, -p, p + 1], [p, 2 * p - 1, -3 * p - 2], [-p - 5, 7, 0]], 3, p)
        self._check([[p - 1] * 3, [1, 0, p - 1]], 3, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_random_shapes_with_dependent_rows(self, p):
        rng = SplitMix64(401 + p % 1000)
        for _ in range(60):
            nr, nc = 1 + rng.below(7), 1 + rng.below(7)  # more and fewer rows than columns
            rows = [[rng.randint(-2 * p, 2 * p) for _ in range(nc)] for _ in range(nr)]
            if nr >= 2:
                c = rng.randint(-3, 3)
                rows.append([c * x - y for x, y in zip(rows[0], rows[1])])
            if rng.below(3) == 0:
                rows.insert(rng.below(len(rows)), list(rows[-1]))
            self._check(rows, nc, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_sparse_borel_shaped_rows(self, p):
        # vectorized n x n matrices supported on the upper triangle, or on a
        # coordinate translate of it (P_w b0 P_w^-1), as the envelope and
        # tangent code send them
        rng = SplitMix64(409 + p % 1000)
        for n in (2, 3, 4, 5):
            for w in list(enumerate_group(n))[:6]:
                support = [w(i + 1) - 1 for i in range(n)]
                rows = []
                for _ in range(1 + rng.below(n * (n + 1) // 2 + 2)):
                    v = [0] * (n * n)
                    for i in range(n):
                        for j in range(i, n):
                            if rng.below(3) == 0:
                                v[support[i] * n + support[j]] = rng.randint(-3, p + 3)
                    rows.append(v)
                self._check(rows, n * n, p)
                # the rows of an upper-triangular matrix itself
                u = [[rng.below(p) if j >= i else 0 for j in range(n)] for i in range(n)]
                self._check(u, n, p)


class TestRrefQIntOracle:
    """The Q kernel against naive_rref_q, each nonzero reference row made
    primitive (scaled by the lcm of its denominators, divided by its gcd),
    on the shapes the library sends; reduce_row_q against the rank test."""

    @staticmethod
    def _primitive(row):
        d = math.lcm(*(x.denominator for x in row))
        ints = [int(x * d) for x in row]
        g = math.gcd(*ints)
        return tuple(x // g for x in ints)

    @classmethod
    def _check(cls, rows, width, probes=()):
        before = [list(r) for r in rows]
        prim, rank, pivots = rref_q_int(rows, width)
        ref_rows, ref_rank, ref_piv = naive_rref_q(rows)
        assert (rank, list(pivots)) == (ref_rank, ref_piv)
        assert list(prim) == [cls._primitive(r) for r in ref_rows[:rank]]
        assert [list(r) for r in rows] == before  # the input is not modified
        # reduce_row_q leaves all zeros exactly on the span
        assert not any(any(reduce_row_q(list(v), prim, pivots)) for v in rows)
        for v in probes:
            in_span = naive_rref_q(list(rows) + [v])[1] == rank
            assert not any(reduce_row_q(list(v), prim, pivots)) == in_span

    def test_edge_cases(self):
        self._check([], 4)
        self._check([[0, 0, 0]], 3, probes=[[0, 0, 0], [0, 1, 0]])
        self._check([[0] * 4 for _ in range(3)], 4)
        self._check([[1, 2, 3], [1, 2, 3], [0, 0, 0], [2, 4, 6]], 3, probes=[[3, 6, 9], [1, 2, 4]])
        # negative leading entries and rows that are not primitive on input
        self._check([[-4, 6, 8]], 3, probes=[[2, -3, -4], [2, 3, 4]])
        self._check([[-3, 6, 9], [-2, -4, 5], [0, 0, -7]], 3, probes=[[1, 0, 0]])
        self._check([[0, -6, 4, 2], [0, 0, 0, -5], [0, 3, -2, 9]], 4, probes=[[0, 3, -2, 0], [1, 0, 0, 0]])

    def test_clear_returns_the_primitive_cleared_row(self):
        # the row rule itself: rref_q_int makes its rows primitive again at
        # the end, so a _clear that only lets entries grow changes no RREF
        rng = SplitMix64(419)
        cases = [([2, 4], [1, 0], 0), ([6, 9, 3], [4, 6, 2], 1), ([5, 10], [1, 2], 0)]
        for _ in range(200):
            width = 1 + rng.below(5)
            v, row = ([rng.randint(-12, 12) for _ in range(width)] for _ in range(2))
            c = rng.below(width)
            v[c], row[c] = v[c] or 6, row[c] or -4
            cases.append((v, row, c))
        for v, row, c in cases:
            out = _clear(v, row, c)
            plain = [row[c] * x - v[c] * y for x, y in zip(v, row)]
            assert out[c] == 0
            if not any(plain):
                assert not any(out)
                continue
            k = next(i for i, x in enumerate(plain) if x)
            scale = Fraction(out[k], plain[k])
            assert scale and out == [scale * x for x in plain]
            assert math.gcd(*out) == 1

    @staticmethod
    def _entry(rng, bits):
        """A signed integer of at most ``bits`` bits, 64 drawn at a time."""
        x = 0
        for _ in range(-(-bits // 64)):
            x = x << 64 | rng.next_u64()
        return (x >> (-bits % 64)) * (1 - 2 * rng.below(2))

    def test_random_with_dependent_rows_and_large_entries(self):
        rng = SplitMix64(421)
        widest = 0
        for t in range(80):
            nr, nc = 1 + rng.below(7), 1 + rng.below(8)  # more and fewer rows than columns
            bits = (4, 64, 100, 160)[t % 4]
            rows = [[self._entry(rng, bits) if rng.below(4) else 0 for _ in range(nc)] for _ in range(nr)]
            if nr >= 2:
                a, b = rng.randint(-3, 3), rng.randint(1, 3)
                rows.insert(rng.below(nr), [a * x - b * y for x, y in zip(rows[0], rows[1])])
            if rng.below(3) == 0:
                rows.append(list(rows[rng.below(len(rows))]))
            combo = [sum(rng.randint(-2, 2) * r[j] for r in rows) for j in range(nc)]
            self._check(rows, nc, probes=[combo, [self._entry(rng, bits) for _ in range(nc)]])
            widest = max(widest, *(abs(x).bit_length() for r in rows for x in r))
        assert widest >= 150

    def test_borel_algebra_generators(self):
        # row (a, b) is column a of g^-1 times row b of g, as in
        # BorelConjugate.algebra; the probes are unit vectors
        rng = SplitMix64(431)
        for n in (2, 3, 4, 5):
            for _ in range(3):
                g = random_invertible(rng, Q, n)
                cols = [clear_denominators(inverse(g).col(a))[0] for a in range(n)]
                rows = [clear_denominators(g.row(b))[0] for b in range(n)]
                gens = [[x * y for x in cols[a] for y in rows[b]] for a in range(n) for b in range(a, n)]
                units = [[int(i == j) for j in range(n * n)] for i in range(n * n)]
                self._check(gens, n * n, probes=units[:: n + 1] + units[n : n + 1])

    def test_zassenhaus_stacks(self):
        # [A | A; B | 0] for the primitive bases of two random spans
        rng = SplitMix64(433)
        for width in (2, 3, 4, 6):
            for _ in range(4):
                a, b = (
                    rref_q_int([[rng.randint(-5, 5) for _ in range(width)] for _ in range(1 + rng.below(width))], width)[0]
                    for _ in range(2)
                )
                stacked = [list(r) + list(r) for r in a] + [list(r) + [0] * width for r in b]
                self._check(stacked, 2 * width, probes=[[0] * width + list(r) for r in b])

    def test_augmented_identity(self):
        # [m | I] rows, invertible and singular m, non-integer entries
        rng = SplitMix64(439)
        for n in (1, 2, 3, 4, 5):
            for m in (random_invertible(rng, Q, n), random_matrix(rng, Q, n), Matrix.zeros(Q, n, n)):
                m = Matrix.from_rows(Q, [[x / (1 + rng.below(4)) for x in r] for r in m.rows_list()])
                aug = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
                self._check([clear_denominators(r)[0] for r in aug], 2 * n)


def _sparse_entry(rng, field):
    """Zero half the time, else a random nonzero field element."""
    if rng.below(2):
        return field.zero()
    if field.p is None:
        return Fraction(rng.randint(1, 9) * (1 - 2 * rng.below(2)), 1 + rng.below(3))
    return 1 + rng.below(field.p - 1)


class TestSubspace:
    def test_full_plane(self):
        s = subspace_from_rows(2, [[1, 0], [0, 1]], field=Q)
        assert s.dim == 2

    def test_collinear(self):
        s = subspace_from_rows(2, [[1, 1], [2, 2]], field=Q)
        assert s.dim == 1
        assert s.basis == Matrix.from_rows(Q, [[1, 1]])

    def test_empty(self):
        s = subspace_from_rows(3, [], field=F5)
        assert s.dim == 0

    def test_canonicality_under_remixing(self):
        # two random invertible remixes of the same generators agree bitwise
        rng = SplitMix64(13)
        for field in FIELDS:
            for _ in range(25):
                n = 3 + rng.below(3)
                k = 1 + rng.below(n)
                gens = [[field.coerce(rng.randint(-9, 9)) if field.p is None else rng.below(field.p) for _ in range(n)] for _ in range(k)]
                base = subspace_from_rows(n, gens, field=field)
                mix = random_invertible(rng, field, k)
                mixed = (mix @ Matrix.from_rows(field, gens)).rows_list()
                assert subspace_from_rows(n, mixed, field=field) == base

    def test_grassmann_identity(self):
        rng = SplitMix64(17)
        for field in FIELDS:
            for _ in range(30):
                n = 2 + rng.below(4)
                mk = lambda: subspace_from_rows(
                    n,
                    [[field.coerce(rng.randint(-9, 9)) if field.p is None else rng.below(field.p) for _ in range(n)]
                     for _ in range(1 + rng.below(n))],
                    field=field,
                )
                a, b = mk(), mk()
                inter = subspace_intersect(a, b)
                total = naive_subspace_sum([a, b])
                assert a.dim + b.dim == inter.dim + total.dim

    def test_intersect_idempotent(self):
        s = subspace_from_rows(3, [[1, 2, 0], [0, 0, 1]], field=Q)
        assert subspace_intersect(s, s) == s

    def test_vector_of_wrong_length_rejected(self):
        with pytest.raises(InvalidInput, match="vector length does not match ambient dimension"):
            subspace_from_rows(3, [[1, 0, 0], [0, 1]], field=Q)

    def test_intersect_over_different_fields_rejected(self):
        a = subspace_from_rows(2, [[1, 0]], field=Q)
        b = subspace_from_rows(2, [[1, 0]], field=F5)
        with pytest.raises(InvalidInput, match="field mismatch"):
            subspace_intersect(a, b)

    def test_axes(self):
        e1 = subspace_from_rows(2, [[1, 0]], field=Q)
        e2 = subspace_from_rows(2, [[0, 1]], field=Q)
        assert subspace_intersect(e1, e2).dim == 0
        assert naive_subspace_sum([e1, e2]).dim == 2

    def test_sum_of_single(self):
        s = subspace_from_rows(3, [[1, 1, 1]], field=F2)
        assert naive_subspace_sum([s]) == s

    def test_contains(self):
        s = subspace_from_rows(3, [[1, 0, 2], [0, 1, 1]], field=Q)
        assert s.contains([1, 1, 3])
        assert not s.contains([0, 0, 1])
        assert s.contains([Fraction(1, 2), 0, 1])

    def test_contains_fp_reduces_entries(self):
        # a vector with entries >= p or negative is its residue vector
        s = subspace_from_rows(3, [[1, 2, 0], [0, 0, 1]], field=F5)
        cases = [
            ([6, -3, 0], True),
            ([11, 7, -4], True),
            ([0, 5, 0], True),  # no pivot entry to reduce against
            ([0, -10, 25], True),
            ([5, -3, 1], False),
            ([-1, 4, 25], False),
        ]
        for vec, member in cases:
            assert s.contains(vec) is member
            assert s.contains([x % 5 for x in vec]) is member

    def test_contains_q_scalar_kinds(self):
        s = subspace_from_rows(2, [[3, 2]], field=Q)
        assert s.contains(["3", 2])
        assert s.contains([Fraction(3, 2), "1"])
        assert s.contains([-6, "-4"])
        assert not s.contains(["1", 1])
        with pytest.raises(InvalidInput):
            s.contains([True, 0])
        with pytest.raises(InvalidInput):
            s.contains([1.5, 1])

    def test_basis_structural_invariants(self):
        # nonzero rows, unit pivots on strictly increasing columns, pivot
        # columns cleared everywhere else
        rng = SplitMix64(41)
        for field in FIELDS:
            for _ in range(15):
                n = 3 + rng.below(4)
                s = subspace_from_rows(
                    n,
                    [[field.coerce(rng.randint(-9, 9)) if field.p is None else rng.below(field.p) for _ in range(n)]
                     for _ in range(1 + rng.below(n))],
                    field=field,
                )
                b = s.basis
                zero, one = field.zero(), field.one()
                pivots = []
                for i in range(b.nrows):
                    row = b.row(i)
                    nz = [c for c, x in enumerate(row) if x != zero]
                    assert nz
                    assert row[nz[0]] == one
                    pivots.append(nz[0])
                    for i2 in range(b.nrows):
                        if i2 != i:
                            assert b.at(i2, nz[0]) == zero
                assert pivots == sorted(set(pivots))

    def test_intersect_matches_zassenhaus_both_ways(self):
        # a random subspace against coordinate sets that hold some of its
        # basis pivots and miss others: the coordinate path, and
        # subspace_intersect with either operand first, against the kernel
        # of the stacked bases
        rng = SplitMix64(23)
        for field in FIELDS:
            nontrivial = 0
            for _ in range(25):
                n = 5 + rng.below(3)
                rows = [[_sparse_entry(rng, field) for _ in range(n)] for _ in range(2 + rng.below(3))]
                a = subspace_from_rows(n, rows, field=field)
                if a.dim < 2:
                    continue
                pivots = a._pivots
                coords = {c for c in range(n) if c != pivots[-1] and (c == pivots[0] or rng.below(3))}
                assert pivots[0] in coords and pivots[-1] not in coords
                one, zero = field.one(), field.zero()
                unit = [[one if c == u else zero for c in range(n)] for u in sorted(coords)]
                b = subspace_from_rows(n, unit, field=field)
                want = tuple(naive_subspace_intersect(a.rows(), b.rows(), field.p))
                assert _intersect_with_coordinates(a, frozenset(coords)).rows() == want
                assert subspace_intersect(a, b).rows() == want
                assert subspace_intersect(b, a).rows() == want
                nontrivial += bool(want)
            assert nontrivial >= 5

    def test_borel_intersections_match_zassenhaus(self):
        # borel(g) ∩ borel(P_w) for every w in S_n, n <= 4, on the
        # coordinate path from borel(P_w)'s index set and by Zassenhaus
        from borelenv.envelope import _translate_coords, borel_from_g, borel_translate

        rng = SplitMix64(29)
        for field in FIELDS:
            for n in range(1, 5):
                algebra = borel_from_g(random_invertible(rng, field, n)).algebra
                for w in enumerate_group(n):
                    coord = borel_translate(w, field)
                    want = tuple(naive_subspace_intersect(algebra.rows(), coord.rows(), field.p))
                    assert _intersect_with_coordinates(algebra, _translate_coords(w.images)).rows() == want
                    assert subspace_intersect(algebra, coord).rows() == want
                    assert subspace_intersect(coord, algebra).rows() == want

    def test_coordinate_intersection_eliminates_inside_pivots_only(self, monkeypatch):
        # a basis row pivoting outside the coordinate set cannot enter the
        # intersection, so it never reaches the elimination
        import borelenv.linalg as linalg

        seen = []
        real = linalg._rref_prim

        def spy(field, rows, width):
            seen.append(len(rows))
            return real(field, rows, width)

        rng = SplitMix64(31)
        for field in FIELDS:
            a = subspace_from_rows(6, [[_sparse_entry(rng, field) for _ in range(6)] for _ in range(4)], field)
            assert {pc % 2 for pc in a._pivots} == {0, 1}
            b = _coordinate_subspace(6, field, range(0, 6, 2))
            monkeypatch.setattr(linalg, "_rref_prim", spy)
            got = _intersect_with_coordinates(a, frozenset(range(0, 6, 2)))
            monkeypatch.undo()
            assert seen.pop() == sum(1 for pc in a._pivots if pc % 2 == 0)
            assert got.rows() == tuple(naive_subspace_intersect(a.rows(), b.rows(), field.p))

    def test_coordinate_subspace_intersections_repeat(self):
        s = subspace_from_rows(4, [[0, 2, 0, 0], [3, 0, 0, 0]], field=Q)
        c = _coordinate_subspace(4, Q, [3, 1])
        assert c == subspace_from_rows(4, [[0, 0, 0, 1], [0, 1, 0, 0]], Q)
        # an intersection asked again gives the same subspace
        u = subspace_from_rows(4, [[1, 1, 1, 0], [0, 0, 1, 1]], field=Q)
        first = (subspace_intersect(u, s), subspace_intersect(s, c))
        assert (subspace_intersect(u, s), subspace_intersect(s, c)) == first
        assert first[1] == subspace_from_rows(4, [[0, 1, 0, 0]], Q)

    def test_two_coordinate_subspaces_meet_on_common_coordinates(self):
        # either order, against the coordinate subspace on the shared indices
        rng = SplitMix64(37)
        for field in FIELDS:
            for _ in range(20):
                n = 1 + rng.below(6)
                ca, cb = ({c for c in range(n) if rng.below(2)} for _ in range(2))
                a, b = _coordinate_subspace(n, field, ca), _coordinate_subspace(n, field, cb)
                want = _coordinate_subspace(n, field, ca & cb)
                assert subspace_intersect(a, b) == want == subspace_intersect(b, a)

    def test_ambient_mismatch(self):
        a = subspace_from_rows(2, [[1, 0]], field=Q)
        b = subspace_from_rows(3, [[1, 0, 0]], field=Q)
        with pytest.raises(InvalidInput):
            subspace_intersect(a, b)


class TestKernel:
    def test_kernel_basic(self):
        m = Matrix.from_rows(Q, [[1, 1]])
        k = kernel(m)
        assert k.dim == 1
        assert k.basis == Matrix.from_rows(Q, [[1, -1]])

    def test_kernel_orthogonality(self):
        rng = SplitMix64(31)
        for field in FIELDS:
            for _ in range(15):
                m = random_matrix(rng, field, 4)
                k = kernel(m)
                assert k.dim == 4 - rref(m).rank
                for v in k.rows():
                    prod = m @ Matrix(field, 4, 1, tuple(v))
                    assert prod == Matrix.zeros(field, 4, 1)

    def test_kernel_rows_of_zero_rows_is_the_identity(self):
        for field in FIELDS:
            for width in (0, 1, 4):
                eye = [[int(c == r) for c in range(width)] for r in range(width)]
                assert _kernel_rows(field, [], width) == eye
                assert _kernel_rows(field, [[0] * width] * 2, width) == eye

    def test_kernel_rows_are_a_reduced_basis(self):
        # over F_p the pivot entries -row[f] are negative before reduction
        rng = SplitMix64(277)
        for field in FIELDS:
            for _ in range(10):
                m = random_matrix(rng, field, 4)
                rows = _kernel_rows(field, _int_shape(field, m.rows_list()), 4)
                assert subspace_from_rows(4, rows, field=field) == kernel(m)
                assert len(rows) == kernel(m).dim
                if field.p is not None:
                    assert all(0 <= x < field.p for r in rows for x in r)


class TestSpanAccumulator:
    def test_incremental_matches_sum(self):
        rng = SplitMix64(37)
        for field in (Q, F2):
            for _ in range(15):
                n = 4
                parts = [
                    subspace_from_rows(
                        n,
                        [[field.coerce(rng.randint(-9, 9)) if field.p is None else rng.below(field.p) for _ in range(n)]
                         for _ in range(2)],
                        field=field,
                    )
                    for _ in range(3)
                ]
                acc = SpanAccumulator(n, field)
                for s in parts:
                    acc.add_rows(s.prim_rows())
                assert acc.to_subspace() == naive_subspace_sum(parts)

    @staticmethod
    def _batch(rng, field, width, fed):
        # integer-shape rows: zero rows, repeats and combinations of rows fed
        # earlier, and sparse random rows
        out = []
        for _ in range(rng.below(4)):
            kind = rng.below(4) if fed else 3
            if kind == 0:
                row = [0] * width
            elif kind == 1:
                row = list(fed[rng.below(len(fed))])
            elif kind == 2:
                a, b = fed[rng.below(len(fed))], fed[rng.below(len(fed))]
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                row = [s * x + t * y for x, y in zip(a, b)]
            else:
                row = [rng.randint(-9, 9) if rng.below(3) else 0 for _ in range(width)]
            out.append(row if field.p is None else [x % field.p for x in row])
            fed.append(out[-1])
        return out

    def test_every_step_matches_the_naive_sum(self):
        # after each add_rows: its boolean is "the naive sum grew", dim is the
        # naive rank and to_subspace the naive sum
        rng = SplitMix64(41)
        for field in (F2, FieldSpec.prime(3), FieldSpec.prime(101), Q):
            for width in range(1, 10):
                for _ in range(4):
                    acc, fed, parts, before = SpanAccumulator(width, field), [], [], 0
                    for _ in range(6):
                        batch = self._batch(rng, field, width, fed)
                        grew = acc.add_rows(batch)
                        parts.append(subspace_from_rows(width, batch, field))
                        want = naive_subspace_sum(parts)
                        assert grew == (want.dim > before)
                        assert acc.dim == want.dim
                        assert acc.to_subspace() == want
                        before = want.dim
                    self._assert_equals(acc, want)

    @staticmethod
    def _assert_equals(acc, total):
        # True on the sum; False on a proper subspace of it and on another
        # subspace of the same dimension
        assert acc.equals(total)
        width, field, rows = total.ambient_dim, total.field, list(total.prim_rows())
        if not rows:
            return
        assert not acc.equals(subspace_from_rows(width, rows[1:], field))
        units = ([int(c == t) for c in range(width)] for t in range(width))
        outside = next((u for u in units if not total.contains(u)), None)
        if outside is not None:
            other = subspace_from_rows(width, rows[1:] + [outside], field)
            assert other.dim == total.dim and other != total
            assert not acc.equals(other)
