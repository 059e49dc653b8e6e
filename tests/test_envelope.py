"""Envelope tests: conjugated Borels, witnesses, certificates, oracle."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from borelenv import envelope, flags, jsonio
from borelenv._kernel import int_rows, ratio
from borelenv.envelope import (
    RESTRICTED_LIMIT,
    EnvelopeCertificate,
    borel_from_g,
    borel_intersection_dim,
    borel_translate,
    devissage_witness,
    envelope_bruteforce,
    envelope_certificate,
    verify_certificate,
    witness_basis,
)
from borelenv.errors import ContractViolation, InvalidInput, NotInvertible, ResourceGuard
from borelenv.flags import flag_from_matrix, stabilizer_algebra
from borelenv.linalg import FieldSpec, Matrix, inverse, rref, subspace_from_rows, subspace_intersect
from borelenv.linalg import _coordinate_kernel, _coordinate_support
from borelenv.rng import SplitMix64, derive_stream, random_invertible, random_upper_invertible
from borelenv.verify import gl2_elements
from borelenv.weyl import (
    Permutation,
    compose,
    enumerate_group,
    length,
    longest_element,
    perm_matrix,
    transposition_set,
)

from reference import (
    naive_borel_algebra,
    naive_certificate_devissage,
    naive_inverse,
    naive_subspace_intersect,
    naive_subspace_sum,
    naive_witness_coefficients,
)

Q = FieldSpec.rational()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F101 = FieldSpec.prime(101)


def upper_space(field, n):
    rows = []
    for a in range(n):
        for b in range(a, n):
            row = [field.zero()] * (n * n)
            row[a * n + b] = field.one()
            rows.append(row)
    return subspace_from_rows(n * n, rows, field=field)


def lower_space(field, n):
    rows = []
    for a in range(n):
        for b in range(a + 1):
            row = [field.zero()] * (n * n)
            row[a * n + b] = field.one()
            rows.append(row)
    return subspace_from_rows(n * n, rows, field=field)


class TestBorelFromG:
    def test_identity_gives_uppers(self):
        for n in (2, 3):
            assert borel_from_g(Matrix.identity(Q, n)).algebra == upper_space(Q, n)

    def test_longest_gives_lowers(self):
        for n in (2, 3):
            g = perm_matrix(longest_element(n), F5)
            assert borel_from_g(g).algebra == lower_space(F5, n)

    def test_2x2_worked_example(self):
        g = Matrix.from_rows(Q, [[1, 0], [1, 1]])
        algebra = borel_from_g(g).algebra
        assert algebra.dim == 3
        # all three conjugated elementary matrices are members
        ginv = inverse(g)
        for a, b in ((0, 0), (0, 1), (1, 1)):
            e = Matrix.zeros(Q, 2, 2).rows_list()
            e[a][b] = 1
            conj = ginv @ Matrix.from_rows(Q, e) @ g
            assert algebra.contains(conj.flatten())
        assert algebra.contains((1, 0, -1, 0))
        assert not algebra.contains((1, 0, 1, 0))

    def test_dimension(self):
        rng = SplitMix64(61)
        for field in (Q, F3):
            for n in (2, 3, 4):
                g = random_invertible(rng, field, n)
                assert borel_from_g(g).algebra.dim == n * (n + 1) // 2

    def test_singular_rejected(self):
        with pytest.raises(NotInvertible):
            borel_from_g(Matrix.zeros(Q, 2, 2))


class TestAlgebraMatchesNaive:
    """The integer-shape build of borel(g) against Fraction outer products."""

    @staticmethod
    def _assert_matches(g):
        algebra = borel_from_g(g).algebra
        rows, rank, _ = naive_borel_algebra(g)
        assert algebra.dim == rank == g.nrows * (g.nrows + 1) // 2
        assert list(algebra.rows()) == rows

    def test_q_negative_and_non_integer_entries(self):
        rng = SplitMix64(211)
        checked = 0
        for n in range(1, 6):
            while checked < 3 * n:
                ents = [Fraction(rng.randint(-9, 9), 1 + rng.below(7)) for _ in range(n * n)]
                g = Matrix(Q, n, n, tuple(ents))
                try:
                    self._assert_matches(g)
                except NotInvertible:
                    continue
                checked += 1
        assert checked == 15

    def test_small_primes(self):
        rng = SplitMix64(223)
        for p in (2, 3, 5, 101):
            field = FieldSpec.prime(p)
            for n in range(1, 6):
                for _ in range(3):
                    self._assert_matches(random_invertible(rng, field, n))

    def test_unreduced_fp_entries(self):
        # entries outside [0, p) stand for their residues
        g = Matrix(F5, 2, 2, (7, -1, 13, 4))
        self._assert_matches(g)
        assert borel_from_g(g).algebra == borel_from_g(Matrix.from_rows(F5, [[2, 4], [3, 4]])).algebra
        # near the int64 limit, an unreduced product of two entries would overflow
        big = FieldSpec.prime(3037000493)
        self._assert_matches(Matrix(big, 1, 1, (10**12,)))
        self._assert_matches(Matrix(big, 2, 2, (10**12, -(10**15), 3, 10**12 + 7)))

    def test_object_array_prime(self):
        rng = SplitMix64(227)
        field = FieldSpec.prime(2**61 - 1)
        for n in range(1, 5):
            self._assert_matches(random_invertible(rng, field, n))

    # upper and lower triangular g: TestAlgebraStructuredFlags.test_triangular
    def test_all_of_gl2(self):
        gs = gl2_elements(F2) + gl2_elements(F3)
        assert len(gs) == 54
        for g in gs:
            self._assert_matches(g)

    @pytest.mark.parametrize("field", (F2, F3, Q), ids=str)
    def test_every_permutation_matrix_to_n4(self, field):
        for n in range(1, 5):
            for w in enumerate_group(n):
                self._assert_matches(perm_matrix(w, field))

    @pytest.mark.parametrize("field", (F2, F3, Q), ids=str)
    def test_bruhat_products_n4_n5(self, field):
        # b1 @ P_w @ b2 keeps every row dense, so the row echelon and the
        # back-substitution of each inverse column run their full length
        rng = SplitMix64(239)
        for n in (4, 5):
            ws = enumerate_group(n)
            for w in (ws[0], ws[-1], *(ws[rng.below(len(ws))] for _ in range(4))):
                b1, b2 = (random_upper_invertible(rng, field, n) for _ in range(2))
                self._assert_matches(b1 @ perm_matrix(w, field) @ b2)


class TestSingularInput:
    """Singular matrices whose dependence shows only once rows are reduced:
    the row echelon of borel(g) and the rank check of a flag reject them
    when they are built, with the rank in the message, and no other error
    escapes."""

    CASES = [
        (Q, [[1, 2], [2, 4]], 1),
        (F5, [[1, 2], [6, 7]], 1),  # equal rows mod 5
        (Q, [[0, 0], [3, 1]], 1),  # zero top row
        (F3, [[2, 1], [0, 0]], 1),  # zero bottom row
        (Q, [[1, 3, 5], [1, 0, 2], [0, 3, 3]], 2),  # r1 = r2 + r3
        (F2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]], 2),  # r1 = r2 + r3
        (F101, [[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),
    ]

    @pytest.mark.parametrize("field, rows, rank", CASES, ids=lambda c: str(c) if isinstance(c, FieldSpec) else None)
    def test_rejected_when_built(self, field, rows, rank):
        g = Matrix.from_rows(field, rows)
        message = f"^matrix of rank {rank} < {g.nrows}$"
        for build in (borel_from_g, envelope.BorelConjugate, flag_from_matrix):
            with pytest.raises(NotInvertible, match=message):
                build(g)
        with pytest.raises(NotInvertible, match=message):
            inverse(g)

    def test_every_singular_2x2_over_f3(self):
        for ents in itertools.product(range(3), repeat=4):
            g = Matrix(F3, 2, 2, ents)
            if (ents[0] * ents[3] - ents[1] * ents[2]) % 3:
                continue
            rank = 1 if any(ents) else 0
            for build in (borel_from_g, flag_from_matrix):
                with pytest.raises(NotInvertible, match=f"rank {rank} < 2"):
                    build(g)


def _lead(row):
    return next(c for c, x in enumerate(row) if x)


class TestAlgebraStructuredFlags:
    """The flag-echelon build of borel(g) on flags already in special
    position, against naive_borel_algebra; the generators must reach the
    RREF with pairwise distinct leads, sorted."""

    FIELDS = (F2, F3, F101, Q)

    @staticmethod
    def _assert_matches(g, monkeypatch):
        seen = []
        real = envelope._rref_prim

        def recording(field, rows, width):
            seen.append([_lead(r) for r in rows])
            return real(field, rows, width)

        monkeypatch.setattr(envelope, "_rref_prim", recording)
        # an earlier case may share g's Borel: build this one afresh
        envelope._row_flag_algebra.cache_clear()
        algebra = envelope.BorelConjugate(g).algebra
        monkeypatch.undo()
        rows, rank, _ = naive_borel_algebra(g)
        n = g.nrows
        assert algebra.dim == rank == n * (n + 1) // 2
        assert list(algebra.rows()) == rows
        (leads,) = seen
        assert len(leads) == rank and all(a < b for a, b in zip(leads, leads[1:]))

    @staticmethod
    def _lower(u):
        # P_w0 @ u @ P_w0 reverses the row-major entries
        return Matrix(u.field, u.nrows, u.ncols, u.entries[::-1])

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_permutation_matrices_s4(self, field, monkeypatch):
        for w in enumerate_group(4):
            self._assert_matches(perm_matrix(w, field), monkeypatch)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_triangular(self, field, monkeypatch):
        rng = SplitMix64(307)
        for n in range(1, 7):
            for _ in range(2):
                u = random_upper_invertible(rng, field, n)
                self._assert_matches(u, monkeypatch)
                self._assert_matches(self._lower(u), monkeypatch)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_bruhat_products(self, field, monkeypatch):
        rng = SplitMix64(311)
        for n in range(1, 7):
            ws = enumerate_group(n)
            for _ in range(3):
                w = ws[rng.below(len(ws))]
                b1, b2 = (random_upper_invertible(rng, field, n) for _ in range(2))
                self._assert_matches(b1 @ perm_matrix(w, field) @ b2, monkeypatch)

    @pytest.mark.parametrize("p", [None, 2, 101])
    def test_flag_echelon_keeps_every_prefix_span(self, p):
        field = Q if p is None else FieldSpec.prime(p)
        rng = SplitMix64(313)
        for n in range(1, 7):
            g = random_invertible(rng, field, n)
            vecs = envelope._int_shape(field, g.rows_list())
            out = envelope._flag_echelon(p, vecs)
            assert sorted(_lead(v) for v in out) == list(range(n))
            # lead 1 over F_p; primitive with a positive lead over Q
            assert all(v[_lead(v)] == 1 if p else v[_lead(v)] > 0 and math.gcd(*v) == 1 for v in out)
            for k in range(1, n + 1):
                want = subspace_from_rows(n, g.rows_list()[:k], field)
                assert subspace_from_rows(n, out[:k], field) == want
            # canonical: l @ g has the same row flag for l lower triangular
            w0 = perm_matrix(longest_element(n), field)
            lg = w0 @ random_upper_invertible(rng, field, n) @ w0 @ g
            assert envelope._flag_echelon(p, envelope._int_shape(field, lg.rows_list())) == out


class TestUnipotentInverse:
    """The back-substitution inverse of a unipotent upper triangular u
    against naive Gauss-Jordan, and the restricted route's unipotency check."""

    @pytest.mark.parametrize("p", [None, 2, 101, 2**31 - 1])
    def test_matches_naive_inverse(self, p):
        field = Q if p is None else FieldSpec.prime(p)
        rng = SplitMix64(317 + (p or 0))
        for n in range(1, 9):
            for _ in range(3):
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    rows[i][i] = 1
                    for j in range(i + 1, n):
                        if p is None:
                            rows[i][j] = Fraction(rng.randint(-9, 9), 1 + rng.below(7))
                        else:
                            rows[i][j] = rng.below(p)
                u = Matrix.from_rows(field, rows)
                inv = envelope._unipotent_inverse(int_rows(u.rows_list(), p), p)
                got = Matrix.from_rows(field, [[ratio(x, e, p) for x in w] for w, e in inv])
                assert got.rows_list() == naive_inverse(u.rows_list(), p)
                assert got == inverse(u)

    @pytest.mark.parametrize("rows", [
        [([1, 0], 1), ([1, 1], 1)],  # an entry below the diagonal
        [([2, 1], 1), ([0, 1], 1)],  # a diagonal entry 2
        [([1, 1], 2), ([0, 1], 1)],  # a diagonal entry 1/2
    ])
    def test_shape_is_checked(self, rows):
        with pytest.raises(ContractViolation, match="not unipotent upper triangular"):
            envelope._unipotent_inverse(rows, None)

    def test_non_unipotent_factor_raises(self, monkeypatch):
        real = envelope._ulp_sweep

        def doubled_diagonal(m):
            perm, claimed, res, units, coefs = real(m)
            x, r, e = units[1]
            units[1] = (x, r, 2 * e)  # l[2, 2] = 1/2: still lower triangular, no longer unipotent
            return perm, claimed, res, units, coefs

        monkeypatch.setattr(envelope, "_ulp_sweep", doubled_diagonal)
        g = random_invertible(SplitMix64(331), Q, 3)
        cert = None
        with pytest.raises(ContractViolation, match="unipotent"):
            cert = envelope_certificate(g, restricted=True)
        assert cert is None


class TestBorelFromGShared:
    def test_equal_matrices_share_one_instance(self):
        g1 = Matrix.from_rows(Q, [[1, 2], [3, 4]])
        g2 = Matrix.from_rows(Q, [["1", 2], [3, "4"]])
        assert g1 is not g2
        assert borel_from_g(g1) is borel_from_g(g2)

    def test_other_field_not_shared(self):
        bq = borel_from_g(Matrix.from_rows(Q, [[1, 2], [3, 4]]))
        b5 = borel_from_g(Matrix.from_rows(F5, [[1, 2], [3, 4]]))
        assert bq is not b5
        assert bq.algebra.field == Q and b5.algebra.field == F5

    def test_one_coset_shares_one_algebra(self):
        # borel(b @ g) = borel(g) for b upper triangular: the 12 elements of
        # B(F_3) @ g share one algebra object, which no other element's equals
        g = Matrix.from_rows(F3, [[0, 1], [1, 1]])
        elements = gl2_elements(F3)
        coset = [b @ g for b in elements if b.entries[2] == 0]
        assert len(set(coset)) == 12
        algebras = [borel_from_g(h).algebra for h in coset]
        assert all(a is algebras[0] for a in algebras)
        assert all(borel_from_g(h).algebra != algebras[0] for h in elements if h not in coset)

    def test_equal_rows_other_field_not_shared(self):
        # the row flag of [[1, 2], [0, 1]] has the same integer echelon form
        # over Q and over F_5
        bq, b5 = (borel_from_g(Matrix.from_rows(f, [[1, 2], [0, 1]])) for f in (Q, F5))
        assert bq._rows == b5._rows
        assert bq.algebra is not b5.algebra
        assert (bq.algebra.field, b5.algebra.field) == (Q, F5)

    def test_singular_raises_on_every_call(self):
        g = Matrix.from_rows(Q, [[1, 2], [2, 4]])
        before = borel_from_g.cache_info()
        for _ in range(3):
            with pytest.raises(NotInvertible):
                borel_from_g(g)
        after = borel_from_g.cache_info()
        assert after.misses - before.misses == 3
        assert after.hits == before.hits

    def test_cache_is_bounded(self):
        assert 0 < borel_from_g.cache_info().maxsize <= 64

    def test_one_algebra_rref_per_g(self, monkeypatch):
        calls = []
        real = envelope._rref_prim

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(envelope, "_rref_prim", counting)
        borel_from_g.cache_clear()
        rng = SplitMix64(229)
        gs = [random_invertible(rng, field, n) for field in (Q, F5) for n in (3, 4)]
        for g in gs:
            # the envelope-identity suite's check
            assert envelope_bruteforce(g, enumerate_group(g.nrows)) == borel_from_g(g).algebra
        assert len(calls) == len(gs)
        for g in gs:
            cert = envelope_certificate(g, restricted=True)
            assert cert.spans and verify_certificate(cert)
        assert len(calls) == len(gs)


class TestBorelTranslate:
    def test_identity_and_longest(self):
        assert borel_translate(Permutation.identity(3), Q) == upper_space(Q, 3)
        assert borel_translate(longest_element(3), Q) == lower_space(Q, 3)

    def test_matches_conjugation(self):
        for field in (Q, F2):
            for w in enumerate_group(3):
                assert borel_translate(w, field) == borel_from_g(perm_matrix(w, field)).algebra

    def test_caches_are_bounded(self):
        assert 0 < borel_translate.cache_info().maxsize <= 4096
        assert 0 < envelope._translate_coords.cache_info().maxsize <= 4096


class TestTranslateIndexSets:
    """The field-free index set of borel(P_w) and the restricted route's
    escape test on it."""

    def test_index_set_is_the_translate_support(self):
        for n in range(1, 6):
            for w in enumerate_group(n):
                for field in (F2, F3, F5, F101, Q):
                    assert envelope._translate_coords(w.images) == _coordinate_support(borel_translate(w, field))

    def test_escape_test_matches_the_support_test(self):
        # col ⊗ row escapes borel(P_w) iff some nonzero product sits off its index set
        rng = SplitMix64(337)
        for n in range(1, 7):
            group = enumerate_group(n)
            for _ in range(200):
                w = group[rng.below(len(group))]
                col = [rng.below(3) * rng.below(5) for _ in range(n)]
                row = [rng.below(3) * rng.below(5) for _ in range(n)]
                if not any(col) or not any(row):
                    continue
                coords = envelope._translate_coords(w.images)
                want = any(x * y and r * n + c not in coords for r, x in enumerate(col) for c, y in enumerate(row))
                assert envelope._escapes(w.images, col, row) == want

    def test_all_zero_factor_escapes(self):
        w = Permutation.identity(3)
        assert envelope._escapes(w.images, [0, 0, 0], [1, 1, 1])
        assert envelope._escapes(w.images, [1, 0, 0], [0, 0, 0])

    def test_all_zero_factor_raises_contract_violation(self, monkeypatch):
        # a vanished row factor is a bug in the route: ContractViolation, not ValueError
        real = envelope._witness_row
        monkeypatch.setattr(envelope, "_witness_row", lambda coefs, rows, p: [0] * len(real(coefs, rows, p)))
        for field in (Q, F5):
            g = random_invertible(SplitMix64(347), field, 3)
            with pytest.raises(ContractViolation, match="escaped"):
                envelope_certificate(g, restricted=True)


class TestIntersectionDim:
    def test_equal_translates(self):
        w = Permutation((2, 3, 1))
        assert borel_intersection_dim(w, w) == 6

    def test_opposite_is_diagonal(self):
        for n in (2, 3, 4):
            e = Permutation.identity(n)
            assert borel_intersection_dim(e, longest_element(n)) == n

    def test_adjacent_transposition(self):
        e = Permutation.identity(3)
        s = Permutation.transposition(3, 2, 1)
        assert borel_intersection_dim(e, s) == 5

    def test_dimension_law_exhaustive(self):
        for n in (1, 2, 3, 4):
            e = Permutation.identity(n)
            for w in enumerate_group(n):
                assert borel_intersection_dim(e, w) == n * (n + 1) // 2 - length(w)


class TestDevissage:
    def test_diagonal_case(self):
        u = Matrix.from_rows(Q, [[2, 7], [0, 5]])
        wit = devissage_witness(u, 2, 2)
        assert wit.x == ()
        assert wit.a == Matrix.from_rows(Q, [[0, 0], [0, 1]])
        assert wit.s == Permutation.identity(2)

    def test_identity_input(self):
        wit = devissage_witness(Matrix.identity(Q, 3), 3, 1)
        assert wit.x == (0, 0)
        e31 = Matrix.zeros(Q, 3, 3).rows_list()
        e31[2][0] = 1
        assert wit.a == Matrix.from_rows(Q, e31)

    def test_worked_2x2(self):
        u = Matrix.from_rows(Q, [[1, 1], [0, 1]])
        wit = devissage_witness(u, 2, 1)
        assert wit.x == (-1,)
        assert wit.a == Matrix.from_rows(Q, [[0, 0], [1, -1]])
        assert wit.s == Permutation((2, 1))
        # explicit conjugate lands in the uppers
        ps = perm_matrix(wit.s, Q)
        conj = ps @ inverse(u) @ wit.a @ u @ inverse(ps)
        assert conj == Matrix.from_rows(Q, [[0, 1], [0, -1]])
        assert conj.is_upper_triangular()

    def test_membership_both_sides(self):
        rng = SplitMix64(67)
        for field in (Q, F2, F5):
            for _ in range(10):
                n = 2 + rng.below(4)
                u = random_upper_invertible(rng, field, n)
                u_inv = inverse(u)
                for i in range(1, n + 1):
                    for j in range(1, i + 1):
                        wit = devissage_witness(u, i, j)
                        assert wit.a.is_lower_triangular()
                        ps = perm_matrix(wit.s, field)
                        conj = ps @ u_inv @ wit.a @ u @ inverse(ps)
                        assert conj.is_upper_triangular()

    def test_wrong_coefficients_escape(self, monkeypatch):
        # x is the unique solution, so an inverse off by 1 in entry (1, 2)
        # must fail the shared peel's escape check, on both routes
        real = envelope._unipotent_inverse

        def shifted(rows, p):
            inv = real(rows, p)
            w, e = inv[0]
            w = [*w[:1], w[1] + e if p is None else (w[1] + 1) % p, *w[2:]]
            inv[0] = (w, e)
            return inv

        monkeypatch.setattr(envelope, "_unipotent_inverse", shifted)
        rng = SplitMix64(241)
        for field in (Q, F5):
            u = random_upper_invertible(rng, field, 3)
            for i, j in ((2, 1), (3, 1), (3, 2)):
                with pytest.raises(ContractViolation, match="escaped"):
                    devissage_witness(u, i, j)
            g = random_invertible(rng, field, 3)
            with pytest.raises(ContractViolation, match="escaped"):
                envelope_certificate(g, restricted=True)

    def test_coefficients_match_triangular_solve(self):
        # x read off u^-1 against forward substitution on the peeling system;
        # over Q also for a u with non-integer entries
        rng = SplitMix64(251)
        for field in (Q, F2, F3, F5, F101):
            for n in range(1, 7):
                us = [random_upper_invertible(rng, field, n) for _ in range(3)]
                if field == Q:
                    ents = [
                        Fraction(rng.randint(1, 9) if r == c else rng.randint(-9, 9), 1 + rng.below(7))
                        if r <= c
                        else Fraction(0)
                        for r in range(n)
                        for c in range(n)
                    ]
                    us.append(Matrix(Q, n, n, tuple(ents)))
                for u in us:
                    for i, j in envelope.lower_pairs(n):
                        got = devissage_witness(u, i, j).x
                        assert repr(got) == repr(naive_witness_coefficients(u, i, j))

    def test_bad_inputs(self):
        u = Matrix.from_rows(Q, [[1, 1], [0, 1]])
        with pytest.raises(InvalidInput):
            devissage_witness(u, 1, 2)  # i < j
        with pytest.raises(InvalidInput):
            devissage_witness(Matrix.from_rows(Q, [[0, 1], [0, 1]]), 2, 1)
        with pytest.raises(InvalidInput):
            devissage_witness(Matrix.from_rows(Q, [[1, 0], [1, 1]]), 2, 1)


class TestWitnessBasis:
    def test_identity_gives_elementaries(self):
        wits = witness_basis(Matrix.identity(Q, 3))
        assert [(w.i, w.j) for w in wits] == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
        for w in wits:
            assert all(x == 0 for x in w.x)

    def test_worked_2x2(self):
        wits = witness_basis(Matrix.from_rows(Q, [[1, 1], [0, 1]]))
        assert wits[0].a == Matrix.from_rows(Q, [[1, 0], [0, 0]])
        assert wits[1].a == Matrix.from_rows(Q, [[0, 0], [1, -1]])
        assert wits[2].a == Matrix.from_rows(Q, [[0, 0], [0, 1]])

    def test_spans_lower_triangulars(self):
        rng = SplitMix64(71)
        for field in (Q, F2, F3):
            for n in (2, 3, 4):
                u = random_upper_invertible(rng, field, n)
                wits = witness_basis(u)
                assert len(wits) == n * (n + 1) // 2
                span = subspace_from_rows(n * n, [list(w.a.flatten()) for w in wits], field=field)
                assert span == lower_space(field, n)

    def test_change_of_basis_unipotent_lower(self):
        # in lex (i, j) order, witness (i, j) = e^{i,j} + later elementaries
        rng = SplitMix64(73)
        u = random_upper_invertible(rng, Q, 4)
        wits = witness_basis(u)
        pairs = [(w.i, w.j) for w in wits]
        index = {p: t for t, p in enumerate(pairs)}
        for t, wit in enumerate(wits):
            assert wit.a.at(wit.i - 1, wit.j - 1) == 1
            for off, val in enumerate(wit.x, start=1):
                if val != 0:
                    other = (wit.i, wit.j + off)
                    assert other in index and index[other] > t


def _pinned_witness_inputs():
    """Seeded upper triangular u, three for each n = 1..6 over Q, F_2, F_3,
    F_5, F_101 and F_{2^31-1}, and over Q one more with non-integer entries
    and a diagonal of any sign."""
    rng = SplitMix64(2026)
    for field in (Q, F2, F3, F5, F101, FieldSpec.prime(2**31 - 1)):
        for n in range(1, 7):
            for _ in range(3):
                yield random_upper_invertible(rng, field, n)
            if field == Q:
                diag = [rng.randint(1, 9) * (1 - 2 * rng.below(2)) for _ in range(n)]
                ents = [
                    Fraction(diag[r] if r == c else rng.randint(-9, 9) if r < c else 0, 1 + rng.below(7))
                    for r in range(n)
                    for c in range(n)
                ]
                yield Matrix(Q, n, n, tuple(ents))


class TestPinnedWitnesses:
    """The witnesses' bytes, repr((i, j, x, a, s)), pinned by sha256 over
    :func:`_pinned_witness_inputs`: the whole basis, and each (i, j) alone,
    which must give the same bytes in the same order."""

    PIN = "676d4164445ee948fe36b15749a0814f834ee81dddfda79f917a991de9bedd21"

    @staticmethod
    def _update(digest, w):
        digest.update(repr((w.i, w.j, w.x, w.a, w.s)).encode())

    def test_witness_basis_bytes(self):
        digest = hashlib.sha256()
        for u in _pinned_witness_inputs():
            for w in witness_basis(u):
                self._update(digest, w)
        assert digest.hexdigest() == self.PIN

    def test_devissage_witness_bytes(self):
        digest = hashlib.sha256()
        for u in _pinned_witness_inputs():
            for i, j in envelope.lower_pairs(u.nrows):
                self._update(digest, devissage_witness(u, i, j))
        assert digest.hexdigest() == self.PIN


class TestCertificates:
    def test_identity_full_mode(self):
        cert = envelope_certificate(Matrix.identity(Q, 2))
        assert cert.spans
        assert all(w == Permutation.identity(2) for _, w in cert.entries)
        assert verify_certificate(cert)

    def test_small_weyl_set_does_not_span(self):
        g = perm_matrix(Permutation((2, 1)), Q)
        cert = envelope_certificate(g, [Permutation.identity(2)])
        assert not cert.spans
        assert len(cert.entries) == 2  # just the diagonal matrices
        assert verify_certificate(cert)

    def test_duplicates_tolerated_and_empty_set(self):
        g = Matrix.identity(F3, 2)
        e = Permutation.identity(2)
        cert = envelope_certificate(g, [e, e, e])
        assert cert.spans
        empty = envelope_certificate(g, [])
        assert not empty.spans and empty.entries == ()

    def test_restricted_small_translate(self):
        rng = SplitMix64(79)
        cases = [(field, n) for field in (Q, F2, F5) for n in (2, 3, 4)]
        # then n = 8 and the guard itself, drawn after the small cases
        cases += [(field, n) for field in (Q, F2, F5) for n in (8, RESTRICTED_LIMIT)]
        for field, n in cases:
            g = random_invertible(rng, field, n)
            cert = envelope_certificate(g, restricted=True)
            assert cert.spans
            assert len(cert.entries) == n * (n + 1) // 2
            assert verify_certificate(cert)
            tags = {w.images for _, w in cert.entries}
            assert len(cert.witness_set) == (n * n - n + 2) // 2
            assert tags <= {w.images for w in cert.witness_set}

    def test_restricted_rejects_explicit_set(self):
        with pytest.raises(InvalidInput):
            envelope_certificate(Matrix.identity(Q, 2), [Permutation.identity(2)], restricted=True)

    def test_forged_certificate_rejected(self):
        g = Matrix.identity(Q, 2)
        cert = envelope_certificate(g)
        # claim a vector outside the algebra
        bad_vec = tuple([Q.coerce(0), Q.coerce(0), Q.coerce(1), Q.coerce(0)])
        forged = EnvelopeCertificate(
            cert.target, cert.entries + ((bad_vec, Permutation.identity(2)),), cert.spans
        )
        assert not verify_certificate(forged)
        # claim spans on a non-spanning entry list
        forged2 = EnvelopeCertificate(cert.target, cert.entries[:1], True)
        assert not verify_certificate(forged2)

    def test_forged_restricted_certificate_rejected(self):
        rng = SplitMix64(233)
        for field in (Q, F5):
            g = random_invertible(rng, field, 3)
            cert = envelope_certificate(g, restricted=True)
            assert verify_certificate(cert)
            vec, w = cert.entries[0]
            rest = cert.entries[1:]
            wrong_tag = next(
                v for v in enumerate_group(3) if not borel_translate(v, field).contains(vec)
            )
            short = (vec[:-1], w)
            outside = (tuple(field.one() for _ in vec), w)
            for entries in (((vec, wrong_tag),) + rest, (short,) + rest, (outside,) + rest):
                assert not verify_certificate(EnvelopeCertificate(cert.target, entries, True))
            assert not verify_certificate(EnvelopeCertificate(cert.target, cert.entries, False))
            assert not verify_certificate(EnvelopeCertificate(cert.target, rest, True))

    def test_in_translate_outside_algebra_rejected(self):
        # such a vector passes the translate's zero-pattern test, so only the
        # per-vector algebra check (run when the span is not the algebra)
        # can reject it
        rng = SplitMix64(257)
        for field in (Q, F5):
            g = random_invertible(rng, field, 3)
            cert = envelope_certificate(g, restricted=True)
            algebra = cert.target.algebra
            vec, w = cert.entries[0]
            unit = next(r for r in borel_translate(w, field).rows() if not algebra.contains(r))
            for entries in (cert.entries + ((unit, w),), ((unit, w),) + cert.entries[1:]):
                for spans in (True, False):
                    assert not verify_certificate(EnvelopeCertificate(cert.target, entries, spans))

    def test_forged_tag_size_rejected_and_bool_entry_raises(self):
        rng = SplitMix64(263)
        for field in (Q, F5):
            cert = envelope_certificate(random_invertible(rng, field, 3), restricted=True)
            (vec, w), rest = cert.entries[0], cert.entries[1:]
            big = ((vec, Permutation.identity(4)),) + rest
            assert not verify_certificate(EnvelopeCertificate(cert.target, big, True))
            with pytest.raises(InvalidInput):
                forged = (((True,) + vec[1:], w),) + rest
                verify_certificate(EnvelopeCertificate(cert.target, forged, True))

    def test_greedy_stops_once_spanned(self, monkeypatch):
        calls = []
        real = envelope._intersect_with_coordinates

        def counting(a, coords):
            calls.append(1)
            return real(a, coords)

        monkeypatch.setattr(envelope, "_intersect_with_coordinates", counting)
        g = random_invertible(SplitMix64(269), Q, 4)
        cert = envelope_certificate(g)
        assert cert.spans and verify_certificate(cert)
        assert len(calls) < 24
        assert len(cert.witness_set) == 24

    def test_greedy_size_mismatch_rejected_wherever_it_sits(self):
        # checked before any intersection, so the early stop cannot hide it
        ws = list(enumerate_group(3)) + [Permutation.identity(2)]
        with pytest.raises(InvalidInput):
            envelope_certificate(Matrix.identity(Q, 3), ws)

    def test_witness_route_checks_every_membership(self, monkeypatch):
        # a translate that does not hold the witnesses must stop the route:
        # test every entry against the identity's
        real = envelope._escapes
        monkeypatch.setattr(envelope, "_escapes", lambda tag, col, row: real(tuple(range(1, len(tag) + 1)), col, row))
        g = random_invertible(SplitMix64(239), Q, 3)
        with pytest.raises(ContractViolation):
            envelope_certificate(g, restricted=True)

    def test_witness_route_checks_its_span(self, monkeypatch):
        # one witness repeated in place of the last leaves the span short
        real = envelope.lower_pairs
        monkeypatch.setattr(envelope, "lower_pairs", lambda n: real(n)[:-1] + real(n)[-2:-1])
        for field in (Q, F5):
            g = random_invertible(SplitMix64(353), field, 3)
            with pytest.raises(ContractViolation, match="does not span"):
                envelope_certificate(g, restricted=True)

    def test_full_group_guard(self):
        with pytest.raises(ResourceGuard):
            envelope_certificate(Matrix.identity(Q, 7))


def _rotations(n):
    return [Permutation(tuple((k + j) % n + 1 for j in range(n))) for k in range(n)]


def _loop_rotation_key(w):
    """The rotation key by its definition: k when w is the k-th power of the
    n-cycle, images (k+1, ..., n, 1, ..., k); else n."""
    img, n = w.images, w.n
    k = img[0] - 1
    return k if all(img[j] == (k + j) % n + 1 for j in range(n)) else n


def test_rotations_first_matches_its_definition():
    # the one-pass order is the stable sort by the rotation key: the n
    # rotations by power, then the caller's order, for any caller's order
    for n in range(1, 7):
        group = list(enumerate_group(n))
        for ws in (group, group[::-1], group[n:] + group[:n]):
            order = envelope._rotations_first(ws, n)
            assert order == sorted(ws, key=_loop_rotation_key)
            assert order[:n] == _rotations(n)


class TestBruteforce:
    def test_identity_with_identity_set(self):
        s = envelope_bruteforce(Matrix.identity(Q, 3), [Permutation.identity(3)])
        assert s == upper_space(Q, 3)

    def test_gl2_f3_exhaustive(self):
        S2 = enumerate_group(2)
        count = 0
        for ents in itertools.product(range(3), repeat=4):
            a, b, c, d = ents
            if (a * d - b * c) % 3 == 0:
                continue
            g = Matrix(F3, 2, 2, ents)
            assert envelope_bruteforce(g, S2) == borel_from_g(g).algebra
            count += 1
        assert count == 48

    def test_longest_element_n3(self):
        g = perm_matrix(longest_element(3), Q)
        assert envelope_bruteforce(g, enumerate_group(3)) == lower_space(Q, 3)

    def test_matches_plain_intersect_sum(self):
        # the oracle agrees with the most literal intersect-then-sum program,
        # which has neither an early stop nor a visiting order, for every
        # order of the caller's set
        rng = SplitMix64(83)
        for field in (Q, F2, F3, F5):
            for n in (2, 3, 4, 5):
                g = random_invertible(rng, field, n)
                target = borel_from_g(g).algebra
                group = list(enumerate_group(n))
                full = naive_subspace_sum(
                    [subspace_intersect(target, borel_translate(w, field)) for w in group]
                )
                shuffled = list(group)
                for i in range(len(shuffled) - 1, 0, -1):
                    j = rng.below(i + 1)
                    shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
                for ws in (group, group[::-1], shuffled):
                    assert envelope_bruteforce(g, ws) == full

    def test_sets_without_rotations(self):
        # sets that omit some or all rotations, and sets that need not span
        rng = SplitMix64(223)
        for field in (Q, F2, F3, F5):
            for n in (2, 3, 4, 5):
                g = random_invertible(rng, field, n)
                target = borel_from_g(g).algebra
                rots = _rotations(n)
                group = list(enumerate_group(n))
                subsets = [
                    list(transposition_set(n)),
                    [w for w in group if w not in rots],
                    [w for w in group if w not in rots[1:]],
                    rots[1:] + [longest_element(n)],
                ]
                for ws in filter(None, subsets):  # at n = 2 all of S_2 is rotations
                    expected = naive_subspace_sum(
                        [subspace_intersect(target, borel_translate(w, field)) for w in ws]
                    )
                    assert envelope_bruteforce(g, ws) == expected
                    assert envelope_bruteforce(g, ws[::-1]) == expected

    def test_generic_q_n5_stops_after_the_rotations(self, monkeypatch):
        import borelenv.envelope as env

        calls = []
        real = env._coordinate_kernel

        def counting(s, coords):
            calls.append(1)
            return real(s, coords)

        monkeypatch.setattr(env, "_coordinate_kernel", counting)
        g = random_invertible(SplitMix64(227), Q, 5)
        assert envelope_bruteforce(g, enumerate_group(5)) == borel_from_g(g).algebra
        assert 0 < len(calls) <= 5

    def test_envelope_identity_random(self):
        rng = SplitMix64(89)
        for field in (Q, F2, F3, F5):
            for n in (2, 3, 4):
                g = random_invertible(rng, field, n)
                assert envelope_bruteforce(g, enumerate_group(n)) == borel_from_g(g).algebra

    def test_guard(self):
        with pytest.raises(ResourceGuard):
            envelope_bruteforce(Matrix.identity(Q, 7), [Permutation.identity(7)])

    def test_size_mismatch_rejected_wherever_it_sits(self):
        # checked before any intersection, so the early stop cannot hide it
        ws = list(enumerate_group(3)) + [Permutation.identity(2)]
        with pytest.raises(InvalidInput):
            envelope_bruteforce(Matrix.identity(Q, 3), ws)


class TestIntersectionSum:
    # over F_2 the four rotations do not fill this borel(g): the sum needs 6 terms
    TAIL_F2 = Matrix.from_rows(F2, [[0, 0, 0, 1], [0, 0, 1, 0], [1, 1, 1, 1], [1, 0, 1, 0]])

    @staticmethod
    def _algebras(g):
        # borel(g), and stab(flag(g)) = borel(g^-1)
        return borel_from_g(g).algebra, stabilizer_algebra(flag_from_matrix(g))

    def test_matches_sum_of_all_intersections(self):
        rng = SplitMix64(229)
        for field in (F2, F3, F5, F101, Q):
            for n in range(1, 5):
                gs = [random_invertible(rng, field, n) for _ in range(3)]
                if (field, n) == (F2, 4):
                    gs += [self.TAIL_F2, inverse(self.TAIL_F2)]
                for algebra in (a for g in gs for a in self._algebras(g)):
                    group = enumerate_group(n)
                    terms = [subspace_intersect(algebra, borel_translate(w, field)) for w in group]
                    assert envelope._intersection_sum(algebra, group) == naive_subspace_sum(terms)

    def test_tail_after_the_rotations(self, monkeypatch):
        calls = []
        real = envelope._coordinate_kernel
        monkeypatch.setattr(envelope, "_coordinate_kernel", lambda s, c: calls.append(1) or real(s, c))
        # the tangent cover of h = TAIL_F2^-1 sums this same algebra, stab(flag(h))
        algebra = borel_from_g(self.TAIL_F2).algebra
        assert envelope._intersection_sum(algebra, enumerate_group(4)) == algebra
        assert len(calls) > 4  # the four rotations, then the caller's order

    def test_memo_keys_the_weyl_set(self):
        # the four rotations alone fall short of this algebra, before and
        # after the full group has filled it: a memo keyed by the algebra
        # alone would hand one sum to both
        algebra = borel_from_g(self.TAIL_F2).algebra
        rotations = tuple(w for w in enumerate_group(4) if w.images in envelope._rotations(4))
        short = envelope._intersection_sum(algebra, rotations)
        assert len(rotations) == 4 and short != algebra
        assert envelope._intersection_sum(algebra, enumerate_group(4)) == algebra
        assert envelope._intersection_sum(algebra, rotations) == short

    def test_tangent_sum_reuses_the_oracle_sum(self, monkeypatch):
        # stab(flag(h)) = borel(h^-1): the tangent cover of h reads the sum
        # the brute-force envelope of h^-1 has just made, with no kernel
        calls = []
        real = envelope._coordinate_kernel
        monkeypatch.setattr(envelope, "_coordinate_kernel", lambda s, c: calls.append(1) or real(s, c))
        rng = SplitMix64(233)
        for field in (F2, F3, F101, Q):
            for n in (2, 3, 4):
                hs = [random_invertible(rng, field, n) for _ in range(2)]
                if (field, n) == (F2, 4):
                    hs.append(inverse(self.TAIL_F2))  # a sum that is not full after n terms
                for h in hs:
                    oracle = envelope_bruteforce(inverse(h), enumerate_group(n))
                    calls.clear()
                    holds, stab, gl = flags._tangent_sum(h)
                    assert not calls
                    assert holds and gl == oracle == stab


class TestCoordinateKernelOracle:
    """``_coordinate_kernel`` mapped back through the canonical rows B is
    the naive intersection with every borel(P_w), for n <= 4."""

    @staticmethod
    def _mapped(algebra, coords):
        lams = _coordinate_kernel(algebra, coords)
        prim = algebra.prim_rows()
        rows = [[sum(x * b[c] for x, b in zip(lam, prim)) for c in range(algebra.ambient_dim)] for lam in lams]
        out = subspace_from_rows(algebra.ambient_dim, rows, field=algebra.field)
        assert out.dim == len(lams)  # the λ rows are a basis, not just a spanning set
        return out.rows()

    def test_matches_naive_intersect(self):
        rng = SplitMix64(271)
        reached = set()
        for field in (F2, F3, F5, F101, Q):
            for n in range(1, 5):
                group = enumerate_group(n)
                algebras = list(TestIntersectionSum._algebras(random_invertible(rng, field, n)))
                # every coordinate Borel up to n = 3; at n = 4, where the
                # naive Q oracle is slowest, those of the rotations and w0
                vs = group if n < 4 else _rotations(n) + [longest_element(n)]
                algebras += [borel_translate(v, field) for v in vs]
                # the strictly lower matrices: at a Borel algebra some pivot
                # always lies in borel(P_w) (n(n+1)/2 pivots, n(n+1)/2 of the
                # n^2 coordinates), so only a smaller algebra drops every row
                strict = [i * n + j for i in range(n) for j in range(i)]
                algebras.append(subspace_from_rows(
                    n * n, [[int(c == u) for c in range(n * n)] for u in strict], field=field))
                if (field, n) == (F2, 4):
                    algebras.append(borel_from_g(TestIntersectionSum.TAIL_F2).algebra)
                for algebra in algebras:
                    pivots = set(algebra._pivots)
                    for w in group:
                        target = borel_translate(w, field)
                        coords = frozenset(target._pivots)
                        if not pivots & coords:
                            reached.add("no row kept")
                        if coords | pivots == set(range(n * n)):
                            reached.add("no equation")
                        want = tuple(naive_subspace_intersect(algebra.rows(), target.rows(), field.p))
                        assert self._mapped(algebra, coords) == want
        assert reached == {"no row kept", "no equation"}


class TestGl2SpecValues:
    def test_uppers_meet_lowers_in_diagonal(self):
        # in gl_2 flattened to k^4, the diagonal matrices, dimension 2
        inter = subspace_intersect(
            borel_translate(Permutation.identity(2), Q),
            borel_translate(longest_element(2), Q),
        )
        assert inter.dim == 2
        assert inter.basis == Matrix.from_rows(Q, [[1, 0, 0, 0], [0, 0, 0, 1]])

    def test_sum_of_the_two_intersections_recovers_uppers(self):
        b0 = borel_translate(Permutation.identity(2), Q)
        diag = subspace_intersect(b0, borel_translate(longest_element(2), Q))
        assert naive_subspace_sum([b0, diag]) == b0
        assert b0.dim == 3


class TestCertificateSoundness:
    def test_spans_agrees_with_oracle_on_own_witness_set(self):
        rng = SplitMix64(193)
        for field in (Q, F3):
            for n in (2, 3):
                g = random_invertible(rng, field, n)
                target = borel_from_g(g).algebra
                # restricted: the witness set must already span
                cert = envelope_certificate(g, restricted=True)
                assert (envelope_bruteforce(g, cert.witness_set) == target) == cert.spans
                # deliberately small caller set: spans must match the oracle
                small = [Permutation.identity(n)]
                cert2 = envelope_certificate(g, small)
                oracle = envelope_bruteforce(g, small)
                span2 = subspace_from_rows(
                    n * n, [list(v) for v, _ in cert2.entries], field=field
                )
                assert span2 == oracle
                assert cert2.spans == (oracle == target)


def _fraction_invertible(rng, n):
    """A random invertible Q matrix whose entries have denominators up to 6."""
    while True:
        ents = [Fraction(rng.randint(-9, 9), 1 + rng.below(6)) for _ in range(n * n)]
        g = Matrix(Q, n, n, tuple(ents))
        if rref(g).rank == n:
            return g


class TestRestrictedRouteOracle:
    """The integer-shape witness route against the Fraction route it
    replaced (reference.naive_certificate_devissage), entry by entry."""

    @pytest.mark.parametrize("p", [None, 2, 3, 5, 101, 2**31 - 1])
    def test_matches_fraction_route(self, p):
        field = Q if p is None else FieldSpec.prime(p)
        rng = SplitMix64(271 + (p or 0))
        for n in range(1, 9):
            gs = [random_invertible(rng, field, n) for _ in range(3 if n <= 5 else 1)]
            if p is None:
                gs.append(_fraction_invertible(rng, n))
            for g in gs:
                got, want = envelope_certificate(g, restricted=True), naive_certificate_devissage(g)
                assert repr(got.entries) == repr(want.entries)
                assert got.spans == want.spans is True
                assert repr(got.witness_set) == repr(want.witness_set)

    @pytest.mark.parametrize("field", [F2, F3], ids=str)
    def test_matches_fraction_route_on_gl2_prelude(self, field):
        # the verify suites' GL_2 prelude: every element of GL_2(F_2) and GL_2(F_3)
        for g in gl2_elements(field):
            got, want = envelope_certificate(g, restricted=True), naive_certificate_devissage(g)
            assert repr(got.entries) == repr(want.entries)
            assert got.spans == want.spans is True
            assert repr(got.witness_set) == repr(want.witness_set)


class TestTranslateExactness:
    def test_witness_set_is_translated_transposition_set(self):
        from borelenv.decomp import ulp_decompose

        rng = SplitMix64(97)
        for field in (Q, F5):
            for n in (2, 3, 4):
                g = random_invertible(rng, field, n)
                cert = envelope_certificate(g, restricted=True)
                q = compose(longest_element(n), ulp_decompose(g, "lower").p)
                expected = {compose(t, q).images for t in transposition_set(n)}
                assert {w.images for w in cert.witness_set} == expected


class TestPinnedGreedyCertificates:
    """The JSON bytes of greedy certificates, pinned by sha256: three seeded
    matrices for each n = 2..4, over all of S_n or the transposition set."""

    PINS = {
        ("Q", "full"): "5c1e501638db38970efb9b394fb9127995143eca4e1ea908ff5f63e815bef63f",
        ("Q", "transpositions"): "da32730644e7a082303df7df84dad9cac4f412366644ac38cbb10e6f608f0e86",
        ("F2", "full"): "ae564f5c4b193bc079bdda3b8d3bae9efaeb5b9b580543fb3402626e80e9df84",
        ("F2", "transpositions"): "442eda4acf08cd33f0b176d158316cd0a2021fbb134ba6a049d9be8f8399c88f",
        ("F5", "full"): "10149ae291ef5704aa29eac589ae2cec83f738d7263024a92793fb4ab5d046cd",
        ("F5", "transpositions"): "412caf5b20e1c9b40fba33efb3bb9aeba021b498baaffaba81d715135edc5e50",
    }

    @pytest.mark.parametrize("name, route", sorted(PINS))
    def test_certificate_bytes(self, name, route):
        field = {"Q": Q, "F2": F2, "F5": F5}[name]
        digest = hashlib.sha256()
        for n in range(2, 5):
            ws = None if route == "full" else transposition_set(n)
            for k in range(3):
                g = random_invertible(derive_stream(2024, k), field, n)
                cert = envelope_certificate(g, ws)
                digest.update(jsonio.dumps_canonical(jsonio.certificate_to_json(cert)).encode())
        assert digest.hexdigest() == self.PINS[(name, route)]


class TestPinnedRestrictedCertificates:
    """The JSON bytes of restricted certificates, pinned by sha256: three
    seeded matrices for each n = 2..5."""

    PINS = {
        "Q": "3c916781874bd0d2957eb63ee429f1c0f2993c9dbdf6573468d84cb4f4e3667b",
        "F2": "0f1ff7f7fa240014cd74e109fc2063b2169a0a770fe777ed7fd209af60c4af1a",
        "F5": "13a21ea2cb9fb34d850356b842d271aa2db3936ca204dfda81240dd7c467020b",
        "F101": "88e33ad8402d4beb2f1f3b2bdc8b9b96fe2af560d2bb985ff2f638dc84c6185f",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_certificate_bytes(self, name):
        field = {"Q": Q, "F2": F2, "F5": F5, "F101": F101}[name]
        digest = hashlib.sha256()
        for n in range(2, 6):
            for k in range(3):
                g = random_invertible(derive_stream(2025, k), field, n)
                cert = envelope_certificate(g, restricted=True)
                digest.update(jsonio.dumps_canonical(jsonio.certificate_to_json(cert)).encode())
        assert digest.hexdigest() == self.PINS[name]


class TestPinnedLargeRestrictedCertificates:
    """The JSON bytes of restricted certificates at n = 8 and at the
    RESTRICTED_LIMIT guard, n = 12, pinned by sha256: one seeded matrix for
    each n."""

    PINS = {
        "Q": "4df526b67d52516984d7875526717dda658c6f0dff68b549c360b6055ac80d6c",
        "F101": "1e60cecd329fcc41952afdfca598952abdd79d056e3c25cfb1564be02472caf9",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_certificate_bytes(self, name):
        field = {"Q": Q, "F101": F101}[name]
        digest = hashlib.sha256()
        for n in (8, RESTRICTED_LIMIT):
            g = random_invertible(derive_stream(2025, 0), field, n)
            cert = envelope_certificate(g, restricted=True)
            digest.update(jsonio.dumps_canonical(jsonio.certificate_to_json(cert)).encode())
        assert digest.hexdigest() == self.PINS[name]
