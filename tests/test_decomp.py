"""Factorization tests: Bruhat cells and ULP with both normalizations."""

import dataclasses
import hashlib
import itertools
from fractions import Fraction

import pytest

import borelenv.decomp as decomp
from borelenv import jsonio, linalg
from borelenv.decomp import bruhat_cell, bruhat_decompose, ulp_decompose
from borelenv.envelope import envelope_certificate, verify_certificate
from borelenv.errors import ContractViolation, InvalidInput, NotInvertible, UlpInfeasible
from borelenv.linalg import FieldSpec, Matrix
from borelenv.rng import (
    SplitMix64,
    derive_stream,
    random_invertible,
    random_matrix,
    random_singular,
    random_upper_invertible,
)
from borelenv.weyl import Permutation, enumerate_group, longest_element, perm_matrix

from reference import (
    naive_bruhat_cell,
    naive_bruhat_decompose,
    naive_ul_split,
    naive_ulp_lower,
    naive_ulp_upper,
)

Q = FieldSpec.rational()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F101 = FieldSpec.prime(101)
F_MERSENNE = FieldSpec.prime(2**31 - 1)

# singular inputs whose dependency shows at different rows and columns
SINGULAR_ROWS = [
    [[0]],
    [[1, 2], [2, 4]],
    [[1, 1, 0], [0, 1, 1], [0, 0, 0]],
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    [[1, 2, 3], [0, 1, 1], [1, 2, 3]],
    [[1, 1, 1, 1], [1, 2, 3, 4], [2, 3, 4, 5], [0, 0, 1, 1]],
]




def _entry_types(*matrices):
    """Assert every entry is a field element of its matrix's field: a
    Fraction over Q, an int in [0, p) over F_p; returns the type list."""
    types = []
    for m in matrices:
        p = m.field.p
        for x in m.entries:
            assert type(x) is (Fraction if p is None else int)
            assert p is None or 0 <= x < p
            types.append(type(x))
    return types


class TestBruhat:
    def test_upper_triangular_stays_in_identity_cell(self):
        g = Matrix.from_rows(Q, [[2, 5], [0, 3]])
        f = bruhat_decompose(g)
        assert f.s == Permutation.identity(2)
        assert f.recompose() == g

    def test_permutation_matrix(self):
        for w in [Permutation((2, 3, 1)), Permutation((3, 1, 2)), longest_element(3)]:
            g = perm_matrix(w, F5)
            f = bruhat_decompose(g)
            assert f.s == w
            assert f.recompose() == g

    def test_worked_2x2(self):
        g = Matrix.from_rows(Q, [[1, 0], [1, 1]])
        f = bruhat_decompose(g)
        assert f.u1 == Matrix.from_rows(Q, [[1, 1], [0, 1]])
        assert f.s == Permutation((2, 1))
        assert f.u2 == Matrix.from_rows(Q, [[1, 1], [0, -1]])
        assert f.recompose() == g

    def test_cell_examples(self):
        assert bruhat_cell(Matrix.identity(Q, 3)) == Permutation.identity(3)
        w0 = longest_element(3)
        assert bruhat_cell(perm_matrix(w0, Q)) == w0
        assert bruhat_cell(Matrix.from_rows(Q, [[1, 0], [1, 1]])) == Permutation((2, 1))

    def test_singular_rejected(self):
        with pytest.raises(NotInvertible):
            bruhat_decompose(Matrix.zeros(Q, 2, 2))
        with pytest.raises(NotInvertible):
            bruhat_cell(Matrix.from_rows(F2, [[1, 1], [1, 1]]))

    def test_recomposition_and_cell_uniqueness(self):
        rng = SplitMix64(41)
        for field in (Q, F2, F3, F5):
            for _ in range(25):
                n = 1 + rng.below(5)
                g = random_invertible(rng, field, n)
                f = bruhat_decompose(g)
                assert f.recompose() == g
                assert f.u1.is_upper_triangular() and f.u2.is_upper_triangular()
                assert f.s == bruhat_cell(g)
                b1 = random_upper_invertible(rng, field, n)
                b2 = random_upper_invertible(rng, field, n)
                assert bruhat_decompose(b1 @ g @ b2).s == f.s

    def test_exhaustive_gl2_f2_cells_partition(self):
        # the six invertibles split 2 + 4 across the two cells of S_2:
        # the identity cell is B itself (|B| = 2), the big cell the rest
        cells = {}
        for a, b, c, d in itertools.product(range(2), repeat=4):
            if (a * d - b * c) % 2:
                g = Matrix.from_rows(F2, [[a, b], [c, d]])
                cells.setdefault(bruhat_cell(g).images, []).append(g)
        assert len(cells[(1, 2)]) == 2
        assert len(cells[(2, 1)]) == 4


class TestBruhatCellOracle:
    """bruhat_cell (one RREF per row of corners) against all n^2 corner RREFs."""

    FIELDS = (Q, F2, F5, FieldSpec.prime(101))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_random_invertible(self, field):
        rng = SplitMix64(509)
        for n in range(1, 7):
            for _ in range(6):
                g = random_invertible(rng, field, n)
                assert bruhat_cell(g) == naive_bruhat_cell(g)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_permutation_matrices_and_their_cells(self, field):
        rng = SplitMix64(521)
        for n in range(1, 7):
            # all of S_n up to n = 4, every 37th element beyond
            for w in enumerate_group(n)[:: 1 if n <= 4 else 37]:
                pw = perm_matrix(w, field)
                assert bruhat_cell(pw) == naive_bruhat_cell(pw) == w
                b1 = random_upper_invertible(rng, field, n)
                b2 = random_upper_invertible(rng, field, n)
                g = b1 @ pw @ b2
                assert bruhat_cell(g) == naive_bruhat_cell(g) == w

    def test_invertible_runs_no_rref(self, monkeypatch):
        # one echelon pass over the rows bottom-up; only a singular input
        # eliminates, for the rank in its message
        rng = SplitMix64(525)
        gs = [random_invertible(rng, field, n) for field in self.FIELDS for n in range(1, 7)]
        cells = [bruhat_decompose(g).s for g in gs]
        calls = []
        for module in (linalg, decomp):
            monkeypatch.setattr(module, "_rref_prim", lambda *args, _real=module._rref_prim: calls.append(args) or _real(*args))
        assert [bruhat_cell(g) for g in gs] == cells
        assert calls == []
        with pytest.raises(NotInvertible, match=r"^matrix of rank 1 < 2$"):
            bruhat_cell(Matrix.from_rows(Q, [[1, 2], [2, 4]]))
        assert calls

    def test_singular_rejected_by_both(self):
        rng = SplitMix64(523)
        for field in self.FIELDS:
            cases = [random_singular(rng, field, n) for n in range(1, 8)]
            cases += [Matrix.from_rows(field, rows) for rows in SINGULAR_ROWS]
            for g in cases:
                with pytest.raises(NotInvertible):
                    bruhat_cell(g)
                with pytest.raises(NotInvertible):
                    naive_bruhat_cell(g)


def _factors_repr(f):
    return repr((f.u1.entries, f.s.images, f.u2.entries))


class TestBruhatDecomposeOracle:
    """The row sweep against the column-sweep elimination with a diagonal
    fold: the same factors, entry by entry and type by type."""

    FIELDS = (Q, F2, F3, F5, F101, F_MERSENNE)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_random_invertible(self, field):
        rng = SplitMix64(541)
        for n in range(1, 8):
            for k in range(8):
                g = random_invertible(rng, field, n)
                if field.p is None and k % 2:  # non-integer entries
                    rows = [[x / (1 + rng.below(9)) for x in r] for r in g.rows_list()]
                    g = Matrix.from_rows(field, rows)
                got, want = bruhat_decompose(g), naive_bruhat_decompose(g)
                assert _factors_repr(got) == _factors_repr(want)
                assert _entry_types(got.u1, got.u2) == _entry_types(want.u1, want.u2)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_upper_permutation_upper(self, field):
        rng = SplitMix64(547)
        for n in range(1, 8):
            group = enumerate_group(n)
            for _ in range(6):
                w = group[rng.below(len(group))]
                g = random_upper_invertible(rng, field, n) @ perm_matrix(w, field)
                g = g @ random_upper_invertible(rng, field, n)
                f, want = bruhat_decompose(g), naive_bruhat_decompose(g)
                assert f.s == w
                assert _factors_repr(f) == _factors_repr(want)
                assert _entry_types(f.u1, f.u2) == _entry_types(want.u1, want.u2)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_singular_rejected_by_both(self, field):
        rng = SplitMix64(557)
        cases = [random_singular(rng, field, n) for n in range(1, 8) for _ in range(3)]
        cases += [Matrix.from_rows(field, rows) for rows in SINGULAR_ROWS]
        for g in cases:
            with pytest.raises(NotInvertible):
                bruhat_decompose(g)
            with pytest.raises(NotInvertible):
                naive_bruhat_decompose(g)

    def test_singular_message(self):
        g = Matrix.from_rows(Q, [[1, 1, 0], [0, 1, 1], [0, 0, 0]])
        with pytest.raises(NotInvertible, match="singular"):
            bruhat_decompose(g)


class TestPinnedBruhatFactors:
    """The JSON bytes of Bruhat factors, pinned by sha256: three seeded
    matrices for each n = 1..6."""

    PINS = {
        "Q": "bc1fe6b28f0f582da2f4bb550d9db3ec038d08e804ca2c03216eddf667b8fd49",
        "F2": "dedd87c00b75ca54d2166964d1f8b4139a2e311d020a55e576ba5d7c333601f8",
        "F5": "68672eb8789db40fa784aca30a688b770cbe22770e768a777b9d6a4088071adb",
        "F101": "5bf2c1ad5579f64bad2c981ec4071a77ee3294249773097d106de3ed532821c3",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_factor_bytes(self, name):
        field = {"Q": Q, "F2": F2, "F5": F5, "F101": F101}[name]
        digest = hashlib.sha256()
        for n in range(1, 7):
            for k in range(3):
                g = random_invertible(derive_stream(2025, k), field, n)
                factors = jsonio.bruhat_to_json(bruhat_decompose(g))
                digest.update(jsonio.dumps_canonical(factors).encode())
        assert digest.hexdigest() == self.PINS[name]


def _corner_input(rng, field, n):
    """b @ ([[1, 1], [0, 0]] (+) I_{n-2}) @ P_w, b upper invertible: no
    unipotent-upper ULP, since b keeps U @ L @ P_p in its shape."""
    group = enumerate_group(n)
    w = group[rng.below(len(group))]
    b = random_upper_invertible(rng, field, n)
    return b @ _split_corner(field, n) @ perm_matrix(w, field)


class TestPinnedUlpFactors:
    """The JSON bytes of both ULP normalizations, pinned by sha256, with the
    infeasible marker where the unipotent-upper ULP does not exist.  For
    each n = 1..6: a seeded invertible, two singular, a dense and (n >= 2)
    an infeasible input; over Q the odd ones take non-integer entries."""

    PINS = {
        "F2": "2efbf43305af378cc38c3dce609077d5a4c90b4cab1b159d1929e78aa5ef5812",
        "F101": "750f26d242451606bbfc14bca2c6888736b5897558077e4dbf9b7d26c31f9d35",
        "Q": "689367e61ea7f15f258c3c26fe0e6689736524f9fb8d004a1a786c940231fa09",
    }
    KINDS = (random_invertible, random_singular, random_singular, random_matrix, _corner_input)

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_factor_bytes(self, name):
        field = {"Q": Q, "F2": F2, "F101": F101}[name]
        digest = hashlib.sha256()
        infeasible = 0
        for n in range(1, 7):
            for k, make in enumerate(self.KINDS):
                if make is _corner_input and n == 1:
                    continue
                rng = derive_stream(2026, len(self.KINDS) * n + k)
                m = make(rng, field, n)
                if field.p is None and k % 2:  # non-integer entries
                    rows = [[x / (1 + rng.below(9)) for x in r] for r in m.rows_list()]
                    m = Matrix.from_rows(field, rows)
                for normalization in ("lower", "upper"):
                    try:
                        obj = jsonio.ulp_to_json(ulp_decompose(m, normalization))
                    except UlpInfeasible:
                        obj = {"kind": "ulp", "normalization": normalization, "infeasible": True}
                        infeasible += 1
                    digest.update(jsonio.dumps_canonical(obj).encode())
        assert infeasible >= 5
        assert digest.hexdigest() == self.PINS[name]


class TestUlp:
    def test_permutation_input(self):
        s = Permutation((2, 3, 1))
        m = perm_matrix(s, Q)
        f = ulp_decompose(m, "lower")
        assert f.u == Matrix.identity(Q, 3)
        assert f.l == Matrix.identity(Q, 3)
        assert f.p == s

    def test_zero_matrix_upper_normalization(self):
        f = ulp_decompose(Matrix.zeros(Q, 2, 2), "upper")
        assert f.u == Matrix.identity(Q, 2)
        assert f.l == Matrix.zeros(Q, 2, 2)
        assert f.p == Permutation.identity(2)

    def test_antidiagonal(self):
        m = Matrix.from_rows(Q, [[0, 1], [1, 0]])
        f = ulp_decompose(m, "lower")
        assert f.u == Matrix.identity(Q, 2)
        assert f.l == Matrix.identity(Q, 2)
        assert f.p == Permutation((2, 1))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInput):
            ulp_decompose(Matrix.zeros(Q, 2, 3), "lower")

    def test_random_recomposition_both_normalizations(self):
        rng = SplitMix64(43)
        for field in (Q, F2, F3, F5):
            for k in range(40):
                n = 1 + rng.below(5)
                m = random_singular(rng, field, n) if k % 2 else random_matrix(rng, field, n)
                for normalization in ("lower", "upper"):
                    try:
                        f = ulp_decompose(m, normalization)
                    except UlpInfeasible:
                        assert normalization == "upper"
                        continue
                    assert f.recompose() == m
                    assert f.u.is_upper_triangular() and f.l.is_lower_triangular()
                    named = f.u if normalization == "upper" else f.l
                    assert all(named.at(i, i) == field.one() for i in range(n))

    def test_lower_normalization_total_on_f2_3x3_exhaustive(self):
        # every one of the 512 matrices factors with a unipotent lower factor
        for ents in itertools.product(range(2), repeat=9):
            m = Matrix(F2, 3, 3, ents)
            f = ulp_decompose(m, "lower")
            assert f.recompose() == m

    def test_upper_normalization_matches_bruteforce_feasibility_f2(self):
        # enumerate every product u @ l @ P_p with u unipotent upper over F_2,
        # then check ulp_decompose(..., "upper") succeeds exactly on that set
        n = 3
        reachable = set()
        uppers = []
        for x in itertools.product(range(2), repeat=3):
            uppers.append(Matrix.from_rows(F2, [[1, x[0], x[1]], [0, 1, x[2]], [0, 0, 1]]))
        lowers = []
        for y in itertools.product(range(2), repeat=6):
            lowers.append(
                Matrix.from_rows(F2, [[y[0], 0, 0], [y[1], y[2], 0], [y[3], y[4], y[5]]])
            )
        pmats = [perm_matrix(w, F2) for w in
                 (Permutation(img) for img in itertools.permutations((1, 2, 3)))]
        for u in uppers:
            for l in lowers:
                ul = u @ l
                for pm in pmats:
                    reachable.add((ul @ pm).entries)
        assert len(reachable) == 458  # a proper subset: 54 matrices are out of reach
        for ents in itertools.product(range(2), repeat=9):
            m = Matrix(F2, 3, 3, ents)
            try:
                f = ulp_decompose(m, "upper")
            except UlpInfeasible:
                assert ents not in reachable
                continue
            assert ents in reachable
            assert f.recompose() == m

    def test_known_infeasible_instance(self):
        m = Matrix.from_rows(Q, [[1, 1, 0], [0, 1, 1], [0, 0, 0]])
        with pytest.raises(UlpInfeasible):
            ulp_decompose(m, "upper")
        f = ulp_decompose(m, "lower")
        assert f.recompose() == m

    def test_upper_always_feasible_on_invertible(self):
        rng = SplitMix64(47)
        for field in (Q, F2, F5):
            for _ in range(20):
                n = 1 + rng.below(5)
                g = random_invertible(rng, field, n)
                f = ulp_decompose(g, "upper")
                assert f.recompose() == g
                assert all(f.u.at(i, i) == field.one() for i in range(n))

    def test_determinism(self):
        rng = SplitMix64(53)
        m = random_singular(rng, F3, 4)
        a = ulp_decompose(m, "lower")
        b = ulp_decompose(m, "lower")
        assert a == b

    def test_conjugated_lower_factor_is_upper(self):
        # the substitution sending the lower factor across the longest
        # element always lands in the uppers
        rng = SplitMix64(59)
        for field in (Q, F5):
            for _ in range(15):
                n = 2 + rng.below(4)
                g = random_invertible(rng, field, n)
                f = ulp_decompose(g, "lower")
                pw0 = perm_matrix(longest_element(n), field)
                assert (pw0 @ f.l @ pw0).is_upper_triangular()


def _upper_or_none(m, decompose):
    try:
        f = decompose(m)
    except UlpInfeasible:
        return None
    return f.u, f.l, f.p


def _split_corner(field, n):
    """[[1, 1], [0, 0]] (+) I_{n-2}: singular, and no unipotent-upper ULP."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[0][1], rows[1][1] = 1, 0
    return Matrix.from_rows(field, rows)


class TestUlpUpperOracle:
    """The column-set rank test against the complete n! split search."""

    @staticmethod
    def _assert_matches(m):
        got = _upper_or_none(m, lambda x: ulp_decompose(x, "upper"))
        want = _upper_or_none(m, naive_ulp_upper)
        assert got == want
        if got is not None:
            assert _entry_types(*got[:2]) == _entry_types(*want[:2])
        return got is None

    def test_f2_exhaustive_up_to_3x3(self):
        infeasible = 0
        for n in (1, 2, 3):
            for ents in itertools.product(range(2), repeat=n * n):
                infeasible += self._assert_matches(Matrix(F2, n, n, ents))
        assert infeasible == 1 + 54  # 1 of 16 at n = 2, 54 of 512 at n = 3

    @pytest.mark.parametrize("field", [F2, F3, F5, F101, Q], ids=str)
    def test_seeded_singular_zero_invertible(self, field):
        rng = SplitMix64(61)
        for n in range(1, 7):
            assert not self._assert_matches(Matrix.zeros(field, n, n))
            for k in range(30):
                m = random_invertible(rng, field, n) if k % 4 == 0 else random_singular(rng, field, n)
                self._assert_matches(m)

    @pytest.mark.parametrize("field", [F2, Q], ids=str)
    def test_infeasible_family(self, field):
        for n in range(2, 8):
            assert self._assert_matches(_split_corner(field, n))

    def test_split_and_rank_test_counts(self, monkeypatch):
        calls = {"split": 0, "rank": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        # the rank tests are the _rref_prim calls made outside _ul_split,
        # which reads its own solutions off _rref_prim
        inside = []
        real_split, real_rank = decomp._ul_split, decomp._rref_prim

        def split(*args):
            inside.append(True)
            try:
                return real_split(*args)
            finally:
                inside.pop()

        def rank(*args):
            calls["rank"] += not inside
            return real_rank(*args)

        monkeypatch.setattr(decomp, "_ul_split", counted("split", split))
        monkeypatch.setattr(decomp, "_rref_prim", rank)
        rng = SplitMix64(67)
        cases = [_split_corner(field, n) for field in (F2, Q) for n in range(2, 8)]
        cases += [random_singular(rng, field, 1 + k % 6) for field in (F2, F3, Q) for k in range(30)]
        infeasible = 0
        for m in cases:
            calls.update(split=0, rank=0)
            infeasible += _upper_or_none(m, lambda x: ulp_decompose(x, "upper")) is None
            assert calls["split"] <= 2
            assert calls["rank"] <= 2**m.nrows - 2
        assert infeasible > len(cases) // 10


class TestUlpSweepOracle:
    """_ulp_lower and _ul_split against the FieldSpec sweeps they replaced
    (reference.naive_ulp_lower and naive_ul_split): the same factors, entry
    by entry and type by type."""

    @staticmethod
    def _assert_same(got, want):
        if want is None:
            assert got is None
            return
        assert got is not None
        got_m = (got.u, got.l) if isinstance(got, decomp.UlpFactors) else got
        want_m = (want.u, want.l) if isinstance(want, decomp.UlpFactors) else want
        assert got == want
        assert _entry_types(*got_m) == _entry_types(*want_m)

    def _check(self, m, others=()):
        base = decomp._ulp_lower(m)
        self._assert_same(base, naive_ulp_lower(m))
        for w in (base.p, *others):
            b = m.permute_cols(w.inverse())
            self._assert_same(decomp._ul_split(b), naive_ul_split(b))

    @pytest.mark.parametrize("field", [F2, F3, F5, F101, Q], ids=str)
    def test_seeded_invertible_singular_zero(self, field):
        rng = SplitMix64(601)
        for n in range(1, 7):
            group = enumerate_group(n)
            self._check(Matrix.zeros(field, n, n), [group[-1]])
            for k in range(12):
                make = random_invertible if k % 3 == 0 else random_singular
                m = make(rng, field, n)
                if field.p is None and k % 2:  # non-integer entries
                    rows = [[x / (1 + rng.below(9)) for x in r] for r in m.rows_list()]
                    m = Matrix.from_rows(field, rows)
                self._check(m, [group[rng.below(len(group))]])

    def test_f2_3x3_exhaustive(self):
        group = enumerate_group(3)
        for ents in itertools.product(range(2), repeat=9):
            self._check(Matrix(F2, 3, 3, ents), group)


def _bump(m, i, j):
    """m with entry (i, j) raised by one."""
    ents = list(m.entries)
    ents[i * m.ncols + j] += 1
    return Matrix(m.field, m.nrows, m.ncols, tuple(ents))


class TestSelfChecksLive:
    """One wrong entry in a sweep's result trips the self-check meant for
    it, over Q and over F_p."""

    @pytest.mark.parametrize("field", [Q, F5], ids=str)
    @pytest.mark.parametrize("normalization, factor, at, message", [
        ("lower", "u", (2, 0), "u factor is not upper triangular"),
        ("upper", "l", (0, 2), "l factor is not lower triangular"),
        ("lower", "l", (1, 1), "not unipotent"),
        ("upper", "u", (1, 1), "not unipotent"),
        ("lower", "u", (0, 2), "ULP recomposition failed"),
        ("upper", "l", (2, 0), "ULP recomposition failed"),
    ])
    def test_ulp(self, monkeypatch, field, normalization, factor, at, message):
        g = random_invertible(SplitMix64(71), field, 3)
        ulp_decompose(g, normalization)
        sweep = "_ulp_lower" if normalization == "lower" else "_ulp_upper"
        real = getattr(decomp, sweep)

        def corrupted(m):
            f = real(m)
            return dataclasses.replace(f, **{factor: _bump(getattr(f, factor), *at)})

        monkeypatch.setattr(decomp, sweep, corrupted)
        with pytest.raises(ContractViolation, match=message):
            ulp_decompose(g, normalization)

    @pytest.mark.parametrize("field", [Q, F5], ids=str)
    def test_ulp_singular_search(self, monkeypatch, field):
        # the split found by the rank walk goes through the same checks
        m = Matrix.from_rows(field, [[1, 1, 1], [1, 1, 2], [1, 1, 2]])
        real = decomp._ul_split

        def corrupted(b):
            split = real(b)
            return split and (_bump(split[0], 0, 2), split[1])

        monkeypatch.setattr(decomp, "_ul_split", corrupted)
        with pytest.raises(ContractViolation, match="ULP recomposition failed"):
            ulp_decompose(m, "upper")

    @pytest.mark.parametrize("field", [Q, F5], ids=str)
    @pytest.mark.parametrize("factor", ["u1", "u2"])
    def test_bruhat(self, monkeypatch, field, factor):
        g = random_invertible(SplitMix64(73), field, 3)
        bruhat_decompose(g)
        real = decomp.BruhatFactors

        def corrupted(u1, s, u2):
            f = real(u1, s, u2)
            return dataclasses.replace(f, **{factor: _bump(getattr(f, factor), 0, 2)})

        monkeypatch.setattr(decomp, "BruhatFactors", corrupted)
        with pytest.raises(ContractViolation, match="Bruhat recomposition failed"):
            bruhat_decompose(g)


class TestUnreducedFpEntries:
    """Entries outside [0, p) stand for their residues at every entry point."""

    def test_decomp_and_restricted_certificate(self):
        m = Matrix(F5, 2, 2, (7, -1, 3, 4))
        r = Matrix.from_rows(F5, [[2, 4], [3, 4]])
        for normalization in ("lower", "upper"):
            assert ulp_decompose(m, normalization) == ulp_decompose(r, normalization)
        assert bruhat_decompose(m) == bruhat_decompose(r)
        assert bruhat_cell(m) == bruhat_cell(r)
        cert = envelope_certificate(m, restricted=True)
        assert cert.spans and verify_certificate(cert)
        assert cert.entries == envelope_certificate(r, restricted=True).entries

    def test_equal_and_hash_equal_to_residues(self):
        # the constructor reduces, so a directly built matrix equals its
        # residues and the documented round-trips hold
        assert Matrix(F5, 1, 1, (7,)) == Matrix(F5, 1, 1, (2,))
        assert hash(Matrix(F5, 1, 1, (7,))) == hash(Matrix(F5, 1, 1, (2,)))
        m = Matrix(F5, 2, 2, (7, -1, 3, 4))
        r = Matrix.from_rows(F5, [[2, 4], [3, 4]])
        assert m == r and hash(m) == hash(r)
        for normalization in ("lower", "upper"):
            assert ulp_decompose(m, normalization).recompose() == m
        assert bruhat_decompose(m).recompose() == m

    def test_singular_upper_search(self):
        m = Matrix(F5, 3, 3, (6, -4, 10, 0, 11, -9, 5, 0, 0))
        r = Matrix.from_rows(F5, [[1, 1, 0], [0, 1, 1], [0, 0, 0]])
        with pytest.raises(UlpInfeasible):
            ulp_decompose(m, "upper")
        assert ulp_decompose(m, "lower") == ulp_decompose(r, "lower")
