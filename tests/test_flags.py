"""Flag tests: stabilizers, relative position, tangent spaces, the cover."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from borelenv import decomp, envelope, flags, linalg
from borelenv.envelope import borel_from_g, envelope_bruteforce
from borelenv.errors import InvalidInput, NotInvertible, ResourceGuard
from borelenv.flags import (
    Flag,
    TangentSpaceFiber,
    _tangent_sum,
    chart_dim,
    dpi2,
    flag_from_matrix,
    relative_position,
    stabilizer_algebra,
    tangent_fiber,
    tangent_sum_check,
)
from borelenv.linalg import FieldSpec, Matrix, inverse, subspace_from_rows, subspace_intersect
from borelenv.rng import SplitMix64, random_invertible, random_upper_invertible
from borelenv.verify import gl2_elements, tangent_cover
from borelenv.weyl import Permutation, enumerate_group, longest_element, perm_matrix
from reference import (
    fiber_tangent_sum,
    flag_steps,
    naive_relative_position,
    naive_stabilizer_algebra,
    naive_tangent_ledger,
)

Q = FieldSpec.rational()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F101 = FieldSpec.prime(101)


def standard_flag(field, n):
    return flag_from_matrix(Matrix.identity(field, n))


def anti_flag(field, n):
    return flag_from_matrix(perm_matrix(longest_element(n), field))


def conjugated_uppers(g):
    """g @ b0 @ g^-1, the stabilizer oracle."""
    n = g.nrows
    field = g.field
    ginv = inverse(g)
    rows = []
    for a in range(n):
        for b in range(a, n):
            e = [[field.zero()] * n for _ in range(n)]
            e[a][b] = field.one()
            conj = g @ Matrix.from_rows(field, e) @ ginv
            rows.append(list(conj.flatten()))
    return subspace_from_rows(n * n, rows, field=field)


def unit_rows(width, coords):
    return [[int(c == t) for c in range(width)] for t in coords]


def gtilde(f):
    """The incidence variety's tangent space at (0, f): the fiber square's
    at (f, f), projected."""
    return dpi2(tangent_fiber(f, f))


def stab_plus_chart(f):
    """stab(f) ⊕ chart from its definition: the conjugated uppers' rows
    padded by the chart's zeros, and the chart's unit rows."""
    n, cd = f.n, chart_dim(f.n)
    rows = [list(r) + [0] * cd for r in conjugated_uppers(f.adapted_basis).rows()]
    rows += unit_rows(n * n + cd, range(n * n, n * n + cd))
    return subspace_from_rows(n * n + cd, rows, field=f.field)


class TestFlag:
    def test_coset_invariance(self):
        # equal flags hash equal: the stabilizer cache finds g @ u under g
        rng = SplitMix64(101)
        for field in (F2, F3, F5, F101, Q):
            for n in range(1, 6):
                for _ in range(6):
                    g = random_invertible(rng, field, n)
                    u = random_upper_invertible(rng, field, n)
                    f1, f2 = flag_from_matrix(g), flag_from_matrix(g @ u)
                    assert f1 == f2 and hash(f1) == hash(f2)

    def test_distinct_flags_differ(self):
        assert standard_flag(Q, 3) != anti_flag(Q, 3)

    def test_steps_are_nested_with_correct_dims(self):
        rng = SplitMix64(103)
        g = random_invertible(rng, F5, 4)
        f = flag_from_matrix(g)
        steps = flag_steps(f)
        for i, step in enumerate(steps, start=1):
            assert step.dim == i
            if i > 1:
                for v in steps[i - 2].rows():
                    assert step.contains(v)

    def test_singular_rejected(self):
        with pytest.raises(NotInvertible):
            flag_from_matrix(Matrix.zeros(Q, 2, 2))


class TestFlagKey:
    """A flag compares and hashes by its canonical column echelon: one pass
    over the adapted basis, the same verdicts as comparing every step."""

    FIELDS = (F2, F3, F5, F101, Q)

    @staticmethod
    def _pairs(field, seed):
        # random flags, and flags that share a prefix of steps with them:
        # h @ P_w agrees with h up to the first step w moves
        rng = SplitMix64(seed)
        for n in range(1, 6):
            for _ in range(6):
                h = random_invertible(rng, field, n)
                w = enumerate_group(n)[rng.below(len(enumerate_group(n)))]
                yield h, random_invertible(rng, field, n)
                yield h, h @ perm_matrix(w, field)
                yield h, h @ random_upper_invertible(rng, field, n) @ perm_matrix(w, field)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_equality_agrees_with_the_steps(self, field):
        verdicts = set()
        for h1, h2 in self._pairs(field, 167):
            f1, f2 = Flag(h1), Flag(h2)
            same = flag_steps(f1) == flag_steps(f2)
            assert (f1 == f2) == same
            assert (f1 != f2) == (not same)
            if same:
                assert hash(f1) == hash(f2)
            verdicts.add(same)
        assert verdicts == {True, False}

    def test_flags_of_different_fields_or_sizes_differ(self):
        assert Flag(Matrix.identity(F2, 2)) != Flag(Matrix.identity(F3, 2))
        assert Flag(Matrix.identity(Q, 2)) != Flag(Matrix.identity(Q, 3))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_stabilizer_of_the_same_flag_is_a_cache_hit(self, field):
        rng = SplitMix64(173)
        for n in range(1, 6):
            h = random_invertible(rng, field, n)
            stab = stabilizer_algebra(Flag(h))
            before = stabilizer_algebra.cache_info()
            assert stabilizer_algebra(Flag(h @ random_upper_invertible(rng, field, n))) is stab
            after = stabilizer_algebra.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_key_and_hash_build_no_step_subspace(self, monkeypatch):
        real = linalg.subspace_from_rows

        def forbidden(*args, **kwargs):
            raise AssertionError("subspace_from_rows called")

        for mod in (linalg, flags, envelope):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, forbidden)
        rng = SplitMix64(179)
        for field in self.FIELDS:
            for n in range(1, 6):
                h = random_invertible(rng, field, n)
                assert hash(Flag(h)) == hash(Flag(h @ random_upper_invertible(rng, field, n)))


class TestBuilderBytes:
    """The bytes of both Borel builders and of the flag key, pinned by one
    sha256: borel(g), stab(flag(h)) and flag(h)'s key over seeded random,
    rational, triangular and permutation matrices."""

    DIGEST = "19096a2df7e7eacf9510921f9a9f1119976c25b407c5bca23ae89b740c84906b"

    @staticmethod
    def _inputs(field, rng, n):
        yield random_invertible(rng, field, n)
        yield random_invertible(rng, field, n)
        if field.p is None:  # non-integer entries
            while True:
                rows = [[Fraction(rng.randint(-9, 9), 1 + rng.below(7)) for _ in range(n)] for _ in range(n)]
                m = Matrix.from_rows(Q, rows)
                if linalg.rref(m).rank == n:
                    yield m
                    break
        w0 = perm_matrix(longest_element(n), field)
        yield random_upper_invertible(rng, field, n)
        yield w0 @ random_upper_invertible(rng, field, n) @ w0  # lower triangular
        images = list(range(1, n + 1))
        for k in range(n - 1, 0, -1):
            j = rng.below(k + 1)
            images[k], images[j] = images[j], images[k]
        yield perm_matrix(Permutation(tuple(images)), field)

    def test_builder_digest(self):
        rng = SplitMix64(331)
        h = hashlib.sha256()
        for field in (Q, F2, F3, F5, F101):
            for n in (1, 2, 3, 4, 5, 6, 8):
                for m in self._inputs(field, rng, n):
                    borel, stab = envelope.BorelConjugate(m).algebra, stabilizer_algebra(Flag(m))
                    for out in (borel.prim_rows(), stab.prim_rows(), Flag(m)._key):
                        h.update(repr(out).encode())
        assert h.hexdigest() == self.DIGEST


class TestStabilizer:
    def test_standard_is_uppers(self):
        s = stabilizer_algebra(standard_flag(Q, 3))
        assert s == conjugated_uppers(Matrix.identity(Q, 3))
        assert s.contains((0, 1, 0, 0, 0, 0, 0, 0, 0))
        assert not s.contains((0, 0, 0, 1, 0, 0, 0, 0, 0))

    def test_anti_is_lowers(self):
        s = stabilizer_algebra(anti_flag(Q, 2))
        assert s.contains((0, 0, 1, 0))
        assert not s.contains((0, 1, 0, 0))

    def test_matches_conjugation_oracle(self):
        rng = SplitMix64(107)
        for field in (Q, F2, F5):
            for _ in range(12):
                n = 2 + rng.below(3)
                g = random_invertible(rng, field, n)
                assert stabilizer_algebra(flag_from_matrix(g)) == conjugated_uppers(g)

    def test_matches_stability_solve(self):
        # the echelon builder against the stability conditions solved as a
        # kernel: every flag of GL_2(F_2) and GL_2(F_3), and 40 seeded h per
        # field for n = 1..6, canonical integer rows and pivots alike
        hs = [g for field in (F2, F3) for g in gl2_elements(field)]
        rng = SplitMix64(113)
        for field in (F2, F3, F5, F101, Q):
            hs += [random_invertible(rng, field, n) for n in range(1, 7) for _ in range(40)]
        for h in hs:
            f = flag_from_matrix(h)
            got, want = stabilizer_algebra(f), naive_stabilizer_algebra(f)
            assert (got.prim_rows(), got._pivots) == (want.prim_rows(), want._pivots)

    def test_cache_is_bounded(self):
        assert 0 < stabilizer_algebra.cache_info().maxsize <= 128

    def test_bridge_to_envelope_convention(self):
        rng = SplitMix64(109)
        for field in (Q, F3):
            for _ in range(12):
                n = 2 + rng.below(3)
                g = random_invertible(rng, field, n)
                assert stabilizer_algebra(flag_from_matrix(inverse(g))) == borel_from_g(g).algebra


class TestRelativePosition:
    def test_same_flag(self):
        f = standard_flag(Q, 3)
        assert relative_position(f, f) == Permutation.identity(3)

    def test_transverse(self):
        assert relative_position(standard_flag(Q, 3), anti_flag(Q, 3)) == longest_element(3)

    def test_coordinate_flags_give_their_permutation(self):
        for field in (Q, F2):
            std = standard_flag(field, 3)
            for w in enumerate_group(3):
                fw = flag_from_matrix(perm_matrix(w, field))
                assert relative_position(std, fw) == w

    def test_inverse_symmetry(self):
        rng = SplitMix64(113)
        for field in (Q, F5):
            for _ in range(10):
                n = 2 + rng.below(3)
                f1 = flag_from_matrix(random_invertible(rng, field, n))
                f2 = flag_from_matrix(random_invertible(rng, field, n))
                assert relative_position(f1, f2) == relative_position(f2, f1).inverse()

    def test_invariant_under_stabilizer_of_first(self):
        rng = SplitMix64(127)
        for _ in range(10):
            n = 3
            std = standard_flag(Q, n)
            f2 = flag_from_matrix(random_invertible(rng, Q, n))
            u = random_upper_invertible(rng, Q, n)
            moved = flag_from_matrix(u @ f2.adapted_basis)
            assert relative_position(std, f2) == relative_position(std, moved)

    def test_orbit_membership_oracle_n3_f2(self):
        # relative position w means f2 = b @ P_w-flag for upper-invertible b;
        # over F_2 at n = 3 the Borel group is small enough to enumerate
        uppers = []
        for x in itertools.product(range(2), repeat=3):
            uppers.append(Matrix.from_rows(F2, [[1, x[0], x[1]], [0, 1, x[2]], [0, 0, 1]]))
        std = standard_flag(F2, 3)
        all_flags = set()
        for g_ents in itertools.product(range(2), repeat=9):
            m = Matrix(F2, 3, 3, g_ents)
            try:
                f = flag_from_matrix(m)
            except NotInvertible:
                continue
            all_flags.add(f)
        for f in all_flags:
            w = relative_position(std, f)
            orbit = {
                flag_from_matrix(b @ perm_matrix(w, F2)) for b in uppers
            }
            assert f in orbit

    def test_matches_rank_table_oracle(self):
        # g2 = g1 @ b1 @ P_w @ b2 lies in cell w of f1; a second, unrelated
        # g2 gives a generic pair.  Inverses give non-integer entries over Q.
        rng = SplitMix64(131)
        for field in (F2, F3, F5, F101, Q):
            for n in range(1, 7):
                cells = enumerate_group(n)
                for _ in range(4):
                    g1 = inverse(random_invertible(rng, field, n))
                    w = cells[rng.below(len(cells))]
                    b1 = random_upper_invertible(rng, field, n)
                    b2 = inverse(random_upper_invertible(rng, field, n))
                    f1 = flag_from_matrix(g1)
                    f2 = flag_from_matrix(g1 @ b1 @ perm_matrix(w, field) @ b2)
                    assert relative_position(f1, f2) == naive_relative_position(f1, f2) == w
                    f3 = flag_from_matrix(random_invertible(rng, field, n))
                    assert relative_position(f1, f3) == naive_relative_position(f1, f3)

    def test_runs_no_rref(self, monkeypatch):
        # D1 @ K2 goes to the flag echelon as integer rows: no Matrix, no RREF
        rng = SplitMix64(137)
        pairs = [[flag_from_matrix(random_invertible(rng, field, n)) for _ in range(2)]
                 for field in (F2, F5, F101, Q) for n in range(1, 6)]
        calls = []
        for module in (linalg, decomp):
            monkeypatch.setattr(module, "_rref_prim", lambda *args, _real=module._rref_prim: calls.append(args) or _real(*args))
        for f1, f2 in pairs:
            assert relative_position(f1, f2) == relative_position(f2, f1).inverse()
        assert calls == []

    def test_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            relative_position(standard_flag(Q, 2), standard_flag(Q, 3))
        with pytest.raises(InvalidInput):
            relative_position(standard_flag(Q, 2), standard_flag(F2, 2))


class TestTangentSpaces:
    def test_chart_coordinates(self):
        # the chart block has one coordinate per strictly-lower position
        for n in range(1, 7):
            assert chart_dim(n) == n * (n - 1) // 2

    def test_gtilde_dimension(self):
        assert gtilde(standard_flag(Q, 2)).dim == 4
        rng = SplitMix64(131)
        f = flag_from_matrix(random_invertible(rng, F5, 3))
        assert gtilde(f).dim == 9

    def test_gtilde_matrix_block_for_anti_flag(self):
        t = gtilde(anti_flag(Q, 2))
        # contains the lower elementary in the matrix block
        assert t.contains((0, 0, 1, 0, 0))
        assert not t.contains((0, 1, 0, 0, 0))
        # chart directions are always present
        assert t.contains((0, 0, 0, 0, 1))

    def test_fiber_dims(self):
        f = standard_flag(Q, 2)
        assert tangent_fiber(f, f).space.dim == 5
        assert tangent_fiber(standard_flag(Q, 2), anti_flag(Q, 2)).space.dim == 4

    def test_fiber_middle_projection(self):
        rng = SplitMix64(137)
        n = 3
        cd = chart_dim(n)
        f1 = flag_from_matrix(random_invertible(rng, Q, n))
        f2 = flag_from_matrix(random_invertible(rng, Q, n))
        fib = tangent_fiber(f1, f2)
        mid = subspace_intersect(stabilizer_algebra(f1), stabilizer_algebra(f2))
        assert fib.space.dim == 2 * cd + mid.dim
        for row in fib.space.rows():
            middle = row[cd : cd + n * n]
            assert mid.contains(middle)

    def test_dpi2_examples(self):
        f = standard_flag(Q, 2)
        assert gtilde(f) == stab_plus_chart(f)
        proj = dpi2(tangent_fiber(standard_flag(Q, 2), anti_flag(Q, 2)))
        assert proj.dim == 3
        target = stab_plus_chart(anti_flag(Q, 2))
        assert proj.dim < target.dim
        for row in proj.rows():
            assert target.contains(row)

    def test_dpi2_hand_built_fiber_with_first_chart_pivot(self):
        # span(e_0 + e_cd): the pivot lies in the first chart, but the row
        # also reaches the gl_n block, so its projection is not zero
        f = standard_flag(Q, 2)
        cd = chart_dim(2)
        row = [0] * (2 * cd + 4)
        row[0] = row[cd] = 1
        fiber = TangentSpaceFiber((f, f), subspace_from_rows(len(row), [row], field=Q))
        proj = dpi2(fiber)
        assert proj.dim == 1
        assert proj == subspace_from_rows(4 + cd, [row[cd:]], field=Q)


class TestFiberSpace:
    def test_matches_span_of_padded_rows(self):
        # chart ⊕ (stab ∩ stab) ⊕ chart from its definition, for random
        # pairs and pairs in a random relative position w
        rng = SplitMix64(163)
        for field in (F2, F3, F5, F101, Q):
            for n in range(1, 5):
                cd, width = chart_dim(n), n * n + 2 * chart_dim(n)
                h = random_invertible(rng, field, n)
                w = enumerate_group(n)[rng.below(len(enumerate_group(n)))]
                for h2 in (random_invertible(rng, field, n),
                           h @ random_upper_invertible(rng, field, n) @ perm_matrix(w, field)):
                    mid = subspace_intersect(conjugated_uppers(h), conjugated_uppers(h2))
                    padded = [[0] * cd + list(r) + [0] * cd for r in mid.rows()]
                    padded += unit_rows(width, [*range(cd), *range(cd + n * n, width)])
                    built = tangent_fiber(flag_from_matrix(h), flag_from_matrix(h2)).space
                    expected = subspace_from_rows(width, padded, field=field)
                    assert built == expected and built._pivots == expected._pivots


class TestTangentSum:
    def test_identity_ledger(self):
        holds, ledger = tangent_sum_check(Matrix.identity(Q, 3))
        assert holds
        assert len(ledger) == 6
        led = {w.images: d for w, d in ledger}
        assert led[(1, 2, 3)] == 6  # the identity already carries a full Borel

    def test_longest_element(self):
        holds, ledger = tangent_sum_check(perm_matrix(longest_element(3), F5))
        assert holds

    def test_random_holds(self):
        rng = SplitMix64(139)
        for field in (Q, F2, F3):
            for n in (2, 3, 4):
                h = random_invertible(rng, field, n)
                holds, ledger = tangent_sum_check(h)
                assert holds
                assert len(ledger) == len(enumerate_group(n))

    def test_gl_part_bridges_to_envelope(self):
        rng = SplitMix64(149)
        for field in (Q, F5):
            n = 3
            h = random_invertible(rng, field, n)
            holds, stab, gl_part = _tangent_sum(h)
            assert holds and gl_part == stab
            assert gl_part == envelope_bruteforce(inverse(h), enumerate_group(n))

    def test_matches_fiber_oracle(self):
        # the n!-fiber construction, built from public API, is the oracle
        rng = SplitMix64(151)
        for field in (F2, F3, F5, F101, Q):
            for n in range(1, 5):
                hs = [Matrix.identity(field, n), perm_matrix(longest_element(n), field)]
                hs += [random_invertible(rng, field, n) for _ in range(3)]
                for h in hs:
                    holds, ledger, gl = fiber_tangent_sum(h)
                    assert tangent_sum_check(h) == (holds, ledger)
                    assert _tangent_sum(h)[2] == gl

    def test_ledger_matches_intersection_oracle_at_n5(self):
        # the ledger is read off the dimension law; the oracle intersects
        rng = SplitMix64(163)
        for field in (F2, F3, F101, Q):
            for _ in range(2):
                h = random_invertible(rng, field, 5)
                assert tangent_sum_check(h)[1] == naive_tangent_ledger(h)

    def test_ledger_forms_no_intersection(self, monkeypatch):
        calls = []
        bound = [(linalg, "_intersect_with_coordinates"), (envelope, "_intersect_with_coordinates"),
                 (flags, "_intersect_with_coordinates"), (linalg, "subspace_intersect"),
                 (flags, "subspace_intersect")]
        for module, name in bound:
            if hasattr(module, name):
                def spied(a, b, _real=getattr(module, name), _name=name):
                    calls.append(_name)
                    return _real(a, b)

                monkeypatch.setattr(module, name, spied)
        rng = SplitMix64(167)
        for field in (F2, F101, Q):
            for n in (1, 3, 4):
                holds, ledger = tangent_sum_check(random_invertible(rng, field, n))
                assert holds and [w for w, _ in ledger] == list(enumerate_group(n))
        assert calls == []

    def test_one_flag_and_no_fibers_per_call(self, monkeypatch):
        calls = dict.fromkeys(("flag_from_matrix", "tangent_fiber", "dpi2"), 0)
        for name in calls:
            def counted(*args, _real=getattr(flags, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(flags, name, counted)
        h = random_invertible(SplitMix64(157), Q, 4)
        assert _tangent_sum(h)[0]
        assert calls == {"flag_from_matrix": 1, "tangent_fiber": 0, "dpi2": 0}

    def test_cover_check_intersects_at_most_n_times(self, monkeypatch):
        # c7's check of one n = 4 input over Q: the sum is full after three
        # kernels, the Cartan bound ⌈4/2⌉ + 1, and c7 builds neither the
        # n! = 24 ledger intersections nor a second envelope sum
        terms, intersections = [], []
        real = envelope._coordinate_kernel
        monkeypatch.setattr(envelope, "_coordinate_kernel",
                            lambda s, coords: terms.append(s.ambient_dim) or real(s, coords))
        # every module binding of an intersection route that c7 could reach
        bound = [(envelope, "_intersect_with_coordinates"), (flags, "subspace_intersect")]
        for module, name in bound:
            def spied(a, b, _real=getattr(module, name)):
                intersections.append(a.ambient_dim)
                return _real(a, b)

            monkeypatch.setattr(module, name, spied)
        result = tangent_cover((Q,), (4,), 1, 157)
        assert result.passed and result.counts == {"checked": 54 + 1}
        assert 0 < terms.count(16) <= 3  # the 54 GL_2 prelude inputs have ambient 4
        assert intersections.count(16) == 0

    def test_guard_and_errors(self):
        with pytest.raises(ResourceGuard):
            tangent_sum_check(Matrix.identity(Q, 7))
        with pytest.raises(NotInvertible):
            tangent_sum_check(Matrix.zeros(Q, 2, 2))
