"""Symmetric-group tests: composition, length, Bruhat order, matrices."""

import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelenv import weyl
from borelenv.errors import InvalidInput, ResourceGuard
from borelenv.linalg import FieldSpec, Matrix, inverse
from borelenv.verify import _subword_set
from borelenv.weyl import (
    Permutation,
    bruhat_leq,
    compose,
    enumerate_group,
    length,
    longest_element,
    perm_matrix,
    transposition_set,
)
from reference import naive_bruhat_leq

Q = FieldSpec.rational()

perms = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda img: Permutation(tuple(img)))


class TestPermutation:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            Permutation((1, 1))
        with pytest.raises(InvalidInput):
            Permutation((0, 1))
        with pytest.raises(InvalidInput):
            Permutation(())

    def test_call_and_inverse(self):
        w = Permutation((2, 3, 1))
        assert [w(j) for j in (1, 2, 3)] == [2, 3, 1]
        assert compose(w, w.inverse()) == Permutation.identity(3)


class TestCompose:
    def test_identity_neutral(self):
        for w in enumerate_group(3):
            e = Permutation.identity(3)
            assert compose(e, w) == w and compose(w, e) == w

    def test_transposition_involution(self):
        s = Permutation.transposition(4, 3, 1)
        assert compose(s, s) == Permutation.identity(4)

    def test_worked_example(self):
        u = Permutation((2, 3, 1))
        w = Permutation((2, 1, 3))
        assert compose(u, w) == Permutation((3, 2, 1))

    def test_size_mismatch(self):
        with pytest.raises(InvalidInput):
            compose(Permutation((1, 2)), Permutation((1, 2, 3)))


@settings(max_examples=80, deadline=None)
@given(perms, perms, perms)
def test_compose_associative(u, v, w):
    if u.n != v.n or v.n != w.n:
        return
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


class TestLength:
    def test_identity(self):
        assert length(Permutation.identity(5)) == 0

    def test_longest(self):
        assert length(longest_element(4)) == 6

    def test_example(self):
        assert length(Permutation((3, 1, 2))) == 2

    def test_exchange_with_adjacent_transposition(self):
        # multiplying by an adjacent transposition moves length by exactly 1
        for n in (2, 3, 4):
            for w in enumerate_group(n):
                for i in range(1, n):
                    s = Permutation.transposition(n, i + 1, i)
                    assert abs(length(compose(w, s)) - length(w)) == 1


class TestLongestElement:
    def test_small(self):
        assert longest_element(1) == Permutation((1,))
        assert longest_element(2) == Permutation((2, 1))
        assert longest_element(4) == Permutation((4, 3, 2, 1))

    def test_involution_and_maximal(self):
        for n in range(1, 9):
            w0 = longest_element(n)
            assert compose(w0, w0) == Permutation.identity(n)
            assert length(w0) == n * (n - 1) // 2


class TestBruhatOrder:
    def test_identity_is_minimum(self):
        for w in enumerate_group(3):
            assert bruhat_leq(Permutation.identity(3), w)

    def test_longest_is_maximum(self):
        w0 = longest_element(3)
        for w in enumerate_group(3):
            assert bruhat_leq(w, w0)

    def test_incomparable_pair(self):
        u = Permutation((3, 1, 2))
        w = Permutation((2, 3, 1))
        assert not bruhat_leq(u, w) and not bruhat_leq(w, u)

    def test_size_mismatch(self):
        with pytest.raises(InvalidInput):
            bruhat_leq(Permutation((1, 2)), Permutation((1, 2, 3)))

    def test_matches_rank_table_oracle(self):
        # every ordered pair for n <= 5, 14,400 of them in S_5
        for n in range(1, 6):
            group = enumerate_group(n)
            for u in group:
                for w in group:
                    assert bruhat_leq(u, w) == naive_bruhat_leq(u, w), (u, w)

    def test_agrees_with_subword_oracle_exhaustively(self):
        # all pairs for n <= 3 plus all 576 ordered pairs of S_4
        # (u <= w iff some subword of a reduced word of w is one of u)
        for n in (1, 2, 3, 4):
            group = enumerate_group(n)
            pairs = 0
            for u in group:
                for w in group:
                    assert bruhat_leq(u, w) == (u.images in _subword_set(w)), (u, w)
                    pairs += 1
            if n == 4:
                assert pairs == 576

    def test_partial_order_axioms(self):
        for n in (2, 3, 4):
            group = enumerate_group(n)
            rel = {(u.images, w.images): bruhat_leq(u, w) for u in group for w in group}
            for u in group:
                assert rel[(u.images, u.images)]
                for w in group:
                    if rel[(u.images, w.images)] and rel[(w.images, u.images)]:
                        assert u == w
                    for v in group:
                        if rel[(u.images, w.images)] and rel[(w.images, v.images)]:
                            assert rel[(u.images, v.images)]

    def test_order_respects_length(self):
        for n in (3, 4):
            for u in enumerate_group(n):
                for w in enumerate_group(n):
                    if bruhat_leq(u, w) and u != w:
                        assert length(u) < length(w)


class TestPermMatrix:
    def test_identity(self):
        assert perm_matrix(Permutation.identity(3), Q) == Matrix.identity(Q, 3)

    def test_swap(self):
        assert perm_matrix(Permutation((2, 1)), Q) == Matrix.from_rows(Q, [[0, 1], [1, 0]])

    def test_column_action(self):
        # P_w e_j = e_{w(j)}
        w = Permutation((3, 1, 2))
        p = perm_matrix(w, Q)
        for j in range(1, 4):
            col = p.col(j - 1)
            assert [c for c, x in enumerate(col) if x != 0] == [w(j) - 1]

    def test_homomorphism_injective(self):
        for n in (2, 3, 4):
            seen = set()
            for u in enumerate_group(n):
                mu = perm_matrix(u, Q)
                assert mu.entries not in seen
                seen.add(mu.entries)
                for w in enumerate_group(n):
                    assert perm_matrix(compose(u, w), Q) == mu @ perm_matrix(w, Q)

    def test_conjugation_swaps_elementary_indices(self):
        # P_s^-1 e^{1,2} P_s = e^{2,1} for the swap in gl_2
        s = perm_matrix(Permutation((2, 1)), Q)
        e12 = Matrix.from_rows(Q, [[0, 1], [0, 0]])
        e21 = Matrix.from_rows(Q, [[0, 0], [1, 0]])
        assert inverse(s) @ e12 @ s == e21


class TestTranspositionSet:
    def test_sizes(self):
        for n in range(1, 9):
            ts = transposition_set(n)
            assert len(ts) == (n * n - n + 2) // 2
            assert len({w.images for w in ts}) == len(ts)

    def test_n3_contents_and_order(self):
        ts = transposition_set(3)
        assert ts[0] == Permutation.identity(3)
        assert ts[1] == Permutation((2, 1, 3))
        assert ts[2] == Permutation((3, 2, 1))
        assert ts[3] == Permutation((1, 3, 2))

    def test_members_are_involutions(self):
        for w in transposition_set(5)[1:]:
            assert length(w) >= 1
            assert compose(w, w) == Permutation.identity(5)


class TestEnumerateGroup:
    def test_small(self):
        assert enumerate_group(1) == (Permutation((1,)),)
        assert len(enumerate_group(3)) == 6

    def test_lexicographic_extremes(self):
        g4 = enumerate_group(4)
        assert len(g4) == 24
        assert g4[0] == Permutation.identity(4)
        assert g4[-1] == longest_element(4)
        assert len({w.images for w in g4}) == 24

    def test_guard(self):
        with pytest.raises(ResourceGuard):
            enumerate_group(9)

    def test_built_once_per_n(self):
        for n in range(1, 7):
            group = enumerate_group(n)
            assert enumerate_group(n) is group
            assert [w.images for w in group] == list(itertools.permutations(range(1, n + 1)))

    def test_errors_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(InvalidInput):
                enumerate_group(0)
            with pytest.raises(ResourceGuard):
                enumerate_group(9)


def test_module_doctests():
    result = doctest.testmod(weyl)
    assert (result.attempted, result.failed) == (2, 0)
