"""rng's constructors draw exactly as the naive path in tests/reference.py:
the same ``next_u64`` calls in the same order, equal matrices and the same
entry types, over every field the suites, the benchmark and CI draw from."""

import hashlib
from fractions import Fraction

import pytest

from borelenv.errors import InvalidInput
from borelenv.linalg import FieldSpec
from borelenv.rng import SplitMix64, random_invertible, random_matrix, random_singular, random_upper_invertible

from reference import naive_random_invertible, naive_random_matrix, naive_random_singular, naive_random_upper_invertible

FIELDS = [FieldSpec.prime(p) for p in (2, 3, 5, 101, 2**61 - 1)] + [FieldSpec.rational()]
SEEDS = (0, 1, 6, 41)
NS = range(1, 7)
CONSTRUCTORS = [
    (random_matrix, naive_random_matrix),
    (random_invertible, naive_random_invertible),
    (random_singular, naive_random_singular),
    (random_upper_invertible, naive_random_upper_invertible),
]

# sha256 of the grid below, each call's repr((matrix, stream state)) on its
# own line, as the naive path draws it
GRID_SHA256 = "4082fb651c11ebb6b76178e9ddbf62a2539e32db98a3ec24d961373f6e49bf65"


def _well_typed(m) -> bool:
    p = m.field.p
    if p is None:
        return all(type(x) is Fraction for x in m.entries)
    return all(type(x) is int and 0 <= x < p for x in m.entries)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_constructors_draw_as_the_naive_path(field):
    """One stream per seed through every n and constructor in turn, so a
    call that takes one draw too many or too few shifts every later one."""
    for seed in SEEDS:
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        for n in NS:
            for make, naive in CONSTRUCTORS:
                got, want = make(fast, field, n), naive(slow, field, n)
                assert got == want and _well_typed(got) and _well_typed(want), (make.__name__, seed, n)
                assert fast.state == slow.state, (make.__name__, seed, n)


def test_grid_digest():
    lines = []
    for field in FIELDS:
        for seed in SEEDS:
            rng = SplitMix64(seed)
            for n in NS:
                for make, _ in CONSTRUCTORS:
                    lines.append(repr((make(rng, field, n), rng.state)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GRID_SHA256


def test_invertible_rejects_until_full_rank():
    """Over F_2 at n = 6 about 71% of dense draws are singular, so the
    first accepted draw comes after rejected ones: n * n draws each."""
    rng = SplitMix64(0)
    m = random_invertible(rng, FieldSpec.prime(2), 6)
    probe = SplitMix64(0)
    attempts = next(k for k in range(1, 100) if random_matrix(probe, FieldSpec.prime(2), 6) == m)
    assert attempts > 1 and probe.state == rng.state


@pytest.mark.parametrize("make", [make for make, _ in CONSTRUCTORS], ids=lambda f: f.__name__)
def test_negative_size_rejected(make):
    """A negative n is a typed error, not an endless rejection loop: no
    draw has rank n < 0."""
    with pytest.raises(InvalidInput):
        make(SplitMix64(0), FieldSpec.prime(5), -1)
