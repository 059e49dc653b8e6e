"""Typed errors: each malformed input to the public API raises InvalidInput,
or ResourceGuard for a size past its guard, and nothing untyped."""

import pytest

from borelenv import jsonio
from borelenv.decomp import ulp_decompose
from borelenv.envelope import (
    borel_from_g,
    borel_intersection_dim,
    envelope_certificate,
    witness_basis,
)
from borelenv.errors import InvalidInput, ResourceGuard
from borelenv.flags import flag_from_matrix, tangent_fiber, tangent_sum_check
from borelenv.linalg import (
    FieldSpec,
    Matrix,
    inverse,
    subspace_from_rows,
)
from borelenv.rng import SplitMix64
from borelenv.weyl import Permutation, enumerate_group, longest_element, transposition_set

from reference import solve_exact  # left the library with its last caller, the ULP split

Q = FieldSpec.rational()
I2 = Matrix.identity(Q, 2)
WIDE = Matrix.zeros(Q, 2, 3)


def from_json(obj, field=None):
    return lambda: jsonio.matrix_from_json(obj, field)


CASES = [
    ("from_rows ragged", InvalidInput, "ragged", lambda: Matrix.from_rows(Q, [[1, 2], [3]])),
    ("Matrix entry count", InvalidInput, "entry count", lambda: Matrix(Q, 2, 2, (1, 2, 3))),
    ("Matrix negative dimension", InvalidInput, "negative", lambda: Matrix(Q, -1, 0, ())),
    ("Matrix.at out of range", InvalidInput, "out of range", lambda: I2.at(2, 0)),
    ("inverse non-square", InvalidInput, "non-square", lambda: inverse(WIDE)),
    ("ulp normalization", InvalidInput, "normalization", lambda: ulp_decompose(I2, "middle")),
    ("solve_exact wrong length", InvalidInput, "length", lambda: solve_exact(I2, [1, 2, 3])),
    (
        "Subspace.contains wrong length",
        InvalidInput,
        "length",
        lambda: subspace_from_rows(2, [[1, 0]], field=Q).contains((1, 0, 0)),
    ),
    ("coerce 1/0", InvalidInput, "rational literal", lambda: Q.coerce("1/0")),
    ("matrix JSON without rows", InvalidInput, "'rows'", from_json({"field": "Q"})),
    ("matrix JSON without field", InvalidInput, "lacks a field", from_json({"rows": [[1]]})),
    ("matrix JSON rows not lists", InvalidInput, "list of lists", from_json({"rows": [1]}, Q)),
    ("matrix JSON with no rows", InvalidInput, "no rows", from_json({"rows": []}, Q)),
    ("matrix JSON float rational", InvalidInput, "rational entry", from_json({"rows": [[1.5]]}, Q)),
    ("Permutation call out of range", InvalidInput, "outside", lambda: Permutation((2, 1))(3)),
    ("transposition out of range", InvalidInput, "outside", lambda: Permutation.transposition(3, 1, 4)),
    ("longest_element at 0", InvalidInput, ">= 1", lambda: longest_element(0)),
    ("transposition_set at 0", InvalidInput, ">= 1", lambda: transposition_set(0)),
    ("enumerate_group at 0", InvalidInput, ">= 1", lambda: enumerate_group(0)),
    ("borel_from_g non-square", InvalidInput, "square", lambda: borel_from_g(WIDE)),
    ("witness_basis non-square", InvalidInput, "square", lambda: witness_basis(WIDE)),
    ("flag_from_matrix non-square", InvalidInput, "square", lambda: flag_from_matrix(WIDE)),
    ("tangent_sum_check non-square", InvalidInput, "square", lambda: tangent_sum_check(WIDE)),
    (
        "borel_intersection_dim sizes",
        InvalidInput,
        "size mismatch",
        lambda: borel_intersection_dim(Permutation.identity(2), Permutation.identity(3)),
    ),
    (
        "tangent_fiber sizes",
        InvalidInput,
        "different spaces",
        lambda: tangent_fiber(flag_from_matrix(I2), flag_from_matrix(Matrix.identity(Q, 3))),
    ),
    ("SplitMix64.below(0)", InvalidInput, "positive", lambda: SplitMix64(1).below(0)),
    (
        "restricted certificate at n = 13",
        ResourceGuard,
        "guarded",
        lambda: envelope_certificate(Matrix.identity(Q, 13), restricted=True),
    ),
]


@pytest.mark.parametrize("error, match, call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_typed_error(error, match, call):
    with pytest.raises(error, match=match):
        call()
