"""borelenv: exact linear algebra for Borel subalgebras of gl_n.

The package computes, over Q or any prime field, the span identity that
recovers a Borel subalgebra from its intersections with the coordinate
Borels, together with the matrix factorizations (Bruhat, ULP), flag
combinatorics (relative position) and tangent-space calculations that
surround it.  Everything is exact: subspaces live in canonical
reduced-echelon form and all equality checks are bitwise.
"""

from .decomp import BruhatFactors, UlpFactors, bruhat_cell, bruhat_decompose, ulp_decompose
from .envelope import (
    BorelConjugate,
    DevissageWitness,
    EnvelopeCertificate,
    borel_from_g,
    borel_intersection_dim,
    borel_translate,
    envelope_bruteforce,
    envelope_certificate,
    verify_certificate,
    witness_basis,
)
from .errors import (
    BorelenvError,
    ContractViolation,
    InvalidInput,
    NotInvertible,
    ResourceGuard,
    UlpInfeasible,
)
from .flags import (
    Flag,
    TangentSpaceFiber,
    dpi2,
    flag_from_matrix,
    relative_position,
    stabilizer_algebra,
    tangent_fiber,
    tangent_sum_check,
)
from .linalg import (
    FieldSpec,
    Matrix,
    Subspace,
    inverse,
    kernel,
    rref,
    subspace_from_rows,
    subspace_intersect,
)
from .weyl import (
    Permutation,
    bruhat_leq,
    compose,
    enumerate_group,
    length,
    longest_element,
    perm_matrix,
    transposition_set,
)

__version__ = "0.1.0"
