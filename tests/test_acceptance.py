"""Acceptance suite: every headline property at its full sample plan.

One test per criterion; each prints a single PASS/FAIL line.  All checks
are exact (the arithmetic is exact, so there are no tolerances to tune).
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from borelenv.cli import main
from borelenv.linalg import FieldSpec
from borelenv.verify import (
    RunConfig,
    bruhat_order_exhaustive,
    bruhat_roundtrip,
    envelope_identity,
    intersection_dimension,
    report_json,
    restricted_envelope,
    run_suites,
    tangent_cover,
    ulp_roundtrip,
    witness_construction,
)

SEED = 20240611

ALL_FIELDS = (
    FieldSpec.prime(2),
    FieldSpec.prime(3),
    FieldSpec.prime(5),
    FieldSpec.prime(101),
    FieldSpec.rational(),
)
TANGENT_FIELDS = (
    FieldSpec.prime(2),
    FieldSpec.prime(3),
    FieldSpec.prime(5),
    FieldSpec.rational(),
)


def _report(tag, result, t0):
    status = "PASS" if result.passed else "FAIL"
    line = f"ACCEPTANCE {tag}: {status} counts={result.counts} ({time.time() - t0:.1f}s)"
    print(line, flush=True)
    assert result.passed, (line, result.failures[:1])


def test_criterion_1_envelope_identity():
    # exhaustive over GL_2(F_2) and GL_2(F_3), then 300 seeded samples per
    # field for each n in {3, 4, 5}
    t0 = time.time()
    result = envelope_identity(ALL_FIELDS, (3, 4, 5), 300, SEED)
    _report("1 envelope-identity", result, t0)
    assert result.counts["checked"] == 6 + 48 + 300 * len(ALL_FIELDS) * 3


def test_criterion_2_witness_basis():
    # 200 seeded upper-triangular invertible inputs per field, sizes 2..6
    t0 = time.time()
    result = witness_construction(ALL_FIELDS, (2, 3, 4, 5, 6), 200, SEED)
    _report("2 witness-basis", result, t0)
    assert result.counts["checked"] == 200 * len(ALL_FIELDS)


def test_criterion_3_restricted_envelope():
    # same sample plan as criterion 1, certificates over the small translate
    t0 = time.time()
    result = restricted_envelope(ALL_FIELDS, (3, 4, 5), 300, SEED)
    _report("3 restricted-envelope", result, t0)
    assert result.counts["checked"] == 6 + 48 + 300 * len(ALL_FIELDS) * 3


def test_criterion_4_ulp():
    # 500 per field cycling n in 1..6, forced-singular and zero included;
    # both normalizations are exercised and the unipotent-upper cases that
    # provably admit no factorization are counted, never faked
    t0 = time.time()
    result = ulp_roundtrip(ALL_FIELDS, (1, 2, 3, 4, 5, 6), 500, SEED)
    _report("4 ulp-roundtrip", result, t0)
    assert result.counts["checked"] == 500 * len(ALL_FIELDS)
    # the verdicts of the complete permutation search, pinned: deciding
    # infeasibility by rank tests must not move a single one
    assert result.counts == {"checked": 2500, "upper_checked": 2419, "upper_infeasible": 81}


def test_criterion_5_bruhat():
    # 500 per field cycling n in 1..6: recomposition, two-sided invariance,
    # agreement with the rank-based cell label
    t0 = time.time()
    result = bruhat_roundtrip(ALL_FIELDS, (1, 2, 3, 4, 5, 6), 500, SEED)
    _report("5 bruhat-roundtrip", result, t0)
    assert result.counts["checked"] == 500 * len(ALL_FIELDS)


def test_criterion_6_bruhat_order():
    # subword-oracle agreement on all ordered pairs for n <= 4 (576 pairs
    # at n = 4) plus the partial-order axioms
    t0 = time.time()
    result = bruhat_order_exhaustive(max_n=4)
    _report("6 bruhat-order", result, t0)
    assert result.counts["pairs"] == 1 + 4 + 36 + 576


def test_criterion_7_tangent_cover():
    # exhaustive over GL_2(F_2) and GL_2(F_3), then 200 seeded samples per
    # field for each n in {3, 4}; each input checks that the intersection
    # sum covers stab(flag(h)) and the bridge stab(flag(h)) = borel(h^-1)
    t0 = time.time()
    result = tangent_cover(TANGENT_FIELDS, (3, 4), 200, SEED)
    _report("7 tangent-cover", result, t0)
    assert result.counts["checked"] == 6 + 48 + 200 * len(TANGENT_FIELDS) * 2


def test_criterion_8_intersection_dimension():
    t0 = time.time()
    result = intersection_dimension(max_n=4)
    _report("8 intersection-dimension", result, t0)
    assert result.counts["checked"] == 1 + 2 + 6 + 24


def test_criterion_9_determinism(capsys):
    # a fixed RunConfig produces byte-identical reports across repeated runs,
    # via the library (at any ignored thread count) and via the CLI
    t0 = time.time()
    config = RunConfig(SEED, 5, (FieldSpec.prime(3), FieldSpec.rational()), (2, 4), "full")
    r1 = report_json(run_suites(config, threads=1))
    r2 = report_json(run_suites(config, threads=1))
    r4 = report_json(run_suites(config, threads=4))
    ok = r1 == r2 == r4

    args = ["verify", "--seed", "9", "--trials", "3", "--fields", "fp:2,q",
            "--n", "2..3", "--suite", "decomp,envelope"]
    assert main(args) == 0
    cli_one = capsys.readouterr().out
    assert main(args) == 0
    cli_two = capsys.readouterr().out
    ok = ok and cli_one == cli_two

    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE 9 determinism: {status} ({time.time() - t0:.1f}s)", flush=True)
    assert ok
