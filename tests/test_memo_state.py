"""Memos never change an answer: a seeded pool of operations, run in one
process with every library cache warm, gives for each operation exactly
what it gives run alone after every library ``lru_cache`` is cleared.

The pool mixes inputs that the memo keys must tell apart or may merge:
coset mates b·g (one Borel), flag mates g·b (one flag), g next to g^-1
and to (I + E_n1)·g (the same first row, another Borel), triangular
matrices (whose row and column flags are the coordinate ones
over every field), singular matrices and the same integer rows over F_p
and over Q.  Every matrix is also factored by ULP in both normalizations.
"""

import contextlib
import io
import json

from borelenv import cli, jsonio
from borelenv.decomp import ulp_decompose
from borelenv.envelope import borel_from_g, envelope_bruteforce, envelope_certificate, verify_certificate
from borelenv.errors import BorelenvError
from borelenv.flags import flag_from_matrix, relative_position, stabilizer_algebra, tangent_sum_check
from borelenv.linalg import FieldSpec, Matrix, inverse
from borelenv.rng import SplitMix64, random_invertible, random_singular, random_upper_invertible
from borelenv.weyl import enumerate_group, longest_element, perm_matrix

from conftest import library_caches

Q = FieldSpec.rational()
FIELDS = (FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.prime(101), Q)

# every library lru_cache, by name; a new one must be added here
CACHES = {
    "_row_flag_algebra", "borel_from_g", "_translate_coords", "borel_translate", "_coset_certificate",
    "_intersection_sum", "_visit_ranks", "stabilizer_algebra", "gl2_elements", "transposition_set",
    "enumerate_group", "_ulp_sweep", "_outside_coords",
}


def subspace(s) -> str:
    return repr((s.field, s.ambient_dim, s.prim_rows()))


def certificate(cert) -> str:
    return jsonio.dumps_canonical(jsonio.certificate_to_json(cert)) + repr(verify_certificate(cert))


def cli_bytes(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def matrices():
    rng = SplitMix64(601)
    for n in (2, 3, 4):
        ints = [[int(x) for x in row] for row in random_invertible(rng, Q, n).rows_list()]
        lower = [[int(i == j or (i, j) == (n - 1, 0)) for j in range(n)] for i in range(n)]
        for field in FIELDS:
            g = random_invertible(rng, field, n)
            yield from (g, random_upper_invertible(rng, field, n) @ g, g @ random_upper_invertible(rng, field, n),
                        inverse(g), Matrix.from_rows(field, lower) @ g, Matrix.from_rows(field, ints))
            yield from (Matrix.identity(field, n), perm_matrix(longest_element(n), field))
            yield random_upper_invertible(rng, field, n)
            yield random_singular(rng, field, n)


def pool(tmp_path) -> list:
    """(label, operation) pairs in a seeded shuffle; each operation returns
    its answer as a string."""
    ops, last = [], {}
    for t, m in enumerate(matrices()):
        n, key = m.nrows, (m.field, m.nrows)
        ops += [
            (f"{t} restricted", lambda m=m: certificate(envelope_certificate(m, restricted=True))),
            (f"{t} greedy", lambda m=m: certificate(envelope_certificate(m))),
            (f"{t} bruteforce", lambda m=m, n=n: subspace(envelope_bruteforce(m, enumerate_group(n)))),
            (f"{t} borel", lambda m=m: subspace(borel_from_g(m).algebra)),
            (f"{t} stab", lambda m=m: subspace(stabilizer_algebra(flag_from_matrix(m)))),
            (f"{t} tangent", lambda m=m: repr(tangent_sum_check(m))),
            # upper then lower in one op, so the cold run reads a warm sweep too
            (f"{t} ulp", lambda m=m: repr([answer(lambda k=k: repr(ulp_decompose(m, k))) for k in ("upper", "lower")])),
        ]
        if key in last:
            ops.append((f"{t} relpos", lambda a=last[key], b=m: repr(relative_position(flag_from_matrix(a),
                                                                                       flag_from_matrix(b)))))
        last[key] = m
    for t, m in enumerate(list(matrices())[:12]):
        path = tmp_path / f"m{t}.json"
        path.write_text(json.dumps(jsonio.matrix_to_json(m)))
        ops += [(f"cli {t} {cmd}", lambda argv=[*cmd.split(), "--matrix", str(path)]: cli_bytes(argv))
                for cmd in ("envelope --restricted", "tangent-sum")]
    ops.append(("cli verify", lambda: cli_bytes(["verify", "--seed", "7", "--trials", "2", "--n", "2..3",
                                                 "--fields", "fp:2,q", "--suite", "envelope,flag"])))
    rng = SplitMix64(607)
    for k in range(len(ops) - 1, 0, -1):
        j = rng.below(k + 1)
        ops[k], ops[j] = ops[j], ops[k]
    return ops


def answer(op) -> str:
    try:
        return op()
    except BorelenvError as exc:  # singular mod p, say: the error is the answer
        return f"{type(exc).__name__}: {exc}"


def clear_all():
    for memo in library_caches():
        memo.cache_clear()


def test_every_library_cache_is_found():
    assert {memo.__name__ for memo in library_caches()} == CACHES


def test_warm_answers_equal_cold_answers(tmp_path):
    ops = pool(tmp_path)
    clear_all()
    warm = [answer(op) for _, op in ops]
    mismatched = []
    for (label, op), want in zip(ops, warm):
        clear_all()
        if answer(op) != want:
            mismatched.append(label)
    assert mismatched == []
