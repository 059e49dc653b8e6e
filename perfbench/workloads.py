"""The four benchmark workloads: seeded inputs, the op they go through, and
the checks that decide whether the op passed.

An op raises :class:`Failure` when a check fails and otherwise returns
``(digest, steps)``: ``digest`` is the sha256 of its canonical output, and
``steps`` lists ``(call, field, n, seconds)`` for the library calls that
ROADMAP's baseline table reports.

All library access goes through ``lib``, a namespace of freshly imported
``borelenv`` modules, and every call looks its function up on the module
at call time, so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# Fields follow the suites' traffic: F_2, F_3, F_5, F_101 and Q.  Every prime
# here is far below 3,037,000,499, above which rref_fp overflows int64.
ENVELOPE_Q_CELLS = [(None, 4), (None, 5)]
ENVELOPE_FP_CELLS = [(p, n) for p in (2, 5, 101) for n in (4, 5)]
FACTOR_FIELDS = (2, 5, 101, None)
# n = 6 is left out: its singular inputs can need the full 720-permutation
# search for a unipotent-upper ULP (1 to 1.5 s over Q, about one singular
# input in twenty), so a handful of inputs would decide a run's throughput.
FACTOR_SIZES = (1, 2, 3, 4, 5)

# ``borelenv verify`` at its defaults except --trials, so that one op takes
# well under a second and a run holds enough ops for a tail percentile.
VERIFY_FIELDS = (2, 3, 5, None)
VERIFY_TRIALS = 1
VERIFY_N_RANGE = (2, 4)


class Failure(Exception):
    """An op's output failed a check."""


def _check(cond: bool, detail: str):
    if not cond:
        raise Failure(detail)


def _sha(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def _field(lib, p):
    return lib.linalg.FieldSpec.rational() if p is None else lib.linalg.FieldSpec.prime(p)


def field_label(field) -> str:
    return "Q" if field.p is None else f"F_{field.p}"


def _stringify(obj):
    if isinstance(obj, tuple):
        return tuple(_stringify(x) for x in obj)
    return str(obj)


# ---------------------------------------------------------------------------
# envelope-q / envelope-fp


def _envelope_inputs(lib, seed: int, cells, rounds: int) -> list:
    """``rounds`` rounds, each one invertible matrix for every (field, n).

    A round is one op.  n = 4 and n = 5 differ in cost by 4x, so ops of a
    single matrix would have a two-humped latency whose median falls in the
    gap; a round's latency has one hump.
    """
    fields = {p: _field(lib, p) for p, _ in cells}
    out = []
    for k in range(rounds):
        batch = []
        for c, (p, n) in enumerate(cells):
            rng = lib.rng.derive_stream(seed, k * len(cells) + c)
            batch.append((fields[p], n, lib.rng.random_invertible(rng, fields[p], n)))
        out.append(tuple(batch))
    return out


def _envelope_one(lib, field, n, g, steps: list) -> str:
    env = lib.envelope
    t0 = perf_counter()
    full = env.envelope_bruteforce(g, lib.weyl.enumerate_group(n))
    t1 = perf_counter()
    algebra = env.borel_from_g(g).algebra
    _check(algebra.dim == n * (n + 1) // 2, "borel(g) has the wrong dimension")
    _check(full == algebra, "brute-force envelope != borel(g)")
    t2 = perf_counter()
    cert = env.envelope_certificate(g, restricted=True)
    t3 = perf_counter()
    _check(cert.spans, "restricted certificate does not span")
    # the CLI re-checks every certificate it prints
    _check(env.verify_certificate(cert), "certificate failed verification")
    label = field_label(field)
    steps.append(("envelope_bruteforce", label, n, t1 - t0))
    steps.append(("envelope_certificate", label, n, t3 - t2))
    entries = [(tuple(str(x) for x in vec), w.images) for vec, w in cert.entries]
    return repr((label, n, full.prim_rows(), entries, cert.spans))


def _envelope_op(lib, batch):
    steps = []
    text = "".join(_envelope_one(lib, field, n, g, steps) for field, n, g in batch)
    return _sha(text), steps


# ---------------------------------------------------------------------------
# factor


def _factor_inputs(lib, seed: int, per_field: int) -> list:
    """Square matrices with n cycling through FACTOR_SIZES; as in the ULP
    suite, two thirds are singular and one sixth are zero matrices."""
    fields = [_field(lib, p) for p in FACTOR_FIELDS]
    out = []
    for k in range(per_field):
        n = FACTOR_SIZES[k % len(FACTOR_SIZES)]
        for c, field in enumerate(fields):
            rng = lib.rng.derive_stream(seed, k * len(fields) + c)
            kind = k % 3
            if kind == 0:
                m = lib.rng.random_invertible(rng, field, n)
            elif kind == 2 and k % 6 == 2:
                m = lib.linalg.Matrix.zeros(field, n, n)
            else:
                m = lib.rng.random_singular(rng, field, n)
            out.append((field, n, kind == 0, m))
    return out


def _triangular(mat, upper: bool) -> bool:
    n = mat.nrows
    zero = mat.field.zero()
    return all(
        mat.entries[i * n + j] == zero
        for i in range(n)
        for j in range(n)
        if (j < i if upper else j > i)
    )


def _factor_op(lib, inp):
    field, n, invertible, m = inp
    parts = [field_label(field), n]
    one = field.one()
    for normalization in ("lower", "upper"):
        try:
            f = lib.decomp.ulp_decompose(m, normalization)
        except lib.errors.UlpInfeasible:
            _check(normalization == "upper", "unipotent-lower ULP reported infeasible")
            _check(not invertible, "ULP reported infeasible on an invertible input")
            parts.append("infeasible")
            continue
        _check(f.recompose() == m, f"ULP ({normalization}) recomposition mismatch")
        _check(_triangular(f.u, True) and _triangular(f.l, False), "ULP factor not triangular")
        named = f.u if normalization == "upper" else f.l
        _check(all(named.entries[i * n + i] == one for i in range(n)), "ULP factor not unipotent")
        parts.append((f.u.entries, f.l.entries, f.p.images))
    if invertible:
        b = lib.decomp.bruhat_decompose(m)
        _check(b.recompose() == m, "Bruhat recomposition mismatch")
        _check(_triangular(b.u1, True) and _triangular(b.u2, True), "Bruhat factor not upper")
        _check(b.s == lib.decomp.bruhat_cell(m), "Bruhat cell label disagrees with corner ranks")
        parts.append((b.u1.entries, b.s.images, b.u2.entries))
    return _sha(repr(_stringify(tuple(parts)))), []


def _factor_warmup(_lib, pool):
    """The first input of each (field, n)."""
    seen = {}
    for inp in pool:
        seen.setdefault((field_label(inp[0]), inp[1]), inp)
    return list(seen.values())


# ---------------------------------------------------------------------------
# verify


def verify_config(lib, seed: int):
    fields = tuple(_field(lib, p) for p in VERIFY_FIELDS)
    return lib.verify.RunConfig(seed, VERIFY_TRIALS, fields, VERIFY_N_RANGE, "full")


def verify_cli_args(seed: int) -> list[str]:
    """The ``borelenv verify`` arguments that run the same config as the op."""
    return ["verify", "--seed", str(seed), "--trials", str(VERIFY_TRIALS)]


def _verify_inputs(lib, seed: int, count: int) -> list:
    """Config seeds for successive ops, each derived from the workload seed."""
    return [lib.rng.derive_stream(seed, k).next_u64() >> 1 for k in range(count)]


def _verify_op(lib, config_seed):
    report = lib.verify.run_suites(verify_config(lib, config_seed), suites=("all",), threads=1)
    text = lib.verify.report_json(report)
    _check(report["pass"] is True, "verify report did not pass")
    return _sha(text), []


def _verify_warmup(lib, pool):
    """One op on a seed outside the pool: it fills the coordinate-flag caches."""
    return [lib.rng.derive_stream(pool[0], 1).next_u64() >> 1]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``inputs(lib, seed)`` builds the input pool, a distinct input for every
    op a run makes at the seed commit's speed; the timed loop takes them in
    order and starts over if it runs out.  The first ``digest_ops`` inputs
    feed results_sha256.  ``tail_q`` is the percentile reported as
    op_ms_tail; a run completes enough ops to leave at least ten beyond it.
    ``warmup(lib, pool)`` gives the inputs of the set-up's warm-up ops, one
    per (field, n).
    """

    name: str
    inputs: Callable
    op: Callable
    warmup: Callable
    digest_ops: int
    tail_q: float

    @property
    def min_ops(self) -> int:
        return round(10 / (1 - self.tail_q))

    @property
    def tail_label(self) -> str:
        return f"p{round(self.tail_q * 100)}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "envelope-q",
            lambda lib, seed: _envelope_inputs(lib, seed, ENVELOPE_Q_CELLS, 250),
            _envelope_op, lambda lib, pool: pool[:1], digest_ops=8, tail_q=0.90,
        ),
        Workload(
            "envelope-fp",
            lambda lib, seed: _envelope_inputs(lib, seed, ENVELOPE_FP_CELLS, 250),
            _envelope_op, lambda lib, pool: pool[:1], digest_ops=6, tail_q=0.90,
        ),
        Workload(
            "factor",
            lambda lib, seed: _factor_inputs(lib, seed, 3000),
            _factor_op, _factor_warmup, digest_ops=240, tail_q=0.98,
        ),
        Workload(
            "verify",
            lambda lib, seed: _verify_inputs(lib, seed, 1000),
            _verify_op, _verify_warmup, digest_ops=4, tail_q=0.75,
        ),
    )
}
