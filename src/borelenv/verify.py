"""Seeded property suites behind ``borelenv verify`` and the acceptance tests.

Every suite is a pure function of its plan (fields, sizes, sample counts,
seed), so a fixed RunConfig produces a byte-identical report.  Trial k
draws its inputs from ``derive_stream(seed, k)`` and nothing else.  The
trials run in order on the calling thread.

The sampled criteria share one driver, ``_drive``: each supplies only its
check of one input, and one pass makes each input once (all of GL_2(F_2)
and GL_2(F_3) first where wanted), hands it to every criterion still
passing, counts in job order and stops each at its first failure; c1 and
c3 share a pass, so each g is drawn and borel(g) built once for both.  A
failure records a replayable dump: the offending input as matrix JSON plus
the (seed, offset) pair that regenerates it.  ``_fail`` is the one place a
criterion is marked failed.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import jsonio
from .decomp import _search_guard, bruhat_cell, bruhat_decompose, ulp_decompose
from .envelope import (
    FULL_GROUP_LIMIT,
    RESTRICTED_LIMIT,
    borel_from_g,
    borel_intersection_dim,
    borel_translate,
    envelope_bruteforce,
    envelope_certificate,
    verify_certificate,
    witness_basis,
)
from .errors import InvalidInput, ResourceGuard, UlpInfeasible
from .flags import _tangent_sum
from .linalg import FieldSpec, Matrix, _rank, inverse, subspace_from_rows
from .rng import derive_stream, random_invertible, random_singular, random_upper_invertible
from .weyl import (
    Permutation,
    bruhat_leq,
    enumerate_group,
    length,
    longest_element,
    transposition_set,
)

__all__ = [
    "RunConfig",
    "CriterionResult",
    "run_suites",
    "report_json",
    "SUITE_NAMES",
    "envelope_identity",
    "witness_construction",
    "restricted_envelope",
    "ulp_roundtrip",
    "bruhat_roundtrip",
    "bruhat_order_exhaustive",
    "tangent_cover",
    "intersection_dimension",
    "gl2_elements",
]

SUITE_NAMES = ("weyl", "decomp", "envelope", "flag")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    trials: int
    fields: tuple[FieldSpec, ...]
    n_range: tuple[int, int]
    mode: str = "full"  # or "restricted"

    def __post_init__(self):
        lo, hi = self.n_range
        if self.trials < 1:
            raise InvalidInput(f"trials must be at least 1, got {self.trials}")
        if not 1 <= lo <= hi <= sys.maxsize:  # a wider range has no len()
            raise InvalidInput(f"bad size range {lo}..{hi} (want 1 <= lo <= hi <= {sys.maxsize})")
        if not self.fields:
            raise InvalidInput("no field to sample")
        if self.mode not in ("full", "restricted"):
            raise InvalidInput(f"unknown mode {self.mode!r}")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "fields": [jsonio.field_to_json(f) for f in self.fields],
            "n_range": list(self.n_range),
            "mode": self.mode,
        }


@dataclass
class CriterionResult:
    name: str
    passed: bool
    counts: dict
    failures: list = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "criterion": self.name,
            "pass": self.passed,
            "counts": self.counts,
            "failures": self.failures,
        }


def _dump(name: str, field: FieldSpec, n: int, seed: int, offset: int, m: Matrix, command: str, detail: str) -> dict:
    return {
        "criterion": name,
        "field": jsonio.field_to_json(field),
        "n": n,
        "seed": seed,
        "offset": offset,
        "input": jsonio.matrix_to_json(m),
        "command": command,
        "detail": detail,
    }


def _fail(result: CriterionResult, failure: dict) -> CriterionResult:
    """Mark ``result`` failed with ``failure``; every criterion fails here."""
    result.passed = False
    result.failures.append(failure)
    return result


@lru_cache(maxsize=4)
def gl2_elements(field: FieldSpec) -> tuple[Matrix, ...]:
    """Every invertible 2x2 matrix over a (small) prime field, built once per
    field (the last four are kept); errors are raised again on every call."""
    p = field.p
    quads = itertools.product(range(p), repeat=4)
    return tuple(Matrix(field, 2, 2, q) for q in quads if (q[0] * q[3] - q[1] * q[2]) % p)


def _drive(criteria, draw, fields, ns, samples, seed, *, cycled=False, prelude=False):
    """Run sampled criteria over one job list, each up to its first failure.

    ``criteria`` lists (name, check, tallies) triples.  The jobs are every
    (field, n, k) with k < samples, or with ``cycled`` the samples count per
    field and trial k takes size ``ns[k % len(ns)]``.  Trial k's input is
    ``draw(derive_stream(seed, k), field, n, k)``; with ``prelude`` every
    element of GL_2(F_2) and GL_2(F_3) comes first, ``gl2_elements(field)[idx]``
    at offset ``-1 - idx``.  Each input is made once and handed, in order,
    to every criterion that has not failed yet, so each sees the inputs it
    would see alone.  A check returns None or a failure ``(input, command,
    detail)``, or with tallies ``(failure, counts)``, the named counts adding
    up in job order, the failing trial included.
    """
    results = [CriterionResult(name, True, dict.fromkeys(("checked", *tallies), 0)) for name, _, tallies in criteria]
    jobs = []
    if prelude:
        for field in (FieldSpec.prime(2), FieldSpec.prime(3)):
            jobs += [(field, 2, -1 - idx, g) for idx, g in enumerate(gl2_elements(field))]
    if cycled:
        jobs += [(field, ns[k % len(ns)], k, None) for field in fields for k in range(samples)]
    else:
        jobs += [(field, n, k, None) for field in fields for n in ns for k in range(samples)]

    live = list(zip(criteria, results))
    for field, n, k, x in jobs:
        if x is None:
            x = draw(derive_stream(seed, k), field, n, k)
        for (name, check, tallies), result in live:
            out = check(x)
            fail, counts = out if tallies else (out, {})
            result.counts["checked"] += 1
            for key, value in counts.items():
                result.counts[key] += value
            if fail:
                _fail(result, _dump(name, field, n, seed, k, *fail))
        if not (live := [(c, r) for c, r in live if r.passed]):
            break
    return results


def _invertible(rng, field, n, k):
    return random_invertible(rng, field, n)


# ---------------------------------------------------------------------------
# Criterion 1: the envelope identity, by brute force


def _identity_check(g: Matrix):
    if envelope_bruteforce(g, enumerate_group(g.nrows)) != borel_from_g(g).algebra:
        return g, "borelenv envelope --matrix INPUT", "brute-force envelope != borel(g)"
    return None


_IDENTITY = ("envelope-identity", _identity_check, ())


def envelope_identity(fields, ns, samples: int, seed: int) -> CriterionResult:
    return _drive([_IDENTITY], _invertible, fields, ns, samples, seed, prelude=True)[0]


# ---------------------------------------------------------------------------
# Criterion 2: the constructive witness basis


def witness_construction(fields, ns, samples: int, seed: int) -> CriterionResult:
    """Samples count per field; the size cycles through ns deterministically."""

    def check(u: Matrix):
        field, n = u.field, u.nrows
        wits = witness_basis(u)
        if len(wits) != n * (n + 1) // 2:
            return u, "", "wrong witness count"
        u_inv = inverse(u)
        for wit in wits:
            if not wit.a.is_lower_triangular():
                return u, "", f"witness {wit.i},{wit.j} not lower"
            # membership in borel(P_s @ u^-1), by conjugation
            conj = (u_inv @ wit.a @ u).permute_cols(wit.s.inverse()).permute_rows(wit.s)
            if not conj.is_upper_triangular():
                return u, "", f"witness {wit.i},{wit.j} escaped"
        span = subspace_from_rows(n * n, [list(w.a.flatten()) for w in wits], field=field)
        if span != borel_translate(longest_element(n), field):  # the lower triangular algebra
            return u, "", "witnesses do not span"
        # change of basis from the elementary matrices, in lex (i, j) order:
        # column t holds the coordinates of witness t, so entries sit on or
        # below the diagonal and the diagonal is all ones.
        pairs = [(w.i, w.j) for w in wits]
        index = {pair: t for t, pair in enumerate(pairs)}
        zero, one = field.zero(), field.one()
        for t, wit in enumerate(wits):
            coords = {(wit.i, wit.j): one}
            for off, val in enumerate(wit.x, start=1):
                coords[(wit.i, wit.j + off)] = val
            for pair, val in coords.items():
                if val == zero:
                    continue
                r = index.get(pair)
                if r is None or r < t or (r == t and val != one):
                    return u, "", "change of basis not unitriangular"
        return None

    return _drive([("witness-basis", check, ())], lambda rng, field, n, k: random_upper_invertible(rng, field, n),
                  fields, ns, samples, seed, cycled=True)[0]


# ---------------------------------------------------------------------------
# Criterion 3: the restricted translate suffices


def _restricted_check(g: Matrix):
    n = g.nrows
    cert = envelope_certificate(g, restricted=True)
    if not cert.spans:
        return g, "borelenv envelope --restricted --matrix INPUT", "restricted certificate does not span"
    if not verify_certificate(cert):
        return g, "", "certificate failed self-verification"
    allowed = {w.images for w in cert.witness_set}
    if len(allowed) != (n * n - n + 2) // 2:
        return g, "", "translate has the wrong size"
    if any(w.images not in allowed for _, w in cert.entries):
        return g, "", "tag outside the computed translate"
    return None


_RESTRICTED = ("restricted-envelope", _restricted_check, ())


def restricted_envelope(fields, ns, samples: int, seed: int) -> CriterionResult:
    return _drive([_RESTRICTED], _invertible, fields, ns, samples, seed, prelude=True)[0]


# ---------------------------------------------------------------------------
# Criterion 4: ULP factorization


def _singular_trial(k: int) -> bool:  # ulp_roundtrip's trial k draws a singular matrix
    return k % 3 != 0


def ulp_roundtrip(fields, ns, samples: int, seed: int) -> CriterionResult:
    """Samples count per field; the size cycles through ns deterministically."""

    def draw(rng, field: FieldSpec, n: int, k: int):
        if k % 6 == 2:
            return Matrix.zeros(field, n, n)
        return random_singular(rng, field, n) if _singular_trial(k) else random_invertible(rng, field, n)

    def check(m: Matrix):
        outcomes = {"upper_checked": 0, "upper_infeasible": 0}
        for normalization in ("lower", "upper"):
            try:
                factors = ulp_decompose(m, normalization)
            except UlpInfeasible:
                if normalization == "lower":
                    return (m, "borelenv decomp --kind ulp --matrix INPUT",
                            "unipotent-lower reported infeasible"), outcomes
                if _rank(m) == m.nrows:
                    return (m, "", "infeasible on an invertible input"), outcomes
                outcomes["upper_infeasible"] += 1
                continue
            # ulp_decompose validates triangularity, normalization and the
            # recomposition internally; re-assert the recomposition here so
            # this suite does not lean on the library's own checks.
            if factors.recompose() != m:
                return (m, "", "recomposition mismatch"), outcomes
            if normalization == "upper":
                outcomes["upper_checked"] += 1
        return None, outcomes

    criterion = ("ulp-roundtrip", check, ("upper_checked", "upper_infeasible"))
    return _drive([criterion], draw, fields, ns, samples, seed, cycled=True)[0]


# ---------------------------------------------------------------------------
# Criterion 5: Bruhat factorization and the cell label


def bruhat_roundtrip(fields, ns, samples: int, seed: int) -> CriterionResult:
    """Samples count per field; the size cycles through ns deterministically."""
    cmd = "borelenv decomp --kind bruhat --matrix INPUT"

    def draw(rng, field: FieldSpec, n: int, k: int):
        g = random_invertible(rng, field, n)
        return g, random_upper_invertible(rng, field, n), random_upper_invertible(rng, field, n)

    def check(drawn):
        g, b1, b2 = drawn
        factors = bruhat_decompose(g)
        if factors.recompose() != g:
            return g, cmd, "recomposition mismatch"
        if not factors.u1.is_upper_triangular() or not factors.u2.is_upper_triangular():
            return g, cmd, "factor not upper triangular"
        if factors.s != bruhat_cell(g):
            return g, cmd, "cell label disagrees with corner ranks"
        if bruhat_decompose(b1 @ g @ b2).s != factors.s:
            return g, cmd, "cell label not a two-sided invariant"
        return None

    return _drive([("bruhat-roundtrip", check, ())], draw, fields, ns, samples, seed, cycled=True)[0]


# ---------------------------------------------------------------------------
# Criterion 6: Bruhat order against the subword oracle
#
# Every ordered pair of S_n, n <= max_n, is compared with the subword
# oracle, built once per w; then the partial-order axioms are checked on the
# relation, u outer and w inner.  Transitivity through w is one set test:
# up[w] <= up[u], where up[u] = {v : u <= v}.


def _reduced_word(w: Permutation) -> tuple[int, ...]:
    img = list(w.images)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(img) - 1):
            if img[i] > img[i + 1]:
                img[i], img[i + 1] = img[i + 1], img[i]
                word.append(i + 1)  # s_i swaps positions i, i+1 (1-based)
                changed = True
                break
    return tuple(reversed(word))


def _subword_set(w: Permutation) -> set[tuple[int, ...]]:
    """Image tuples of every u <= w: the products of the subwords of a fixed
    reduced word of w in which each letter raises the length, i.e. of its
    reduced subwords.  Exponential, used only as an oracle for small n.

    Right-multiplying by s_g swaps image positions g and g+1 and raises the
    length iff img[g-1] < img[g].
    """
    found = {tuple(range(1, w.n + 1))}
    for g in _reduced_word(w):
        for img in list(found):
            if img[g - 1] < img[g]:
                found.add(img[:g - 1] + (img[g], img[g - 1]) + img[g + 1:])
    return found


def bruhat_order_exhaustive(max_n: int = 4) -> CriterionResult:
    name = "bruhat-order"
    result = CriterionResult(name, True, {"pairs": 0})
    for n in range(1, max_n + 1):
        group = enumerate_group(n)
        below = {w.images: _subword_set(w) for w in group}
        up = {u.images: set() for u in group}
        for u in group:
            for w in group:
                got = bruhat_leq(u, w)
                if got:
                    up[u.images].add(w.images)
                result.counts["pairs"] += 1
                if got != (u.images in below[w.images]):
                    return _fail(result, {"criterion": name, "n": n, "detail": f"disagreement at {u} vs {w}"})
        for u in group:
            above_u = up[u.images]
            if u.images not in above_u:
                return _fail(result, {"criterion": name, "n": n, "detail": f"not reflexive at {u}"})
            for w in group:
                if w.images not in above_u:
                    continue
                if u.images in up[w.images] and u != w:
                    return _fail(result, {"criterion": name, "n": n, "detail": "antisymmetry fails"})
                if not up[w.images] <= above_u:
                    return _fail(result, {"criterion": name, "n": n, "detail": "transitivity fails"})
    return result


# ---------------------------------------------------------------------------
# Criterion 7: tangent spaces over the coordinate flags


def tangent_cover(fields, ns, samples: int, seed: int) -> CriterionResult:
    cmd = "borelenv tangent-sum --matrix INPUT"

    def check(h: Matrix):
        holds, stab, _ = _tangent_sum(h)
        if not holds:
            return h, cmd, "tangent sum does not cover"
        # The sum is the envelope sum of stab, so with holds the bridge
        # stab(flag(h)) = borel(h^-1) ties it to the envelope identity.
        if stab != borel_from_g(inverse(h)).algebra:
            return h, cmd, "bridge to envelope oracle fails"
        return None

    return _drive([("tangent-cover", check, ())], _invertible, fields, ns, samples, seed, prelude=True)[0]


# ---------------------------------------------------------------------------
# Criterion 8: the intersection dimension law


def intersection_dimension(max_n: int = 4) -> CriterionResult:
    name = "intersection-dimension"
    result = CriterionResult(name, True, {"checked": 0})
    for n in range(1, max_n + 1):
        e = Permutation.identity(n)
        for w in enumerate_group(n):
            expected = n * (n + 1) // 2 - length(w)
            got = borel_intersection_dim(e, w)
            result.counts["checked"] += 1
            if got != expected:
                return _fail(result, {"criterion": name, "n": n,
                                      "detail": f"dim at {w}: got {got}, expected {expected}"})
    return result


# ---------------------------------------------------------------------------
# Suite runner


def _suite_weyl(config: RunConfig, ns) -> list[CriterionResult]:
    out = [bruhat_order_exhaustive(max_n=4)]
    sizes = CriterionResult("transposition-set-size", True, {"checked": 0})
    for n in range(1, 9):
        if len(transposition_set(n)) != (n * n - n + 2) // 2:
            _fail(sizes, {"criterion": sizes.name, "n": n, "detail": "wrong size"})
            break
        sizes.counts["checked"] += 1
    out.append(sizes)
    return out


def _suite_decomp(config: RunConfig, ns) -> list[CriterionResult]:
    return [
        ulp_roundtrip(config.fields, ns, config.trials, config.seed),
        bruhat_roundtrip(config.fields, ns, config.trials, config.seed),
    ]


def _suite_envelope(config: RunConfig, ns) -> list[CriterionResult]:
    if config.mode == "restricted":
        return [restricted_envelope(config.fields, ns, config.trials, config.seed)]
    # c1 and c3 check each g in one pass: g is drawn once, and c3's
    # borel_from_g(g) finds the entry c1 has just made
    c1, c3 = _drive([_IDENTITY, _RESTRICTED], _invertible, config.fields, ns, config.trials, config.seed, prelude=True)
    return [c1, witness_construction(config.fields, ns, config.trials, config.seed), c3, intersection_dimension(max_n=4)]


def _suite_flag(config: RunConfig, ns) -> list[CriterionResult]:
    return [tangent_cover(config.fields, ns, config.trials, config.seed)]


# suite -> (function, smallest n, largest n or None); weyl ignores its sizes
_SUITES = {
    "weyl": (_suite_weyl, 1, None),
    "decomp": (_suite_decomp, 1, None),
    "envelope": (_suite_envelope, 2, None),
    "flag": (_suite_flag, 2, 4),
}


def _sizes(config: RunConfig, name: str) -> range:
    _, least, most = _SUITES[name]
    lo, hi = config.n_range
    ns = range(max(least, lo), (hi if most is None else min(most, hi)) + 1)  # lazy: --n may be wide
    if not ns:
        raise InvalidInput(f"size range {lo}..{hi} leaves the {name} suite no size")
    if name == "decomp":  # a singular ULP draw past the search limit would stop it mid-run
        for n in (ns[k % len(ns)] for k in range(config.trials) if _singular_trial(k)):
            _search_guard(n)
    if name == "envelope":
        # its first criterion runs every size, so a size past its guard
        # would stop the run only after the earlier suites
        what, limit = (("restricted certificates", RESTRICTED_LIMIT) if config.mode == "restricted"
                       else ("envelope_bruteforce", FULL_GROUP_LIMIT))
        if hi > limit:
            raise ResourceGuard(f"{what} guarded at n <= {limit}")
    return ns


def run_suites(config: RunConfig, suites=("all",), threads: int = 1) -> dict:
    """Run the chosen suites and return the canonical report.

    Unknown suites, and suites that ``config.n_range`` leaves no size, raise
    InvalidInput, and a size past the envelope suite's guard or decomp's ULP
    search limit raises ResourceGuard, before any suite runs.  ``threads``
    is ignored: the trials run on the calling thread.
    """
    unknown = sorted(set(suites) - {"all", *SUITE_NAMES})
    if unknown or not suites:
        raise InvalidInput(f"unknown suite {unknown} (want all or {', '.join(SUITE_NAMES)})")
    chosen = list(SUITE_NAMES) if "all" in suites else [s for s in SUITE_NAMES if s in suites]
    plan = [(name, _sizes(config, name)) for name in chosen]
    report = {"config": config.to_json(), "suites": [], "pass": True}
    for suite_name, ns in plan:
        results = _SUITES[suite_name][0](config, ns)
        report["suites"].append(
            {"suite": suite_name, "criteria": [r.to_json() for r in results]}
        )
        if any(not r.passed for r in results):
            report["pass"] = False
    return report


def report_json(report: dict) -> str:
    return jsonio.dumps_canonical(report)
