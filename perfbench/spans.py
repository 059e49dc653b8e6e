"""Spans and counters for the traced run, installed from outside the package.

The tracer wraps library functions by rebinding every module-level name
that refers to them (``borelenv.linalg.rref_fp``, ``borelenv.envelope.
subspace_intersect``, ...) and by replacing class attributes (``Matrix.
__matmul__``, ``FieldSpec.coerce``, ``SpanAccumulator.add_rows``,
``BorelConjugate.algebra``).  Nothing inside ``src/`` changes.

Each wrapped call becomes a span (name, start, end, parent, op id) kept in
memory.  A span's self time is its duration minus the time its child spans
cover; the tracer's own bookkeeping inside a child is charged to the child,
so a parent's self time excludes it.  Counted-only functions (``coerce``,
``from_rows``, ...) get a call counter and no span.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from fractions import Fraction
from math import gcd
from time import perf_counter_ns

MODULES = ("_kernel", "linalg", "weyl", "decomp", "envelope", "flags", "rng", "verify")

# (metric name, module, attribute path): functions that get a span
SPANNED = [
    ("kernel.rref_q_int", "_kernel", "rref_q_int"),
    ("kernel.rref_fp", "_kernel", "rref_fp"),
    ("kernel.reduce_row_q", "_kernel", "reduce_row_q"),
    ("kernel.reduce_row_fp", "_kernel", "reduce_row_fp"),
    ("linalg.subspace_intersect", "linalg", "subspace_intersect"),
    ("linalg.SpanAccumulator.add_rows", "linalg", "SpanAccumulator.add_rows"),
    ("linalg.Matrix.matmul", "linalg", "Matrix.__matmul__"),
    ("linalg.inverse", "linalg", "inverse"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.kernel", "linalg", "kernel"),
    ("linalg.subspace_from_rows", "linalg", "subspace_from_rows"),
    ("envelope.envelope_bruteforce", "envelope", "envelope_bruteforce"),
    ("envelope.verify_certificate", "envelope", "verify_certificate"),
    ("envelope.envelope_certificate", "envelope", "envelope_certificate"),
    ("envelope.witness_basis", "envelope", "witness_basis"),
    ("envelope.BorelConjugate.algebra", "envelope", "BorelConjugate.algebra"),
    ("decomp.ulp_decompose", "decomp", "ulp_decompose"),
    ("decomp.bruhat_decompose", "decomp", "bruhat_decompose"),
    ("decomp.bruhat_cell", "decomp", "bruhat_cell"),
    ("flags._tangent_sum", "flags", "_tangent_sum"),
    ("flags.tangent_fiber", "flags", "tangent_fiber"),
    ("flags.dpi2", "flags", "dpi2"),
    ("flags.stabilizer_algebra", "flags", "stabilizer_algebra"),
    ("weyl.bruhat_leq", "weyl", "bruhat_leq"),
    ("rng.random_invertible", "rng", "random_invertible"),
    ("verify.run_suites", "verify", "run_suites"),
    ("verify.report_json", "verify", "report_json"),
]

# functions that only get a call counter
COUNTED = [
    ("kernel.clear_denominators", "_kernel", "clear_denominators"),
    ("kernel.fracs_from_primitive", "_kernel", "fracs_from_primitive"),
    ("linalg.Matrix.from_rows", "linalg", "Matrix.from_rows"),
    ("linalg.FieldSpec.coerce", "linalg", "FieldSpec.coerce"),
    ("flags.flag_from_matrix", "flags", "flag_from_matrix"),
    ("weyl.enumerate_group", "weyl", "enumerate_group"),
    ("weyl.perm_matrix", "weyl", "perm_matrix"),
]

# subspace_intersect's two coordinate fast paths; _coordinate_subspace is
# rebound in linalg only, where subspace_intersect is its sole caller
_COORD_PATHS = ("_intersect_with_coordinates", "_coordinate_subspace")

# the verify driver reports self time only
_ONLY_SELF = {"verify.run_suites", "verify.report_json"}

ORACLE_STRIDE = 7  # record every 7th kernel call ...
ORACLE_CAP = 120  # ... up to this many per kernel
SPAN_CAP = 200_000  # spans kept for the trace file; aggregates cover every span


def library_modules(lib):
    """Every loaded module of the package, the package itself included."""
    root = lib.linalg.__name__.rpartition(".")[0]
    return [m for name, m in list(sys.modules.items()) if name == root or name.startswith(root + ".")]


def rebind(modules, original, replacement) -> list:
    """Point every module-level name bound to ``original`` at ``replacement``.

    Returns the (module, name, value) triples that undo the change.
    """
    undo = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, value))
    return undo


def _resolve(lib, module: str, path: str):
    owner = getattr(lib, module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.spans_total = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.kernel_samples = {"rref_q_int": [], "rref_fp": []}
        self.op = -1
        self._stack: list = []
        self._undo: list = []
        self._caches = {}
        self._cache_base = {}

    # -- installation ------------------------------------------------------

    def install(self):
        lib = self.lib
        mods = library_modules(lib)
        # the lru_caches whose hit ratios are reported, taken before wrapping
        self._caches = {
            "envelope.borel_translate": lib.envelope.borel_translate,
            "flags.stabilizer_algebra": lib.flags.stabilizer_algebra,
        }
        self._cache_base = {key: f.cache_info() for key, f in self._caches.items()}
        extras = {
            "kernel.rref_q_int": self._after_rref_q,
            "kernel.rref_fp": self._after_rref_fp,
            "linalg.SpanAccumulator.add_rows": self._after_add_rows,
        }
        for name, module, path in SPANNED:
            self._wrap(mods, module, path, lambda fn, name=name: self._spanned(name, fn, extras.get(name)))
        for name, module, path in COUNTED:
            self._wrap(mods, module, path, lambda fn, name=name: self._counted(name, fn))
        for path in _COORD_PATHS:
            self._wrap([lib.linalg], "linalg", path, lambda fn, path=path: self._counted(path, fn))

    def _wrap(self, mods, module, path, make):
        owner, attr = _resolve(self.lib, module, path)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, functools.cached_property):
                new = functools.cached_property(make(raw.func))
                new.__set_name__(owner, attr)
            elif isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
        else:
            fn = getattr(owner, attr)
            self._undo += rebind(mods, fn, make(fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name, fn, after):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        infeasible = self.lib.errors.UlpInfeasible

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            # a span's id is its index in the span arrays
            sid = self.spans_total
            self.spans_total += 1
            if sid < SPAN_CAP:
                self.span_name.append(nid)
                self.span_start.append(0)
                self.span_end.append(0)
                self.span_parent.append(stack[-1][1] if stack else -1)
                self.span_op.append(self.op)
            frame = [0, sid, name]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                if isinstance(exc, infeasible):
                    self.counts[name + ".infeasible"] += 1
                self._close(name, frame, start, end)
                raise
            end = perf_counter_ns()
            if after is not None:
                after(args, result)
            self._close(name, frame, start, end)
            return result

        return spanned

    def _close(self, name, frame, start, end):
        stack = self._stack
        stack.pop()
        self.calls[name] += 1
        self.self_ns[name] += end - start - frame[0]
        sid = frame[1]
        if sid < SPAN_CAP:
            self.span_start[sid] = start
            self.span_end[sid] = end
        if stack:
            parent = stack[-1]
            # the parent's child time includes this wrapper's bookkeeping
            parent[0] += perf_counter_ns() - start
            if name == "linalg.subspace_intersect" and parent[2] == "envelope.envelope_bruteforce":
                self.counts["bruteforce_depth"] += 1

    def _sample(self, kernel: str, record):
        samples = self.kernel_samples[kernel]
        n = self.counts[kernel + ".seen"]
        self.counts[kernel + ".seen"] = n + 1
        if n % ORACLE_STRIDE == 0 and len(samples) < ORACLE_CAP:
            samples.append(record())

    def _after_rref_q(self, args, result):
        irows, width = args[0], args[1]
        self.counts["rref_q_int.cells"] += len(irows) * width
        prim = result[0]
        if prim:
            top = max(max(map(abs, row)) for row in prim)
            if top.bit_length() > self.counts["rref_q_int.bits_max"]:
                self.counts["rref_q_int.bits_max"] = top.bit_length()
        self._sample("rref_q_int", lambda: ([tuple(r) for r in irows], width, result))

    def _after_rref_fp(self, args, result):
        rows, width, p = args[0], args[1], args[2]
        self.counts["rref_fp.cells"] += len(rows) * width
        self._sample("rref_fp", lambda: ([tuple(r) for r in rows], width, p, result))

    def _after_add_rows(self, args, result):
        if result:
            self.counts["add_rows.grew"] += 1

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-op means of calls and self time, plus the layer ratios."""
        out = {}

        def per_op(x):
            return x / ops if ops else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        for name, _, _ in SPANNED:
            if name not in _ONLY_SELF:
                out[f"{name}.calls"] = per_op(self.calls[name])
            out[f"{name}.self_ms"] = per_op(self.self_ns[name] / 1e6)
        for name, _, _ in COUNTED:
            out[f"{name}.calls"] = per_op(self.counts[name])
        c = self.counts
        out["kernel.rref_q_int.cells"] = per_op(c["rref_q_int.cells"])
        out["kernel.rref_q_int.bits_max"] = c["rref_q_int.bits_max"]
        out["kernel.rref_fp.cells"] = per_op(c["rref_fp.cells"])
        coord = sum(c[p] for p in _COORD_PATHS)
        out["linalg.subspace_intersect.coord_ratio"] = ratio(coord, self.calls["linalg.subspace_intersect"])
        out["linalg.SpanAccumulator.add_rows.grow_ratio"] = ratio(
            c["add_rows.grew"], self.calls["linalg.SpanAccumulator.add_rows"]
        )
        out["envelope.envelope_bruteforce.depth"] = ratio(
            c["bruteforce_depth"], self.calls["envelope.envelope_bruteforce"]
        )
        out["decomp.ulp_decompose.infeasible_ratio"] = ratio(
            c["decomp.ulp_decompose.infeasible"], self.calls["decomp.ulp_decompose"]
        )
        for key, func in self._caches.items():
            now, base = func.cache_info(), self._cache_base[key]
            hits, misses = now.hits - base.hits, now.misses - base.misses
            out[f"{key}.hit_ratio"] = ratio(hits, hits + misses)
        for m in MODULES:
            total = sum(self.self_ns[name] for name, mod, _ in SPANNED if mod == m)
            out[f"{m.lstrip('_')}.self_ms"] = per_op(total / 1e6)
        return out

    def write(self, path, ops: int):
        """Write the kept spans as gzipped column arrays."""
        data = {
            "names": self.names,
            "ops": ops,
            "spans_total": self.spans_total,
            "spans_kept": len(self.span_name),
            "note": "span ids are array indices; parent -1 is a root span",
            "name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# kernel oracle


def oracle_check(samples, reference) -> tuple[int, int]:
    """Re-run recorded kernel calls through the naive reference RREFs.

    Returns (checked, mismatches).
    """
    mismatches = 0
    for rows, width, p, (out, rank, pivots) in samples["rref_fp"]:
        want = reference.naive_rref_fp(rows, p) if rows else ([], 0, [])
        mismatches += (list(out), rank, list(pivots)) != (list(want[0]), want[1], list(want[2]))
    for rows, width, result in samples["rref_q_int"]:
        mismatches += not _rref_q_matches(reference, rows, width, *result)
    return len(samples["rref_fp"]) + len(samples["rref_q_int"]), mismatches


def _rref_q_matches(reference, rows, width, prim, rank, pivots) -> bool:
    """``rref_q_int`` returns primitive integer rows (content 1, positive
    pivot) with zero rows dropped; each must equal the reference's
    unit-pivot Fraction row once divided by its pivot."""
    want_rows, want_rank, want_pivots = reference.naive_rref_q(rows) if rows else ([], 0, [])
    if rank != want_rank or list(pivots) != list(want_pivots) or len(prim) != rank:
        return False
    if any(any(r) for r in want_rows[rank:]):
        return False
    for row, pc, want in zip(prim, pivots, want_rows):
        if len(row) != width or row[pc] <= 0 or gcd(*row) != 1:
            return False
        if tuple(Fraction(x, row[pc]) for x in row) != tuple(want):
            return False
    return True
