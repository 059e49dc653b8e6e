"""borelenv benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload envelope-q --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run and writes
the spans to ``.perfbench-out/``.  Human-readable lines come first, and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every op passed every check.
``--inject-fault`` corrupts one library result to show that the checks
catch it.  See perfbench/README.md for the workloads and metrics.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import spans as tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench-out"
PACKAGE = "borelenv"
SUBMODULES = ("_kernel", "linalg", "weyl", "decomp", "envelope", "flags", "rng", "verify", "errors", "cli")
SETUP_REPEATS = 3


class Lost(Exception):
    """The checkout does not hold what the benchmark needs."""


def load_library():
    """Import the package afresh from the checkout's ``src/``.

    Earlier imports are dropped first, so every set-up pays for its own
    import and starts with empty caches, as a new process would.
    """
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise Lost(f"no {PACKAGE} package under {SRC}")
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise Lost(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in SUBMODULES})


def load_reference():
    """The naive RREF oracles of the test suite."""
    path = ROOT / "tests" / "reference.py"
    if not path.is_file():
        raise Lost(f"no reference oracles at {path}")
    spec = importlib.util.spec_from_file_location("borelenv_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Run:
    """Op results of one run: latencies, failures and output digests."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, bytes] = {}

    def op(self, lib, pool, index: int):
        """Run pool[index % len(pool)] through the op; return its latency
        and the op's step times."""
        w = self.workload
        inp = pool[index % len(pool)]
        start = perf_counter()
        try:
            digest, steps = w.op(lib, inp)
        except workloads.Failure as exc:
            digest, steps, error = None, [], str(exc)
        except Exception as exc:  # an unexpected exception fails the op, the run goes on
            digest, steps, error = None, [], f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = perf_counter() - start
        self.attempted += 1
        key = index % len(pool)
        if error is None:
            known = self.digests.setdefault(key, digest)
            if known != digest:
                error = "output differs from an earlier op on the same input"
        if error is not None:
            self.fail(f"input {key}: {error}")
        return elapsed, steps

    def fail(self, detail: str):
        if len(self.failures) < 5:
            print(f"FAILED {detail}", file=sys.stderr)
        self.failures.append(detail)

    def timed_loop(self, lib, pool, seconds: float, min_ops: int, on_op=None, speed=None) -> float:
        """Run ops in pool order for ``seconds`` and at least ``min_ops`` ops;
        return the wall time, less the time of host-speed samples."""
        start = perf_counter()
        spent = speed.spent if speed is not None else 0.0
        deadline = start + seconds
        index = 0
        while index < min_ops or perf_counter() < deadline:
            if speed is not None:
                speed.maybe_sample()
            if on_op is not None:
                on_op(index)
            self.starts.append(perf_counter())
            self.latencies.append(self.op(lib, pool, index)[0])
            index += 1
        if speed is None:
            return perf_counter() - start
        speed.sample()
        return perf_counter() - start - (speed.spent - spent)

    def complete_digests(self, lib, pool):
        """Untimed: run the digest inputs the timed loop did not reach."""
        for index in range(self.workload.digest_ops):
            if index not in self.digests:
                self.op(lib, pool, index)

    def results_sha256(self) -> str:
        h = hashlib.sha256()
        for index in range(self.workload.digest_ops):
            h.update(self.digests.get(index, b"missing"))
        return h.hexdigest()


def warm_up(workload, lib, pool, run: Run):
    """One warm-up op per (field, n); its inputs are indexed apart from the
    pool, so their digests are kept out of the run's."""
    saved, run.digests = run.digests, {}
    warm_pool = workload.warmup(lib, pool)
    for index in range(len(warm_pool)):
        run.op(lib, warm_pool, index)
    run.digests = saved


def setup(workload, seed: int, run: Run):
    """Import, build the input pool from the seed, and warm up."""
    lib = load_library()
    pool = workload.inputs(lib, seed)
    warm_up(workload, lib, pool, run)
    return lib, pool


def warm_again(workload, lib, pool, run: Run):
    """Empty the package caches and redo the warm-up, as after set-up."""
    lib.envelope.borel_translate.cache_clear()
    lib.flags.stabilizer_algebra.cache_clear()
    warm_up(workload, lib, pool, run)


def check_cli_digest(lib, pool, run: Run):
    """The verify op's report must be byte-identical to ``borelenv verify``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(workloads.verify_cli_args(pool[0]))
    run.attempted += 1
    digest = hashlib.sha256(buf.getvalue().encode()).digest()
    if code != 0 or digest != run.digests.get(0):
        run.fail(f"borelenv verify (exit {code}) stdout differs from the op's report")
    print(f"cli_report_sha256 {digest.hex()} (borelenv {' '.join(workloads.verify_cli_args(pool[0]))})")


def inject_fault(workload, lib):
    """Corrupt the second result of one library call, once: a row dropped
    from the brute-force envelope, or one entry of a ULP factor changed."""
    mods = tracing.library_modules(lib)
    calls = [0]
    if workload.name == "factor":
        original = lib.decomp.ulp_decompose

        def corrupt(m, normalization="lower"):
            f = original(m, normalization)
            calls[0] += normalization == "lower"
            if calls[0] == 2 and normalization == "lower":
                u = f.u
                ents = (u.field.add(u.entries[0], u.field.one()),) + u.entries[1:]
                f = type(f)(type(u)(u.field, u.nrows, u.ncols, ents), f.l, f.p, f.normalization)
            return f
    else:
        original = lib.envelope.envelope_bruteforce

        def corrupt(g, weyl_set):
            s = original(g, weyl_set)
            calls[0] += 1
            if calls[0] == 2:
                prim, pivots = s.prim_rows(), s._pivots
                s = type(s)._from_prim(s.ambient_dim, s.field, prim[:-1], pivots[:-1])
            return s

    tracing.rebind(mods, original, corrupt)


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


def run_untraced(workload, seed: int, seconds: float, fault: bool):
    run = Run(workload)
    speed = HostSpeed()
    samples = []
    for rep in range(SETUP_REPEATS):
        gc.collect()
        start = PROCESS_START if rep == 0 else perf_counter()
        lib, pool = setup(workload, seed, run)
        samples.append(perf_counter() - start)
        speed.sample()
    setup_scale = speed.scale()
    if fault:
        inject_fault(workload, lib)
    wall = run.timed_loop(lib, pool, seconds, workload.min_ops, speed=speed)
    ops = len(run.latencies)
    run.complete_digests(lib, pool)
    if workload.name == "verify":
        check_cli_digest(lib, pool, run)

    # every time below is at the reference host speed (see hostspeed.py)
    scales = [speed.scale_at(t) for t in run.starts]
    raw_ms = [x * 1000 for x in run.latencies]
    lat_ms = [x * s for x, s in zip(raw_ms, scales)]
    loop_scale = sum(lat_ms) / sum(raw_ms)
    tail = percentile(lat_ms, workload.tail_q)
    beyond = sum(1 for x in lat_ms if x > tail)
    values = {
        "setup_s": statistics.median(samples) * setup_scale,
        "ops_per_s": ops / (wall * loop_scale),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_tail": tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups, the first from process start; raw "
        + ", ".join(f"{x:.3f}" for x in samples) + f" s at host speed x{1 / setup_scale:.3f}",
        "ops_per_s": f"{ops} ops in {wall:.3f} s; raw {ops / wall:.4g} 1/s "
        f"at host speed x{1 / loop_scale:.3f}",
        "op_ms_p50": f"raw {statistics.median(raw_ms):.4g} ms",
        "op_ms_tail": f"{workload.tail_label} of {ops} ops, {beyond} beyond it; "
        f"raw {percentile(raw_ms, workload.tail_q):.4g} ms",
    }
    return run, values, notes


def run_traced(workload, seed: int, seconds: float, fault: bool):
    run = Run(workload)
    lib, pool = setup(workload, seed, run)
    reference = load_reference()
    if fault:
        inject_fault(workload, lib)
    # overhead_ratio: each digest input runs once untraced and once traced,
    # the order alternating, so drift in machine speed falls on both sides
    # and the baseline table takes its step times from the untraced ops
    paired = tracing.Tracer(lib)
    untraced_ms = traced_ms = 0.0
    steps = {}
    for index in range(workload.digest_ops):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                paired.install()
                try:
                    traced_ms += run.op(lib, pool, index)[0] * 1000
                finally:
                    paired.uninstall()
            else:
                elapsed, op_steps = run.op(lib, pool, index)
                untraced_ms += elapsed * 1000
                for name, field, n, seconds in op_steps:
                    steps.setdefault((name, field, n), []).append(seconds)
    warm_again(workload, lib, pool, run)

    tracer = tracing.Tracer(lib)
    tracer.install()

    def mark(index):
        tracer.op = index

    try:
        run.timed_loop(lib, pool, seconds, workload.digest_ops, on_op=mark)
    finally:
        tracer.uninstall()
    ops = len(run.latencies)
    if workload.name == "verify":
        check_cli_digest(lib, pool, run)

    checked, mismatches = tracing.oracle_check(tracer.kernel_samples, reference)
    for _ in range(mismatches):
        run.fail("kernel RREF differs from the naive reference RREF")
    values = tracer.metrics(ops)
    values["kernel.oracle_checked"] = checked
    values["kernel.oracle_mismatches"] = mismatches
    values["trace.overhead_ratio"] = traced_ms / untraced_ms - 1
    for step in ("envelope_bruteforce", "envelope_certificate"):
        for p, n in workloads.ENVELOPE_Q_CELLS + workloads.ENVELOPE_FP_CELLS:
            field = "Q" if p is None else f"F_{p}"
            times = steps.get((step, field, n))
            values[f"envelope.{step}.ms_p50.{field}.n{n}"] = statistics.median(times) * 1000 if times else 0.0
    trace_path = OUT / f"trace-{workload.name}.json.gz"
    tracer.write(trace_path, ops)
    notes = {
        "trace.overhead_ratio": f"{traced_ms:.1f} ms traced against {untraced_ms:.1f} ms untraced "
        f"on the first {workload.digest_ops} inputs; then {ops} traced ops, spans in {trace_path.name}",
    }
    return run, values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one library result; the run must then fail")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        # metric names and units come from the benchmark's definition
        spec = json.loads(SPEC.read_text())
        runner = run_traced if args.trace else run_untraced
        run, values, notes = runner(workload, args.seed, args.seconds, args.inject_fault)
    except (Lost, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = notes.get(name)
        print(f"{name} {values[name]:.6g} {unit}" + (f" ({note})" if note else ""))
    failed = len(run.failures)
    print(f"fail_ratio {failed / run.attempted:.6g} ({failed} of {run.attempted} ops failed)")
    print(f"results_sha256 {run.results_sha256()} (first {workload.digest_ops} inputs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
