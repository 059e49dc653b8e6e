"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--seconds 1]

Run from the root of a source checkout.  For every workload it checks that

* a clean untraced run exits 0 with ``correct`` true and no failed op;
* the traced run exits 0, finds no kernel/oracle mismatch, and prints the
  same results_sha256 as the untraced run;
* a run with ``--inject-fault`` (one corrupted library result) reports a
  failed op, ``correct`` false, and exits non-zero;
* the metric names printed match BENCHMARK.json;
* for verify, the op's report digest equals the sha256 of the stdout of
  ``python -m borelenv verify`` for the same config.

It also checks that the benchmark fails, without printing a result, in a
directory holding only BENCHMARK.json and perfbench/.  Exits 0 when all
checks hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def bench(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, lines


def _field(lines, key):
    """The value after ``key`` on the human-readable line that starts with it."""
    return next((ln.split()[1] for ln in lines if ln.startswith(key + " ")), None)


def cli_stdout_sha256(args) -> str:
    """sha256 of ``python -m borelenv <args>`` stdout, package from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "borelenv", *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=600, check=True)
    return hashlib.sha256(proc.stdout).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test of the benchmark harness")
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for name in workloads.WORKLOADS:
        common = ["--workload", name, "--seed", "7", "--seconds", args.seconds]
        code, result, lines = bench(common + ["--trace", "0"])
        digest = _field(lines, "results_sha256")
        expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
               f"{name}: clean run passes")
        expect(result is not None and set(result["metrics"]) == end_to_end,
               f"{name}: untraced metrics match BENCHMARK.json end_to_end")
        if name == "verify":
            cli_line = next(ln for ln in lines if ln.startswith("cli_report_sha256 "))
            cli_args = cli_line.partition("(borelenv ")[2].rstrip(")").split()
            expect(cli_stdout_sha256(cli_args) == _field(lines, "cli_report_sha256"),
                   f"{name}: the op's report is byte-identical to borelenv verify stdout")
        tcode, tresult, tlines = bench(common + ["--trace", "1"])
        tdigest = _field(tlines, "results_sha256")
        expect(tcode == 0 and tresult is not None and tresult["correct"], f"{name}: traced run passes")
        expect(tresult is not None and set(tresult["metrics"]) == per_layer,
               f"{name}: traced metrics match BENCHMARK.json per_layer")
        expect(tresult is not None and tresult["metrics"]["kernel.oracle_mismatches"]["value"] == 0,
               f"{name}: kernel RREFs match the naive reference")
        expect(digest is not None and digest == tdigest, f"{name}: traced and untraced results_sha256 agree")
        fcode, fresult, _ = bench(common + ["--trace", "0", "--inject-fault"])
        expect(fcode != 0 and fresult is not None and fresult["failed"] > 0 and not fresult["correct"],
               f"{name}: an injected fault fails the run")

    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    bare_args = ["--workload", "factor", "--seed", "1", "--seconds", "1", "--trace", "0"]
    code, result, _ = bench(bare_args, cwd=bare)
    expect(code != 0 and result is None, "without the package the benchmark fails and prints no result")
    shutil.rmtree(bare)

    print("all checks hold" if not problems else f"{len(problems)} check(s) failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
