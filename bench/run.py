"""Benchmark of the bellmax command line, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py`` or ``all``. Every
workload drives ``bellmax.cli.main(argv)`` in a fresh child process
(``child.py``), closed loop with one client, over seeded inputs that the
benchmark generates itself. Each output is checked against an
independent reference (``reference.py``) after the timed region.

``--trace 0`` measures the end-to-end metrics. ``setup_s`` is the median
wall time, over several fresh interpreters, from start until
``bellmax.cli`` is imported and ready. The job metrics come from a run
of whole blocks that lasts at least S seconds and at least 100 jobs.

Small shared hosts change speed by a quarter and more for seconds to
minutes at a time, which would bury any change to the program. Right
before every job the child therefore times a fixed calibration kernel
that shares no code with bellmax (``child.py``). ``jobs_per_s``,
``job_p50_ms`` and ``job_p90_ms`` are computed from latencies taken to
the reference speed: each job's latency is divided by its machine
factor, its own kernel time over ``CALIBRATION_REF_S``. A change to the
program moves these metrics in full. The latencies as measured and the
mean machine factor are printed alongside.

``--trace 1`` runs a fixed job list twice in fresh children, once plain
and once with the span recorder of ``spans.py``, and reports per-layer
metrics plus the tracing overhead (traced job time / plain job time).
Span durations, like job latencies, are taken to the reference speed.
The spans are kept in ``.bench_run/trace-NAME-seedN.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The program is the ``src``
tree of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
TRACE_METRICS = (
    ("trace.jobs", "count"),
    ("trace.spans", "count"),
    ("trace.self_sum_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead", "ratio"),
)

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7
#: Time of the calibration kernel at the reference speed.
CALIBRATION_REF_S = 0.004
#: Jobs a timed run needs so that 10 samples lie beyond its p90.
MIN_JOBS = 100
CHILD_TIMEOUT_S = 170
#: BLAS and OpenMP are pinned to one thread in every process started.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
PROBE = ("import sys, bellmax.cli; "
         "sys.stdout.write(bellmax.cli.__file__ + '\\n'); sys.stdout.flush()")


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
    except OSError:
        pass
    return "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bellmax").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l2_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "thread_env": THREAD_ENV,
    }


def probe_setup(env: dict) -> float:
    """Wall time from starting an interpreter until bellmax.cli is imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or not line.startswith(str(SRC)):
        raise BenchError(f"importing bellmax.cli from {SRC} failed: {line.strip()} {err[-500:]}")
    return elapsed


def run_child(env, name, seed, work: Path, extra: list[str], spans_path=None):
    """Run ``child.py``; return its job records and its closing record."""
    records_path = work / ("records-traced.jsonl" if spans_path else "records.jsonl")
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), name, str(seed),
           str(work / "states"), str(records_path), *extra]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: child ran longer than {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name}: child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    with open(records_path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    return records[:-1], records[-1]


def check_records(name, seed, work: Path, records, validator, failures: Counter):
    """Check every timed job; return ``(timed records, failed count)``.

    A job fails on a non-zero exit, a schema-invalid report, a miss
    against its reference, or output that differs from its untimed
    repeat. Each failure's first reason is counted into ``failures``.
    """
    state_dir = str(work / "states")
    repeats = {(r["block"], r["slot"]): r["out"] for r in records if r["warm"]}
    timed = [r for r in records if not r["warm"]]
    failed = 0
    block, jobs = None, []
    for rec in timed:
        if rec["block"] != block:
            block = rec["block"]
            jobs = workloads.block_jobs(name, seed, block, state_dir)
        reasons = reference.check_output(jobs[rec["slot"]], rec["rc"], rec["out"], validator)
        repeat = repeats.get((rec["block"], rec["slot"]))
        if repeat is not None and repeat != rec["out"]:
            reasons.append("untimed repeat gave different bytes")
        if reasons:
            failed += 1
            failures[f"{name}: {reasons[0]}"] += 1
    return timed, failed


def machine_factor(record: dict) -> float:
    """How much slower than the reference the machine ran at this job."""
    return record["calibration_s"] / CALIBRATION_REF_S


def reference_time(records) -> float:
    """Total job time taken to the reference speed."""
    return sum(r["s"] / machine_factor(r) for r in records)


def job_metrics(latencies: list[float]) -> dict[str, float]:
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, validator) -> dict:
    env = child_env()
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    (work / "states").mkdir(parents=True, exist_ok=True)
    failures: Counter = Counter()
    try:
        if not trace:
            probe_setup(env)  # untimed: compiles bytecode in a fresh checkout
            setup = statistics.median(probe_setup(env) for _ in range(SETUP_PROBES))
            records, tail = run_child(env, name, seed, work,
                                      ["--seconds", str(seconds), "--min-jobs", str(MIN_JOBS)])
            timed, failed = check_records(name, seed, work, records, validator, failures)
            metrics = {"setup_s": setup,
                       **job_metrics([r["s"] / machine_factor(r) for r in timed]),
                       "peak_rss_mb": tail["peak_rss_kb"] / 1024.0}
            measured = dict(job_metrics([r["s"] for r in timed]),
                            machine_factor=statistics.fmean(map(machine_factor, timed)))
            units = dict(END_TO_END)
        else:
            blocks = ["--blocks", str(workloads.WORKLOADS[name].trace_blocks)]
            spans_path = WORK / f"trace-{name}-seed{seed}.jsonl"
            plain, _ = run_child(env, name, seed, work, blocks)
            traced, tail = run_child(env, name, seed, work, blocks, spans_path)
            plain, failed_plain = check_records(name, seed, work, plain, validator, failures)
            traced, failed = check_records(name, seed, work, traced, validator, failures)
            failed += failed_plain
            timed = plain + traced
            recorded = spans.read_spans(spans_path)
            factors = [machine_factor(r) for r in traced]
            metrics = spans.layer_metrics(recorded, factors)
            metrics.update({
                "trace.jobs": len(traced),
                "trace.spans": len(recorded),
                "trace.self_sum_s": sum((s[4] - s[3]) / factors[s[0]]
                                        for s in recorded if s[1] < 0),
                "trace.untraced_s": reference_time(plain),
                "trace.overhead": reference_time(traced) / reference_time(plain),
            })
            units = dict(spans.LAYER_METRICS + TRACE_METRICS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "name": name, "blocks": tail["blocks"], "attempted": len(timed), "failed": failed,
        "failures": failures, "trace": trace, "trace_file": spans_path if trace else None,
        "measured": None if trace else measured,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def print_result(result: dict) -> None:
    runs = "a plain and a traced run of" if result["trace"] else "one timed run of"
    print(f"== {result['name']}: {runs} {result['blocks']} blocks, {result['attempted']} "
          f"jobs checked; closed loop, 1 client, 1 process")
    for key, metric in result["metrics"].items():
        print(f"  {key:<46} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':<46} {result['failed'] / result['attempted']:>16.6g} ratio")
    if result["measured"]:
        m = result["measured"]
        print(f"  as measured: jobs_per_s {m['jobs_per_s']:.6g} 1/s, job_p50_ms "
              f"{m['job_p50_ms']:.6g} ms, job_p90_ms {m['job_p90_ms']:.6g} ms; mean machine factor "
              f"{m['machine_factor']:.4f}")
    if result["trace"]:
        m = result["metrics"]
        print(f"  layer self times sum to {m['trace.self_sum_s']['value']:.4f} s against "
              f"{m['trace.untraced_s']['value']:.4f} s untraced "
              f"(tracing overhead x{m['trace.overhead']['value']:.3f}); "
              f"spans in {result['trace_file'].relative_to(ROOT)}")
    for reason, count in result["failures"].most_common(10):
        print(f"  FAILED x{count}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "bellmax" / "cli.py").is_file():
        print(f"error: no bellmax source tree at {SRC}; run from a bellmax checkout",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment " + json.dumps(environment(args.seed)), flush=True)
    validator = reference.load_validator(ROOT)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        validator))
            print_result(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()  # only if nothing (no trace file) is left in it
        except OSError:
            pass

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{key}": value
                   for r in results for key, value in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
