"""Run one workload's jobs through ``bellmax.cli.main`` in this process.

Started by ``run.py`` as a fresh interpreter with ``src`` on the path.
The loop is closed, with one client: each job starts when the previous
one has returned. Inputs of a block are written before the block and
removed after it; only ``cli.main`` itself is timed. Each job's record
(block, slot, exit code, latency, stdout, stderr) is appended to the
records file as soon as the job ends, so the records never pile up in
memory. The first job of block 0 also runs once untimed before the loop,
which warms the process and gives ``run.py`` a repeat to compare bytes.

Right before every job the child times a fixed calibration kernel that
shares no code with bellmax and records it with the job, so that
``run.py`` can tell how fast the machine ran at that moment.

Usage:
    child.py WORKLOAD SEED STATE_DIR RECORDS (--seconds S --min-jobs M | --blocks B)
             [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import numpy as np

import workloads

#: A timed run starts no new block after this many seconds.
HARD_CAP_S = 120.0


def calibration_s() -> float:
    """Seconds taken by a fixed mix of interpreted arithmetic and small
    numpy products, the same mix of work the CLI paths spend time on."""
    start = time.perf_counter()
    total = 0
    for i in range(40000):
        total += i * i % 7
    a = np.eye(3)
    for _ in range(100):
        a = a @ a
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    ``ru_maxrss`` would also count the parent's RSS at the time it
    started this process, which carries across exec on Linux.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(main, argv) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects its argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("state_dir")
    parser.add_argument("records")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--min-jobs", type=int, default=1)
    parser.add_argument("--blocks", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from bellmax import cli

    def jobs_of(block):
        return workloads.block_jobs(args.workload, args.seed, block, args.state_dir)

    with open(args.records, "w", encoding="utf-8") as records:
        def record(**fields):
            records.write(json.dumps(fields) + "\n")

        first = jobs_of(0)
        workloads.write_inputs(first[:1])
        rc, elapsed, out, err = run_job(cli.main, first[0].argv)
        record(block=0, slot=0, warm=True, rc=rc, s=elapsed, out=out, err=err)

        main_fn = cli.main
        recorder = None
        if args.spans:
            from spans import ROOT_SPAN, Recorder

            recorder = Recorder()
            recorder.install()
            main_fn = recorder.wrap(ROOT_SPAN, cli.main)

        started = time.perf_counter()
        done = 0
        block = 0
        while True:
            jobs = first if block == 0 else jobs_of(block)
            workloads.write_inputs(jobs)
            for slot, job in enumerate(jobs):
                calibration = calibration_s()
                if recorder is not None:
                    recorder.job = done
                rc, elapsed, out, err = run_job(main_fn, job.argv)
                if recorder is not None:
                    recorder.end_job()
                record(block=block, slot=slot, warm=False, rc=rc, s=elapsed, out=out, err=err,
                       calibration_s=calibration)
                done += 1
            workloads.remove_inputs(jobs)
            block += 1
            if args.blocks is not None:
                if block >= args.blocks:
                    break
            else:
                wall = time.perf_counter() - started
                if (wall >= args.seconds and done >= args.min_jobs) or wall >= HARD_CAP_S:
                    break
        record(peak_rss_kb=peak_rss_kb(), blocks=block)

    if recorder is not None:
        recorder.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
