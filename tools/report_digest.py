"""Digest the report bytes of fixed CLI jobs, one sha256 per workload.

Runs ``bellmax.cli.main`` in this process over blocks 0-3 under seeds 1 and 7
of every workload in ``bench/workloads.py``, plus ``optimize`` on every
density-oracle input (with and without ``--constrain-y``, so the digests see
the settings, ``iterations_used`` and ``converged`` of the see-saw), the same on
the seed-1 block-0 density inputs at each ``--max-iters`` of ``BUDGETS``, ``gamma``
at N 2-9 for every k and axis (nested ``re``/``im`` lists, which no workload
writes), ``verify --seed 0..59`` and ``verify --seed 0 --samples 400``, whose
256-problem slices span the closed-vs-see-saw checks, and hashes each job's
argv, exit code, stdout and stderr in job order. The inputs are written
under the relative directory ``states`` of a temporary working directory, so
the manifests name no temporary path and two trees that give the same report
bytes give the same digests. Run it once per tree and compare:

    PYTHONPATH=src python3 tools/report_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/report_digest.py

It imports ``bellmax`` from ``PYTHONPATH`` and reads, but never writes, ``bench``.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from child import run_job  # noqa: E402

STATE_DIR = "states"
BLOCKS = 4
SEEDS = (1, 7)
VERIFY_SEEDS = 60
#: Restarts of each ``optimize`` job.
OPTIMIZE_RESTARTS = 4
#: The ``--max-iters`` of the ``optimize-budgets`` jobs: one and two see-saw iterations, and
#: the see-saw cap of 30 with a Newton budget of 0 and of 1.
BUDGETS = (1, 2, 30, 31)
#: The N of the ``gamma`` jobs, each at every k and axis.
GAMMA_DIMS = range(2, 10)
#: One verify job whose slices of closed-vs-see-saw problems span checks (about 1.2 s).
SLICED_VERIFY = ("verify", "--seed", "0", "--samples", "400", "--no-timestamp")


def job_lists(names, blocks: int, seeds, verify_seeds: int,
              sliced_verify: bool = False) -> dict[str, list]:
    """The jobs of each digest, by name, in the order they run."""
    lists = {name: [job for seed in seeds for block in range(blocks)
                    for job in workloads.block_jobs(name, seed, block, STATE_DIR)]
             for name in names}
    if "density-oracle" in lists:
        lists["optimize"] = optimize_jobs(lists["density-oracle"])
        first = workloads.block_jobs("density-oracle", 1, 0, STATE_DIR)
        lists["optimize-budgets"] = [job for cap in BUDGETS
                                     for job in optimize_jobs(first, ("--max-iters", str(cap)))]
    lists["gamma"] = [workloads.Job(("gamma", "--N", str(n), "--k", str(k), "--axis", axis,
                                     "--no-timestamp"), "gamma", {})
                      for n in GAMMA_DIMS for k in range(1, n + 1)
                      for axis in ("x", "y", "z", "pi")]
    if verify_seeds:
        lists["verify-seeds"] = [workloads.Job(("verify", "--seed", str(seed), "--no-timestamp"),
                                               "verify", {}) for seed in range(verify_seeds)]
    if sliced_verify:
        lists["verify-sliced"] = [workloads.Job(SLICED_VERIFY, "verify", {})]
    return lists


def optimize_jobs(jobs, extra=()) -> list:
    """An ``optimize`` job on the input of each job of ``jobs``, at ``--k`` and ``--seed``
    from its slot and with the options ``extra``, once free and once with ``--constrain-y``."""
    result = []
    for slot, job in enumerate(jobs):
        (path,) = job.files
        argv = ("optimize", "--state", path, "--k", str(1 + slot % job.spec["N"]),
                "--seed", str(slot), "--restarts", str(OPTIMIZE_RESTARTS), *extra, "--no-timestamp")
        result += [workloads.Job(argv + flag, "optimize", {}, job.files)
                   for flag in ((), ("--constrain-y",))]
    return result


def digests(names, blocks: int, seeds, verify_seeds: int, work_dir: str,
            sliced_verify: bool = False) -> dict[str, str]:
    """sha256 of every job list of ``job_lists``, its inputs written under ``work_dir``."""
    from bellmax import cli

    result = {}
    home = os.getcwd()
    os.chdir(work_dir)
    try:
        os.makedirs(STATE_DIR, exist_ok=True)
        for name, jobs in job_lists(names, blocks, seeds, verify_seeds, sliced_verify).items():
            digest = hashlib.sha256()
            for job in jobs:
                workloads.write_inputs([job])
                rc, _, out, err = run_job(cli.main, job.argv)
                workloads.remove_inputs([job])
                digest.update(repr((job.argv, rc, out, err)).encode("utf-8"))
            result[name] = digest.hexdigest()
    finally:
        os.chdir(home)
    return result


def main() -> int:
    with tempfile.TemporaryDirectory() as work_dir:
        found = digests(list(workloads.WORKLOADS), BLOCKS, SEEDS, VERIFY_SEEDS, work_dir,
                        sliced_verify=True)
    for name, digest in found.items():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
