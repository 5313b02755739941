"""Benchmark workloads and their seeded input generator.

Each workload is a sequence of blocks. Every block holds the same fixed
mix of input sizes, in a seeded order, so a run that stops at a block
boundary measures that mix whatever its length. Every job gets its own input: no state file is
read by two jobs, so no cache shared between invocations can help.

This module imports nothing from bellmax. The inputs of block ``b`` of a
workload depend only on ``(seed, workload name, b)``; the same seed
gives byte-identical files and argv.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its argv, the files it reads and what the
    reference check needs to know about its input."""

    argv: tuple[str, ...]
    kind: str
    spec: dict
    files: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_block: Callable[[np.random.Generator, int, str], list[Job]]
    #: Blocks in the fixed job list of a traced run (counters repeat exactly).
    trace_blocks: int


def _seed_arg(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def _shuffled(rng: np.random.Generator, jobs: list[Job]) -> list[Job]:
    return [jobs[i] for i in rng.permutation(len(jobs))]


def schmidt_coeffs(rng: np.random.Generator, n: int) -> list[float]:
    """Random real unit vector of length ``n`` with 1..n//3 entries zeroed."""
    coeffs = rng.normal(size=n)
    zeros = rng.choice(n, size=int(rng.integers(1, n // 3 + 1)), replace=False)
    coeffs[zeros] = 0.0
    coeffs /= np.linalg.norm(coeffs)
    return coeffs.tolist()


def haar_pure(rng: np.random.Generator, n: int) -> np.ndarray:
    side = n * n
    v = rng.normal(size=side) + 1.0j * rng.normal(size=side)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def wishart_mixed(rng: np.random.Generator, n: int) -> np.ndarray:
    side = n * n
    g = rng.normal(size=(side, side)) + 1.0j * rng.normal(size=(side, side))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _schmidt_block(rng, block, state_dir):
    jobs = []
    for n in range(5, 22):
        for command in (("scan-k",), ("violation", "--k", "best")):
            coeffs = schmidt_coeffs(rng, n)
            path = f"{state_dir}/b{block}-{command[0]}-{n}.json"
            text = json.dumps({"type": "schmidt", "N": n, "coeffs": coeffs})
            argv = (command[0], "--state", path, *command[1:], "--no-timestamp")
            jobs.append(Job(argv, command[0], {"N": n, "coeffs": coeffs}, {path: text}))
    return _shuffled(rng, jobs)


#: Density sizes of one block, weighted toward small N. The three N=5
#: jobs span the 80-95% band of a block's latencies, so the p90 falls
#: inside one size class rather than on the edge between two.
DENSITY_SIZES = (2, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 7)


def _density_block(rng, block, state_dir):
    jobs = []
    for slot, n in enumerate(DENSITY_SIZES):
        kind = "pure" if (slot + block) % 2 == 0 else "mixed"
        rho = haar_pure(rng, n) if kind == "pure" else wishart_mixed(rng, n)
        path = f"{state_dir}/b{block}-density-{slot}.json"
        text = json.dumps({"type": "density", "N": n,
                           "re": rho.real.tolist(), "im": rho.imag.tolist()})
        argv = ("violation", "--state", path, "--method", "both", "--k", "best",
                "--seed", _seed_arg(rng), "--no-timestamp")
        jobs.append(Job(argv, "violation-both", {"N": n, "kind": kind, "rho": rho},
                        {path: text}))
    return _shuffled(rng, jobs)


#: Grid sizes of the isotropic workload; each N gets ``G`` and its mirror
#: ``GRID_LOW + GRID_HIGH - G`` so that every block does the same work.
GRID_LOW, GRID_HIGH = 11, 51


def _isotropic_block(rng, block, state_dir):
    jobs = []
    for n in range(2, 13):
        grid = int(rng.integers(GRID_LOW, GRID_HIGH + 1))
        for points, output in ((grid, "json"), (GRID_LOW + GRID_HIGH - grid, "csv")):
            argv = ("threshold", "--N", str(n), "--grid", str(points),
                    "--output", output, "--no-timestamp")
            jobs.append(Job(argv, f"threshold-{output}", {"N": n, "grid": points}))
    return _shuffled(rng, jobs)


#: ``--samples`` values of one verify block.
VERIFY_SAMPLES = (2, 4, 6, 8)


def _verify_block(rng, block, state_dir):
    jobs = []
    for samples in VERIFY_SAMPLES:
        seed = _seed_arg(rng)
        argv = ("verify", "--seed", seed, "--samples", str(samples), "--no-timestamp")
        jobs.append(Job(argv, "verify", {"seed": int(seed), "samples": samples}))
    return _shuffled(rng, jobs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "schmidt-scan",
            "Schmidt states, N 5-21: dense N^4 state build, correlation reduction and "
            "gamma sets over every k; no PSD check, no see-saw",
            _schmidt_block, trace_blocks=2,
        ),
        Workload(
            "density-oracle",
            "density files, N 2-7: JSON parse, PSD check and see-saw oracle; "
            "bypasses any Schmidt or isotropic fast path",
            _density_block, trace_blocks=2,
        ),
        Workload(
            "isotropic-threshold",
            "isotropic thresholds, N 2-12: every closed-form call is a fresh state "
            "(bisection plus grid), so per-state reuse gains nothing",
            _isotropic_block, trace_blocks=5,
        ),
        Workload(
            "verify-suite",
            "verify over distinct seeds: the only path through bell_operator, tensor, "
            "hermitian_eig and spectral_max",
            _verify_block, trace_blocks=4,
        ),
    )
}


def block_jobs(name: str, seed: int, block: int, state_dir: str) -> list[Job]:
    """Jobs of block ``block`` of workload ``name`` under ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng([seed, zlib.crc32(name.encode()), block])
    return WORKLOADS[name].make_block(rng, block, state_dir)


def write_inputs(jobs: list[Job]) -> None:
    for job in jobs:
        for path, text in job.files.items():
            Path(path).write_text(text, encoding="utf-8")


def remove_inputs(jobs: list[Job]) -> None:
    for job in jobs:
        for path in job.files:
            Path(path).unlink(missing_ok=True)
