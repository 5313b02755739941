"""Tests of the benchmark's own code: python3 -m pytest bench/tests"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HALF = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    first = workloads.block_jobs(name, 7, 3, "states")
    again = workloads.block_jobs(name, 7, 3, "states")
    other = workloads.block_jobs(name, 8, 3, "states")
    assert [(j.argv, j.files) for j in first] == [(j.argv, j.files) for j in again]
    assert [(j.argv, j.files) for j in first] != [(j.argv, j.files) for j in other]


def test_same_seed_gives_byte_identical_files(tmp_path):
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        jobs = workloads.block_jobs("density-oracle", 5, 0, str(tmp_path / sub))
        workloads.write_inputs(jobs)
        texts.append(sorted(p.read_bytes() for p in (tmp_path / sub).iterdir()))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_block_has_the_same_size_mix(name):
    def sizes(block):
        return sorted((j.kind, j.spec.get("N", 0), j.spec.get("samples", 0))
                      for j in workloads.block_jobs(name, 1, block, "s"))
    assert sizes(0) == sizes(2) == sizes(5)


def test_generator_and_references_import_nothing_from_bellmax():
    code = ("import sys; sys.path.insert(0, 'bench'); import workloads, reference; "
            "assert not [m for m in sys.modules if m.startswith('bellmax')]")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def test_paper_example_pins():
    value_k2, *_ = reference.schmidt_closed_form([HALF, 0.0, HALF], 2)
    value_k3, *_ = reference.schmidt_closed_form([HALF, 0.0, HALF], 3)
    assert value_k2 == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert value_k3 == pytest.approx(2.0, abs=1e-12)
    assert reference.isotropic_threshold(4) == pytest.approx(0.2928932, abs=1e-7)
    assert reference.isotropic_threshold(3) == pytest.approx(0.2370257, abs=1e-7)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dense_reference_matches_schmidt_reference(n):
    coeffs = workloads.schmidt_coeffs(np.random.default_rng(n), n)
    vec = np.zeros(n * n)
    vec[[i * n + i for i in range(n)]] = coeffs
    rho = np.outer(vec, vec).astype(complex)
    for k in range(1, n + 1):
        value, cross = reference.density_closed_form(rho, n, k)
        assert value == pytest.approx(reference.schmidt_closed_form(coeffs, k)[0], abs=1e-12)
        assert cross < 1e-12


def _first_job_record(tmp_path, name):
    """Run slot 0 of block 0 through the CLI; return its timed record."""
    from bellmax import cli

    jobs = workloads.block_jobs(name, 3, 0, str(tmp_path / "states"))
    (tmp_path / "states").mkdir()
    workloads.write_inputs(jobs[:1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(jobs[0].argv))
    return {"block": 0, "slot": 0, "warm": False, "rc": rc, "s": 0.01, "out": out.getvalue()}


def _failures(tmp_path, name, record):
    failures = Counter()
    validator = reference.load_validator(ROOT)
    _, failed = run.check_records(name, 3, tmp_path, [record], validator, failures)
    return failed, failures


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_real_output_passes_its_check(tmp_path, name):
    record = _first_job_record(tmp_path, name)
    assert _failures(tmp_path, name, record) == (0, Counter())


def test_corrupted_report_counts_as_failed(tmp_path):
    record = _first_job_record(tmp_path, "schmidt-scan")
    report = json.loads(record["out"])
    target = report["best"] if "best" in report else report
    target["value"] += 1e-6
    failed, failures = _failures(tmp_path, "schmidt-scan", dict(record, out=json.dumps(report)))
    assert failed == 1 and "reference" in next(iter(failures))


@pytest.mark.parametrize("corrupt, reason", [
    (lambda rec: dict(rec, rc=2), "exit code 2"),
    (lambda rec: dict(rec, out=rec["out"][:-3]), "not JSON"),
    (lambda rec: dict(rec, out=json.dumps(dict(json.loads(rec["out"]), extra=1))), "schema"),
])
def test_broken_output_counts_as_failed(tmp_path, corrupt, reason):
    record = corrupt(_first_job_record(tmp_path, "verify-suite"))
    failed, failures = _failures(tmp_path, "verify-suite", record)
    assert failed == 1 and reason in next(iter(failures))


def test_repeat_that_differs_counts_as_failed(tmp_path):
    record = _first_job_record(tmp_path, "isotropic-threshold")
    warm = dict(record, warm=True, out=record["out"].replace("1", "2", 1))
    failures = Counter()
    validator = reference.load_validator(ROOT)
    _, failed = run.check_records("isotropic-threshold", 3, tmp_path, [warm, record],
                                  validator, failures)
    assert failed == 1 and "repeat" in next(iter(failures))


def test_recorder_nests_spans_and_self_times_add_up(tmp_path):
    recorder = spans.Recorder()

    def leaf(x):
        return x + 1

    traced_leaf = recorder.wrap("linalg.leaf", leaf)

    def middle(x):
        return traced_leaf(traced_leaf(x))

    traced_middle = recorder.wrap("violation.middle", middle)
    root = recorder.wrap(spans.ROOT_SPAN, lambda x: traced_middle(x))
    recorder.job = 0
    assert root(1) == 3
    recorder.end_job()
    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    rows = spans.read_spans(path)
    assert [(row[1], row[2]) for row in rows] == [
        (-1, "cli.main"), (0, "violation.middle"), (1, "linalg.leaf"), (1, "linalg.leaf")]
    values = spans.layer_metrics(rows)
    root_time = rows[0][4] - rows[0][3]
    layers = ("cli.self_s", "violation.self_s", "linalg.self_s")
    assert sum(values[m] for m in layers) == pytest.approx(root_time, rel=1e-9)


def test_layer_metrics_count_attributes():
    rows = [
        [0, -1, "cli.main", 0.0, 10.0, None],
        [0, 0, "violation.noise_threshold", 1.0, 9.0, None],
        [0, 1, "violation.closed_form", 2.0, 3.0, {"key": "a"}],
        [0, 1, "violation.closed_form", 3.0, 4.0, {"key": "a"}],
        [0, 0, "seesaw.seesaw_maximize", 9.0, 9.5,
         {"restarts": 4, "iterations": 7, "converged": True}],
    ]
    values = spans.layer_metrics(rows)
    assert values["violation.closed_form.calls"] == 2
    assert values["violation.closed_form.distinct_ratio"] == 0.5
    assert values["violation.noise_threshold.closed_form_calls"] == 2
    assert values["violation.noise_threshold.s"] == 8.0
    assert values["violation.self_s"] == 8.0
    assert values["cli.self_s"] == 1.5
    assert values["seesaw.seesaw_maximize.restarts"] == 4
    assert values["seesaw.seesaw_maximize.converged_ratio"] == 1.0
    assert spans.layer_metrics(rows, [2.0])["cli.self_s"] == 0.75


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        spans.LAYER_METRICS + run.TRACE_METRICS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}


def test_job_metrics():
    values = run.job_metrics([0.01 * i for i in range(1, 101)])
    assert values["jobs_per_s"] == pytest.approx(100 / 50.5)
    assert values["job_p50_ms"] == pytest.approx(505.0)
    assert 900.0 < values["job_p90_ms"] < 910.0


def test_timed_run_prints_the_result_line_last():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "isotropic-threshold",
                           "--seed", "1", "--seconds", "0.1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(run.END_TO_END)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "schmidt-scan",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
