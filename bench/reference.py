"""Independent references and the output check of every benchmark job.

Nothing here imports bellmax. The Schmidt and isotropic references are
analytic; the density reference rebuilds the block-Pauli generators and
evaluates the correlation traces with ``np.kron`` and LAPACK, a code path
the program does not share. Every report is also validated against the
program's JSON schema.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)
#: Agreement demanded between a certified closed form and the see-saw.
ORACLE_ATOL = 1e-6
#: Agreement demanded between a report and an exact reference value.
VALUE_ATOL = 1e-9
#: Cross-term size below which the closed form counts as certified.
CROSS_TERM_ATOL = 1e-10
#: Published N=3 threshold that threshold reports echo.
PAPER_N3_REFERENCE = 0.2566


def paired_indices(n: int, k: int) -> list[tuple[int, int]]:
    """Index pairs of the block-Pauli generators (0-based); ``k`` is 1-based."""
    kept = [i for i in range(n) if n % 2 == 0 or i != k - 1]
    return list(zip(kept[::2], kept[1::2]))


def schmidt_closed_form(coeffs, k: int) -> tuple[float, float, float, float]:
    """``(value, tau1, tau2, p)`` for a real Schmidt state at index ``k``.

    ``R = diag(s, -s, 1 - c_k^2)`` with ``s = 2 sum_pairs c_p c_q`` and
    ``p = c_k^2`` (the ``c_k`` terms vanish for even N).
    """
    n = len(coeffs)
    s = 2.0 * sum(coeffs[p] * coeffs[q] for p, q in paired_indices(n, k))
    p = coeffs[k - 1] ** 2 if n % 2 else 0.0
    taus = sorted((s * s, s * s, (1.0 - p) ** 2), reverse=True)
    return 2.0 * math.sqrt(taus[0] + taus[1]) + 2.0 * p, taus[0], taus[1], p


def isotropic_line(n: int) -> tuple[float, float]:
    """``(a, c)`` with value(x) = a - (a - c) x for the isotropic family at k=1."""
    m = 2 * (n // 2)
    odd = n % 2
    return TSIRELSON * m / n + 2.0 * odd / n, 2.0 * odd / (n * n)


def isotropic_threshold(n: int) -> float:
    """Exact noise weight ``x* = (a - 2) / (a - c)`` where the value hits 2."""
    a, c = isotropic_line(n)
    return (a - 2.0) / (a - c)


def generators(n: int, k: int) -> tuple[np.ndarray, ...]:
    """``(gx, gy, gz, pi)`` built directly from the pairing rule."""
    gx, gy, gz, pi = (np.zeros((n, n), dtype=complex) for _ in range(4))
    for p, q in paired_indices(n, k):
        gx[p, q] = gx[q, p] = 1.0
        gy[p, q], gy[q, p] = -1.0j, 1.0j
        gz[p, p], gz[q, q] = 1.0, -1.0
    if n % 2:
        pi[k - 1, k - 1] = 1.0
    return gx, gy, gz, pi


def density_closed_form(rho: np.ndarray, n: int, k: int) -> tuple[float, float]:
    """``(value, largest cross term)`` of the closed form for a density matrix."""
    ops = generators(n, k)

    def trace(a, b):
        return float(np.trace(rho @ np.kron(a, b)).real)

    r = np.array([[trace(a, b) for b in ops[:3]] for a in ops[:3]])
    cross = max(abs(trace(ops[m], ops[3])) for m in range(3))
    cross = max([cross] + [abs(trace(ops[3], ops[m])) for m in range(3)])
    taus = np.linalg.eigvalsh(r.T @ r)
    value = 2.0 * math.sqrt(max(taus[2], 0.0) + max(taus[1], 0.0))
    return value + 2.0 * trace(ops[3], ops[3]), cross


def load_validator(root: Path):
    schema_path = root / "src" / "bellmax" / "schemas" / "report.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


def _near(a: float, b: float, atol: float = VALUE_ATOL) -> bool:
    return abs(a - b) <= atol


def _check_schmidt(report: dict, spec: dict, kind: str) -> list[str]:
    coeffs, n = spec["coeffs"], spec["N"]
    refs = [schmidt_closed_form(coeffs, k) for k in range(1, n + 1)]
    top = max(ref[0] for ref in refs)
    problems = []
    if kind == "scan-k":
        rows = report["results"]
        if [row["k"] for row in rows] != list(range(1, n + 1)):
            return ["scan-k rows do not cover k = 1..N"]
        for row, (value, tau1, tau2, p) in zip(rows, refs):
            if not (_near(row["value"], value) and _near(row["tau1"], tau1)
                    and _near(row["tau2"], tau2) and _near(row["pi_term"], 2.0 * p)):
                problems.append(f"k={row['k']}: value {row['value']!r}, reference {value!r}")
            if not row["formula_valid"]:
                problems.append(f"k={row['k']}: Schmidt state reported uncertified")
        best = report["best"]
    else:
        best = report
    if not _near(best["value"], top) or not _near(refs[best["k"] - 1][0], top):
        problems.append(f"best k={best['k']} value {best['value']!r}, reference max {top!r}")
    if best["method"] != "closed_form" or not best["formula_valid"]:
        problems.append("best report is not a certified closed form")
    return problems


def _check_density(report: dict, spec: dict) -> list[str]:
    n, rho = spec["N"], spec["rho"]
    closed, oracle = report["closed_form"], report["oracle"]
    k = closed["k"]
    if oracle["k"] != k or not 1 <= k <= n or (n % 2 == 0 and k != 1):
        return [f"inconsistent k: closed {k}, oracle {oracle['k']}"]
    value, cross = density_closed_form(rho, n, k)
    problems = []
    if not _near(closed["value"], value):
        problems.append(f"closed form {closed['value']!r}, reference {value!r}")
    certified = n % 2 == 0 or cross <= CROSS_TERM_ATOL
    if closed["formula_valid"] != certified:
        problems.append(f"formula_valid {closed['formula_valid']}, cross term {cross:.3e}")
    if not _near(report["abs_difference"], abs(closed["value"] - oracle["value"])):
        problems.append("abs_difference does not match the two values")
    if certified and report["abs_difference"] > ORACLE_ATOL:
        problems.append(f"certified closed form misses the oracle by "
                        f"{report['abs_difference']:.3e}")
    ceiling = [oracle["value"]] + ([closed["value"]] if certified else [])
    if max(ceiling) > TSIRELSON + VALUE_ATOL:
        problems.append(f"value {max(ceiling)!r} exceeds 2 sqrt 2")
    return problems


def _check_grid(rows: list[tuple[float, float, int]], spec: dict) -> list[str]:
    a, c = isotropic_line(spec["N"])
    xs = np.linspace(0.0, 1.0, spec["grid"])
    if len(rows) != len(xs):
        return [f"grid has {len(rows)} rows, expected {len(xs)}"]
    for (x, value, k), x_ref in zip(rows, xs):
        if x != float(x_ref) or k != 1 or not _near(value, a - (a - c) * x):
            return [f"grid row x={x!r}: value {value!r}, reference {a - (a - c) * x!r}"]
    return []


def _check_threshold(report: dict, spec: dict, tol: float = 1e-9) -> list[str]:
    n = spec["N"]
    a, _ = isotropic_line(n)
    exact = isotropic_threshold(n)
    problems = []
    if report["N"] != n or report["k_used"] != 1:
        problems.append(f"N {report['N']}, k_used {report['k_used']}")
    if report["x_star"] is None or abs(report["x_star"] - exact) > tol:
        problems.append(f"x_star {report['x_star']!r}, exact {exact!r}")
    if not _near(report["value_at_zero"], a):
        problems.append(f"value_at_zero {report['value_at_zero']!r}, exact {a!r}")
    if (n == 3) != ("paper_reference_value" in report) or (
            n == 3 and report["paper_reference_value"] != PAPER_N3_REFERENCE):
        problems.append("paper_reference_value present only and exactly at N=3")
    rows = [(row["x"], row["value"], row["k"]) for row in report.get("grid", [])]
    return problems + _check_grid(rows, spec)


def _parse_csv(text: str) -> list[tuple[float, float, int]]:
    lines = text.split("\n")
    if lines[0] != "x,value,k" or lines[-1] != "":
        raise ValueError("CSV must start with the header x,value,k and end with LF")
    rows = []
    for line in lines[1:-1]:
        x, value, k = line.split(",")
        rows.append((float(x), float(value), int(k)))
    return rows


def _check_verify(report: dict, spec: dict) -> list[str]:
    problems = []
    manifest = report["manifest"]
    if manifest["seed"] != spec["seed"] or manifest["parameters"]["samples"] != spec["samples"]:
        problems.append("manifest does not echo the seed and sample count")
    failing = [check["name"] for check in report["checks"] if not check["passed"]]
    if failing or report["failed"] != 0 or report["passed"] != report["total"]:
        problems.append(f"checks failed: {failing}")
    if report["total"] != len(report["checks"]) or report["total"] == 0:
        problems.append("total does not count the checks")
    return problems


def check_output(job, rc: int, out: str, validator) -> list[str]:
    """Reasons the job's output is wrong; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    if job.kind == "threshold-csv":
        try:
            return _check_grid(_parse_csv(out), job.spec)
        except ValueError as exc:
            return [f"malformed CSV: {exc}"]
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    error = jsonschema.exceptions.best_match(validator.iter_errors(report))
    if error is not None:
        return [f"schema: {error.message[:200]}"]
    if job.kind in ("scan-k", "violation"):
        return _check_schmidt(report, job.spec, job.kind)
    if job.kind == "violation-both":
        return _check_density(report, job.spec)
    if job.kind == "threshold-json":
        return _check_threshold(report, job.spec)
    if job.kind == "verify":
        return _check_verify(report, job.spec)
    raise ValueError(f"no reference for job kind {job.kind!r}")
