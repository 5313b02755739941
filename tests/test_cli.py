import json
import math
from collections import Counter
from dataclasses import replace
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bellmax import cli, seesaw, violation
from bellmax.states import IsotropicState, SchemaError, SchmidtState
from bellmax.violation import max_violation_closed_form, noise_threshold

ROOT2 = math.sqrt(2.0)
HALF = 1.0 / ROOT2

SCHEMA = json.loads(
    (resources.files("bellmax") / "schemas" / "report.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


@pytest.fixture()
def example1(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(json.dumps({
        "type": "schmidt", "N": 3, "coeffs": [HALF, 0.0, HALF],
    }))
    return str(path)


@pytest.fixture()
def uncertified(tmp_path):
    # product of (|1> + |3>)/sqrt(2) with |2>: cross terms nonzero for all k
    u = np.array([HALF, 0.0, HALF])
    v = np.array([0.0, 1.0, 0.0])
    w = np.kron(u, v)
    rho = np.outer(w, w)
    path = tmp_path / "uncertified.json"
    path.write_text(json.dumps({
        "type": "density", "N": 3,
        "re": rho.tolist(), "im": np.zeros_like(rho).tolist(),
    }))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    return payload


# ------------------------------------------------------------- violation

def test_violation_closed_k2(capsys, example1):
    payload = run_json(capsys, "violation", "--state", example1, "--k", "2",
                       "--no-timestamp")
    assert payload["value"] == pytest.approx(2 * ROOT2, abs=1e-9)
    assert payload["violated"] is True
    assert "2.8284271" in json.dumps(payload)


def test_violation_closed_k3_not_violated(capsys, example1):
    payload = run_json(capsys, "violation", "--state", example1, "--k", "3")
    assert payload["value"] == pytest.approx(2.0, abs=1e-9)
    assert payload["violated"] is False


def test_violation_best_k(capsys, example1):
    payload = run_json(capsys, "violation", "--state", example1)
    assert payload["k"] == 2
    assert payload["value"] == pytest.approx(2 * ROOT2, abs=1e-9)


def test_violation_both_methods(capsys, tmp_path):
    path = tmp_path / "iso.json"
    path.write_text('{"type":"isotropic","N":4,"x":0.0}')
    payload = run_json(capsys, "violation", "--state", str(path),
                       "--method", "both", "--seed", "3")
    assert payload["closed_form"]["value"] == pytest.approx(2 * ROOT2, abs=1e-9)
    assert payload["abs_difference"] <= 1e-6
    assert payload["oracle"]["method"] == "oracle"


def test_violation_oracle_method(capsys, example1):
    payload = run_json(capsys, "violation", "--state", example1, "--k", "2",
                       "--method", "oracle", "--seed", "5")
    assert payload["method"] == "oracle"
    assert payload["value"] == pytest.approx(2 * ROOT2, abs=1e-6)


# ------------------------------------------------------------ exit codes

def test_exit_io_error(capsys):
    code, _, err = run_cli(capsys, "violation", "--state", "/nonexistent/state.json")
    assert code == 3
    assert "error" in err


def test_exit_validation_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type":"schmidt","N":2,"coeffs":[1.0,1.0]}')
    code, _, err = run_cli(capsys, "violation", "--state", str(path))
    assert code == 2
    assert "sum to 1" in err
    # Closed forms build no density, so N = 65 (past the 4096-row density
    # cap) runs and gives the analytic odd-N value at x = 0.
    path.write_text('{"type":"isotropic","N":65,"x":0}')
    payload = run_json(capsys, "violation", "--state", str(path))
    assert payload["value"] == pytest.approx(2 * ROOT2 * 64 / 65 + 2 / 65, abs=1e-12)
    # Far past the pair-block budget: refused before any allocation.
    path.write_text('{"type":"isotropic","N":1000000000,"x":0}')
    code, out, err = run_cli(capsys, "violation", "--state", str(path))
    assert code == 2
    assert out == "" and f"cap is N={violation.MAX_PAIR_DIM}" in err


def test_exit_uncertified_closed(capsys, monkeypatch, uncertified):
    # No k certifies this state; the refusal must come before any see-saw,
    # also with the defaults (--k best --method closed).
    def no_seesaw(*args, **kwargs):
        raise AssertionError("the see-saw ran before the refusal")

    monkeypatch.setattr(seesaw, "seesaw_maximize", no_seesaw)
    monkeypatch.setattr(seesaw, "_seesaw_batch", no_seesaw)  # best_k's fallback
    for argv in (("--k", "2", "--method", "closed"), ()):
        code, out, err = run_cli(capsys, "violation", "--state", uncertified, *argv)
        assert code == 4
        assert out == "" and "not certified" in err


def test_uncertified_oracle_still_works(capsys, uncertified):
    payload = run_json(capsys, "violation", "--state", uncertified,
                       "--k", "2", "--method", "oracle", "--seed", "11")
    assert payload["formula_valid"] is False
    assert payload["value"] <= 2.0 + 1e-8


# -------------------------------------------------------------- scan-k

def test_scan_k(capsys, example1):
    payload = run_json(capsys, "scan-k", "--state", example1)
    assert payload["N"] == 3
    assert [r["k"] for r in payload["results"]] == [1, 2, 3]
    assert payload["best"]["k"] == 2


# ------------------------------------------------------------ threshold

def test_threshold_n4(capsys):
    payload = run_json(capsys, "threshold", "--N", "4")
    assert payload["x_star"] == pytest.approx(1 - 1 / ROOT2, abs=1e-6)


def test_threshold_n3_echoes_reference(capsys):
    payload = run_json(capsys, "threshold", "--N", "3")
    assert payload["paper_reference_value"] == pytest.approx(0.2566)
    analytic = (3 * ROOT2 - 3) / (3 * ROOT2 + 1)
    assert payload["x_star"] == pytest.approx(analytic, abs=1e-6)


def test_threshold_grid_json(capsys):
    payload = run_json(capsys, "threshold", "--N", "2", "--grid", "5")
    assert len(payload["grid"]) == 5
    assert payload["grid"][0]["x"] == 0.0
    assert payload["grid"][-1]["x"] == 1.0
    # The grid is read off the threshold's exact line; it must agree with
    # a fresh closed form at every point and hit both ends exactly.
    for n in range(2, 10):
        payload = run_json(capsys, "threshold", "--N", str(n), "--grid", "11")
        assert payload["k_used"] == 1
        for row in payload["grid"]:
            assert row["k"] == 1
            direct = max_violation_closed_form(IsotropicState(n, row["x"]), 1)
            assert abs(row["value"] - direct.value) <= 1e-12
        line = noise_threshold(n)
        assert payload["grid"][0]["value"] == payload["value_at_zero"]
        assert payload["grid"][0]["value"] == line.value_at_zero
        assert payload["grid"][-1]["value"] == line.value_at_one


@pytest.mark.parametrize("n", range(2, 13))
def test_threshold_csv_and_json_grids_hold_the_same_rows(capsys, n):
    # Both reports write one list of grid rows: the same (x, value, k), bit for bit.
    for points in (2, 11, 51):
        argv = ("threshold", "--N", str(n), "--grid", str(points), "--no-timestamp")
        code, out, _ = run_cli(capsys, *argv, "--output", "csv")
        assert code == 0
        csv_rows = [(float(x).hex(), float(value).hex(), int(k))
                    for x, value, k in (line.split(",") for line in out.splitlines()[1:])]
        json_rows = [(float(row["x"]).hex(), float(row["value"]).hex(), row["k"])
                     for row in run_json(capsys, *argv)["grid"]]
        assert len(csv_rows) == points
        assert csv_rows == json_rows


def test_negative_seed_rejected_when_parsed(capsys, example1, uncertified):
    # Every subcommand refuses --seed -2 at parse time, whether or not its
    # work would draw random numbers: a certified scan-k draws none.
    for argv in (("scan-k", "--state", example1), ("scan-k", "--state", uncertified),
                 ("violation", "--state", uncertified, "--method", "oracle"),
                 ("threshold", "--N", "3"), ("gamma", "--N", "3", "--axis", "x"),
                 ("optimize", "--state", example1, "--k", "2"), ("verify", "--samples", "2")):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed", "-2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --seed: must be a non-negative integer, got '-2'" in captured.err


def test_max_iters_beyond_int64_rejected(capsys, example1):
    # A budget past int64 is bad input (exit 2), not an internal overflow (exit 5);
    # the largest int64 is still a budget.
    code, out, err = run_cli(capsys, "optimize", "--state", example1, "--k", "2",
                             "--max-iters", str(2**63))
    assert code == 2 and out == "" and "max_iters" in err
    payload = run_json(capsys, "optimize", "--state", example1, "--k", "2",
                       "--max-iters", str(2**63 - 1))
    assert payload["converged"]


def test_threshold_has_no_k_option(capsys):
    # Every k gives the same isotropic line, so there is nothing to choose.
    with pytest.raises(SystemExit) as exc:
        cli.main(["threshold", "--N", "3", "--k", "2"])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


def test_threshold_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--N", "2", "--grid", "3",
                           "--output", "csv")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "x,value,k"
    assert len(lines) == 5  # header + 3 rows + trailing newline
    assert lines[-1] == ""
    assert "\r" not in out
    x, value, k = lines[1].split(",")
    assert float(x) == 0.0
    assert float(value) == pytest.approx(2 * ROOT2, abs=1e-9)
    assert int(k) == 1


def test_threshold_csv_requires_grid(capsys, monkeypatch, example1):
    # threshold --grid is the only CSV report; anything else is refused
    # before any work is done.
    def no_work(*args, **kwargs):
        raise AssertionError("work was done before the refusal")

    with monkeypatch.context() as patch:
        for name in ("load_state", "noise_threshold", "make_gamma_set", "run_all_checks"):
            patch.setattr(cli, name, no_work)
        for argv in (
            ("threshold", "--N", "2"),
            ("violation", "--state", example1),
            ("scan-k", "--state", example1),
            ("gamma", "--N", "2", "--axis", "x"),
            ("optimize", "--state", example1, "--k", "1"),
            ("verify", "--samples", "5"),
        ):
            code, out, err = run_cli(capsys, *argv, "--output", "csv")
            assert code == 2
            assert out == ""
            assert "threshold --grid" in err
    # Out-of-range grids are rejected before anything is allocated.
    for grid in (1, cli.MAX_GRID_POINTS + 1):
        code, out, err = run_cli(capsys, "threshold", "--N", "2", "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert str(cli.MAX_GRID_POINTS) in err


# ---------------------------------------------------------------- gamma

def test_gamma_sigma_y(capsys):
    payload = run_json(capsys, "gamma", "--N", "2", "--axis", "y")
    assert payload["re"] == [[0.0, 0.0], [0.0, 0.0]]
    assert payload["im"] == [[0.0, -1.0], [1.0, 0.0]]


def test_gamma_pi_n3_k2(capsys):
    payload = run_json(capsys, "gamma", "--N", "3", "--k", "2", "--axis", "pi")
    assert payload["re"] == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert np.max(np.abs(payload["im"])) == 0.0


def test_gamma_z_n5_k3(capsys):
    payload = run_json(capsys, "gamma", "--N", "5", "--k", "3", "--axis", "z")
    assert [payload["re"][i][i] for i in range(5)] == [1.0, -1.0, 0.0, 1.0, -1.0]


def test_gamma_domain_error(capsys):
    code, _, err = run_cli(capsys, "gamma", "--N", "3", "--k", "7", "--axis", "x")
    assert code == 2
    assert "k must be in" in err
    # N^2 = 4225 exceeds the operator budget; rejected before allocating
    code, _, err = run_cli(capsys, "gamma", "--N", "65", "--axis", "x")
    assert code == 2
    assert "cap is 4096" in err


# ------------------------------------------------------------- optimize

def test_optimize(capsys, example1):
    payload = run_json(capsys, "optimize", "--state", example1, "--k", "2",
                       "--restarts", "6", "--seed", "2")
    assert payload["value"] == pytest.approx(2 * ROOT2, abs=1e-6)
    assert payload["converged"] is True
    for name in ("a1", "a2", "b1", "b2"):
        vec = payload["settings"][name]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_optimize_constrain_y(capsys, example1):
    payload = run_json(capsys, "optimize", "--state", example1, "--k", "3",
                       "--constrain-y", "--seed", "2")
    for name in ("a1", "a2", "b1", "b2"):
        assert payload["settings"][name][1] == 0.0


# --------------------------------------------------------------- verify

def test_verify_passes_and_validates(capsys):
    payload = run_json(capsys, "verify", "--seed", "1", "--samples", "25",
                       "--no-timestamp")
    assert payload["failed"] == 0
    assert payload["total"] == payload["passed"] == len(payload["checks"])
    assert [check["name"] for check in payload["checks"]] == [
        "observable-dichotomy", "observable-involution", "bell-norm-ceiling",
        "pauli-commutator", "closed-vs-seesaw-even", "closed-vs-seesaw-schmidt",
        "product-state-ceiling", "isotropic-monotone", "gisin-constrained",
        "bell-value-identity", "seesaw-determinism", "state-constructions",
    ]


def test_verify_batches_its_closed_forms(monkeypatch):
    # isotropic-monotone is one _moments call (it was one per state, 202),
    # and no check makes more than one closed-form call. verify reads values,
    # not reports: every closed form it takes is a _closed_values batch. A
    # see-saw batch reads the moments it is handed and computes none.
    from bellmax import verify

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def moments_inside(fn):  # the _moments calls made while a see-saw batch runs
        def wrapper(*args):
            before = calls["moments"]
            result = fn(*args)
            calls["batch moments"] += calls["moments"] - before
            return result
        return wrapper

    for module in (violation, seesaw):
        monkeypatch.setattr(module, "_moments", counted("moments", module._moments))
    for module in (verify, seesaw):
        monkeypatch.setattr(module, "_seesaw_batch", moments_inside(module._seesaw_batch))
    for module in (verify, violation):
        monkeypatch.setattr(module, "_closed_values", counted("closed", module._closed_values))
    for samples in (2, 8):
        children = np.random.SeedSequence(samples).spawn(len(verify._CHECKS))
        for entry, child in zip(verify._CHECKS, children):
            calls.clear()
            assert verify._run(*entry, np.random.default_rng(child), samples).passed
            assert calls["closed"] <= 1, entry[0]
            assert calls["batch moments"] == 0, entry[0]
            if entry[0] == "isotropic-monotone":
                assert calls == {"closed": 1, "moments": 1}


def test_verify_memory_is_flat_in_samples():
    # Product densities are drawn one slice at a time and the last slice is
    # dropped first, so the peak of one slice (256 samples) holds at two and
    # seven slices (it grew linearly, ~12 KB a sample).
    import tracemalloc

    from bellmax import verify

    peaks = []
    for samples in (verify._SLICE, 400, 1600):
        tracemalloc.start()
        try:
            deviations = list(verify.check_product_ceiling(np.random.default_rng(0), samples))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(deviations) == samples
    assert peaks[2] <= 1.5 * peaks[1]
    assert peaks[2] <= 1.2 * peaks[0]


@pytest.mark.parametrize("name", [
    "closed-vs-seesaw-even", "closed-vs-seesaw-schmidt", "product-state-ceiling",
    "gisin-constrained",
])
def test_verify_slices_keep_every_deviation(monkeypatch, name):
    # One problem per batch or the default slice: the same rng draws, the
    # same deviations, bit for bit.
    from bellmax import verify

    check = next(entry[1] for entry in verify._CHECKS if entry[0] == name)
    whole = list(check(np.random.default_rng(3), 8))
    monkeypatch.setattr(verify, "_SLICE", 1)
    assert list(check(np.random.default_rng(3), 8)) == whole
    assert len(whole) > 1


@pytest.mark.parametrize("slice_size", [1, 7, 256])
def test_verify_chains_the_closed_vs_seesaw_checks(monkeypatch, slice_size):
    # run_all_checks chains the cases of the three closed-vs-see-saw checks and runs
    # each slice of the chain, also one that spans checks, as one closed-form and one
    # see-saw batch; every record equals that of the checks run one by one.
    from bellmax import verify

    calls = []

    def counted(name, fn):
        def wrapper(problems, *args):
            if len(problems[0]) == 3:  # a (state, k, cfg) problem of the chained checks
                calls.append((name, len(problems)))
            return fn(problems, *args)
        return wrapper

    monkeypatch.setattr(verify, "_SLICE", slice_size)
    for name in ("_closed_values", "_seesaw_batch"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    for samples in (2, 8, 25):
        calls.clear()
        children = np.random.SeedSequence(5).spawn(len(verify._CHECKS))
        alone = [verify._run(*entry, np.random.default_rng(child), samples)
                 for entry, child in zip(verify._CHECKS, children)]
        total = sum(size for name, size in calls if name == "_seesaw_batch")
        calls.clear()
        assert verify.run_all_checks(5, samples) == alone
        sizes = [min(slice_size, total - first) for first in range(0, total, slice_size)]
        assert calls == [(name, size) for size in sizes
                         for name in ("_closed_values", "_seesaw_batch")]
        if slice_size == 256:
            assert len(calls) == 2  # every chained problem in one slice


@pytest.mark.parametrize("field, flip", [
    ("converged", lambda value: not value),
    ("restarts_used", lambda value: value + 1),
])
def test_verify_seesaw_determinism_compares_every_field(monkeypatch, field, flip):
    # The check reports a bit-identical repeat only when every field of the repeat
    # and of the batch row agrees: one that differs in converged or restarts_used
    # alone fails it. The repeat is the check's one seesaw_maximize call.
    from dataclasses import replace

    from bellmax import verify

    record = verify.check_seesaw_determinism(np.random.default_rng(0), 2)
    assert record == verify.CheckResult("seesaw-determinism", True, "bit-identical repeat")
    original, runs = verify.seesaw_maximize, []

    def flipping(*args, **kw):
        result = original(*args, **kw)
        result = replace(result, **{field: flip(getattr(result, field))})
        runs.append(result)
        return result

    monkeypatch.setattr(verify, "seesaw_maximize", flipping)
    record = verify.check_seesaw_determinism(np.random.default_rng(0), 2)
    assert len(runs) == 1
    assert record == verify.CheckResult("seesaw-determinism", False, "repeat run diverged")


def _flip_last_bit(settings):
    a1 = settings.a1.copy()
    a1.view(np.int64)[0] ^= 1
    return replace(settings, a1=a1)


@pytest.mark.parametrize("perturb", [
    lambda row: replace(row, iterations_used=row.iterations_used + 1),
    lambda row: replace(row, settings=_flip_last_bit(row.settings)),
], ids=["iterations_used", "settings-bit"])
def test_verify_seesaw_determinism_sees_a_perturbed_chained_row(monkeypatch, perturb):
    # run_all_checks repeats the first problem of the first chained slice and compares
    # it with that problem's batch row: a row off by one iteration or one bit of one
    # setting fails seesaw-determinism, and no other record moves.
    from bellmax import verify

    clean = verify.run_all_checks(3, 4)
    original, calls = verify._seesaw_batch, []

    def perturbing_first(problems, *args):
        rows = original(problems, *args)
        if not calls:
            rows[0] = perturb(rows[0])
        calls.append(len(problems))
        return rows

    monkeypatch.setattr(verify, "_seesaw_batch", perturbing_first)
    records = verify.run_all_checks(3, 4)
    index = [record.name for record in records].index("seesaw-determinism")
    assert clean[index] == verify.CheckResult("seesaw-determinism", True, "bit-identical repeat")
    assert records[index] == verify.CheckResult(
        "seesaw-determinism", False, "repeat run diverged")
    assert records[:index] + records[index + 1:] == clean[:index] + clean[index + 1:]


def test_verify_seesaw_determinism_sees_a_sign_bit(monkeypatch):
    # With constrain_y the y parts of the settings are exactly zero. A repeat whose
    # a1 y part is the other zero is equal in value, not in bits, and fails the check.
    from bellmax import sampling, verify

    case = (sampling.schmidt_state(np.random.default_rng(5), 3), 3,
            seesaw.SeesawConfig(restarts=2, seed=1))
    first = (case, True, seesaw._seesaw_batch([case], seesaw._moments([case]), True)[0])
    assert first[2].settings.a1[1] == 0.0
    record = verify.check_seesaw_determinism(None, 1, first=first)
    assert record == verify.CheckResult("seesaw-determinism", True, "bit-identical repeat")
    original = verify.seesaw_maximize

    def flipping_the_sign(*args, **kw):
        result = original(*args, **kw)
        a1 = result.settings.a1.copy()
        a1[1] = -a1[1]
        return replace(result, settings=replace(result.settings, a1=a1))

    monkeypatch.setattr(verify, "seesaw_maximize", flipping_the_sign)
    record = verify.check_seesaw_determinism(None, 1, first=first)
    assert record == verify.CheckResult("seesaw-determinism", False, "repeat run diverged")


@pytest.mark.parametrize("samples", [2, 25])
def test_verify_repeats_one_single_problem_seesaw_call(monkeypatch, samples):
    # Outside the chained batches, run_all_checks runs the see-saw once, on one
    # problem, whatever --samples is.
    from bellmax import verify

    sizes, repeats = [], []
    batch, maximize = seesaw._seesaw_batch, verify.seesaw_maximize

    def counted_batch(problems, *args):
        sizes.append(len(problems))
        return batch(problems, *args)

    def counted_maximize(*args, **kw):
        repeats.append(args)
        return maximize(*args, **kw)

    monkeypatch.setattr(seesaw, "_seesaw_batch", counted_batch)
    monkeypatch.setattr(verify, "seesaw_maximize", counted_maximize)
    assert all(record.passed for record in verify.run_all_checks(11, samples))
    assert sizes == [1]
    assert len(repeats) == 1


def _bell_norm_ceiling_per_sample(rng, samples):
    # The one-sample reference: a gamma set and spectral_max per sample.
    from bellmax import sampling
    from bellmax.operators import make_gamma_set
    from bellmax.seesaw import spectral_max

    for _ in range(samples):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        top = spectral_max(make_gamma_set(n, k), sampling.random_settings(rng, k))
        yield top - 2.0 * math.sqrt(2.0)


def _pauli_commutator_per_sample(rng, samples):
    from bellmax.operators import make_gamma_set

    for n in range(2, 10):
        for k in range(1, n + 1):
            gamma = make_gamma_set(n, k)
            gap = gamma.gx @ gamma.gy - gamma.gy @ gamma.gx - 2.0j * gamma.gz
            yield float(np.max(np.abs(gap)))


def _bell_value_identity_per_sample(rng, samples):
    # The one-sample reference: a direct trace and a 3x3 reduction per sample.
    from bellmax import sampling
    from bellmax.seesaw import bell_value, bell_value_from_correlations
    from bellmax.violation import correlation_data

    for idx in range(samples):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        state = sampling.mixed_density(rng, n) if idx % 2 else sampling.pure_density(rng, n)
        settings = sampling.random_settings(rng, k)
        yield abs(bell_value(state, settings)
                  - bell_value_from_correlations(correlation_data(state, k), settings))


@pytest.mark.parametrize("name, reference", [
    ("bell-norm-ceiling", _bell_norm_ceiling_per_sample),
    ("pauli-commutator", _pauli_commutator_per_sample),
    ("bell-value-identity", _bell_value_identity_per_sample),
])
def test_verify_stacked_checks_match_per_sample_reference(name, reference):
    # The stacked checks draw what the per-sample loops drew, in the same order,
    # and yield the same deviations, bit for bit, also past one slice.
    from bellmax import verify

    check = next(entry[1] for entry in verify._CHECKS if entry[0] == name)
    for samples in (1, 2, 5, 8, 25, verify._SLICE + 1):
        for seed in range(20 if samples < verify._SLICE else 1):
            stacked = [float(x).hex() for x in check(np.random.default_rng(seed), samples)]
            alone = [float(x).hex() for x in reference(np.random.default_rng(seed), samples)]
            assert stacked == alone, (samples, seed)


def test_verify_bell_stacks_keep_memory_flat_in_samples():
    # bell-norm-ceiling and bell-value-identity draw one slice of samples at a time
    # and drop their Bell operator stacks before the next, so each one's peak at two
    # and seven slices stays that of one; it moves only with how many samples of a
    # slice have N = 5.
    import tracemalloc

    from bellmax import verify

    for name in ("bell-norm-ceiling", "bell-value-identity"):
        check = next(entry[1] for entry in verify._CHECKS if entry[0] == name)
        list(check(np.random.default_rng(1), 8))  # one-time set-up
        peaks = []
        for samples in (verify._SLICE, 400, 1600):
            tracemalloc.start()
            try:
                deviations = list(check(np.random.default_rng(0), samples))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(deviations) == samples
        assert peaks[2] <= 1.5 * peaks[1], name
        assert peaks[2] <= 1.2 * peaks[0], name


def test_verify_runner_memory_is_flat_in_samples():
    # The runner reduces one slice of deviations at a time, so its peak does not grow
    # with the sample count, and a NaN in a later slice still fails the check.
    import tracemalloc

    from bellmax import verify

    def deviations(rng, samples):
        return (1e-12 * (i % 7) for i in range(samples))

    def late_nan(rng, samples):
        yield from deviations(rng, samples)
        yield math.nan

    verify._run("synthetic", deviations, 1e-10, "", None, 8)  # one-time set-up
    peaks = []
    for samples in (10 * verify._SLICE, 1000 * verify._SLICE):
        tracemalloc.start()
        try:
            result = verify._run("synthetic", deviations, 1e-10, "", None, samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.passed and result.detail == "worst deviation 6.000e-12 (bound 1.0e-10)"
    # Holding the 256 000 deviations would take 2 MB; one slice takes 2 kB.
    assert peaks[1] <= 4 * peaks[0] and peaks[1] < 0.1 * 8 * samples
    result = verify._run("synthetic", late_nan, 1e-10, "", None, 3 * verify._SLICE)
    assert not result.passed and result.detail.startswith("worst deviation nan")


def test_verify_bell_value_identity_sees_a_shifted_reduction(monkeypatch):
    # The stacked check compares the direct traces with seesaw._value, the one formula
    # of bell_value_from_correlations: shifting it by 1e-9 fails the check.
    from bellmax import verify

    value = seesaw._value
    monkeypatch.setattr(seesaw, "_value", lambda *args: value(*args) + 1e-9)
    for shifted in (True, False):
        records = {r.name: r for r in verify.run_all_checks(0, 4)}
        assert records["bell-value-identity"].passed is not shifted
        monkeypatch.setattr(seesaw, "_value", value)


@pytest.mark.parametrize("target, check", [
    ("_closed_values", "product-state-ceiling"),  # the closed-form batch the check calls
    ("_seesaw_batch", "closed-vs-seesaw-even"),  # the see-saw batch the check calls
])
def test_verify_nan_deviation_fails(capsys, monkeypatch, target, check):
    from dataclasses import replace

    from bellmax import verify

    original = getattr(verify, target)

    def with_nan(*args, **kw):  # a batch: one value or one row per problem
        result = original(*args, **kw)
        if target == "_closed_values":
            return *result[:-1], np.full_like(result[-1], math.nan)
        return [replace(row, value=math.nan) for row in result]

    monkeypatch.setattr(verify, target, with_nan)
    code, out, _err = run_cli(capsys, "verify", "--samples", "4", "--no-timestamp")
    assert code == 1
    failed = {c["name"]: c["detail"] for c in json.loads(out)["checks"] if not c["passed"]}
    assert failed[check].startswith("worst deviation nan")


@pytest.mark.parametrize("name", [
    "observable-dichotomy", "observable-involution", "bell-norm-ceiling",
    "pauli-commutator", "closed-vs-seesaw-even", "closed-vs-seesaw-schmidt",
    "product-state-ceiling", "isotropic-monotone", "gisin-constrained",
    "bell-value-identity", "state-constructions",
])
def test_verify_runner_fails_nan_in_every_bounded_check(monkeypatch, name):
    # The NaN comes first: max(0.0, nan) would drop it, np.maximum keeps it.
    from bellmax import verify

    ((_, check, bound, suffix),) = [entry for entry in verify._CHECKS if entry[0] == name]
    assert bound is not None

    def with_nan(rng, samples):
        yield math.nan
        yield from check(rng, samples)

    monkeypatch.setattr(verify, "_CHECKS", ((name, with_nan, bound, suffix),))
    (result,) = verify.run_all_checks(0, 2)
    assert result.name == name and not result.passed
    assert result.detail.startswith("worst deviation nan")


def test_verify_failure_exits_1(capsys, monkeypatch):
    from bellmax.verify import CheckResult

    def fake_checks(seed, samples):
        return [CheckResult("doomed", False, "synthetic counterexample")]

    monkeypatch.setattr(cli, "run_all_checks", fake_checks)
    code, out, err = run_cli(capsys, "verify", "--no-timestamp")
    assert code == 1
    assert json.loads(out)["failed"] == 1
    assert "doomed" in err and "synthetic counterexample" in err


def test_internal_error_exits_5(capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is no validation error.
    for error, expected in (
        (np.linalg.LinAlgError("Eigenvalues did not converge"), 5),
        (SchemaError("field 'N' must be an integer"), 2),
    ):
        def failing_checks(seed, samples, error=error):
            raise error

        monkeypatch.setattr(cli, "run_all_checks", failing_checks)
        code, out, err = run_cli(capsys, "verify", "--no-timestamp")
        assert code == expected
        assert out == "" and str(error) in err


def _near_hermitian_density(tmp_path, n):
    # A Wishart density plus 0.49e-9 i S, S real symmetric with a zero diagonal and
    # max |S| = 1: its asymmetry, 0.98e-9, is within DENSITY_HERMITIAN_ATOL.
    from bellmax import sampling

    rng = np.random.default_rng(0)
    rho = sampling.mixed_density(rng, n).rho
    s = rng.uniform(-1.0, 1.0, size=rho.shape)
    s += s.T
    np.fill_diagonal(s, 0.0)
    rho = rho + 0.49e-9j * s / np.abs(s).max()
    path = tmp_path / f"near_hermitian_{n}.json"
    path.write_text(json.dumps({"type": "density", "N": n,
                                "re": rho.real.tolist(), "im": rho.imag.tolist()}))
    return str(path)


@pytest.mark.parametrize("n", [2, 5, 7])
def test_admitted_density_is_no_internal_error(capsys, monkeypatch, tmp_path, n):
    # A density that load_state admits keeps its anti-Hermitian part, whose traces are
    # imaginary: the moments allow for it, and the reports are schema-valid. A gather
    # that is far from Hermitian is still an internal error.
    path = _near_hermitian_density(tmp_path, n)
    run_json(capsys, "scan-k", "--state", path, "--no-timestamp")
    run_json(capsys, "violation", "--state", path, "--method", "both", "--no-timestamp")
    chunk_moments = violation._chunk_moments
    monkeypatch.setattr(violation, "_chunk_moments",
                        lambda *args: chunk_moments(*args) + 1e-3j)
    code, out, err = run_cli(capsys, "scan-k", "--state", path, "--no-timestamp")
    assert code == 5
    assert out == "" and "expected real traces" in err


def test_verify_deterministic_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--seed", "7", "--samples", "25",
                             "--no-timestamp")
    code2, out2, _ = run_cli(capsys, "verify", "--seed", "7", "--samples", "25",
                             "--no-timestamp")
    assert code1 == code2 == 0
    assert out1 == out2


def test_parser_is_built_once_and_parses_afresh(capsys, example1, uncertified):
    # One parser per process, and every call parses into a fresh namespace: a
    # second pass over the six subcommands, each run after an argparse failure
    # and a call that sets options, gives the first pass's bytes and exit codes.
    # The manifest lists every option, so a value left over would show.
    assert cli.build_parser() is cli.build_parser()

    def run(*argv):
        try:
            code = cli.main([*argv, "--no-timestamp"])
        except SystemExit as exc:  # argparse rejects its argv this way
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    jobs = [("violation", "--state", example1), ("scan-k", "--state", uncertified),
            ("threshold", "--N", "3"), ("gamma", "--N", "3", "--axis", "pi"),
            ("optimize", "--state", example1, "--k", "2", "--restarts", "2"),
            ("verify", "--samples", "2")]
    first = [run(*argv) for argv in jobs]
    assert [code for code, _, _ in first] == [0] * len(jobs)
    for argv, expected in zip(jobs, first):
        failure = run("violation", "--state", example1, "--k", "x")
        assert failure[0] == 2 and "argument --k" in failure[2]
        both = run("violation", "--state", uncertified, "--k", "2", "--method", "both",
                   "--seed", "3")
        assert both[0] == 0 and '"method": "both"' in both[1]
        assert run(*argv) == expected, argv[0]


def test_manifest_embedded_everywhere(capsys, example1):
    # The parameters are the subcommand's own options in parser order,
    # then --output; the seed has its own field.
    subparsers = next(action for action in cli.build_parser()._actions
                      if action.dest == "command")
    shared = {"help", "seed", "output", "no_timestamp"}
    for argv in (
        ("violation", "--state", example1, "--k", "2"),
        ("scan-k", "--state", example1),
        ("threshold", "--N", "2"),
        ("gamma", "--N", "2", "--axis", "x"),
        ("optimize", "--state", example1, "--k", "2", "--restarts", "2"),
        ("verify", "--samples", "5"),
    ):
        payload = run_json(capsys, *argv, "--no-timestamp")
        manifest = payload["manifest"]
        assert manifest["command"] == argv[0]
        assert "parameters" in manifest and "seed" in manifest
        assert "timestamp" not in manifest
        options = [action.dest for action in subparsers.choices[argv[0]]._actions
                   if action.dest not in shared]
        assert list(manifest["parameters"]) == options + ["output"]


def test_manifest_timestamp_present_by_default(capsys):
    payload = run_json(capsys, "gamma", "--N", "2", "--axis", "x")
    assert "timestamp" in payload["manifest"]


def test_floats_roundtrip_exactly(capsys, example1):
    _, out, _ = run_cli(capsys, "violation", "--state", example1, "--k", "2",
                        "--no-timestamp")
    value = json.loads(out)["value"]
    from bellmax.violation import max_violation_closed_form

    state = SchmidtState(3, (HALF, 0.0, HALF))
    assert value == max_violation_closed_form(state, 2).value


# ---------------------------------------------------------------- golden

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (("gamma", "--N", "5", "--k", "3", "--axis", "y"), "gamma_n5_k3_y.json"),
    (("violation", "--state", "example.json", "--k", "2"), "violation_example_k2.json"),
    (("threshold", "--N", "2", "--grid", "3"), "threshold_n2_grid3.json"),
    (("threshold", "--N", "3"), "threshold_n3.json"),
    (("scan-k", "--state", "example.json"), "scan_k_example.json"),
])
def test_golden_report_bytes(capsys, monkeypatch, tmp_path, argv, name):
    # Every number here is exact on any LAPACK: the generators are integer
    # matrices, each R^T R is diagonal and every k of the example is
    # certified, so no see-saw runs. The state path is echoed in the
    # manifest, so it is written to the same relative path every time.
    monkeypatch.chdir(tmp_path)
    Path("example.json").write_text(json.dumps({
        "type": "schmidt", "N": 3, "coeffs": [HALF, 0.0, HALF],
    }))
    code, out, _ = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 0
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")
