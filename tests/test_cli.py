import json
import math
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


@pytest.mark.parametrize("target, check", [
    ("max_violation_closed_form", "product-state-ceiling"),
    ("seesaw_maximize", "closed-vs-seesaw-even"),
])
def test_verify_nan_deviation_fails(capsys, monkeypatch, target, check):
    from dataclasses import replace

    from bellmax import verify

    original = getattr(verify, target)
    monkeypatch.setattr(verify, target,
                        lambda *args, **kw: replace(original(*args, **kw), value=math.nan))
    code, out, _err = run_cli(capsys, "verify", "--samples", "4", "--no-timestamp")
    assert code == 1
    failed = {c["name"]: c["detail"] for c in json.loads(out)["checks"] if not c["passed"]}
    assert failed[check].startswith("worst deviation nan")


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


def test_verify_deterministic_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--seed", "7", "--samples", "25",
                             "--no-timestamp")
    code2, out2, _ = run_cli(capsys, "verify", "--seed", "7", "--samples", "25",
                             "--no-timestamp")
    assert code1 == code2 == 0
    assert out1 == out2


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
])
def test_golden_report_bytes(capsys, monkeypatch, tmp_path, argv, name):
    # Every number here is exact on any LAPACK: the generators are integer
    # matrices and each R^T R is diagonal. The state path is echoed in the
    # manifest, so it is written to the same relative path every time.
    monkeypatch.chdir(tmp_path)
    Path("example.json").write_text(json.dumps({
        "type": "schmidt", "N": 3, "coeffs": [HALF, 0.0, HALF],
    }))
    code, out, _ = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 0
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")
