"""Command-line interface: configs, outputs, exit codes."""

import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from natgrad.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from natgrad.optimizer import TRACE_CSV_HEADER, OptimizerConfig
from natgrad.gp_bench import SUMMARY_CSV_HEADER, BenchmarkConfig
from natgrad.validation import run_checks


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_config(tmp_path, name="run.json", **overrides):
    payload = {
        "family": "gaussian1d",
        "similarity": "kl",
        "metric": "fisher",
        "theta0": [-1.0, 2.0],
        "target": [0.5, 1.0],
        "optimizer": {"max_iters": 200, "grad_tol": 1e-8},
        "output": str(tmp_path / "trace.csv"),
    }
    payload.update(overrides)
    return _write_config(tmp_path, name, payload)


def _parse_matrix(lines):
    rows = [l for l in lines if l.startswith("[")]
    return np.array([[float(v) for v in row.strip("[]").split(",")] for row in rows])


# -- run ---------------------------------------------------------------------------


def test_run_kl_fisher(tmp_path, capsys):
    code = main(["run", _run_config(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "status=converged_grad" in out
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == TRACE_CSV_HEADER
    assert len(lines) >= 3
    final = lines[-1].split(",")
    assert float(final[2]) < 1e-8  # grad_norm at termination


def test_run_is_deterministic_except_time(tmp_path):
    cfg_a = _run_config(tmp_path, name="a.json", output=str(tmp_path / "a.csv"))
    cfg_b = _run_config(tmp_path, name="b.json", output=str(tmp_path / "b.csv"))
    assert main(["run", cfg_a]) == EXIT_OK
    assert main(["run", cfg_b]) == EXIT_OK

    def strip_time(path):
        return [line.rsplit(",", 1)[0] for line in (tmp_path / path).read_text().strip().split("\n")]

    assert strip_time("a.csv") == strip_time("b.csv")


def test_run_numeric_failure_exit_code(tmp_path, capsys):
    cfg = _run_config(
        tmp_path,
        similarity="chi2",
        theta0=[0.0, 1.0],
        target=[0.0, 20.0],
        optimizer={"max_iters": 10},
    )
    code = main(["run", cfg])
    out = capsys.readouterr().out
    assert code == EXIT_NUMERIC
    assert "status=numeric_failure" in out


def test_run_names_a_non_integral_max_iters(tmp_path, capsys):
    code = main(["run", _run_config(tmp_path, optimizer={"max_iters": 2.5})])
    assert code == EXIT_CONFIG
    assert "max_iters must be an integer" in capsys.readouterr().err


def test_run_prints_the_failure_reason_on_stderr(tmp_path, capsys):
    cfg = _run_config(tmp_path, similarity="chi2", theta0=[0.0, 1.0], target=[0.0, 2.0])
    code = main(["run", cfg])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERIC
    assert captured.out.splitlines()[0] == "status=numeric_failure iterations=0 final_cost=nan"
    assert captured.err.startswith("numeric_failure: DivergenceInfiniteError: ")
    assert (tmp_path / "trace.csv").read_text() == TRACE_CSV_HEADER + "\n"
    main(["run", _run_config(tmp_path)])
    assert capsys.readouterr().err == ""


def test_run_defaults_to_the_similarity_metric(tmp_path, capsys):
    # no "metric" key: the run descends half W2^2 under w2_1d, its own local
    # Hessian, which is exact for a location-scale family
    payload = {
        "family": "gaussian1d",
        "similarity": "wasserstein:2",
        "theta0": [2.0, 3.0],
        "target": [0.0, 1.0],
        "output": str(tmp_path / "trace.csv"),
    }
    code = main(["run", _write_config(tmp_path, "w2.json", payload)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "status=converged_grad iterations=1 " in out


def test_run_unknown_family_lists_ids(tmp_path, capsys):
    code = main(["run", _run_config(tmp_path, family="gausian1d")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "gaussian1d" in err and "categorical_softmax" in err


def test_run_unknown_similarity_lists_ids(tmp_path, capsys):
    code = main(["run", _run_config(tmp_path, similarity="kll")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "wasserstein" in err


def test_run_unknown_metric(tmp_path, capsys):
    code = main(["run", _run_config(tmp_path, metric="fishr")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "fisher" in err


def test_run_domain_violation(tmp_path, capsys):
    code = main(["run", _run_config(tmp_path, theta0=[0.0, -1.0])])
    assert code == EXIT_CONFIG
    assert "domain" in capsys.readouterr().err


def test_run_wrong_theta_length(tmp_path, capsys):
    code = main(["run", _run_config(tmp_path, theta0=[0.0, 1.0, 2.0])])
    assert code == EXIT_CONFIG


def test_run_missing_required_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.json", {"family": "gaussian1d", "similarity": "kl"})
    code = main(["run", cfg])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and "theta0" in err


def test_run_unknown_config_key(tmp_path, capsys):
    code = main(["run", _run_config(tmp_path, learning="fast")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and "allowed keys" in err


# A valid JSON value for each config field the CLI accepts.
FIELD_VALUES = {
    "optimizer": {"max_iters": 5, "grad_tol": 1e-8, "cost_tol": 1e-14, "damping": 1e-8},
    "gp_benchmark": {"m": 4, "seed": 3, "true_theta": [0.0, 0.0, -1.5], "theta0": [1.0, 1.2, 0.3],
                     "metrics": ["fisher"], "optimizer": {"max_iters": 3},
                     "threshold_offset": 1.0},
}
CONFIG_FIELDS = (
    [("optimizer", f.name) for f in fields(OptimizerConfig) if f.name != "metric"]
    + [("gp_benchmark", f.name) for f in fields(BenchmarkConfig)]
)


@pytest.mark.parametrize("section,key", CONFIG_FIELDS)
def test_run_accepts_every_config_field(tmp_path, capsys, section, key):
    # The allowed keys of each config section are its dataclass's fields.
    value = FIELD_VALUES[section][key]
    if section == "optimizer":
        cfg = _run_config(tmp_path, optimizer={key: value})
    else:
        payload = {"m": 4, "metrics": ["euclidean"], "optimizer": {"max_iters": 3},
                   "output_dir": str(tmp_path / "bench"), key: value}
        cfg = _write_config(tmp_path, "bench.json", {"gp_benchmark": payload})
    code = main(["run", cfg])
    assert code == EXIT_OK, capsys.readouterr().err


def test_run_missing_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_run_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_CONFIG
    path.write_text("[1, 2, 3]")
    assert main(["run", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("line_search", ["off", "backtracking", {"c1": 1e-3}])
def test_run_refuses_a_line_search_setting(tmp_path, capsys, line_search):
    # The Armijo search with fixed constants is the only step rule.
    cfg = _run_config(tmp_path, optimizer={"line_search": line_search})
    assert main(["run", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown optimizer keys: line_search" in err
    assert "allowed keys: cost_tol, damping, grad_tol, max_iters" in err


def test_run_refuses_an_infinite_tolerance(tmp_path, capsys):
    # json reads Infinity; accepted, grad_tol = inf ended the run
    # converged_grad at iteration 0, far from the target.
    cfg = _run_config(tmp_path, optimizer={"grad_tol": float("inf")})
    assert "Infinity" in open(cfg).read()
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "grad_tol must be finite and positive" in capsys.readouterr().err


def test_run_refuses_a_boolean_setting(tmp_path, capsys):
    # Accepted, "max_iters": true ran one iteration and exited 0.
    cfg = _run_config(tmp_path, optimizer={"max_iters": True})
    assert '"max_iters": true' in open(cfg).read()
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "max_iters must be an integer" in capsys.readouterr().err


# -- hessian -----------------------------------------------------------------------


def test_hessian_kl_gaussian(capsys):
    code = main(["hessian", "gaussian1d", "kl", "0,1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "metric=fdiv:kl" in out and "provenance=analytic" in out
    np.testing.assert_allclose(_parse_matrix(out.split("\n")), [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)


def test_hessian_w2_identity(capsys):
    code = main(["hessian", "gaussian1d", "wasserstein:2", "0.5,1.3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "metric=w2_1d" in out
    np.testing.assert_allclose(_parse_matrix(out.split("\n")), np.eye(2), atol=1e-6)


def test_hessian_check_flag(capsys):
    code = main(["hessian", "gaussian1d", "kl", "0,1", "--check"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    dev_line = [l for l in out.split("\n") if "max deviation" in l]
    assert len(dev_line) == 1
    assert float(dev_line[0].rsplit(":", 1)[1]) < 1e-3


def test_hessian_w2_gaussian_mvn_is_bures_wasserstein(capsys):
    # half the squared W2 has the identity as its mean block; --check
    # compares the closed form with finite differences of the same cost
    code = main(["hessian", "mvn_lcholesky:2", "w2_gaussian", "0.1,0.2,0.3,0.4,0.5", "--check"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "metric=w2_gaussian provenance=analytic" in out
    H = _parse_matrix(out.split("\n"))
    np.testing.assert_array_equal(H[:2, :2], np.eye(2))
    np.testing.assert_array_equal(H[:2, 2:], 0.0)
    dev_line = [l for l in out.split("\n") if "max deviation" in l]
    assert 0.0 < float(dev_line[0].rsplit(":", 1)[1]) < 1e-4


def test_hessian_directional_wasserstein(capsys):
    code = main(["hessian", "gaussian1d", "wasserstein:3", "0,1", "--direction", "1,0.4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "metric=wp_1d:3" in out
    H = _parse_matrix(out.split("\n"))
    assert H.shape == (2, 2) and np.all(np.isfinite(H))


def test_hessian_refuses_a_direction_of_the_wrong_length(capsys):
    code = main(["hessian", "gaussian1d", "wasserstein:3", "0,1", "--metric", "fd:wasserstein:3",
                 "--direction", "1"])
    assert code == EXIT_CONFIG
    assert "direction must have length 2" in capsys.readouterr().err


def test_hessian_directional_requires_direction(capsys):
    code = main(["hessian", "gaussian1d", "wasserstein:3", "0,1"])
    assert code == EXIT_CONFIG
    assert "direction" in capsys.readouterr().err


def test_hessian_categorical_pullback(capsys):
    code = main(["hessian", "categorical_softmax:3", "fisher_rao2", "0,0,0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "provenance=pullback" in out
    p = 1.0 / 3.0
    np.testing.assert_allclose(
        _parse_matrix(out.split("\n")), np.diag([p] * 3) - p * p, atol=1e-6
    )


def test_hessian_metric_override(capsys):
    code = main(["hessian", "gaussian1d", "kl", "0,1", "--metric", "fd:kl"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "provenance=finite_difference" in out


def test_hessian_bad_theta(capsys):
    assert main(["hessian", "gaussian1d", "kl", "a,b"]) == EXIT_CONFIG


# -- validate ------------------------------------------------------------------------


def test_validate_all_checks_pass(capsys):
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [l for l in out.strip().split("\n") if l]
    assert lines[-1] == "12/12 checks passed"
    check_lines = lines[:-1]
    assert len(check_lines) == 12
    for line in check_lines:
        assert "deviation=" in line and "tolerance=" in line and line.endswith("PASS")


def test_validate_alternate_seed(capsys):
    assert main(["validate", "--seed", "1"]) == EXIT_OK
    assert "12/12 checks passed" in capsys.readouterr().out


def test_validate_fault_injection_fails_one_check():
    # the hook scales one side of the divergence-scaling comparison, so
    # exactly that check must fail while every other stays green
    results = run_checks(seed=0, fisher_scale=1.1)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["fdiv_scaling_vs_fd"]


@pytest.mark.parametrize("seed", [3, 22, 39, 74, 94, 111, 127, 134, 179, 206, 235, 240])
def test_validate_passes_where_the_kl_density_ratio_underflowed(seed, capsys):
    # These seeds draw KL quadrature pairs whose ratio q/p underflowed to 0
    # on the window, so p f(q/p) read p * inf; the perspective form sums
    # p (log p - log q) from the logs and stays finite.
    assert main(["validate", "--seed", str(seed)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("12/12 checks passed\n")


# The deviations of run_checks(seed) as measured before the checks became one
# table, in check order.  A row that draws other points from the seeded
# generator moves by O(1); roundoff in the integrands moves far less than 1e-3.
PINNED_DEVIATIONS = {
    0: [1.76464e-08, 1.39698e-07, 5.55112e-17, 1.61721e-08, 1.03575e-10, 0.0, 0.0,
        2.51616e-04, -1.10874e-02, 1.77636e-15, 2.58683e-10, 3.41251e-10],
    1: [3.41970e-08, 1.54758e-07, 5.55112e-17, 9.73435e-09, 1.03575e-10, 0.0, 0.0,
        1.56237e-04, -1.10874e-02, 6.21725e-15, 2.42831e-11, 1.96327e-10],
}


@pytest.mark.parametrize("seed", sorted(PINNED_DEVIATIONS))
def test_run_checks_draws_the_pinned_points(seed):
    deviations = [r.deviation for r in run_checks(seed=seed)]
    assert deviations == pytest.approx(PINNED_DEVIATIONS[seed], rel=1e-3, abs=1e-13)


def test_validate_fails_a_check_whose_deviations_are_nan():
    # the worst of a check's deviations is NaN when any of them is, not 0.0
    results = run_checks(seed=0, fisher_scale=float("nan"))
    assert [r.name for r in results if not r.passed] == ["fdiv_scaling_vs_fd"]


def test_validate_deterministic(capsys):
    main(["validate"])
    first = capsys.readouterr().out
    main(["validate"])
    second = capsys.readouterr().out
    assert first == second


# -- gp benchmark ----------------------------------------------------------------------


def _bench_payload(tmp_path, **overrides):
    payload = {
        "m": 8,
        "seed": 42,
        "metrics": ["euclidean", "fisher"],
        "optimizer": {"max_iters": 300, "grad_tol": 1e-6},
        "output_dir": str(tmp_path / "bench"),
    }
    payload.update(overrides)
    return payload


def test_bench_gp_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bench.json", _bench_payload(tmp_path))
    code = main(["bench-gp", cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "threshold=" in out
    summary = (tmp_path / "bench" / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == SUMMARY_CSV_HEADER
    assert len(summary) == 3
    for metric in ("euclidean", "fisher"):
        trace_lines = (tmp_path / "bench" / f"trace_{metric}.csv").read_text().split("\n")
        assert trace_lines[0] == TRACE_CSV_HEADER


def test_run_accepts_gp_benchmark_config(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "bench2.json", {"gp_benchmark": _bench_payload(tmp_path, metrics=["fisher"])}
    )
    code = main(["run", cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "fisher:" in out


def test_bench_gp_rejects_bad_metric(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bench3.json", _bench_payload(tmp_path, metrics=["bogus"]))
    code = main(["bench-gp", cfg])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and "euclidean" in err


def test_bench_gp_rejects_unknown_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bench4.json", _bench_payload(tmp_path, granularity=3))
    assert main(["bench-gp", cfg]) == EXIT_CONFIG


def test_bench_gp_refuses_a_cost_threshold(tmp_path, capsys):
    # The threshold is NLL(true_theta) + threshold_offset; it has no second key.
    cfg = _write_config(tmp_path, "bench5.json", _bench_payload(tmp_path, cost_threshold=5.0))
    assert main(["bench-gp", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown gp_benchmark config keys: cost_threshold" in err and "threshold_offset" in err


def test_bench_gp_summary_deterministic(tmp_path):
    cfg_a = _write_config(
        tmp_path, "a.json", _bench_payload(tmp_path, output_dir=str(tmp_path / "a"))
    )
    cfg_b = _write_config(
        tmp_path, "b.json", _bench_payload(tmp_path, output_dir=str(tmp_path / "b"))
    )
    assert main(["bench-gp", cfg_a]) == EXIT_OK
    assert main(["bench-gp", cfg_b]) == EXIT_OK
    assert (tmp_path / "a" / "summary.csv").read_text() == (tmp_path / "b" / "summary.csv").read_text()


# -- installed entry point ----------------------------------------------------------------


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "natgrad.cli", "hessian", "gaussian1d", "kl", "0,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "provenance=analytic" in proc.stdout


def test_console_script_installed():
    proc = subprocess.run(["natgrad", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "hessian" in proc.stdout
