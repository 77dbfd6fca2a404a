"""Tests of the benchmark's tracer and records.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Ops per workload in the transparency test: enough to cover every kind of
# call a workload makes (closed-form ops cover all eight problems each).
OPS = {"gp-w2": 1, "onedim-fdiv": 2, "onedim-transport": 2, "closed-form": 1, "validate": 1}


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_changes_no_answer_and_restores_every_name(name):
    cases = workloads.build(name, seed=7)[: OPS[name]]
    untraced = [workloads.summarize(c.run()) for c in cases]

    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    try:
        traced = []
        for k, case in enumerate(cases):
            tracer.begin_op()
            traced.append(workloads.summarize(case.run()))
            stats = tracer.end_op(k)
            assert sum(stats["calls"].values()) > 0
    finally:
        tracer.uninstall()

    assert traced == untraced  # iterations, costs, statuses, steps: bit for bit
    assert len(patched) > 100
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} still wrapped"


def test_counts_repeat_exactly():
    case = workloads.build("onedim-transport", seed=3)[0]
    runs = []
    tracer = Tracer()
    for k in range(2):
        tracer.install()
        try:
            tracer.begin_op()
            case.run()
            stats = tracer.end_op(k)
        finally:
            tracer.uninstall()
        runs.append((stats["calls"], stats["cost_evals"], stats["counters"]))
    assert runs[0] == runs[1]


def test_same_seed_same_inputs():
    labels = [[c.label for c in workloads.build("gp-w2", s)] for s in (5, 5, 6)]
    assert labels[0] == labels[1]
    assert labels[0] != labels[2]


def test_records_match_the_code():
    records = json.loads((HERE / "records.json").read_text())
    tol = records["tolerances"]
    assert tol["point_target_final_cost"] == workloads.POINT_TARGET_COST_TOL
    assert tol["gp_final_nll_from_optimum"] == workloads.GP_NLL_TOL
    assert tol["gp_w2_iteration_budget"] == workloads.GP_W2_ITERS
    assert set(records["workloads"]) == set(workloads.WORKLOADS)
    assert records["known_defects"]["validate_kl_quadrature_overflow"]["seeds"] == list(
        workloads.VALIDATE_FAILING_SEEDS
    )
