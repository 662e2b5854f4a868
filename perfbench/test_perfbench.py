"""Tests of the benchmark itself: reference check, tracer, smoke runs.

Run from the repository root with ``python -m pytest perfbench``.
"""

import copy
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from spans import Tracer, call_cost  # noqa: E402

SMOKE = harness.Workload("disk", 1, 2)


@pytest.fixture(scope="module")
def reference():
    return harness.load_reference()


@pytest.fixture(scope="module")
def smoke_ref(reference):
    return reference["disk-ml4"][:2]


def test_reference_covers_every_workload(reference):
    assert set(reference) == set(harness.WORKLOADS)
    for name, wl in harness.WORKLOADS.items():
        assert len(reference[name]) == wl.levels


def _perturbed(rows, edit):
    out = copy.deepcopy(rows)
    edit(out)
    return out


@pytest.mark.parametrize("edit", [
    lambda r: r[2]["errors"].__setitem__(0, r[2]["errors"][0] * (1 + 1e-4)),
    lambda r: r[3]["errors"].__setitem__(2, r[3]["errors"][2] * (1 - 1e-5)),
    lambda r: r[1].__setitem__("R", r[1]["R"] * 1.001),
    lambda r: r[0].__setitem__("m", r[0]["m"] + 1),
    lambda r: r[3].__setitem__("dimension", r[3]["dimension"] - 1),
    lambda r: r[1]["rates"].__setitem__("H2", r[1]["rates"]["H2"] + 1e-3),
    lambda r: r[1].__setitem__("errors", None),
    lambda r: r.pop(),
], ids=["L2", "H2", "R", "m", "dimension", "rate", "errors-missing", "level-missing"])
def test_reference_check_rejects_perturbed_table(reference, edit):
    ref = reference["disk-ml4"]
    assert harness.check_rows(ref, ref) == []
    assert harness.check_rows(_perturbed(ref, edit), ref)


def test_reference_check_absorbs_roundoff(reference):
    ref = reference["disk-ml4"]

    def roundoff(rows):
        for row in rows:
            row["errors"] = [e * (1 + 3e-8) for e in row["errors"]]
            row["R"] *= 1 - 3e-8

    assert harness.check_rows(_perturbed(ref, roundoff), ref) == []


def test_self_times_add_up_to_span_totals():
    names = harness.STUDY_NAMES + harness.SETUP_NAMES
    start = time.perf_counter()
    with Tracer(harness.PACKAGE, names) as tracer:
        harness.setup_pass(SMOKE)
    wall = time.perf_counter() - start
    assert tracer.absent == []
    assert tracer.calls["mesh.refine_uniform"] == 1
    assert tracer.calls["space.build_space"] == 2
    assert 0.0 < tracer.root_s <= wall
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s, rel=1e-9)
    for name in tracer.names:
        assert tracer.self_s[name] <= tracer.total_s[name] + 1e-12


def test_tracer_restores_the_package():
    from conicfem import bernstein, mesh, solver, space
    before = (solver.refine_uniform, mesh.refine_uniform,
              bernstein.bernstein_matrix, space.SplineSpace.__dict__["spline"])
    with Tracer(harness.PACKAGE, harness.STUDY_NAMES):
        assert solver.refine_uniform is mesh.refine_uniform
        assert solver.refine_uniform is not before[0]
    after = (solver.refine_uniform, mesh.refine_uniform,
             bernstein.bernstein_matrix, space.SplineSpace.__dict__["spline"])
    assert after == before


def test_missing_names_are_reported_absent():
    names = ("assembly.no_such_function", "space.SplineSpace.no_method",
             "no_module.anything", "bernstein.bernstein_matrix")
    observers = {"bernstein.bernstein_matrix":
                 lambda args, result: result.no_attribute}
    bary = np.array([[1 / 3, 1 / 3, 1 / 3]])
    with Tracer(harness.PACKAGE, names, observers) as tracer:
        from conicfem import bernstein
        first = bernstein.bernstein_matrix(2, bary)
        second = bernstein.bernstein_matrix(2, bary)
    assert tracer.absent == list(names[:3]) + ["bernstein.bernstein_matrix (observer)"]
    assert tracer.calls["assembly.no_such_function"] == 0
    assert tracer.calls["bernstein.bernstein_matrix"] == 2
    assert np.array_equal(first, second)


def test_call_cost_is_small_and_positive():
    assert 0.0 < call_cost(calls=2000, repeats=3) < 1e-4


def test_smoke_disk_l1_2(smoke_ref):
    domain, start_mesh, dims = harness.setup_pass(SMOKE)
    assert dims == [row["dimension"] for row in smoke_ref]
    rows = harness.study_pass(SMOKE, domain, start_mesh)
    assert harness.check_rows(rows, smoke_ref) == []


@pytest.mark.parametrize("run, expected", [
    (harness.untraced_run, {"study_s", "setup_s", "peak_rss_mb"}),
    (harness.traced_run, {"trace.overhead_s", "assembly.solve_sparse.self_s",
                          "setup.mesh.refine_uniform.calls", "assembly.nnz"}),
])
def test_smoke_runs_report_metrics(smoke_ref, run, expected):
    tally = harness.Tally()
    metrics = run(SMOKE, smoke_ref, 0.0, tally)
    assert tally.failed == 0 and tally.attempted >= 3
    assert expected <= set(metrics)
    assert all(isinstance(v, (int, float)) for v, _ in metrics.values())
