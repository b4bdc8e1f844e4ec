"""Tests of the benchmark itself, at the workloads' tiny sizes.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json

import pytest

import run
from spans import Tracer, layer_metrics, wrapped_targets

baropc = run.load_baropc()
import workloads  # noqa: E402  (needs baropc on the path)

COUNTS = (".calls", ".iters", ".spmv_flops", ".inner_iters", ".inner_iters_max")
IN_STEP_TIMES = (
    *(f"scheme.{s}.s" for s in ("step", "density", "renorm", "momentum", "projection",
                                "velocity_renorm")),
    *(f"linsolve.{s}.s" for s in ("density", "renorm", "momentum", "projection")),
    "operators.pressure_laplacian.s", "operators.convection_matrix.s",
    "operators.edge_mean.s", "verification.assemble_forcing.s", "eos.s")


def tiny(name):
    return workloads.WORKLOADS[name][1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_its_unit(name, trace):
    wl = tiny(name)
    result, report = run.measure(baropc, wl, wl, seed=3, seconds=0, trace=trace)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= wl.steps
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    json.dumps(result)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _entry_points():
    stepper = baropc.scheme.Stepper
    return [(owner, attr, owner.__dict__[attr])
            for _, owner, attr in wrapped_targets(baropc)] + [
        (stepper, "step", stepper.__dict__["step"])]


def test_wrappers_are_removed_after_traced_call(tmp_path):
    originals = _entry_points()
    call = run.run_call(baropc, tiny("smooth-160"), 0, tmp_path, Tracer())
    assert not call.problems and call.spans
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still wrapped"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_and_counts_match_untraced(name, tmp_path):
    wl = tiny(name)
    plain = run.run_call(baropc, wl, 5, tmp_path / "plain")
    first = run.run_call(baropc, wl, 5, tmp_path / "traced", Tracer())
    again = run.run_call(baropc, wl, 5, tmp_path / "again", Tracer())
    assert not (plain.problems or first.problems or again.problems)
    assert workloads.differing_outputs(wl, tmp_path / "plain", tmp_path / "traced") == []
    a, b = layer_metrics(first.spans), layer_metrics(again.spans)
    counts = [k for k in a if k.endswith(COUNTS)]
    assert len(counts) == 19
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["linsolve.projection.iters"] > 0
    steps = [span for span in first.spans if span[0] == "scheme.Stepper.step"]
    step_s = sum(t1 - t0 for _, t0, t1, _, _ in steps) / len(steps)
    assert sum(a[k] for k in IN_STEP_TIMES) == pytest.approx(step_s, rel=1e-9)


def test_failed_check_counts_every_step_of_the_call(tmp_path):
    wl = dataclasses.replace(tiny("smooth-160"), errors=(1.0, 1.0))
    call = run.run_call(baropc, wl, 0, tmp_path)
    assert len(call.problems) == 2 and call.failed == wl.steps


def test_nonzero_exit_counts_the_steps_not_taken(tmp_path):
    wl = dataclasses.replace(tiny("stability-64"), args=tiny("stability-64").args + ("--dt", "x"))
    call = run.run_call(baropc, wl, 0, tmp_path)
    assert "exit code 2" in call.problems[0] and call.failed == wl.steps


def test_crashed_traced_call_is_a_failure_and_unwraps(tmp_path):
    # alpha = 2 passes the config parser but SchemeConfig raises ValueError
    originals = _entry_points()
    wl = dataclasses.replace(tiny("stability-64"), args=tiny("stability-64").args + ("--alpha", "2"))
    call = run.run_call(baropc, wl, 0, tmp_path, Tracer())
    assert "ValueError" in call.problems[0] and call.failed == wl.steps
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_self_time_leaves_helpers_with_their_caller():
    # step [0, 10] > projection [1, 9] > cg [2, 5], edge_density [6, 8] > eos [6.5, 7]
    spans = [
        ["scheme.Stepper.step", 0.0, 10.0, -1, 4],
        ["scheme.projection_step", 1.0, 9.0, 0, 0],
        ["scheme.cg_solve", 2.0, 5.0, 1, (7, 10)],
        ["operators.edge_density", 6.0, 8.0, 1, 0],
        ["eos.rho", 6.5, 7.0, 3, 0],
    ]
    m = layer_metrics(spans)
    assert m["scheme.projection.s"] == pytest.approx(8.0 - 3.0 - 0.5)
    assert m["linsolve.projection.s"] == 3.0
    assert m["linsolve.projection.iters"] == 7
    assert m["linsolve.projection.spmv_flops"] == 2 * 10 * (7 + 1)
    assert m["eos.s"] == 0.5 and m["eos.calls"] == 1
    assert m["scheme.step.s"] == 2.0
    assert m["operators.edge_density.calls"] == 1
    assert m["trace.step_coverage"] == 0.8
    assert m["scheme.projection.inner_iters"] == 4
