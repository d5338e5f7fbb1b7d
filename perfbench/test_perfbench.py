"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They use tiny instances (400 cells), so the whole file runs in well under
a minute.
"""

import dataclasses
import importlib
import json
import os
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as bench_run  # noqa: E402
from checks import check_flow, check_row_assignment  # noqa: E402
from hostspeed import normalized  # noqa: E402
from layers import WRAPPED, LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Run,
    Workload,
    rap_outcomes,
    tail_percentile,
)

from repro import FlowKind  # noqa: E402

TINY_SCALE = 0.01  # every testcase floors at 400 cells


def tiny(workload: Workload) -> Workload:
    return dataclasses.replace(workload, scale=TINY_SCALE)


def execute(workload: Workload, trace: bool) -> Run:
    run = Run(tiny(workload), seed=0, seconds=0.0, trace=trace)
    run.execute()
    return run


@pytest.fixture(scope="module")
def spec():
    return bench_run.load_spec()


def test_every_wrapper_restores_the_original():
    originals = {
        (m, a): getattr(importlib.import_module(m), a)
        for m, a, _layer, _count in WRAPPED
    }
    with pytest.raises(RuntimeError):
        with LayerTracer() as tracer:
            for (m, a), fn in originals.items():
                wrapped = getattr(importlib.import_module(m), a)
                assert wrapped is not fn
                assert wrapped.__wrapped__ is fn
            raise RuntimeError("leave the context by an exception")
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a}"
    assert tracer.spans == []


def test_spans_nest_and_give_self_time():
    tracer = LayerTracer(wrapped=())
    with tracer.operation("op"):
        index = tracer._open("outer")
        inner = tracer._open("inner")
        tracer._close(inner)
        tracer._close(index)
    layers = tracer.by_layer()
    assert set(layers) == {"outer", "inner"}
    outer = tracer.spans[1]
    assert outer.self_s == pytest.approx(
        outer.duration - tracer.spans[2].duration
    )
    covered, total = tracer.coverage()
    assert covered == pytest.approx(outer.duration)
    assert total >= covered


def test_workloads_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metric_names_match_benchmark_json(spec, trace):
    run = execute(WORKLOADS["five_flows_aes400"], trace)
    assert run.failed == 0
    group = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = bench_run.select_metrics(spec, run.values, trace)
    assert list(metrics) == [m["name"] for m in group]
    assert all(m["unit"] == g["unit"] for m, g in zip(metrics.values(), group))
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
        # Wall time over the run's mean reference time.
        assert metrics["place_s"]["value"] == pytest.approx(normalized(
            run.values["place_wall_s"], statistics.mean(run.refs)
        ))
    else:
        assert run.n_traced >= 1
        assert metrics["trace.coverage"]["value"] > 0.5
        # The ECO stream follows the traced placement job.
        assert metrics["eco_deltas"]["value"] >= 2
        assert metrics["eco.apply_delta_s"]["value"] > 0


def test_corrupted_placement_is_a_failed_operation(monkeypatch):
    from repro.core.flows import FlowRunner

    original = FlowRunner.run

    def corrupt(self, kind):
        result = original(self, kind)
        if kind is FlowKind.FLOW5:
            result.placed.x[0] += 1  # off the site grid
        return result

    monkeypatch.setattr(FlowRunner, "run", corrupt)
    run = execute(WORKLOADS["flow5_3h_fpu"], trace=False)
    assert run.attempted >= 1
    assert run.failed == run.attempted


def test_checks_catch_wrong_hpwl_and_row_assignment():
    # aes_300 has the highest 7.5T share: enough minority cells to
    # overfill one pair.
    run = Run(Workload("flow5_aes300", "aes_300", TINY_SCALE), 0, 0.0, False)
    design = run.build(0)
    _dt, runner, results = run.place(design)
    five = results[FlowKind.FLOW5]
    assert check_flow(runner, five) == []

    five.hpwl *= 1.001
    assert any("HPWL" in p for p in check_flow(runner, five))

    a = five.assignment
    tracks = list(a.pair_tracks)
    minority = int(a.minority_pairs[0])
    tracks[minority] = runner.majority_track
    broken = dataclasses.replace(a, pair_tracks=tracks)
    problems = check_row_assignment(runner, broken)
    assert any("budget" in p for p in problems)
    assert any("foreign pairs" in p for p in problems)

    crowded = dataclasses.replace(
        a, cell_to_pair=np.full_like(a.cell_to_pair, minority)
    )
    assert any("capacity" in p for p in check_row_assignment(runner, crowded))


def test_rap_outcomes_read_the_solver_verdict():
    def node(name, children=(), **attrs):
        return {"name": name, "attrs": attrs, "children": list(children)}

    tree = node("flow.5", [
        node("rap.sparse", outcome="certified"),
        node("rap.sparse", outcome="budget_exhausted"),
        node("rap.nheight", [node("milp.highs", status="optimal")],
             outcome="dense"),
        node("rap.nheight", [node("milp.highs", status="time_limit")],
             outcome="dense"),
    ])
    assert rap_outcomes(tree) == [True, False, True, False]
    assert rap_outcomes(None) == []


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 41))
    pct, value = tail_percentile(values)
    assert value == 30 and pct == 75.0
    assert sum(v > value for v in values) == 10
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_result_line_is_last_and_complete(capsys, spec, monkeypatch):
    monkeypatch.setattr(
        "workloads.WORKLOADS",
        {"tiny": tiny(WORKLOADS["five_flows_aes400"])},
    )
    code = bench_run.main(
        ["--workload", "tiny", "--seed", "0", "--seconds", "0", "--trace", "0"]
    )
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
