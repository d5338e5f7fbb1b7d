"""Tests for critical paths, netlist stats, QoR report, Lagrangian solver."""

import numpy as np
import pytest

from repro.core.flows import FlowKind, FlowRunner
from repro.core.params import RCPPParams
from repro.eval.qor import collect_qor
from repro.netlist.stats import compute_stats
from repro.solvers.lagrangian import solve_rap_lagrangian
from repro.timing.graph import TimingGraph
from repro.timing.paths import extract_critical_paths, format_path
from repro.timing.sta import run_sta
from repro.timing.wireload import fanout_wireload_lengths
from repro.utils.errors import InfeasibleError
from tests.conftest import solve_assignment


class TestCriticalPaths:
    @pytest.fixture(scope="class")
    def analyzed(self, small_design):
        graph = TimingGraph.build(small_design)
        lengths = fanout_wireload_lengths(small_design)
        report = run_sta(small_design, graph, lengths)
        return small_design, graph, report, lengths

    def test_worst_first(self, analyzed):
        design, graph, report, lengths = analyzed
        paths = extract_critical_paths(design, graph, report, lengths, k=5)
        assert len(paths) == 5
        slacks = [p.slack_ps for p in paths]
        assert slacks == sorted(slacks)
        assert slacks[0] == pytest.approx(report.wns_ps, abs=1e-6)

    def test_paths_are_connected(self, analyzed):
        design, graph, report, lengths = analyzed
        for path in extract_critical_paths(design, graph, report, lengths, k=3):
            # Every consecutive (net, instance) pair must be wired: the
            # instance drives the next net and reads the previous one.
            for inst, out_net in zip(path.instances, path.nets[1:]):
                assert graph.inst_output[inst] == out_net
            for in_net, inst in zip(path.nets[:-1], path.instances):
                assert in_net in graph.inst_inputs[inst]

    def test_path_starts_at_source(self, analyzed):
        design, graph, report, lengths = analyzed
        for path in extract_critical_paths(design, graph, report, lengths, k=3):
            first = path.nets[0]
            driver = graph.net_driver[first]
            assert driver < 0 or design.instances[driver].is_sequential

    def test_format_path(self, analyzed):
        design, graph, report, lengths = analyzed
        path = extract_critical_paths(design, graph, report, lengths, k=1)[0]
        text = format_path(design, path)
        assert "slack" in text and "depth" in text


class TestNetlistStats:
    def test_stats_shape(self, small_design):
        stats = compute_stats(small_design)
        assert stats.n_cells == small_design.num_instances
        assert stats.minority_fraction_75t == pytest.approx(0.15, abs=0.01)
        assert 0.10 < stats.register_fraction < 0.14
        assert stats.max_logic_depth > 5
        assert stats.mean_net_degree > 2.0
        assert sum(stats.degree_histogram.values()) == sum(
            1 for n in small_design.nets if not n.is_clock
        )
        assert sum(stats.function_mix.values()) == pytest.approx(1.0)

    def test_as_rows(self, small_design):
        rows = compute_stats(small_design).as_rows()
        assert any(k == "cells" for k, _ in rows)


class TestQoR:
    def test_report_complete(self, placed_small):
        flow = FlowRunner(placed_small, RCPPParams()).run(FlowKind.FLOW5)
        report = collect_qor(flow.placed)
        assert report.n_cells == flow.placed.design.num_instances
        assert report.routed_wirelength_nm > 0
        assert report.hpwl_nm == pytest.approx(flow.hpwl, rel=1e-6)
        assert report.detour_factor >= 1.0
        assert report.legality_violations == 0
        assert len(report.critical_paths) == 3

    def test_render(self, placed_small):
        flow = FlowRunner(placed_small, RCPPParams()).run(FlowKind.FLOW5)
        report = collect_qor(flow.placed)
        text = report.render(flow.placed.design)
        assert "QoR report" in text
        assert "critical paths" in text
        assert "mW" in text


class TestLagrangian:
    def _instance(self, seed, n_c=6, n_p=8):
        rng = np.random.default_rng(seed)
        f = rng.uniform(1, 10, size=(n_c, n_p))
        widths = rng.uniform(80, 200, n_c)
        capacity = np.full(n_p, widths.sum() / 2.5)
        return f, widths, capacity

    def test_sandwiches_exact_optimum(self):
        for seed in range(6):
            f, w, cap = self._instance(seed)
            exact = solve_assignment(f, w, cap, 3, labels=np.arange(len(w)))
            lag = solve_rap_lagrangian(f, w, cap, 3)
            assert lag.lower_bound <= exact.objective + 1e-6
            assert lag.objective >= exact.objective - 1e-6

    def test_feasible_assignment(self):
        f, w, cap = self._instance(11)
        result = solve_rap_lagrangian(f, w, cap, 3)
        assert len(np.unique(result.assignment)) <= 3
        load = np.zeros(len(cap))
        np.add.at(load, result.assignment, w)
        assert (load <= cap + 1e-6).all()

    def test_gap_reasonable(self):
        f, w, cap = self._instance(7)
        result = solve_rap_lagrangian(f, w, cap, 3)
        assert result.objective < np.inf
        assert result.iterations >= 1

    def test_infeasible_detected(self):
        f = np.zeros((3, 3))
        w = np.full(3, 100.0)
        cap = np.full(3, 50.0)
        with pytest.raises(InfeasibleError):
            solve_rap_lagrangian(f, w, cap, 2)
