"""Table V: post-route wirelength / power / WNS / TNS, flows (1),(2),(4),(5).

Each flow's placement is routed with the congestion-driven global router;
the routed lengths drive STA and the power model.  The summary normalizes
against Flow (2), and the footnote-5 rank-correlation check (HPWL ordering
vs routed-WL ordering) is computed alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RunConfig
from repro.core.flows import FlowKind
from repro.eval.metrics import evaluate_post_route
from repro.eval.report import format_table, rank_correlation_matches
from repro.experiments.runner import resolve_run_config, run_testcase
from repro.experiments.testcases import (
    PAPER_TESTCASES,
    TestcaseSpec,
)

ROUTED_FLOWS = (FlowKind.FLOW1, FlowKind.FLOW2, FlowKind.FLOW4, FlowKind.FLOW5)


@dataclass(frozen=True)
class Table5Row:
    testcase_id: str
    wirelength: dict[int, float]  # nm
    power_mw: dict[int, float]
    wns_ns: dict[int, float]
    tns_ns: dict[int, float]
    hpwl: dict[int, float]  # for the rank-correlation footnote


@dataclass(frozen=True)
class Table5Result:
    rows: list[Table5Row]
    normalized: dict[str, dict[int, float]]
    rank_matches: int
    rank_comparisons: int


def _normalize(rows: list[Table5Row], metric: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for flow in (1, 2, 4, 5):
        ratios = []
        for row in rows:
            values = getattr(row, metric)
            ref = values.get(2, 0.0)
            if flow in values and ref != 0.0:
                ratios.append(values[flow] / ref)
        out[flow] = float(np.mean(ratios)) if ratios else float("nan")
    return out


def run(
    testcases: tuple[TestcaseSpec, ...] = PAPER_TESTCASES,
    config: RunConfig | None = None,
) -> Table5Result:
    config = resolve_run_config(config)
    rows: list[Table5Row] = []
    matches = comparisons = 0
    for spec in testcases:
        tc = run_testcase(spec, ROUTED_FLOWS, config=config)
        wl: dict[int, float] = {}
        power: dict[int, float] = {}
        wns: dict[int, float] = {}
        tns: dict[int, float] = {}
        hpwl: dict[int, float] = {}
        for kind in ROUTED_FLOWS:
            flow = tc.results[kind]
            metrics, _routing, _sta, _power = evaluate_post_route(flow)
            wl[kind.value] = metrics.wirelength_nm
            power[kind.value] = metrics.total_power_mw
            wns[kind.value] = metrics.wns_ns
            tns[kind.value] = metrics.tns_ns
            hpwl[kind.value] = flow.hpwl
        row = Table5Row(
            testcase_id=spec.testcase_id,
            wirelength=wl,
            power_mw=power,
            wns_ns=wns,
            tns_ns=tns,
            hpwl=hpwl,
        )
        rows.append(row)
        m, c = rank_correlation_matches(row.hpwl, row.wirelength)
        matches += m
        comparisons += c
    normalized = {
        "wirelength": _normalize(rows, "wirelength"),
        "power": _normalize(rows, "power_mw"),
        "wns": _normalize(rows, "wns_ns"),
        "tns": _normalize(rows, "tns_ns"),
    }
    return Table5Result(
        rows=rows,
        normalized=normalized,
        rank_matches=matches,
        rank_comparisons=comparisons,
    )


def main(
    testcases: tuple[TestcaseSpec, ...] = PAPER_TESTCASES,
    config: RunConfig | None = None,
) -> Table5Result:
    config = config or RunConfig()
    result = run(testcases=testcases, config=config)
    body = []
    for row in result.rows:
        body.append(
            [row.testcase_id]
            + [row.wirelength.get(f, float("nan")) / 1e5 for f in (1, 2, 4, 5)]
            + [row.power_mw.get(f, float("nan")) for f in (1, 2, 4, 5)]
            + [row.wns_ns.get(f, float("nan")) for f in (1, 2, 4, 5)]
            + [row.tns_ns.get(f, float("nan")) for f in (1, 2, 4, 5)]
        )
    print(
        format_table(
            ["testcase"]
            + [f"wl({f})e5" for f in (1, 2, 4, 5)]
            + [f"P({f})mW" for f in (1, 2, 4, 5)]
            + [f"wns({f})" for f in (1, 2, 4, 5)]
            + [f"tns({f})" for f in (1, 2, 4, 5)],
            body,
            title=f"Table V twin @ scale {config.scale:.4f}",
        )
    )
    print(
        "Normalized vs Flow(2): %s"
        % {
            metric: {k: round(v, 3) for k, v in vals.items()}
            for metric, vals in result.normalized.items()
        }
    )
    print(
        f"HPWL/routed-WL rank matches: {result.rank_matches}/"
        f"{result.rank_comparisons} (paper: 147/156)"
    )
    return result


if __name__ == "__main__":
    main()
