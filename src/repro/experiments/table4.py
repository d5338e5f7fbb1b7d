"""Table IV: post-placement displacement / HPWL / runtime, flows (1)-(5).

Per testcase and flow: total displacement from the initial unconstrained
placement, HPWL and total placement runtime; the summary row normalizes
each metric against Flow (2), matching the paper's bottom row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RunConfig
from repro.core.flows import FlowKind
from repro.eval.report import format_table
from repro.experiments.testcases import (
    PAPER_TESTCASES,
    TestcaseSpec,
)
from repro.experiments.runner import resolve_run_config, run_testcase

ALL_FLOWS = (
    FlowKind.FLOW1,
    FlowKind.FLOW2,
    FlowKind.FLOW3,
    FlowKind.FLOW4,
    FlowKind.FLOW5,
)


@dataclass(frozen=True)
class Table4Row:
    testcase_id: str
    displacement: dict[int, float]  # flow -> nm (flow 1 absent)
    hpwl: dict[int, float]  # flow -> nm
    runtime_s: dict[int, float]  # flow -> seconds (flows 2-5)


@dataclass(frozen=True)
class Table4Result:
    rows: list[Table4Row]
    normalized_displacement: dict[int, float]
    normalized_hpwl: dict[int, float]
    normalized_runtime: dict[int, float]


def _normalize(rows: list[Table4Row], metric: str, flows: list[int]) -> dict[int, float]:
    """Mean of per-testcase ratios to Flow (2), the paper's convention."""
    out: dict[int, float] = {}
    for flow in flows:
        ratios = []
        for row in rows:
            values = getattr(row, metric)
            if flow in values and 2 in values and values[2] > 0:
                ratios.append(values[flow] / values[2])
        out[flow] = float(np.mean(ratios)) if ratios else float("nan")
    return out


def run(
    testcases: tuple[TestcaseSpec, ...] = PAPER_TESTCASES,
    config: RunConfig | None = None,
) -> Table4Result:
    config = resolve_run_config(config)
    rows: list[Table4Row] = []
    for spec in testcases:
        tc = run_testcase(spec, ALL_FLOWS, config=config)
        displacement: dict[int, float] = {}
        hpwl: dict[int, float] = {}
        runtime: dict[int, float] = {}
        for kind in ALL_FLOWS:
            res = tc.results[kind]
            hpwl[kind.value] = res.hpwl
            if kind is not FlowKind.FLOW1:
                displacement[kind.value] = res.displacement
                runtime[kind.value] = res.total_runtime_s
        rows.append(
            Table4Row(
                testcase_id=spec.testcase_id,
                displacement=displacement,
                hpwl=hpwl,
                runtime_s=runtime,
            )
        )
    return Table4Result(
        rows=rows,
        normalized_displacement=_normalize(rows, "displacement", [2, 3, 4, 5]),
        normalized_hpwl=_normalize(rows, "hpwl", [1, 2, 3, 4, 5]),
        normalized_runtime=_normalize(rows, "runtime_s", [2, 3, 4, 5]),
    )


def main(
    testcases: tuple[TestcaseSpec, ...] = PAPER_TESTCASES,
    config: RunConfig | None = None,
) -> Table4Result:
    config = config or RunConfig()
    result = run(testcases=testcases, config=config)
    body = []
    for row in result.rows:
        body.append(
            [row.testcase_id]
            + [row.displacement.get(f, float("nan")) / 1e5 for f in (2, 3, 4, 5)]
            + [row.hpwl.get(f, float("nan")) / 1e5 for f in (1, 2, 3, 4, 5)]
            + [row.runtime_s.get(f, float("nan")) for f in (2, 3, 4, 5)]
        )
    print(
        format_table(
            ["testcase"]
            + [f"disp({f})e5" for f in (2, 3, 4, 5)]
            + [f"hpwl({f})e5" for f in (1, 2, 3, 4, 5)]
            + [f"t({f})s" for f in (2, 3, 4, 5)],
            body,
            title=f"Table IV twin @ scale {config.scale:.4f} (units: 1e5 nm, s)",
        )
    )
    print(
        "Normalized vs Flow(2):  disp %s  hpwl %s  runtime %s"
        % (
            {k: round(v, 3) for k, v in result.normalized_displacement.items()},
            {k: round(v, 3) for k, v in result.normalized_hpwl.items()},
            {k: round(v, 3) for k, v in result.normalized_runtime.items()},
        )
    )
    return result


if __name__ == "__main__":
    main()
