"""Golden outputs of the row-assignment flows, pinned bit for bit.

Each case runs flows off one small initial placement and compares a
fingerprint of every result against values recorded from the
reference implementation:

* hashes of ``pair_tracks`` and of each height class's ``cell_to_pair``
  (the concatenated class-major vector split by class size);
* the RAP objective (ILP flows only), HPWL and displacement, exactly;
* the backend that answered, every rung attempt in order, and the
  relaxation sequence.

Two-height cases cover flows (2)-(5); three-height cases cover the ILP
flows (4)-(5).  One failure-path case per class count fails the
primary ``rap.highs`` rung so the chain's fallback order is pinned too.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.heights import HeightClass, HeightSpec
from repro.core.params import RCPPParams
from repro.experiments.testcases import (
    NHEIGHT_TESTCASES,
    build_nheight_testcase,
)
from repro.techlib.asap7 import make_asap7_library
from repro.utils.resilience import FaultPlan
from tests.conftest import make_design

THREE_HEIGHT = HeightSpec(6.0, (HeightClass(7.5), HeightClass(9.0)))


def _digest(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def fingerprint(runner: FlowRunner, result) -> dict:
    """The pinned facets of one flow result (JSON-able)."""
    assignment = result.assignment
    sizes = [len(indices) for indices, _ in runner.initial.classes().values()]
    per_class = np.split(
        np.asarray(assignment.cell_to_pair), np.cumsum(sizes)[:-1]
    )
    tracks = json.dumps([float(t) for t in assignment.pair_tracks])
    ilp = result.kind.row_assignment == "ilp"
    prov = result.provenance
    return {
        "pair_tracks": hashlib.sha256(tracks.encode()).hexdigest()[:16],
        "cell_to_pair": [_digest(c) for c in per_class],
        "objective": float(assignment.objective) if ilp else None,
        "hpwl": float(result.hpwl),
        "displacement": float(result.displacement),
        "backend": prov.backend,
        "attempts": [[a.stage, a.ok, a.relaxation] for a in prov.attempts],
        "relaxations": list(prov.relaxations),
    }


def _two_height_initial(n_cells: int):
    library = make_asap7_library()
    design = make_design(
        library, n_cells=n_cells, minority_fraction=0.18, seed=12
    )
    return prepare_initial_placement(design, library)


def _three_height_initial(scale: float):
    library = make_asap7_library(tracks=(6.0, 7.5, 9.0))
    design = build_nheight_testcase(NHEIGHT_TESTCASES[0], library, scale=scale)
    return prepare_initial_placement(design, library, heights=THREE_HEIGHT)


ILP_FLOWS = (FlowKind.FLOW4, FlowKind.FLOW5)
ALL_FLOWS = (FlowKind.FLOW2, FlowKind.FLOW3) + ILP_FLOWS

#: Case -> (class count, size, flows, failed rung, sparse RAP).  Size is
#: the cell count of a two-height case and the testcase scale of a
#: three-height one.  At 1,500 cells / scale 1/8 both RAP engines prune
#: by reduced costs; the smaller cases solve one full-mask model.
CASES = {
    "k1-healthy": (1, 1500, ALL_FLOWS, None, True),
    "k1-highs_fails": (1, 1500, (FlowKind.FLOW5,), "rap.highs", True),
    "k1_dense-highs_fails": (1, 420, (FlowKind.FLOW5,), "rap.highs", False),
    "k3-healthy": (3, 1.0 / 8.0, ILP_FLOWS, None, True),
    "k3-highs_fails": (3, 1.0 / 8.0, (FlowKind.FLOW5,), "rap.highs", True),
    "k3_small-highs_fails": (
        3, 1.0 / 192.0, (FlowKind.FLOW5,), "rap.highs", True,
    ),
}


def run_case(name: str) -> dict[str, dict]:
    """Flow number -> fingerprint for one named golden case."""
    n_tracks, size, kinds, failed, sparse = CASES[name]
    if n_tracks == 1:
        initial = _two_height_initial(size)
        params = RCPPParams(rap_sparse=sparse)
    else:
        initial = _three_height_initial(size)
        params = RCPPParams(heights=THREE_HEIGHT, rap_sparse=sparse)
    fault_plan = FaultPlan().fail(failed) if failed else None
    runner = FlowRunner(initial, params, fault_plan=fault_plan)
    return {
        str(kind.value): fingerprint(runner, runner.run(kind))
        for kind in kinds
    }


GOLDEN: dict[str, dict[str, dict]] = {'k1-healthy': {'2': {'pair_tracks': '248634fd833d0169',
                      'cell_to_pair': ['00a5395b42ec15cc'],
                      'objective': None,
                      'hpwl': 3539635.670520231,
                      'displacement': 382131.0,
                      'backend': 'baseline',
                      'attempts': [['legalize.abacus_rc', True, None]],
                      'relaxations': []},
                '3': {'pair_tracks': '248634fd833d0169',
                      'cell_to_pair': ['00a5395b42ec15cc'],
                      'objective': None,
                      'hpwl': 3405427.3526011556,
                      'displacement': 813483.0,
                      'backend': 'baseline',
                      'attempts': [['legalize.fence', True, None]],
                      'relaxations': []},
                '4': {'pair_tracks': '248634fd833d0169',
                      'cell_to_pair': ['0e5fdb599d38c96d'],
                      'objective': 134995.10982658959,
                      'hpwl': 3535058.670520231,
                      'displacement': 387801.0,
                      'backend': 'highs',
                      'attempts': [['rap.highs', True, None],
                                   ['legalize.abacus_rc', True, None]],
                      'relaxations': []},
                '5': {'pair_tracks': '248634fd833d0169',
                      'cell_to_pair': ['0e5fdb599d38c96d'],
                      'objective': 134995.10982658959,
                      'hpwl': 3405427.3526011556,
                      'displacement': 813483.0,
                      'backend': 'highs',
                      'attempts': [['rap.highs', True, None],
                                   ['legalize.fence', True, None]],
                      'relaxations': []}},
 'k1-highs_fails': {'5': {'pair_tracks': '248634fd833d0169',
                          'cell_to_pair': ['0e5fdb599d38c96d'],
                          'objective': 134995.10982658959,
                          'hpwl': 3405427.3526011556,
                          'displacement': 813483.0,
                          'backend': 'bnb',
                          'attempts': [['rap.highs', False, None],
                                       ['rap.bnb', True, None],
                                       ['legalize.fence', True, None]],
                          'relaxations': []}},
 'k1_dense-highs_fails': {'5': {'pair_tracks': '1133800df5ceb192',
                                'cell_to_pair': ['0e56c4f05236e0c4'],
                                'objective': 30445.93548387097,
                                'hpwl': 609686.8709677419,
                                'displacement': 154710.0,
                                'backend': 'bnb',
                                'attempts': [['rap.highs', False, None],
                                             ['rap.bnb', True, None],
                                             ['legalize.fence',
                                              True,
                                              None]],
                                'relaxations': []}},
 'k3-healthy': {'4': {'pair_tracks': 'c3be33e36ab17b53',
                      'cell_to_pair': ['ec5343165f31c33c',
                                       '3f82ea15d70f33ae'],
                      'objective': 280952.0,
                      'hpwl': 4012494.5714285714,
                      'displacement': 430434.0,
                      'backend': 'highs',
                      'attempts': [['rap.highs', True, None],
                                   ['legalize.abacus_rc', True, None]],
                      'relaxations': []},
                '5': {'pair_tracks': 'c3be33e36ab17b53',
                      'cell_to_pair': ['ec5343165f31c33c',
                                       '3f82ea15d70f33ae'],
                      'objective': 280952.0,
                      'hpwl': 3795796.857142857,
                      'displacement': 949536.0,
                      'backend': 'highs',
                      'attempts': [['rap.highs', True, None],
                                   ['legalize.fence', True, None]],
                      'relaxations': []}},
 'k3-highs_fails': {'5': {'pair_tracks': 'c3be33e36ab17b53',
                          'cell_to_pair': ['ec5343165f31c33c',
                                           '3f82ea15d70f33ae'],
                          'objective': 280952.0,
                          'hpwl': 3795796.857142857,
                          'displacement': 949536.0,
                          'backend': 'bnb',
                          'attempts': [['rap.highs', False, None],
                                       ['rap.bnb', True, None],
                                       ['legalize.fence', True, None]],
                          'relaxations': []}},
 'k3_small-highs_fails': {'5': {'pair_tracks': 'add124bd868285b7',
                                'cell_to_pair': ['af088bc49eea4972',
                                                 'b1b541787eba5337'],
                                'objective': 47701.5,
                                'hpwl': 587802.1923076923,
                                'displacement': 172071.0,
                                'backend': 'bnb',
                                'attempts': [['rap.highs', False, None],
                                             ['rap.bnb', True, None],
                                             ['legalize.fence',
                                              True,
                                              None]],
                                'relaxations': []}}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_path(name):
    got = run_case(name)
    want = GOLDEN[name]
    assert sorted(got) == sorted(want)
    for flow in want:
        for key, value in want[flow].items():
            assert got[flow][key] == value, (name, flow, key)
