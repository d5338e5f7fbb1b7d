"""The paper's contribution: row-constraint placement of mixed track-heights.

Pipeline (paper Fig. 2): mLEF unconstrained initial placement -> 2-D k-means
clustering of minority cells (:mod:`clustering`) -> ILP row assignment
(:mod:`rap`, costs from :mod:`cost`) -> fence regions (:mod:`fence`) ->
row-constraint legalization (:mod:`legalize_rc` ours /
:mod:`legalize_abacus_rc` prior art) -> revert mLEF.  The five evaluation
flows of Table III are orchestrated by :mod:`flows`;
:class:`~repro.core.rcpp.RowConstraintPlacer` is the one-call public API.
"""

from repro.core.params import RCPPParams
from repro.core.heights import (
    HeightClass,
    HeightSpec,
    anneal_nheight,
    greedy_nheight,
    solve_rap_resilient,
)
from repro.core.clustering import ClusteringResult, cluster_minority_cells, kmeans_2d
from repro.core.cost import RapCosts, compute_rap_costs
from repro.core.rap import RowAssignment, build_rap_model
from repro.core.sparse_rap import (
    SparseRapModel,
    SparseSolveStats,
    adaptive_candidate_count,
    build_sparse_rap_model,
    solve_rap_sparse,
)
from repro.core.alternating import (
    alternating_pattern,
    solve_fixed_pattern_rap,
    sweep_pattern_phases,
)
from repro.core.baseline import baseline_row_assignment
from repro.core.fence import FenceRegions
from repro.core.flows import FlowKind, FlowResult, run_flow
from repro.core.rcpp import RowConstraintPlacer, RowConstraintResult
from repro.core.region import RegionResult, region_based_flow
from repro.core.swap import SwapResult, swap_track_heights

__all__ = [
    "RCPPParams",
    "HeightClass",
    "HeightSpec",
    "anneal_nheight",
    "greedy_nheight",
    "solve_rap_resilient",
    "ClusteringResult",
    "cluster_minority_cells",
    "kmeans_2d",
    "RapCosts",
    "compute_rap_costs",
    "RowAssignment",
    "build_rap_model",
    "SparseRapModel",
    "SparseSolveStats",
    "adaptive_candidate_count",
    "build_sparse_rap_model",
    "solve_rap_sparse",
    "alternating_pattern",
    "solve_fixed_pattern_rap",
    "sweep_pattern_phases",
    "baseline_row_assignment",
    "RegionResult",
    "region_based_flow",
    "SwapResult",
    "swap_track_heights",
    "FenceRegions",
    "FlowKind",
    "FlowResult",
    "run_flow",
    "RowConstraintPlacer",
    "RowConstraintResult",
]
