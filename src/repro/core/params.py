"""Parameters of the row-constraint placement method.

Defaults are the paper's chosen operating point: clustering resolution
``s = 0.2`` and cost weight ``alpha = 0.75`` (Sec. IV.B.1, Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.heights import HeightSpec
from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class RCPPParams:
    """Knobs of clustering + RAP + legalization.

    * ``alpha`` weights y-displacement against delta-HPWL in the ILP cost
      (Eq. 2): ``f_cr = alpha * Disp + (1 - alpha) * dHPWL``.
    * ``s`` is the clustering resolution: ``N_C = ceil(s * N_minC)``
      clusters of minority cells (0 < s <= 1; s = 1 disables clustering in
      effect because every cell becomes its own cluster).
    * ``heights`` is the track-height specification
      (:class:`~repro.core.heights.HeightSpec`): majority track plus one
      or more minority classes, each with a forced row budget (Eq. 5's
      N_minR) or one derived from the class's area and fill target — the
      flow runner uses one shared value for all flows (the paper's
      fairness rule of matching Flow (2)).  ``None`` (the default) means
      the two-height spec of the initial placement, 7.5T row islands in
      6T rows for the paper's setting
      (``HeightSpec.two_height(...)`` spells it out).
    * ``row_fill`` is the usable fraction of a row pair's width in the
      capacity constraint (Eq. 4; the paper uses the full w(r), i.e. 1.0).
    * ``solver_backend``: "highs" (default), "bnb" (own branch-and-bound)
      or "lagrangian" (heuristic subgradient).

    Resilience knobs (see :mod:`repro.utils.resilience`):

    * ``fallback`` enables the solver fallback chain (``highs → bnb →
      lagrangian``, then the baseline heuristic) when the primary backend
      fails; disabled, a failure raises as before.
    * ``max_solver_retries`` is the attempt count per fallback rung for
      transient (non-infeasibility) solver failures.
    * ``time_budget_s`` is the whole-flow wall-clock budget; the
      remaining budget propagates into every solver call's time limit,
      and an exhausted budget raises
      :class:`~repro.utils.errors.StageTimeoutError`.  ``None`` (the
      default) means unlimited — identical behavior to the plain
      reproduction path.

    Sparse RAP engine knobs (see :mod:`repro.core.sparse_rap`):

    * ``rap_sparse`` routes RAP solves through the sparse engine
      (candidate pruning + pricing repair + component decomposition);
      results are certified equal to the dense optimum.  Disabled, every
      solve builds the dense cluster x row-pair model as before.
    * ``rap_candidates`` forces the per-cluster candidate count ``k``;
      ``None`` (default) adapts ``k`` to the capacity slack.
    * ``rap_workers`` is the RAP's process budget.  At 1 everything runs
      in-process.  Above 1 the resilient solve *races* its backend rungs
      concurrently on a supervised pool (first certified answer wins —
      see :func:`repro.core.heights.solve_rap_resilient`); direct
      ``solve_rap_sparse`` calls instead spend the workers on decomposed
      component sub-solves.
    """

    alpha: float = 0.75
    s: float = 0.2
    heights: HeightSpec | None = None
    row_fill: float = 0.9
    solver_backend: str = "highs"
    solver_time_limit_s: float | None = None
    kmeans_max_iterations: int = 60
    refine_iterations: int = 4
    seed: int = 17
    fallback: bool = True
    max_solver_retries: int = 1
    time_budget_s: float | None = None
    rap_sparse: bool = True
    rap_candidates: int | None = None
    rap_workers: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (0.0 < self.s <= 1.0):
            raise ValidationError(f"s must be in (0, 1], got {self.s}")
        if not (0.0 < self.row_fill <= 1.0):
            raise ValidationError("row_fill must be in (0, 1]")
        if self.kmeans_max_iterations < 1:
            raise ValidationError("kmeans_max_iterations must be >= 1")
        if self.refine_iterations < 0:
            raise ValidationError("refine_iterations must be >= 0")
        if self.max_solver_retries < 1:
            raise ValidationError("max_solver_retries must be >= 1")
        if self.time_budget_s is not None and self.time_budget_s < 0:
            raise ValidationError("time_budget_s must be >= 0 when set")
        if self.solver_time_limit_s is not None and self.solver_time_limit_s < 0:
            raise ValidationError("solver_time_limit_s must be >= 0 when set")
        if self.rap_candidates is not None and self.rap_candidates < 1:
            raise ValidationError("rap_candidates must be >= 1 when forced")
        if self.rap_workers < 1:
            raise ValidationError("rap_workers must be >= 1")
