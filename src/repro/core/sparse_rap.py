"""Sparse RAP engine for any number of height classes.

The RAP of Eqs. (1)-(5) is one ILP whatever the number of minority
track heights: per class ``h`` the variables ``x[h, c, r]`` (cluster
``c`` of class ``h`` on row pair ``r``) and ``y[h, r]`` (pair ``r``
carries class ``h``), per-class assignment, capacity, host and
row-count constraints, and — with two or more classes — pair
exclusivity ``sum_h y[h, r] <= 1``.  One minority class (``K = 1``, the
paper's setting) is the ordinary case without exclusivity rows; at
``K = 1`` the full model is :func:`repro.core.rap.build_rap_model` bit
for bit.

Instantiating every column makes build and solve cost grow
quadratically with testcase size even though a cluster is never
profitably assigned to a row pair across the die.  This module prunes
that space end to end while staying *provably* equivalent to the full
optimum:

* **Candidate generation** — the default strategy is reduced-cost
  fixing: one LP relaxation of the *strengthened* full model (see
  below) plus an incumbent ``z_ub`` prove that any column whose LP
  reduced cost satisfies ``z_lp + rc > z_ub`` cannot appear in a
  solution better than the incumbent, so only the surviving columns
  enter the MILP.  When the caller forces a per-cluster candidate count
  ``k`` (or the LP is unavailable), the fallback keeps each cluster's
  ``k`` cheapest row pairs (:func:`repro.core.cost.cheapest_pairs_mask`),
  with ``k`` adaptive to the class's capacity slack
  (:func:`adaptive_candidate_count`).  Either way the result is a
  column-compressed :class:`~repro.solvers.milp.MilpModel`
  (:class:`SparseRapModel`) carrying an index map back to the full
  variable layout; at ``k = N_P`` it is bit-identical to the full model.

* **Pricing / repair loop** — when the restricted problem is infeasible
  the candidate sets widen (k doubles, terminating at the full model).
  When it solves to optimality with objective ``z``, pruned columns are
  re-admitted iff their reduced-cost bound ``z_lp + rc`` does not exceed
  ``z``: by LP duality every integer-feasible solution whose support
  contains column ``j`` costs at least ``z_lp + rc_j``, so when no
  pruned column passes the test the restricted optimum *is* the full
  optimum (certified).  Each admission strictly grows the candidate
  set, so the loop terminates — in the worst case at the full model
  itself.

*Strengthening.*  Restricted models carry two valid inequalities per
class that the paper's formulation implies but never states: the
disaggregated linking rows ``x_cr <= y_r`` and the aggregate capacity
cut ``sum_r cap_r y_r >= sum_c w_c``.  Neither changes the integer
optimum, but together they close most of the LP/IP gap of the open-row
choice — which is exactly where the full solve spends its
branch-and-bound time.  The cuts are omitted at a forced ``k = N_P`` so
that configuration reproduces the full model (and its solver
trajectory) bit for bit.

*Incumbent and LP-bound certificate.*  The rc-fixing incumbent is the
cheaper of the warm start (at ``K >= 2`` without one,
:func:`repro.core.heights.greedy_nheight`) and an LP-rounding
incumbent (:func:`_lp_rounding_incumbent`): every class's open pairs
are chosen once, across classes, by largest fractional ``y``, then one
small transportation MILP per class assigns its clusters to them.  When
that incumbent's cost meets the LP bound (``z_ub <= z_lp + tol``) it is
optimal outright: the engine returns it certified without building the
restricted MILP (``rounds = 0``, outcome ``certified``).

Exactness guarantees apply to the exact backends (``highs``, ``bnb``).

*Not yet ported to* ``K >= 2`` (each behind one ``K == 1`` guard):

* **spatial decomposition** — when the pruned cluster<->row-pair
  bipartite graph splits into independent connected components, each
  component solves as its own sub-MILP (concurrently through
  :func:`repro.utils.supervise.supervised_map` when sizes warrant) and
  an exact DP over component capacities apportions ``N_minR`` across
  components;
* **ECO dirty-cluster repair** (:func:`_solve_eco_repair`);
* **lagrangian-direct** — the heuristic ``lagrangian`` backend skips the
  MILP entirely and runs its subgradient loop straight on the cost
  matrix (:func:`_solve_lagrangian_direct`).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

from repro.core.cost import cheapest_pairs_mask
from repro.core.rap import dense_assignment, greedy_rap, validate_rap_inputs
from repro.obs.convergence import observe
from repro.obs.trace import span
from repro.placement.shm import SHM_MIN_BYTES
from repro.solvers.milp import MilpModel, MilpSolution, MilpStatus, solve_milp
from repro.utils.errors import InfeasibleError, SolverError, ValidationError
from repro.utils.resilience import EXACT_BACKENDS
from repro.utils.supervise import supervised_map

logger = logging.getLogger(__name__)

#: Above this many (component, row-count) sub-MILP tasks the DP sweep
#: would cost more than one joint solve; fall back to the whole model.
MAX_DECOMPOSITION_TASKS = 96

#: Fan the component sub-solves out over processes only when there are
#: enough of them to amortize worker startup + model pickling.
MIN_PARALLEL_TASKS = 4

#: At or below this many full-model variables the LP + incumbent
#: machinery costs more than the full solve it would prune, so the
#: default strategy solves the full model directly (still exact).
SMALL_PROBLEM_VARIABLES = 600

_SAFETY_ROUNDS = 12


@dataclass
class SparseSolveStats:
    """What the sparse engine did for one solve (telemetry + tests)."""

    # "rc-fixing" | "top-k" | "dense" | "lagrangian" | "eco-repair"
    strategy: str = ""
    k_initial: int = 0
    k_final: int = 0  # widest per-cluster candidate row in the final masks
    n_candidates: int = 0  # x columns in the final restricted model
    n_dense_variables: int = 0
    n_components: int = 1
    rounds: int = 0  # restricted solves performed (0: LP-bound certificate)
    admitted_columns: int = 0  # columns re-admitted by the pricing test
    certified: bool = False  # restricted optimum proven == full optimum
    lp_bound: float | None = None  # strengthened full LP value
    upper_bound: float | None = None  # incumbent used for rc fixing
    build_s: float = 0.0
    solve_s: float = 0.0

    @property
    def compression(self) -> float:
        """Full-model variables per restricted x column (>= 1)."""
        if self.n_candidates <= 0:
            return 1.0
        return self.n_dense_variables / float(self.n_candidates)


@dataclass(frozen=True)
class SparseRapModel:
    """Column-compressed class-indexed RAP model plus index maps.

    Variable layout: every class's candidate ``x`` block in class order,
    then every class's ``y`` block over that class's candidate-pair
    union.  Within class ``h``, ``x`` columns are the candidate
    (cluster, pair) entries in row-major order: ``cand_cluster[h][j]`` /
    ``cand_pair[h][j]`` give column ``j``'s coordinates and
    ``union_pairs[h][s]`` y slot ``s``'s pair.  The *full* layout is the
    same with every mask all-true (at ``K = 1``: ``build_rap_model``'s).
    """

    model: MilpModel
    cand_cluster: list[np.ndarray]
    cand_pair: list[np.ndarray]
    union_pairs: list[np.ndarray]
    n_clusters: list[int]
    n_pairs: int

    @property
    def n_x(self) -> int:
        return sum(len(c) for c in self.cand_cluster)

    @property
    def n_dense_vars(self) -> int:
        return (sum(self.n_clusters) + len(self.n_clusters)) * self.n_pairs

    def to_dense_x(self, x: np.ndarray) -> np.ndarray:
        """Expand a restricted solution vector to the full layout."""
        n_p = self.n_pairs
        dense = np.zeros(self.n_dense_vars)
        x_off, y_off = 0, self.n_x
        dense_x, dense_y = 0, sum(self.n_clusters) * n_p
        for n_c, cidx, pidx, union in zip(
            self.n_clusters, self.cand_cluster, self.cand_pair,
            self.union_pairs,
        ):
            dense[dense_x + cidx * n_p + pidx] = x[x_off:x_off + len(cidx)]
            dense[dense_y + union] = x[y_off:y_off + len(union)]
            x_off += len(cidx)
            y_off += len(union)
            dense_x += n_c * n_p
            dense_y += n_p
        return dense

    def encode_assignment(
        self, assignment: list[np.ndarray]
    ) -> np.ndarray | None:
        """Restricted (x, y) vector for per-class cluster -> pair maps.

        Returns ``None`` when some cluster's pair is not a candidate
        column (the warm start is then simply dropped).
        """
        if len(assignment) != len(self.n_clusters):
            return None
        x = np.zeros(self.model.num_vars)
        x_off, y_off = 0, self.n_x
        for n_c, a, cidx, pidx, union in zip(
            self.n_clusters, assignment, self.cand_cluster,
            self.cand_pair, self.union_pairs,
        ):
            a = np.asarray(a, dtype=int)
            if a.shape != (n_c,):
                return None
            if np.any(a < 0) or np.any(a >= self.n_pairs):
                return None
            keys = cidx * self.n_pairs + pidx
            want = np.arange(n_c) * self.n_pairs + a
            idx = np.searchsorted(keys, want)
            if np.any(idx >= len(keys)) or np.any(keys[idx] != want):
                return None
            x[x_off + idx] = 1.0
            x[y_off + np.searchsorted(union, np.unique(a))] = 1.0
            x_off += len(keys)
            y_off += len(union)
        return x

    def assignment_of(self, x: np.ndarray) -> list[np.ndarray]:
        """Decode a restricted solution into per-class cluster -> pair."""
        out: list[np.ndarray] = []
        offset = 0
        for n_c, cidx, pidx in zip(
            self.n_clusters, self.cand_cluster, self.cand_pair
        ):
            chosen = np.flatnonzero(
                np.round(x[offset:offset + len(cidx)]) > 0.5
            )
            assignment = np.full(n_c, -1, dtype=int)
            assignment[cidx[chosen]] = pidx[chosen]
            out.append(assignment)
            offset += len(cidx)
        return out


def adaptive_candidate_count(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_rows: int,
) -> int:
    """Pick one class's per-cluster candidate count k from its slack.

    With ample slack (the ``n_rows`` biggest pairs hold the class width
    comfortably) the restricted problem is almost surely feasible near
    ``k ~ n_rows``; as the slack vanishes, clusters must be able to
    reach more fallback rows, so k grows up to ~4x before saturating at
    ``N_P`` (the full model).
    """
    _, n_p = f.shape
    caps = np.sort(np.asarray(pair_capacity, dtype=float))[::-1]
    need = max(float(np.asarray(cluster_width, dtype=float).sum()), 1e-12)
    avail = float(caps[:n_rows].sum())
    slack = max(avail / need - 1.0, 0.0)
    factor = 1.0 + 3.0 / (1.0 + 4.0 * slack)
    k = int(np.ceil((n_rows + 1) * factor))
    return int(np.clip(k, min(4, n_p), n_p))


def build_sparse_rap_model(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    masks: list[np.ndarray] | None = None,
    strengthen: bool = False,
) -> SparseRapModel:
    """Assemble the column-compressed MILP of Eqs. (1)-(5), per class.

    ``masks`` are the per-class boolean candidate matrices (``None``:
    all-true, the full model).  Constraint blocks: per-class Eq. (3)
    rows then per-class Eq. (5) count rows (equalities); per class the
    Eq. (4) capacity rows and the host rows ``y_r <= sum_c x_cr``, then
    — only with two or more classes — the pair-exclusivity rows.  With
    every mask all-true and ``strengthen=False`` a single class gives
    :func:`repro.core.rap.build_rap_model`'s model bit for bit (same
    variable order, constraint blocks and coefficients).
    ``strengthen=True`` appends each class's facility-location cuts
    described in the module docstring — valid inequalities that leave
    the integer optimum unchanged but sharply tighten the LP relaxation.
    """
    n_cs, n_p = validate_rap_inputs(
        f_by_class, width_by_class, pair_capacity, budgets
    )
    K = len(f_by_class)
    if masks is None:
        masks = [np.ones(f.shape, dtype=bool) for f in f_by_class]
    if len(masks) != K:
        raise ValidationError("need one candidate mask per class")
    cand_cluster: list[np.ndarray] = []
    cand_pair: list[np.ndarray] = []
    unions: list[np.ndarray] = []
    for h, (f, mask) in enumerate(zip(f_by_class, masks)):
        if mask.shape != f.shape:
            raise ValidationError(f"class {h}: candidate mask shape mismatch")
        if not mask.any(axis=1).all():
            raise ValidationError(
                f"class {h}: every cluster needs at least one candidate"
            )
        cidx, pidx = np.nonzero(mask)  # cluster-major, pair ascending
        cand_cluster.append(cidx)
        cand_pair.append(pidx)
        unions.append(np.unique(pidx))

    x_sizes = [len(c) for c in cand_cluster]
    y_sizes = [len(u) for u in unions]
    n_x = sum(x_sizes)
    n_vars = n_x + sum(y_sizes)
    x_offsets = np.concatenate([[0], np.cumsum(x_sizes)])[:K]
    y_offsets = n_x + np.concatenate([[0], np.cumsum(y_sizes)])[:K]
    row_offsets = np.concatenate([[0], np.cumsum(n_cs)])[:K]

    c = np.concatenate(
        [f[mask] for f, mask in zip(f_by_class, masks)]
        + [np.zeros(n_y) for n_y in y_sizes]
    )

    # Eq. (3) per class (each cluster assigned once over its
    # candidates), then Eq. (5) per class (exactly its budget of pairs).
    eq_rows = np.concatenate(
        [row_offsets[h] + cand_cluster[h] for h in range(K)]
        + [np.full(y_sizes[h], sum(n_cs) + h) for h in range(K)]
    )
    eq_cols = np.concatenate(
        [x_offsets[h] + np.arange(x_sizes[h]) for h in range(K)]
        + [y_offsets[h] + np.arange(y_sizes[h]) for h in range(K)]
    )
    a_eq = sp.coo_matrix(
        (np.ones(n_vars), (eq_rows, eq_cols)), shape=(sum(n_cs) + K, n_vars)
    ).tocsr()
    b_eq = np.concatenate(
        [np.ones(sum(n_cs)), np.array([float(b) for b in budgets])]
    )

    ub_blocks, b_ub_blocks = [], []
    slots: list[np.ndarray] = []
    for h in range(K):
        slot = np.full(n_p, -1, dtype=int)
        slot[unions[h]] = np.arange(y_sizes[h])
        slots.append(slot)
        x_rows = slot[cand_pair[h]]
        x_cols = x_offsets[h] + np.arange(x_sizes[h])
        y_rows = np.arange(y_sizes[h])
        y_cols = y_offsets[h] + np.arange(y_sizes[h])
        rows = np.concatenate([x_rows, y_rows])
        cols = np.concatenate([x_cols, y_cols])
        # Eq. (4) + linking: sum_c w_c x_cr - cap_r y_r <= 0 per union pair.
        cap_vals = np.concatenate(
            [
                width_by_class[h][cand_cluster[h]].astype(float),
                -pair_capacity[unions[h]].astype(float),
            ]
        )
        # Open rows must host a cluster: y_r <= sum_c x_cr.
        host_vals = np.concatenate(
            [-np.ones(x_sizes[h]), np.ones(y_sizes[h])]
        )
        for vals in (cap_vals, host_vals):
            ub_blocks.append(
                sp.coo_matrix((vals, (rows, cols)), shape=(y_sizes[h], n_vars))
            )
            b_ub_blocks.append(np.zeros(y_sizes[h]))

    if K > 1:
        # Pair exclusivity: a row pair carries at most one track height.
        all_pairs = np.unique(np.concatenate(unions))
        excl_slot = np.full(n_p, -1, dtype=int)
        excl_slot[all_pairs] = np.arange(len(all_pairs))
        excl_rows = np.concatenate([excl_slot[u] for u in unions])
        excl_cols = np.concatenate(
            [y_offsets[h] + np.arange(y_sizes[h]) for h in range(K)]
        )
        ub_blocks.append(
            sp.coo_matrix(
                (np.ones(len(excl_rows)), (excl_rows, excl_cols)),
                shape=(len(all_pairs), n_vars),
            )
        )
        b_ub_blocks.append(np.ones(len(all_pairs)))

    if strengthen:
        for h in range(K):
            # Disaggregated linking: x_cr <= y_r per candidate column.
            ub_blocks.append(
                sp.coo_matrix(
                    (
                        np.concatenate(
                            [np.ones(x_sizes[h]), -np.ones(x_sizes[h])]
                        ),
                        (
                            np.concatenate([np.arange(x_sizes[h])] * 2),
                            np.concatenate(
                                [
                                    x_offsets[h] + np.arange(x_sizes[h]),
                                    y_offsets[h] + slots[h][cand_pair[h]],
                                ]
                            ),
                        ),
                    ),
                    shape=(x_sizes[h], n_vars),
                )
            )
            b_ub_blocks.append(np.zeros(x_sizes[h]))
            # Aggregate capacity: open rows must hold the class width.
            ub_blocks.append(
                sp.coo_matrix(
                    (
                        -pair_capacity[unions[h]].astype(float),
                        (
                            np.zeros(y_sizes[h]),
                            y_offsets[h] + np.arange(y_sizes[h]),
                        ),
                    ),
                    shape=(1, n_vars),
                )
            )
            b_ub_blocks.append(np.array([-float(width_by_class[h].sum())]))

    def names() -> list[str]:
        tags = [""] if K == 1 else [str(h) for h in range(K)]
        return [
            f"x{tag}_{c_}_{p_}"
            for tag, cidx, pidx in zip(tags, cand_cluster, cand_pair)
            for c_, p_ in zip(cidx.tolist(), pidx.tolist())
        ] + [
            f"y{tag}_{p_}"
            for tag, union in zip(tags, unions)
            for p_ in union.tolist()
        ]

    model = MilpModel(
        c=c,
        integrality=np.ones(n_vars),
        lb=np.zeros(n_vars),
        ub=np.ones(n_vars),
        a_ub=sp.vstack(ub_blocks).tocsr(),
        b_ub=np.concatenate(b_ub_blocks),
        a_eq=a_eq,
        b_eq=b_eq,
        name_factory=names,
    )
    return SparseRapModel(
        model=model,
        cand_cluster=cand_cluster,
        cand_pair=cand_pair,
        union_pairs=unions,
        n_clusters=n_cs,
        n_pairs=n_p,
    )


def assignment_cost(
    f_by_class: list[np.ndarray], assignment: list[np.ndarray]
) -> float:
    """Objective of per-class cluster -> pair maps."""
    return float(
        sum(
            f[np.arange(f.shape[0]), a].sum()
            for f, a in zip(f_by_class, assignment)
        )
    )


def feasible_assignment(
    assignment: list[np.ndarray] | None,
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> list[np.ndarray] | None:
    """The per-class maps when they satisfy Eqs. (3)-(5) and pair
    exclusivity, else ``None``."""
    if assignment is None or len(assignment) != len(width_by_class):
        return None
    n_p = len(pair_capacity)
    used: set[int] = set()
    out: list[np.ndarray] = []
    for a, w, budget in zip(assignment, width_by_class, budgets):
        a = np.asarray(a, dtype=int)
        if a.shape != w.shape:
            return None
        if np.any(a < 0) or np.any(a >= n_p):
            return None
        opened = np.unique(a)
        if len(opened) != budget:
            return None
        if used & set(opened.tolist()):
            return None  # pair exclusivity violated
        used |= set(opened.tolist())
        load = np.bincount(a, weights=w, minlength=n_p)
        if np.any(load > pair_capacity + 1e-9):
            return None
        out.append(a)
    return out


def _dense_vector(
    assignment: list[np.ndarray], n_cs: list[int], n_p: int
) -> np.ndarray:
    """Full-layout (x, y) vector of per-class cluster -> pair maps."""
    x = np.zeros((sum(n_cs) + len(n_cs)) * n_p)
    x_off, y_off = 0, sum(n_cs) * n_p
    for a, n_c in zip(assignment, n_cs):
        x[x_off + np.arange(n_c) * n_p + a] = 1.0
        x[y_off + np.unique(a)] = 1.0
        x_off += n_c * n_p
        y_off += n_p
    return x


def _maps_of(
    solution: MilpSolution, n_cs: list[int], n_p: int
) -> list[np.ndarray] | None:
    """Per-class cluster -> pair maps of a full-layout solution, or
    ``None`` when the solve returned no point."""
    if not solution.ok or solution.x is None:
        return None
    maps: list[np.ndarray] = []
    offset = 0
    for n_c in n_cs:
        maps.append(dense_assignment(solution.x[offset:], n_c, n_p))
        offset += n_c * n_p
    return maps


def _warm_vector(
    srm: SparseRapModel, warm: list[np.ndarray] | None
) -> np.ndarray | None:
    """``warm`` as a feasible vector of ``srm``, else ``None``."""
    if warm is None:
        return None
    vector = srm.encode_assignment(warm)
    if vector is None or not srm.model.is_feasible(vector):
        return None
    return vector


def _in_dense_layout(
    srm: SparseRapModel, restricted: MilpSolution
) -> MilpSolution:
    return MilpSolution(
        status=restricted.status,
        x=(
            srm.to_dense_x(restricted.x)
            if restricted.x is not None
            else None
        ),
        objective=restricted.objective,
        nodes=restricted.nodes,
        runtime_s=restricted.runtime_s,
    )


@dataclass(frozen=True)
class _LpInfo:
    """Strengthened LP relaxation: bound + per-class reduced costs."""

    objective: float
    reduced_costs: list[np.ndarray]  # per class (n_c, n_p), >= 0; inf off-mask
    y_fractional: list[np.ndarray]  # per class (n_p,) fractional open rows
    runtime_s: float


def _dense_lp(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    time_limit_s: float | None = None,
    masks: list[np.ndarray] | None = None,
) -> _LpInfo | MilpSolution | None:
    """Solve the strengthened LP relaxation (full, or over ``masks``).

    Returns an :class:`_LpInfo` on success, an INFEASIBLE
    :class:`MilpSolution` when the LP (hence the IP) is infeasible, and
    ``None`` when the LP solver errors out (the caller then falls back
    to top-k candidates and, if pricing is ever needed, the full
    model).  A ``time_limit_s`` expiry also lands in the ``None``
    branch: truncated duals would invalidate the reduced-cost bound, so
    a timed-out LP must fail safe rather than prune with them.

    Validity of the reduced-cost bound: with optimal duals ``(y_ub <= 0,
    y_eq)``, ``rc = c - A_ub' y_ub - A_eq' y_eq`` prices every feasible
    point as ``c.x = z_lp + rc.(x - x_lp)`` with ``rc >= 0`` on
    variables at their lower bound, so every integer-feasible solution
    whose support contains column ``j`` costs at least ``z_lp + rc_j``.
    Over ``masks`` the same holds for the masked problem's solutions;
    columns outside a mask get ``rc = inf`` so no admission test can
    pass them.
    """
    srm = build_sparse_rap_model(
        f_by_class, width_by_class, pair_capacity, budgets, masks,
        strengthen=True,
    )
    model = srm.model
    t0 = time.perf_counter()
    try:
        lp = linprog(
            model.c,
            A_ub=model.a_ub,
            b_ub=model.b_ub,
            A_eq=model.a_eq,
            b_eq=model.b_eq,
            bounds=(0.0, 1.0),
            method="highs",
            options=(
                None
                if time_limit_s is None
                else {"time_limit": float(time_limit_s)}
            ),
        )
    except Exception:
        logger.warning("sparse RAP LP raised; reduced costs unavailable")
        return None
    runtime = time.perf_counter() - t0
    if lp.status == 2:  # LP infeasible => IP infeasible
        return MilpSolution(
            status=MilpStatus.INFEASIBLE,
            x=None,
            objective=np.inf,
            runtime_s=runtime,
        )
    if lp.status != 0 or lp.x is None:
        return None
    rc = (
        model.c
        - model.a_ub.T @ lp.ineqlin.marginals
        - model.a_eq.T @ lp.eqlin.marginals
    )
    # rc can dip epsilon-negative at the optimum; clipping only weakens
    # the bound (admits more columns), never threatens exactness.
    rc_x = np.maximum(rc[: srm.n_x], 0.0)
    reduced: list[np.ndarray] = []
    y_fractional: list[np.ndarray] = []
    x_off, y_off = 0, srm.n_x
    for f, cidx, pidx, union in zip(
        f_by_class, srm.cand_cluster, srm.cand_pair, srm.union_pairs
    ):
        per_class = np.full(f.shape, np.inf)
        per_class[cidx, pidx] = rc_x[x_off:x_off + len(cidx)]
        reduced.append(per_class)
        y = np.zeros(srm.n_pairs)
        y[union] = lp.x[y_off:y_off + len(union)]
        y_fractional.append(y)
        x_off += len(cidx)
        y_off += len(union)
    return _LpInfo(
        objective=float(lp.fun),
        reduced_costs=reduced,
        y_fractional=y_fractional,
        runtime_s=runtime,
    )


def _rounding_pairs(
    y_fractional: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
) -> list[np.ndarray]:
    """Per-class open pairs for LP rounding, chosen once across classes.

    Walks every (class, pair) in order of largest fractional ``y``
    (larger capacity breaks ties, then class-major index order) and
    gives each pair to at most one class and each class at most its
    budget.  At ``K = 1`` this is the ``budget`` largest-``y`` pairs.
    """
    n_p = len(pair_capacity)
    order = np.lexsort(
        (-np.tile(pair_capacity, len(budgets)), -np.concatenate(y_fractional))
    )
    taken = np.zeros(n_p, dtype=bool)
    chosen: list[list[int]] = [[] for _ in budgets]
    need = sum(budgets)
    for idx in order.tolist():
        h, p = divmod(idx, n_p)
        if taken[p] or len(chosen[h]) >= budgets[h]:
            continue
        taken[p] = True
        chosen[h].append(p)
        need -= 1
        if need == 0:
            break
    return [np.sort(np.array(c, dtype=int)) for c in chosen]


def _transport(
    f: np.ndarray,
    cluster_width: np.ndarray,
    capacity: np.ndarray,
    backend: str,
    time_limit_s: float | None,
    cancel: object | None,
) -> tuple[np.ndarray, float] | None:
    """Cheapest cluster -> column map of ``f`` under ``capacity``:
    ``(column per cluster, solve_s)``, or ``None`` without a point."""
    n_c, k = f.shape
    n_x = n_c * k
    a_eq = sp.coo_matrix(
        (np.ones(n_x), (np.repeat(np.arange(n_c), k), np.arange(n_x))),
        shape=(n_c, n_x),
    ).tocsr()
    a_ub = sp.coo_matrix(
        (
            np.repeat(cluster_width.astype(float), k),
            (np.tile(np.arange(k), n_c), np.arange(n_x)),
        ),
        shape=(k, n_x),
    ).tocsr()
    model = MilpModel(
        c=f.ravel().astype(float),
        integrality=np.ones(n_x),
        lb=np.zeros(n_x),
        ub=np.ones(n_x),
        a_ub=a_ub,
        b_ub=capacity.astype(float),
        a_eq=a_eq,
        b_eq=np.ones(n_c),
    )
    solution = solve_milp(
        model, backend=backend, time_limit_s=time_limit_s, cancel=cancel
    )
    if not solution.ok or solution.x is None:
        return None
    columns = np.argmax(np.round(solution.x).reshape(n_c, k), axis=1)
    return columns, solution.runtime_s


def _lp_rounding_incumbent(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    y_fractional: list[np.ndarray],
    backend: str,
    left,
    cancel: object | None = None,
) -> tuple[list[np.ndarray], float, float] | None:
    """Primal heuristic: open the pairs the LP wants, assign optimally.

    Fixing each class's open pairs (:func:`_rounding_pairs`) reduces the
    RAP to one tiny transportation MILP per class (``n_c x budget``
    variables) whose optimum is a usually-tight incumbent for
    reduced-cost fixing.  Returns ``(per-class maps, cost, solve_s)``,
    or ``None`` when some class's pairs cannot hold its width or the
    rounding leaves a pair unused.
    """
    maps: list[np.ndarray] = []
    solve_s = 0.0
    for f, w, open_pairs in zip(
        f_by_class, width_by_class,
        _rounding_pairs(y_fractional, pair_capacity, budgets),
    ):
        if pair_capacity[open_pairs].sum() < w.sum() - 1e-9:
            return None
        solved = _transport(
            f[:, open_pairs], w, pair_capacity[open_pairs], backend, left(),
            cancel,
        )
        if solved is None:
            return None
        maps.append(open_pairs[solved[0]])
        solve_s += solved[1]
    feasible = feasible_assignment(
        maps, width_by_class, pair_capacity, budgets
    )
    if feasible is None:  # degenerate rounding left a pair unused
        return None
    return feasible, assignment_cost(f_by_class, feasible), solve_s


def _candidate_components(
    mask: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Connected components of the cluster<->candidate-pair bigraph.

    Returns ``[(cluster_ids, pair_ids), ...]``; pairs outside every
    cluster's candidate set belong to no component (their ``y`` is
    structurally zero).
    """
    n_c, n_p = mask.shape
    cidx, pidx = np.nonzero(mask)
    union = np.unique(pidx)
    slot = np.full(n_p, -1, dtype=int)
    slot[union] = np.arange(len(union))
    n_nodes = n_c + len(union)
    graph = sp.coo_matrix(
        (np.ones(len(cidx)), (cidx, n_c + slot[pidx])),
        shape=(n_nodes, n_nodes),
    )
    n_comp, labels = connected_components(graph, directed=False)
    comps = []
    for comp in range(n_comp):
        nodes = np.flatnonzero(labels == comp)
        clusters = nodes[nodes < n_c]
        pairs = union[nodes[nodes >= n_c] - n_c]
        if len(clusters):  # cluster-free components cannot open rows
            comps.append((clusters, pairs))
    return comps


def _min_rows_for_width(width: float, caps: np.ndarray) -> int | None:
    """Fewest pairs (by capacity, greedily) that can hold ``width``."""
    caps = np.sort(np.asarray(caps, dtype=float))[::-1]
    total = np.cumsum(caps)
    fits = np.flatnonzero(total >= width - 1e-9)
    if len(fits) == 0:
        return None
    return max(1, int(fits[0]) + 1)


def _solve_component_job(payload: dict) -> dict:
    """One (component, row-count) sub-MILP; module-level so it pickles.

    For large instances the payload carries a shared-memory handle
    (``"shm"``) plus this component's ``clusters``/``pairs`` index
    vectors instead of pre-sliced ``f``/``w``/``cap``/``mask`` blocks:
    the worker attaches the parent's full matrices zero-copy and takes
    its own (small, private) slices locally.
    """
    attachment = None
    if "shm" in payload:
        from repro.placement.shm import attach_arrays

        # ``_pool_attempt`` is stamped by the supervised pool's worker
        # wrapper only: its absence means this is an inline (in-parent)
        # last-resort run, where worker faults must not fire.
        attempt = payload.get("_pool_attempt")
        attachment = attach_arrays(
            payload["shm"],
            fault_plan=payload.get("shm_fault_plan") if attempt is not None else None,
            fault_stage="shm.attach",
            attempt=attempt,
        )
        clusters, pairs = payload["clusters"], payload["pairs"]
        block = np.ix_(clusters, pairs)
        payload = dict(
            payload,
            f=attachment["f"][block],
            w=attachment["w"][clusters],
            cap=attachment["cap"][pairs],
            mask=attachment["mask"][block],
        )
        attachment.close()  # slices above are private copies
    return _solve_component(payload)


def _solve_component(payload: dict) -> dict:
    t0 = time.perf_counter()
    try:
        srm = build_sparse_rap_model(
            [payload["f"]],
            [payload["w"]],
            payload["cap"],
            [payload["n_rows"]],
            [payload["mask"]],
            strengthen=payload.get("strengthen", False),
        )
    except (InfeasibleError, ValidationError):
        return {"status": "infeasible", "runtime_s": 0.0, "build_s": 0.0}
    build_s = time.perf_counter() - t0
    warm = payload.get("warm")
    solution = solve_milp(
        srm.model,
        backend=payload["backend"],
        time_limit_s=payload.get("time_limit_s"),
        warm_start=_warm_vector(srm, None if warm is None else [warm]),
        cancel=payload.get("cancel"),
    )
    out = {
        "status": solution.status.value,
        "nodes": solution.nodes,
        "runtime_s": solution.runtime_s,
        "build_s": build_s,
    }
    if solution.ok and solution.x is not None:
        out["objective"] = solution.objective
        out["assignment"] = srm.assignment_of(solution.x)[0]
    return out


def _solve_decomposed(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_rows: int,
    mask: np.ndarray,
    comps: list[tuple[np.ndarray, np.ndarray]],
    backend: str,
    time_limit_s: float | None,
    warm_assignment: np.ndarray | None,
    workers: int,
    strengthen: bool,
    stats: SparseSolveStats,
    cancel: object | None = None,
) -> MilpSolution | None:
    """Exact component-wise solve: sub-MILP sweep + row-apportion DP.

    Returns a *full-layout* solution, an INFEASIBLE solution when the
    apportionment DP proves this candidate set cannot open ``N_minR``
    rows, or ``None`` when the task sweep would be larger than one joint
    solve (caller then solves the whole restricted model).
    """
    n_c, n_p = f.shape
    bounds: list[tuple[int, int]] = []
    for clusters, pairs in comps:
        width = float(cluster_width[clusters].sum())
        lb = _min_rows_for_width(width, pair_capacity[pairs])
        # Clamp to the global row count: a component may never open more
        # rows than exist (the DP table below is sized by that count).
        ub = min(len(clusters), len(pairs), n_rows)
        if lb is None or lb > ub:
            return MilpSolution(
                status=MilpStatus.INFEASIBLE, x=None, objective=np.inf
            )
        bounds.append((lb, ub))
    if (
        sum(lb for lb, _ in bounds) > n_rows
        or sum(ub for _, ub in bounds) < n_rows
    ):
        return MilpSolution(
            status=MilpStatus.INFEASIBLE, x=None, objective=np.inf
        )

    tasks: list[tuple[int, int]] = [
        (i, r)
        for i, (lb, ub) in enumerate(bounds)
        for r in range(lb, ub + 1)
    ]
    if len(tasks) > MAX_DECOMPOSITION_TASKS:
        logger.info(
            "RAP decomposition: %d sub-solves > %d cap; solving jointly",
            len(tasks), MAX_DECOMPOSITION_TASKS,
        )
        return None

    # Warm rows per component (usable only for the matching row count).
    warm_rows: list[int | None] = [None] * len(comps)
    if warm_assignment is not None:
        for i, (clusters, _) in enumerate(comps):
            warm_rows[i] = len(np.unique(warm_assignment[clusters]))

    pool_workers = (
        workers if len(tasks) >= MIN_PARALLEL_TASKS else 1
    )
    # Pooled + large: publish the full matrices once and let each task
    # carry only its component's index vectors (the worker slices its
    # own block after a zero-copy attach).  Inline or small: pre-sliced
    # blocks pickle cheaper than a segment round-trip.
    publication = None
    if (
        pool_workers > 1
        and f.nbytes + mask.nbytes + cluster_width.nbytes + pair_capacity.nbytes
        > SHM_MIN_BYTES
    ):
        from repro.placement.shm import publish_arrays

        publication = publish_arrays(
            {"f": f, "w": cluster_width, "cap": pair_capacity, "mask": mask}
        )

    payloads = []
    for i, r in tasks:
        clusters, pairs = comps[i]
        local_warm = None
        if warm_assignment is not None and warm_rows[i] == r:
            pair_slot = np.full(n_p, -1, dtype=int)
            pair_slot[pairs] = np.arange(len(pairs))
            local = pair_slot[warm_assignment[clusters]]
            if np.all(local >= 0):
                local_warm = local
        if publication is not None:
            block = {
                "shm": publication.handle,
                "clusters": clusters,
                "pairs": pairs,
            }
        else:
            block = {
                "f": f[np.ix_(clusters, pairs)],
                "w": cluster_width[clusters],
                "cap": pair_capacity[pairs],
                "mask": mask[np.ix_(clusters, pairs)],
            }
        payloads.append(
            {
                **block,
                "n_rows": r,
                "backend": backend,
                "time_limit_s": time_limit_s,
                "warm": local_warm,
                "strengthen": strengthen,
                "cancel": cancel,
            }
        )

    try:
        with span(
            "rap.sparse.decompose",
            components=len(comps),
            tasks=len(tasks),
            workers=pool_workers,
        ):
            results = supervised_map(
                _solve_component_job, payloads, workers=pool_workers
            )
    finally:
        if publication is not None:
            publication.close()

    # cost[i][r] -> (objective, local assignment, optimal?)
    table: list[dict[int, tuple[float, np.ndarray, bool]]] = [
        {} for _ in comps
    ]
    nodes = 0
    runtime_s = 0.0
    for (i, r), res in zip(tasks, results):
        nodes += int(res.get("nodes", 0))
        runtime_s += float(res.get("runtime_s", 0.0))
        stats.build_s += float(res.get("build_s", 0.0))
        if "assignment" in res:
            table[i][r] = (
                float(res["objective"]),
                res["assignment"],
                res["status"] == MilpStatus.OPTIMAL.value,
            )
    stats.solve_s += runtime_s

    # Exact DP over components: best total cost opening exactly N_minR.
    INF = np.inf
    dp = np.full(n_rows + 1, INF)
    dp[0] = 0.0
    pick: list[np.ndarray] = []
    for i in range(len(comps)):
        new_dp = np.full(n_rows + 1, INF)
        choice = np.full(n_rows + 1, -1, dtype=int)
        for r, (cost, _, _) in table[i].items():
            feasible = dp[: n_rows + 1 - r] + cost
            target = np.arange(r, n_rows + 1)
            better = feasible < new_dp[target]
            new_dp[target[better]] = feasible[better]
            choice[target[better]] = r
        dp = new_dp
        pick.append(choice)
    if not np.isfinite(dp[n_rows]):
        return MilpSolution(
            status=MilpStatus.INFEASIBLE,
            x=None,
            objective=np.inf,
            nodes=nodes,
            runtime_s=runtime_s,
        )

    # Backtrack the chosen row count per component; stitch assignments.
    assignment = np.full(n_c, -1, dtype=int)
    all_optimal = True
    remaining = n_rows
    for i in range(len(comps) - 1, -1, -1):
        r = int(pick[i][remaining])
        _, local, optimal = table[i][r]
        all_optimal = all_optimal and optimal
        clusters, pairs = comps[i]
        assignment[clusters] = pairs[local]
        remaining -= r
    return MilpSolution(
        status=MilpStatus.OPTIMAL if all_optimal else MilpStatus.FEASIBLE,
        x=_dense_vector([assignment], [n_c], n_p),
        objective=float(dp[n_rows]),
        nodes=nodes,
        runtime_s=runtime_s,
    )


def _solve_lagrangian_direct(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_rows: int,
    time_limit_s: float | None,
    warm_assignment: np.ndarray | None,
    cancel: object | None = None,
) -> MilpSolution:
    """Heuristic rung without any MILP model build.

    Running the subgradient loop straight on the arrays skips the
    quadratic model build that ``solve_milp(..., backend="lagrangian")``
    would only decode back again, and is bit-identical to that round
    trip.
    """
    from repro.solvers.lagrangian import solve_rap_lagrangian

    n_c, n_p = f.shape
    solve_span = span("milp.lagrangian", n_vars=int(n_c * n_p + n_p))
    try:
        with solve_span:
            result = solve_rap_lagrangian(
                f,
                cluster_width,
                pair_capacity,
                n_rows,
                time_limit_s=time_limit_s,
                warm_assignment=warm_assignment,
                cancel=cancel,
            )
    except InfeasibleError:
        return MilpSolution(
            status=MilpStatus.INFEASIBLE,
            x=None,
            objective=np.inf,
            nodes=0,
            runtime_s=solve_span.duration_s,
        )
    x = _dense_vector([result.assignment], [n_c], n_p)
    # c @ x, not f[arange, assignment].sum(): match the model round
    # trip's accumulation order so the objective is bit-identical to it.
    cost_vector = np.concatenate([f.ravel(), np.zeros(n_p)])
    return MilpSolution(
        status=MilpStatus.FEASIBLE,
        x=x,
        objective=float(cost_vector @ x),
        nodes=result.iterations,
        runtime_s=solve_span.duration_s,
    )


def _coverage_mask(
    f: np.ndarray,
    pair_capacity: np.ndarray,
    n_rows: int,
    total_width: float,
    k: int,
    extra: np.ndarray,
) -> tuple[np.ndarray, int]:
    """One class's top-k candidate mask, widened until its union can
    open ``n_rows`` pairs holding the class's whole width."""
    n_p = f.shape[1]
    mask = cheapest_pairs_mask(f, k) | extra
    while k < n_p:
        union = np.unique(np.nonzero(mask)[1])
        caps = pair_capacity[union]
        if (
            len(union) >= n_rows
            and float(caps.sum()) >= total_width - 1e-9
        ):
            break
        k = min(n_p, k + max(1, k // 2))
        mask = cheapest_pairs_mask(f, k) | extra
    return mask, k


def _solve_eco_repair(
    f: np.ndarray,
    cluster_width: np.ndarray,
    pair_capacity: np.ndarray,
    n_rows: int,
    dirty: np.ndarray,
    warm: np.ndarray | None,
    backend: str,
    left,
    spent,
    stats: SparseSolveStats,
    cancel: object | None = None,
) -> MilpSolution | None:
    """Incremental repair of an incumbent after a small delta.

    Freezes the incumbent's row map: clean clusters stay pinned to their
    incumbent pair and only the ``dirty`` clusters may move, between the
    incumbent's *used* pairs (all of which stay open, so the mixed
    floorplan is unchanged).  The restricted MILP over the cheapest
    candidate pairs per dirty cluster is priced against the LP bound of
    the *full* row-frozen subproblem, so ``stats.certified`` means the
    repair equals the optimum **of that subproblem** — not of the
    unfrozen RAP, which a full solve may beat by reshuffling clean
    clusters or re-choosing open rows.

    Returns ``None`` when repair cannot apply (no feasible incumbent
    under the post-delta widths, or the pinned subproblem is proven
    infeasible); the caller then falls through to the full engine.
    """
    if warm is None:
        return None
    n_c, n_p = f.shape
    dirty = np.unique(np.asarray(dirty, dtype=int))
    if len(dirty) and (dirty[0] < 0 or dirty[-1] >= n_c):
        raise ValidationError("dirty_clusters outside [0, n_clusters)")
    stats.strategy = "eco-repair"

    # The incumbent's used pairs: exactly n_rows of them (validated by
    # feasible_assignment), all of which stay open in the subproblem.
    allowed = np.unique(warm)
    pin = np.zeros((n_c, n_p), dtype=bool)
    pin[np.arange(n_c), warm] = True
    if len(dirty) == 0:
        stats.rounds = 0
        stats.certified = True
        return MilpSolution(
            status=MilpStatus.OPTIMAL,
            x=_dense_vector([warm], [n_c], n_p),
            objective=assignment_cost([f], [warm]),
        )

    # Full row-frozen subproblem: dirty rows open to every used pair.
    sub_full = pin.copy()
    sub_full[np.ix_(dirty, allowed)] = True

    # Restricted start: incumbent columns plus each dirty cluster's
    # cheapest few used pairs.
    k = int(min(len(allowed), 8))
    stats.k_initial = k
    dirty_cheap = cheapest_pairs_mask(f[np.ix_(dirty, allowed)], k)
    mask = pin.copy()
    block = mask[np.ix_(dirty, allowed)]
    mask[np.ix_(dirty, allowed)] = block | dirty_cheap

    lp_bound: _LpInfo | None = None
    best: MilpSolution | None = None
    with span(
        "rap.sparse.eco",
        backend=backend,
        n_clusters=n_c,
        n_dirty=len(dirty),
        n_pairs=n_p,
    ) as root:
        while True:
            stats.rounds += 1
            if stats.rounds > _SAFETY_ROUNDS:
                mask = sub_full.copy()
            stats.n_candidates = int(mask.sum())
            stats.k_final = int(mask[dirty].sum(axis=1).max())
            t0 = time.perf_counter()
            srm = build_sparse_rap_model(
                [f], [cluster_width], pair_capacity, [n_rows], [mask],
                strengthen=True,
            )
            stats.build_s += time.perf_counter() - t0
            restricted = solve_milp(
                srm.model,
                backend=backend,
                time_limit_s=left(),
                warm_start=_warm_vector(srm, [warm]),
                cancel=cancel,
            )
            stats.solve_s += restricted.runtime_s
            full = not (sub_full & ~mask).any()
            if restricted.status is MilpStatus.INFEASIBLE:
                if full:
                    # The pinned subproblem itself is infeasible (the
                    # delta broke the incumbent's row map); repair does
                    # not apply — the caller re-solves from scratch.
                    root.annotate(outcome="pinned_infeasible")
                    return None
                mask = sub_full.copy()
                continue
            if not restricted.ok or restricted.x is None:
                root.annotate(outcome=restricted.status.value)
                return best
            solution = _in_dense_layout(srm, restricted)
            best = solution
            observe(
                "rap.sparse.eco",
                round=stats.rounds,
                n_candidates=stats.n_candidates,
                objective=solution.objective,
                admitted=stats.admitted_columns,
            )
            if full:
                stats.certified = solution.status is MilpStatus.OPTIMAL
                root.annotate(
                    outcome="full", objective=solution.objective
                )
                return solution
            if solution.status is not MilpStatus.OPTIMAL:
                root.annotate(outcome="uncertified")
                return solution

            # Pricing against the row-frozen subproblem's LP bound.
            z = solution.objective
            if lp_bound is None and not spent():
                lp = _dense_lp(
                    [f], [cluster_width], pair_capacity, [n_rows],
                    left(), masks=[sub_full],
                )
                if isinstance(lp, _LpInfo):
                    lp_bound = lp
                    stats.lp_bound = lp.objective
            if lp_bound is None:
                if spent():
                    root.annotate(outcome="budget", objective=z)
                    return solution
                # No pricing bound: solve the full subproblem directly.
                mask = sub_full.copy()
                continue
            tol = 1e-6 * max(1.0, abs(z))
            admit = sub_full & ~mask & (
                lp_bound.objective + lp_bound.reduced_costs[0] <= z + tol
            )
            if not admit.any():
                stats.certified = True
                root.annotate(outcome="certified", objective=z)
                return solution
            if spent():
                root.annotate(outcome="budget", objective=z)
                return solution
            stats.admitted_columns += int(admit.sum())
            mask = mask | admit


def _solve_full(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    backend: str,
    time_limit_s: float | None,
    warm: list[np.ndarray] | None,
    stats: SparseSolveStats,
    cancel: object | None = None,
) -> MilpSolution:
    """One full-mask solve, no cuts and no LP (small or non-sparse)."""
    n_p = len(pair_capacity)
    stats.strategy = "dense"
    stats.k_initial = stats.k_final = n_p
    stats.n_candidates = sum(f.size for f in f_by_class)
    stats.n_components = 1
    stats.rounds = 1
    t0 = time.perf_counter()
    srm = build_sparse_rap_model(
        f_by_class, width_by_class, pair_capacity, budgets
    )
    stats.build_s = time.perf_counter() - t0
    solution = solve_milp(
        srm.model,
        backend=backend,
        time_limit_s=time_limit_s,
        warm_start=_warm_vector(srm, warm),
        cancel=cancel,
    )
    stats.solve_s = solution.runtime_s
    # The full model is authoritative in either direction.
    stats.certified = solution.status in (
        MilpStatus.OPTIMAL, MilpStatus.INFEASIBLE
    )
    observe(
        "rap.sparse",
        round=1,
        n_candidates=stats.n_candidates,
        components=1,
        objective=solution.objective if solution.ok else None,
        admitted=0,
    )
    return _in_dense_layout(srm, solution)


def _solve_pruned(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    backend: str,
    candidate_k: int | None,
    warm: list[np.ndarray] | None,
    workers: int,
    stats: SparseSolveStats,
    root,
    left,
    spent,
    cancel: object | None = None,
) -> MilpSolution:
    """Candidate generation plus the pricing/repair loop."""
    K = len(f_by_class)
    n_cs = [f.shape[0] for f in f_by_class]
    n_p = len(pair_capacity)
    forced = candidate_k is not None
    # A forced k = N_P must reproduce the full model (and its solver
    # trajectory) exactly, so that configuration carries no cuts.
    strengthen = not (forced and candidate_k >= n_p)
    extra = [np.zeros(f.shape, dtype=bool) for f in f_by_class]
    lp_info: _LpInfo | None = None

    def covered(
        ks: list[int], grow: list[np.ndarray]
    ) -> tuple[list[np.ndarray], list[int]]:
        widened = [
            _coverage_mask(f, pair_capacity, b, float(w.sum()), k, g)
            for f, w, b, k, g in zip(
                f_by_class, width_by_class, budgets, ks, grow
            )
        ]
        return [m for m, _ in widened], [k for _, k in widened]

    # The cheapest feasible assignment known so far: what a budget exit
    # returns when the restricted MILP leaves nothing better.
    best = warm

    def best_solution() -> MilpSolution:
        """The best incumbent as a full-layout FEASIBLE solution."""
        return MilpSolution(
            status=MilpStatus.FEASIBLE,
            x=_dense_vector(best, n_cs, n_p),
            objective=assignment_cost(f_by_class, best),
        )

    if forced:
        stats.strategy = "top-k"
        k = int(np.clip(candidate_k, 1, n_p))
        with span("rap.sparse.candidates", k=k, strategy="top-k"):
            masks, ks = covered([k] * K, extra)
    else:
        stats.strategy = "rc-fixing"
        with span("rap.sparse.candidates") as cand_span:
            source = "warm"
            if warm is None and K > 1:
                # The greedy assignment stands in for a missing warm
                # start: an incumbent for rc fixing and budget exits.
                from repro.core.heights import greedy_nheight

                best = warm = greedy_nheight(
                    f_by_class, width_by_class, pair_capacity, budgets
                )
                source = "greedy"
            with span("rap.sparse.lp") as lp_span:
                lp = _dense_lp(
                    f_by_class, width_by_class, pair_capacity, budgets,
                    time_limit_s=left(),
                )
                lp_span.annotate(
                    lp_bound=lp.objective if isinstance(lp, _LpInfo) else None
                )
            if isinstance(lp, MilpSolution):  # LP proves infeasibility
                root.annotate(outcome="infeasible")
                stats.solve_s += lp.runtime_s
                stats.certified = True
                return lp
            incumbent: list[np.ndarray] | None = None
            if lp is not None:
                lp_info = lp
                stats.lp_bound = lp.objective
                stats.solve_s += lp.runtime_s
                with span("rap.sparse.incumbent") as inc_span:
                    # The LP-rounding incumbent when it is no worse than
                    # the warm start, else the warm start.
                    incumbent = warm
                    rounded = _lp_rounding_incumbent(
                        f_by_class, width_by_class, pair_capacity, budgets,
                        lp.y_fractional, backend, left, cancel=cancel,
                    )
                    if rounded is not None:
                        stats.solve_s += rounded[2]
                        if warm is None or rounded[1] <= assignment_cost(
                            f_by_class, warm
                        ):
                            incumbent, source = rounded[0], "lp-rounding"
                    if incumbent is not None:
                        best = incumbent
                        z_ub = assignment_cost(f_by_class, incumbent)
                        tol = 1e-6 * max(1.0, abs(z_ub))
                        gap_closed = z_ub <= lp.objective + tol
                        inc_span.annotate(
                            source=source,
                            upper_bound=z_ub,
                            gap_closed=gap_closed,
                        )
            if incumbent is not None:
                stats.upper_bound = z_ub
                masks = [
                    lp_info.objective + rc <= z_ub + tol
                    for rc in lp_info.reduced_costs
                ]
                # The incumbent's own columns always survive, which
                # keeps the restricted problem feasible by
                # construction; force them in against FP noise.
                for mask, a in zip(masks, incumbent):
                    mask[np.arange(len(a)), a] = True
                ks = [int(m.sum(axis=1).max()) for m in masks]
                if warm is None:
                    warm = incumbent
                stats.n_candidates = int(sum(m.sum() for m in masks))
                cand_span.annotate(
                    strategy="rc-fixing",
                    n_candidates=stats.n_candidates,
                    lp_bound=lp_info.objective,
                    upper_bound=z_ub,
                )
                if gap_closed:
                    # LP-bound certificate: no assignment beats the LP
                    # bound, so the incumbent meeting it is optimal and
                    # the restricted MILP has nothing left to prove.
                    stats.k_initial = stats.k_final = max(ks)
                    stats.certified = True
                    observe(
                        "rap.sparse",
                        round=0,
                        n_candidates=stats.n_candidates,
                        components=1,
                        objective=z_ub,
                        admitted=0,
                    )
                    root.annotate(outcome="certified", objective=z_ub)
                    return MilpSolution(
                        status=MilpStatus.OPTIMAL,
                        x=_dense_vector(incumbent, n_cs, n_p),
                        objective=z_ub,
                    )
            else:
                # No LP or no incumbent: adaptive top-k fallback.
                stats.strategy = "top-k"
                masks, ks = covered(
                    [
                        adaptive_candidate_count(f, w, pair_capacity, b)
                        for f, w, b in zip(
                            f_by_class, width_by_class, budgets
                        )
                    ],
                    extra,
                )
                cand_span.annotate(strategy="top-k", k=max(ks))
    stats.k_initial = max(ks)

    while True:
        stats.rounds += 1
        if stats.rounds > _SAFETY_ROUNDS:
            masks = [np.ones(f.shape, dtype=bool) for f in f_by_class]
        stats.n_candidates = int(sum(m.sum() for m in masks))
        stats.k_final = int(max(m.sum(axis=1).max() for m in masks))

        solution: MilpSolution | None = None
        if K == 1:
            comps = _candidate_components(masks[0])
            stats.n_components = len(comps)
            if len(comps) > 1:
                solution = _solve_decomposed(
                    f_by_class[0], width_by_class[0], pair_capacity,
                    budgets[0], masks[0], comps, backend, left(),
                    None if warm is None else warm[0],
                    workers, strengthen, stats, cancel=cancel,
                )
        if solution is None:  # joint model, one component or oversized sweep
            t0 = time.perf_counter()
            srm = build_sparse_rap_model(
                f_by_class, width_by_class, pair_capacity, budgets, masks,
                strengthen=strengthen,
            )
            stats.build_s += time.perf_counter() - t0
            restricted = solve_milp(
                srm.model,
                backend=backend,
                time_limit_s=left(),
                warm_start=_warm_vector(srm, warm),
                cancel=cancel,
            )
            stats.solve_s += restricted.runtime_s
            solution = _in_dense_layout(srm, restricted)

        observe(
            "rap.sparse",
            round=stats.rounds,
            n_candidates=stats.n_candidates,
            components=stats.n_components,
            objective=solution.objective if solution.ok else None,
            admitted=stats.admitted_columns,
        )

        full = all(m.all() for m in masks)
        if solution.status is MilpStatus.INFEASIBLE:
            if full:
                root.annotate(outcome="infeasible")
                stats.certified = True
                return solution
            if spent():
                # Only the *restricted* problem is proven infeasible;
                # without budget to widen the candidate set that is a
                # solve failure, not an infeasibility verdict (the
                # caller would wrongly relax).  The best incumbent still
                # beats no answer.
                root.annotate(outcome="budget_exhausted")
                if best is not None:
                    return best_solution()
                return MilpSolution(
                    status=MilpStatus.ERROR, x=None, objective=np.inf
                )
            ks = [min(n_p, 2 * max(k, 1)) for k in ks]
            with span("rap.sparse.candidates", k=max(ks), escalated=True):
                masks, ks = covered(
                    ks, [e | m for e, m in zip(extra, masks)]
                )
            continue
        if not solution.ok or solution.x is None:
            if spent() and best is not None:
                # The restricted solve died on the budget's last
                # sliver; the best incumbent still beats erroring.
                root.annotate(outcome="budget_exhausted")
                return best_solution()
            root.annotate(outcome=solution.status.value)
            return solution  # timeout/error: caller's problem

        if full:
            stats.certified = solution.status is MilpStatus.OPTIMAL
            root.annotate(outcome="dense", objective=solution.objective)
            return solution
        if solution.status is not MilpStatus.OPTIMAL:
            # An incumbent under a time limit carries no optimality
            # certificate, so the pricing test cannot run.
            root.annotate(outcome="uncertified")
            if best is not None and (
                assignment_cost(f_by_class, best) < solution.objective
            ):
                return best_solution()
            return solution

        # Pricing test: can any pruned column beat this optimum?
        z = solution.objective
        if lp_info is None and not spent():
            lp = _dense_lp(
                f_by_class, width_by_class, pair_capacity, budgets,
                time_limit_s=left(),
            )
            if isinstance(lp, _LpInfo):
                lp_info = lp
                stats.lp_bound = lp.objective
                stats.solve_s += lp.runtime_s
        if lp_info is None:
            if spent():
                # Restricted optimum, but no budget left to price it
                # against the pruned columns: return it as an
                # uncertified incumbent, like a time-limit expiry.
                root.annotate(outcome="budget", objective=z)
                return solution
            # No pricing bound available: keep the exactness contract
            # by solving the full model (slow path).
            logger.warning(
                "sparse RAP pricing unavailable; solving the full model"
            )
            masks = [np.ones(f.shape, dtype=bool) for f in f_by_class]
            continue
        tol = 1e-6 * max(1.0, abs(z))
        admits = [
            ~m & (lp_info.objective + rc <= z + tol)
            for m, rc in zip(masks, lp_info.reduced_costs)
        ]
        n_admit = int(sum(a.sum() for a in admits))
        if n_admit == 0:
            stats.certified = True
            root.annotate(outcome="certified", objective=z)
            return solution
        if spent():
            # Pricing wants more columns but the budget is gone: the
            # restricted optimum stands as an uncertified incumbent.
            root.annotate(outcome="budget", objective=z)
            return solution
        stats.admitted_columns += n_admit
        logger.info(
            "RAP pricing re-admits %d pruned columns (z=%.6g)", n_admit, z
        )
        extra = [e | a for e, a in zip(extra, admits)]
        masks = [m | a for m, a in zip(masks, admits)]


def solve_rap_sparse(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    backend: str = "highs",
    time_limit_s: float | None = None,
    warm_assignment: list[np.ndarray] | None = None,
    candidate_k: int | None = None,
    sparse: bool = True,
    workers: int = 1,
    cancel: object | None = None,
    dirty_clusters: list[np.ndarray] | None = None,
) -> tuple[MilpSolution, list[np.ndarray] | None, SparseSolveStats]:
    """Solve the class-indexed RAP through the sparse engine.

    Inputs are per minority class: cost matrices, cluster widths and row
    budgets, plus the shared pair capacity.  Returns ``(solution,
    per-class cluster -> pair maps or None, stats)``; the solution is in
    the **full** variable layout (every class's ``x`` block, then every
    class's ``y`` block) and a cluster it leaves unassigned maps to
    ``-1``.  For exact backends the result is certified equal to the
    full optimum whenever ``stats.certified`` is true — which is every
    solve that ran to optimality, by the reduced-cost argument in the
    module docstring.  ``candidate_k`` forces the top-k strategy (with
    ``candidate_k = N_P`` reproducing the full model bit for bit);
    ``None`` selects reduced-cost fixing with a top-k fallback, except at
    or below :data:`SMALL_PROBLEM_VARIABLES` full-model variables or
    with ``sparse=False``, where one full-mask solve runs instead.

    ``time_limit_s`` budgets the *entire* solve, not each sub-solve:
    the LP, the incumbent, every restricted MILP and every pricing round
    draw from one shared wall-clock budget, and an exhausted budget
    returns the best incumbent uncertified (or ERROR when there is none)
    instead of starting another round.

    ``cancel`` is a cooperative cancellation flag (``is_set() -> bool``,
    picklable — e.g. :class:`repro.utils.supervise.CancelToken`) threaded
    down to every iterative sub-solve, including component sub-MILPs in
    pool workers; a cancelled solve stops early with its incumbent, like
    a time-limit expiry.

    ``dirty_clusters`` (one class only) switches the engine into ECO
    repair: with a feasible ``warm_assignment`` it solves only the
    row-frozen dirty subproblem (:func:`_solve_eco_repair`) — clean
    clusters pinned, dirty ones re-assigned among the incumbent's used
    pairs — and certifies against that subproblem's LP bound.  When
    repair cannot apply (no usable incumbent, or the pinned subproblem
    is infeasible) the call falls through to the full engine below, so
    the result is never worse than a cold solve.
    """
    f_by_class = [np.asarray(f, dtype=float) for f in f_by_class]
    width_by_class = [np.asarray(w, dtype=float) for w in width_by_class]
    pair_capacity = np.asarray(pair_capacity, dtype=float)
    n_cs, n_p = validate_rap_inputs(
        f_by_class, width_by_class, pair_capacity, budgets
    )
    K = len(f_by_class)
    stats = SparseSolveStats(
        n_dense_variables=sum(f.size for f in f_by_class) + K * n_p
    )

    forced = candidate_k is not None
    warm = feasible_assignment(
        warm_assignment, width_by_class, pair_capacity, budgets
    )
    if warm is None and warm_assignment is not None and not sparse and K == 1:
        # The single-class full-mask solve falls back to the greedy seed
        # when the warm start no longer fits (e.g. after a relaxation).
        seed = greedy_rap(
            f_by_class[0], width_by_class[0], pair_capacity, budgets[0]
        )
        if seed is not None:
            warm = feasible_assignment(
                [seed], width_by_class, pair_capacity, budgets
            )

    if K == 1 and backend == "lagrangian":
        stats.strategy = "lagrangian"
        solution = _solve_lagrangian_direct(
            f_by_class[0], width_by_class[0], pair_capacity, budgets[0],
            time_limit_s,
            None if warm is None else warm[0],
            cancel=cancel,
        )
        stats.rounds = 1
        stats.k_initial = stats.k_final = n_p
        stats.n_candidates = f_by_class[0].size
        stats.solve_s = solution.runtime_s
        return solution, _maps_of(solution, n_cs, n_p), stats
    if K > 1 and backend not in EXACT_BACKENDS:
        raise SolverError(
            f"backend {backend!r} does not support N-height instances "
            "(exact backends only; the resilient chain adds the SA rung)"
        )

    # ``time_limit_s`` budgets the WHOLE solve.  The engine runs several
    # sub-solves per call (LP, rounding incumbent, restricted MILPs,
    # pricing rounds); handing each of them the caller's full limit
    # multiplies the budget by the sub-solve count — at giga scale
    # (thousands of clusters) a 120 s budget was observed to cost 16
    # minutes of wall clock.  Every sub-solve below gets the *remaining*
    # budget instead, and the pricing loop stops (uncertified) once it
    # is spent.
    t_start = time.perf_counter()

    def left() -> float | None:
        if time_limit_s is None:
            return None
        # Keep a small positive floor so an already-expired budget makes
        # sub-solvers return immediately instead of erroring on 0.
        return max(0.05, time_limit_s - (time.perf_counter() - t_start))

    def spent() -> bool:
        return (
            time_limit_s is not None
            and time.perf_counter() - t_start >= time_limit_s
        )

    if K == 1 and dirty_clusters is not None and not forced:
        eco = _solve_eco_repair(
            f_by_class[0], width_by_class[0], pair_capacity, budgets[0],
            dirty_clusters[0], None if warm is None else warm[0],
            backend, left, spent, stats, cancel=cancel,
        )
        if eco is not None:
            return eco, _maps_of(eco, n_cs, n_p), stats

    with span(
        "rap.sparse",
        backend=backend,
        n_classes=K,
        n_clusters=sum(n_cs),
        n_pairs=n_p,
        forced_k=candidate_k,
    ) as root:
        if not sparse or (
            not forced and stats.n_dense_variables <= SMALL_PROBLEM_VARIABLES
        ):
            solution = _solve_full(
                f_by_class, width_by_class, pair_capacity, budgets,
                backend, left(), warm, stats, cancel=cancel,
            )
            root.annotate(
                outcome="dense",
                objective=solution.objective if solution.ok else None,
            )
        else:
            solution = _solve_pruned(
                f_by_class, width_by_class, pair_capacity, budgets,
                backend, candidate_k, warm, workers, stats, root, left,
                spent, cancel=cancel,
            )
    return solution, _maps_of(solution, n_cs, n_p), stats

