"""HeightSpec API + N-height RAP: one engine for every class count.

The generalization's contract has two layers:

* a two-entry :class:`HeightSpec` is the *same computation* as the
  default ``heights=None`` setting, and its full model is the reference
  :func:`build_rap_model` — same models, same solver answers, same
  assignments, HPWL and provenance, bit for bit;
* N >= 3 instances solve through the joint height-indexed model with a
  reduced-cost certificate, and fall back to simulated annealing when
  every MILP rung fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.heights import (
    HeightClass,
    HeightSpec,
    anneal_nheight,
    greedy_nheight,
    solve_rap_resilient,
)
from repro.core.params import RCPPParams
from repro.core.rap import (
    RowAssignment,
    build_rap_model,
    dense_assignment,
    required_minority_pairs,
    validate_rap_inputs,
)
from repro.core.sparse_rap import build_sparse_rap_model, solve_rap_sparse
from repro.solvers.milp import solve_milp
from repro.utils.errors import InfeasibleError, ValidationError
from repro.utils.resilience import (
    FaultPlan,
    FlowProvenance,
    ResiliencePolicy,
    RetryPolicy,
)
from tests.conftest import make_design

EXACT_BACKENDS = ("highs", "bnb")


def random_joint_instance(seed, n_classes=2, n_p=None):
    """Random feasible N-height instance (continuous costs, no ties)."""
    rng = np.random.default_rng(seed)
    n_p = n_p or int(rng.integers(4, 9))
    f_by_class, width_by_class, budgets = [], [], []
    for _ in range(n_classes):
        n_c = int(rng.integers(2, 5))
        f_by_class.append(rng.uniform(0.0, 100.0, size=(n_c, n_p)))
        width_by_class.append(rng.uniform(1.0, 4.0, size=n_c))
        budgets.append(1)
    cap = np.full(n_p, max(w.sum() for w in width_by_class) + 5.0)
    # Budgets: enough pairs per class to host its width, sum under n_p.
    for h, w in enumerate(width_by_class):
        budgets[h] = max(1, int(np.ceil(w.sum() / cap[0])))
    while sum(budgets) > n_p - (n_classes - 1):
        budgets[int(np.argmax(budgets))] -= 1
    return f_by_class, width_by_class, cap, budgets


class TestHeightSpecValidation:
    def test_float_minorities_coerce(self):
        spec = HeightSpec(6.0, (7.5, 9.0))
        assert all(isinstance(c, HeightClass) for c in spec.minority)
        assert spec.minority_tracks == (7.5, 9.0)
        assert spec.tracks == (6.0, 7.5, 9.0)
        assert spec.n_classes == 2 and not spec.is_two_height

    def test_duplicate_minority_rejected(self):
        with pytest.raises(ValidationError):
            HeightSpec(6.0, (7.5, 7.5))

    def test_majority_in_minorities_rejected(self):
        with pytest.raises(ValidationError):
            HeightSpec(6.0, (6.0,))

    def test_no_minorities_rejected(self):
        with pytest.raises(ValidationError):
            HeightSpec(6.0, ())

    def test_bad_class_fields_rejected(self):
        with pytest.raises(ValidationError):
            HeightClass(7.5, fill_target=0.0)
        with pytest.raises(ValidationError):
            HeightClass(7.5, n_rows=0)
        with pytest.raises(ValidationError):
            HeightClass(-1.0)

    def test_class_for(self):
        spec = HeightSpec(6.0, (HeightClass(7.5, n_rows=3),))
        assert spec.class_for(7.5).n_rows == 3
        with pytest.raises(ValidationError):
            spec.class_for(9.0)

    def test_two_height_constructor(self):
        spec = HeightSpec.two_height(
            minority_track=7.5, n_minority_rows=4, minority_fill_target=0.7
        )
        assert spec.majority == 6.0
        assert spec.minority == (HeightClass(7.5, n_rows=4, fill_target=0.7),)
        assert spec.is_two_height


class TestHeightSpecParse:
    def test_parse_named_budgets(self):
        spec = HeightSpec.parse("6,7.5,9", "7.5=3,9=2")
        assert spec.majority == 6.0
        assert spec.class_for(7.5).n_rows == 3
        assert spec.class_for(9.0).n_rows == 2

    def test_parse_positional_budgets(self):
        spec = HeightSpec.parse("6,7.5,9", "3,2")
        assert spec.class_for(7.5).n_rows == 3
        assert spec.class_for(9.0).n_rows == 2

    def test_parse_no_budgets(self):
        spec = HeightSpec.parse("6,7.5", fill_target=0.5)
        assert spec.class_for(7.5).n_rows is None
        assert spec.class_for(7.5).fill_target == 0.5

    @pytest.mark.parametrize(
        "tracks,budgets",
        [
            ("6", None),  # needs >= 2 tracks
            ("6,banana", None),
            ("6,7.5", "x=1"),
            ("6,7.5,9", "7.5=3,12=2"),  # unknown track in budgets
            ("6,7.5,9", "3"),  # positional count mismatch
        ],
    )
    def test_parse_rejects(self, tracks, budgets):
        with pytest.raises(ValidationError):
            HeightSpec.parse(tracks, budgets)


class TestHeightSpecSerde:
    def test_round_trip(self):
        spec = HeightSpec(6.0, (HeightClass(9.0, n_rows=2), HeightClass(7.5)))
        assert HeightSpec.from_dict(spec.to_dict()) == spec

    def test_run_config_round_trip_with_heights(self):
        spec = HeightSpec(6.0, (HeightClass(7.5, fill_target=0.7),))
        config = RunConfig(params=RCPPParams(heights=spec))
        rebuilt = RunConfig.from_dict(config.to_dict())
        assert rebuilt.params.heights == spec

    def test_fingerprint_stable_without_heights(self):
        # Legacy configs must keep their pre-HeightSpec cache hashes.
        fp = RunConfig().initial_placement_fingerprint()
        assert "heights" not in fp
        spec = HeightSpec.two_height()
        fp2 = RunConfig(
            params=RCPPParams(heights=spec)
        ).initial_placement_fingerprint()
        assert fp2["heights"] == spec.to_dict()


class TestBudgets:
    def test_forced_budget_wins(self):
        spec = HeightSpec(6.0, (HeightClass(7.5, n_rows=5),))
        assert spec.budgets({7.5: 100.0}, 10.0) == {7.5: 5}

    def test_derived_budget_matches_legacy_rule(self):
        spec = HeightSpec(6.0, (HeightClass(7.5, fill_target=0.6),))
        expected = required_minority_pairs(100.0, 10.0, 0.6)
        assert spec.budgets({7.5: 100.0}, 10.0) == {7.5: expected}


class TestModelDelegation:
    """K = 1 builds the exact reference model."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_single_class_model_identical(self, seed):
        """The full-mask, uncut builder emits the reference model's CSR
        arrays exactly (same storage, not just the same values)."""
        rng = np.random.default_rng(seed)
        n_c, n_p = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        f = rng.uniform(0, 10, size=(n_c, n_p))
        w = rng.uniform(1, 3, size=n_c)
        cap = np.full(n_p, w.sum() + 1.0)
        n_rows = int(rng.integers(1, n_p + 1))
        legacy = build_rap_model(f, w, cap, n_rows)
        joint = build_sparse_rap_model([f], [w], cap, [n_rows]).model
        assert np.array_equal(legacy.c, joint.c)
        assert np.array_equal(legacy.b_eq, joint.b_eq)
        assert np.array_equal(legacy.b_ub, joint.b_ub)
        for a, b in ((legacy.a_eq, joint.a_eq), (legacy.a_ub, joint.a_ub)):
            assert a.shape == b.shape
            for part in ("indptr", "indices", "data"):
                x, y = getattr(a, part), getattr(b, part)
                assert x.dtype == y.dtype and np.array_equal(x, y), part
        assert legacy.variable_names() == joint.variable_names()

    def test_joint_model_shape(self):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(7)
        model = build_sparse_rap_model(
            f_by_class, w_by_class, cap, budgets
        ).model
        n_p = len(cap)
        n_x = sum(f.shape[0] for f in f_by_class) * n_p
        assert model.c.shape == (n_x + len(f_by_class) * n_p,)

    def test_validate_rejects_overbooked_budgets(self):
        f_by_class, w_by_class, cap, _ = random_joint_instance(11, n_p=4)
        with pytest.raises(InfeasibleError):
            validate_rap_inputs(f_by_class, w_by_class, cap, [3, 2])


class TestTwoHeightBitIdentity:
    """The engine's K = 1 full-mask solve IS the reference model's."""

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_dense_delegation_matches(self, backend):
        rng = np.random.default_rng(23)
        f = rng.uniform(0, 100, size=(4, 5))
        w = rng.uniform(1, 4, size=4)
        cap = np.full(5, w.sum() + 2.0)
        legacy = solve_milp(build_rap_model(f, w, cap, 2), backend=backend)
        solution, _, _ = solve_rap_sparse(
            [f], [w], cap, [2], backend=backend, sparse=False
        )
        assert solution.objective == legacy.objective
        assert np.array_equal(solution.x, legacy.x)


class TestJointSolve:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_certified_sparse_equals_dense(self, seed):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(seed)
        solution, assignment, stats = solve_rap_sparse(
            f_by_class, w_by_class, cap, budgets
        )
        assert stats.certified
        dense = solve_milp(
            build_sparse_rap_model(f_by_class, w_by_class, cap, budgets).model
        )
        assert dense.ok
        assert solution.objective == pytest.approx(dense.objective, abs=1e-6)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_assignment_feasible(self, n_classes):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(
            42, n_classes=n_classes, n_p=8
        )
        _, assignment, _ = solve_rap_sparse(
            f_by_class, w_by_class, cap, budgets
        )
        assert assignment is not None
        used_by_class = [set(np.unique(a).tolist()) for a in assignment]
        for used, budget in zip(used_by_class, budgets):
            assert len(used) == budget
        for i in range(n_classes):
            for j in range(i + 1, n_classes):
                assert not (used_by_class[i] & used_by_class[j])
        for w, a in zip(w_by_class, assignment):
            for p in np.unique(a):
                assert w[a == p].sum() <= cap[p] + 1e-9

    def test_lagrangian_rejected_at_k2(self):
        from repro.utils.errors import SolverError

        f_by_class, w_by_class, cap, budgets = random_joint_instance(5)
        with pytest.raises(SolverError):
            solve_rap_sparse(
                f_by_class, w_by_class, cap, budgets, backend="lagrangian"
            )


class TestHeuristics:
    def test_greedy_feasible(self):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(9)
        assignment = greedy_nheight(f_by_class, w_by_class, cap, budgets)
        assert assignment is not None
        used = [set(np.unique(a).tolist()) for a in assignment]
        for u, b in zip(used, budgets):
            assert len(u) == b

    def test_anneal_no_worse_than_greedy(self):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(13, n_p=8)
        greedy = greedy_nheight(f_by_class, w_by_class, cap, budgets)
        greedy_cost = sum(
            float(f[np.arange(len(a)), a].sum())
            for f, a in zip(f_by_class, greedy)
        )
        annealed = anneal_nheight(f_by_class, w_by_class, cap, budgets)
        assert annealed is not None
        _, sa_cost = annealed
        assert sa_cost <= greedy_cost + 1e-9

    def test_anneal_deterministic(self):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(17)
        a1 = anneal_nheight(f_by_class, w_by_class, cap, budgets, seed=3)
        a2 = anneal_nheight(f_by_class, w_by_class, cap, budgets, seed=3)
        assert a1[1] == a2[1]
        assert all(np.array_equal(x, y) for x, y in zip(a1[0], a2[0]))


class TestResilientNHeight:
    @staticmethod
    def _instance():
        f_by_class, w_by_class, cap, budgets = random_joint_instance(21, n_p=7)
        labels = [
            np.arange(f.shape[0]).repeat(2) for f in f_by_class
        ]  # two cells per cluster
        return f_by_class, w_by_class, cap, budgets, labels

    def test_healthy_run_is_exact(self):
        f_by_class, w_by_class, cap, budgets, labels = self._instance()
        prov = FlowProvenance()
        result = solve_rap_resilient(
            f_by_class, w_by_class, cap, budgets, labels,
            minority_tracks=[7.5, 9.0], provenance=prov,
        )
        assert result is not None
        assert prov.backend == "highs"
        assert not prov.degraded
        assert set(result.by_track) == {7.5, 9.0}

    def test_sa_fallback_when_every_milp_rung_fails(self):
        f_by_class, w_by_class, cap, budgets, labels = self._instance()
        plan = FaultPlan().fail("rap.highs").fail("rap.bnb")
        policy = ResiliencePolicy(
            fault_plan=plan, retry=RetryPolicy(max_attempts=1)
        )
        prov = FlowProvenance()
        result = solve_rap_resilient(
            f_by_class, w_by_class, cap, budgets, labels,
            minority_tracks=[7.5, 9.0], policy=policy, provenance=prov,
        )
        assert result is not None
        assert prov.backend == "sa"
        assert prov.degraded
        failed = {a.stage for a in prov.attempts if not a.ok}
        assert {"rap.highs", "rap.bnb"} <= failed


class TestDecoderRejectsUnassigned:
    """A solution vector leaving a cluster unassigned decodes to ``-1``,
    and :meth:`RowAssignment.from_classes` refuses it for every K."""

    @staticmethod
    def _by_track(maps, tracks):
        # One cell per cluster: labels are the identity.
        return {t: (a, a[np.arange(len(a))]) for t, a in zip(tracks, maps)}

    def test_k1(self):
        x = np.zeros(3 * 4 + 4)
        x[[0 * 4 + 0, 1 * 4 + 2, 2 * 4 + 2, 12 + 0, 12 + 2]] = 1.0
        x[4:8] = 0.0  # cluster 1 loses its pair
        cluster_to_pair = dense_assignment(x, 3, 4)
        assert cluster_to_pair.tolist() == [0, -1, 2]
        with pytest.raises(InfeasibleError):
            RowAssignment.from_classes(
                self._by_track([cluster_to_pair], [7.5]), 6.0, 4, 0.0
            )

    def test_k2(self):
        f_by_class, w_by_class, cap, budgets = random_joint_instance(5)
        srm = build_sparse_rap_model(f_by_class, w_by_class, cap, budgets)
        x = srm.encode_assignment(
            greedy_nheight(f_by_class, w_by_class, cap, budgets)
        )
        x[np.flatnonzero(srm.cand_cluster[0] == 0)] = 0.0
        maps = srm.assignment_of(x)
        assert maps[0][0] == -1
        with pytest.raises(InfeasibleError):
            RowAssignment.from_classes(
                self._by_track(maps, [7.5, 9.0]), 6.0, len(cap), 0.0
            )


class TestParamsShims:
    def test_defaults_stay_silent(self, recwarn):
        RCPPParams()
        assert [
            w for w in recwarn.list if w.category is DeprecationWarning
        ] == []


@pytest.fixture(scope="module")
def twin_designs(library):
    """Two identical designs (same seed) for default-vs-spec comparison."""
    kw = dict(n_cells=420, minority_fraction=0.18, seed=12)
    return make_design(library, **kw), make_design(library, **kw)


class TestFlowBitIdentity:
    """``heights=None`` runs the explicit two-entry spec, bit for bit."""

    @pytest.fixture(scope="class")
    def flow_pairs(self, twin_designs, library):
        legacy_design, spec_design = twin_designs
        spec = HeightSpec.two_height()
        legacy_runner = FlowRunner(
            prepare_initial_placement(legacy_design, library), RCPPParams()
        )
        spec_runner = FlowRunner(
            prepare_initial_placement(spec_design, library, heights=spec),
            RCPPParams(heights=spec),
        )
        kinds = (FlowKind.FLOW4, FlowKind.FLOW5)
        return {
            kind: (legacy_runner.run(kind), spec_runner.run(kind))
            for kind in kinds
        }

    def test_hpwl_identical(self, flow_pairs):
        for kind, (legacy, speced) in flow_pairs.items():
            assert legacy.hpwl == speced.hpwl, kind

    def test_positions_identical(self, flow_pairs):
        for kind, (legacy, speced) in flow_pairs.items():
            assert np.array_equal(legacy.placed.x, speced.placed.x), kind
            assert np.array_equal(legacy.placed.y, speced.placed.y), kind

    def test_assignment_identical(self, flow_pairs):
        for kind, (legacy, speced) in flow_pairs.items():
            assert legacy.assignment.objective == speced.assignment.objective
            assert np.array_equal(
                legacy.assignment.cluster_to_pair,
                speced.assignment.cluster_to_pair,
            ), kind
            assert np.array_equal(
                legacy.assignment.cell_to_pair,
                speced.assignment.cell_to_pair,
            ), kind

    def test_provenance_identical(self, flow_pairs):
        for kind, (legacy, speced) in flow_pairs.items():
            assert legacy.provenance.backend == speced.provenance.backend
            assert legacy.provenance.degraded == speced.provenance.degraded
            assert [a.stage for a in legacy.provenance.attempts] == [
                a.stage for a in speced.provenance.attempts
            ], kind


class TestNHeightEndToEnd:
    @pytest.fixture(scope="class")
    def three_height_flow(self):
        from repro.experiments.runner import run_testcase
        from repro.experiments.testcases import NHEIGHT_TESTCASES

        spec = HeightSpec(6.0, (HeightClass(7.5), HeightClass(9.0)))
        config = RunConfig(
            scale=1.0 / 384.0, params=RCPPParams(heights=spec)
        )
        run = run_testcase(
            NHEIGHT_TESTCASES[0], (FlowKind.FLOW5,), config=config
        )
        return run.results[FlowKind.FLOW5]

    def test_flow5_legal_and_exact(self, three_height_flow):
        flow = three_height_flow
        assert flow.placed.check_legal() == []
        assert not flow.degraded
        assert flow.provenance.backend in EXACT_BACKENDS

    def test_by_track_covers_both_minorities(self, three_height_flow):
        by_track = three_height_flow.assignment.by_track
        assert set(by_track) == {7.5, 9.0}
        for track, (cluster_to_pair, cell_to_pair) in by_track.items():
            assert len(cluster_to_pair) > 0 and len(cell_to_pair) > 0

    def test_rows_match_tracks(self, three_height_flow):
        placed = three_height_flow.placed
        for inst in placed.design.instances:
            row = placed.floorplan.row_at_y(placed.y[inst.index] + 0.5)
            assert row.track_height == inst.master.track_height
