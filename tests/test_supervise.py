"""SupervisedPool, race(), CancelToken, RetryPolicy jitter, Deadline edges.

Unit-level coverage of the supervision layer itself; the end-to-end
chaos suite (faults injected into sweeps and RAP races) lives in
``test_chaos.py``.
"""

import pickle
import random
import time

import pytest

from repro.utils.errors import StageTimeoutError, ValidationError
from repro.utils.resilience import Deadline, FaultPlan, RetryPolicy
from repro.utils.supervise import (
    CancelToken,
    PoolGaveUp,
    RaceEntry,
    SupervisedPool,
    race,
    supervised_map,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _sleep_then_return(x):
    time.sleep(x)
    return x


# ---------------------------------------------------------------------------
# CancelToken


class TestCancelToken:
    def test_set_is_set_clear(self, tmp_path):
        token = CancelToken(tmp_path / "flag", poll_interval_s=0.0)
        assert not token.is_set()
        token.set()
        assert token.is_set()
        token.clear()
        assert not token.is_set()

    def test_travels_through_pickle(self, tmp_path):
        token = CancelToken(tmp_path / "flag", poll_interval_s=0.0)
        copy = pickle.loads(pickle.dumps(token))
        token.set()
        assert copy.is_set()

    def test_poll_throttle_caches_negative(self, tmp_path):
        token = CancelToken(tmp_path / "flag", poll_interval_s=60.0)
        assert not token.is_set()
        # Another process sets the flag; the throttle hides it briefly.
        CancelToken(tmp_path / "flag").set()
        assert not token.is_set()  # still within the poll interval


# ---------------------------------------------------------------------------
# SupervisedPool


class TestSupervisedPool:
    def test_healthy_map_ordered(self):
        pool = SupervisedPool(workers=2)
        try:
            outcomes = pool.map(_square, [1, 2, 3, 4])
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [1, 4, 9, 16]
        assert all(o.ok and o.status == "ok" for o in outcomes)
        assert pool.stats.completed == 4
        assert pool.stats.crashes == 0

    def test_fn_exception_recorded_not_retried(self):
        pool = SupervisedPool(workers=2)
        try:
            outcomes = pool.map(_boom, [1, 2])
        finally:
            pool.shutdown()
        assert all(not o.ok and o.status == "failed" for o in outcomes)
        assert all(o.error_type == "ValueError" for o in outcomes)
        # fn-level exceptions are deterministic: one attempt each.
        assert all(o.attempts == 1 for o in outcomes)

    def test_worker_crash_respawns_and_retries(self):
        plan = FaultPlan().fail("t.0", kind="worker_crash", on_attempt=1)
        pool = SupervisedPool(workers=2, fault_plan=plan)
        try:
            outcomes = pool.map(
                _square, [3, 4], fault_stages=["t.0", "t.1"]
            )
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [9, 16]
        crashed = outcomes[0]
        assert crashed.crashes >= 1 and crashed.attempts == 2
        assert pool.stats.respawns >= 1

    def test_hang_killed_and_retried(self):
        plan = FaultPlan().fail(
            "t.0", kind="worker_hang", delay_s=30.0, on_attempt=1
        )
        pool = SupervisedPool(
            workers=2, task_timeout_s=0.5, fault_plan=plan
        )
        t0 = time.monotonic()
        try:
            outcomes = pool.map(
                _square, [5, 6], fault_stages=["t.0", "t.1"]
            )
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [25, 36]
        assert outcomes[0].hangs == 1
        assert time.monotonic() - t0 < 20.0  # killed, not waited out

    def test_inline_last_resort_when_crash_persists(self):
        # Crash on every pool attempt; only the parent-side inline run
        # (where worker faults never fire) can finish the task.
        plan = FaultPlan().fail("t.0", kind="worker_crash")
        pool = SupervisedPool(workers=2, fault_plan=plan)
        try:
            outcomes = pool.map(_square, [7, 8], fault_stages=["t.0", None])
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [49, 64]
        assert outcomes[0].ran_inline and outcomes[0].degraded
        assert not outcomes[1].ran_inline

    def test_gave_up_without_inline_last_resort(self):
        plan = FaultPlan().fail("t.0", kind="worker_crash")
        pool = SupervisedPool(
            workers=2, fault_plan=plan, inline_last_resort=False
        )
        try:
            outcomes = pool.map(_square, [7, 8], fault_stages=["t.0", None])
        finally:
            pool.shutdown()
        assert outcomes[0].status == "gave_up"
        assert outcomes[1].value == 64

    def test_slow_solver_fault_only_delays(self):
        plan = FaultPlan().fail("t.0", kind="slow_solver", delay_s=0.2)
        pool = SupervisedPool(workers=2, fault_plan=plan)
        try:
            outcomes = pool.map(_square, [2, 3], fault_stages=["t.0", None])
        finally:
            pool.shutdown()
        assert [o.value for o in outcomes] == [4, 9]
        assert outcomes[0].wall_s >= 0.2


class TestSupervisedMap:
    def test_inline_for_small_batches(self):
        assert supervised_map(_square, [3], workers=4) == [9]

    def test_pooled_contract(self):
        assert supervised_map(_square, [1, 2, 3], workers=2) == [1, 4, 9]

    def test_raises_pool_gave_up_on_failure(self):
        with pytest.raises(PoolGaveUp, match="ValueError"):
            supervised_map(_boom, [1, 2], workers=2)


# ---------------------------------------------------------------------------
# race()


class TestRace:
    def test_first_certified_wins_and_losers_cancelled(self):
        entries = [
            RaceEntry("fast", _sleep_then_return, 0.05),
            RaceEntry("slow", _sleep_then_return, 10.0),
        ]
        result = race(entries, certify=lambda i, v: True, workers=2)
        assert result.winner == "fast"
        assert result.winner_value == 0.05
        assert result.outcomes[1].status == "cancelled"
        assert result.wall_s < 8.0  # did not wait for the loser
        assert not result.sequential

    def test_no_certification_runs_to_completion(self):
        entries = [
            RaceEntry("a", _square, 2),
            RaceEntry("b", _square, 3),
        ]
        result = race(entries, certify=lambda i, v: False, workers=2)
        assert result.winner is None
        assert [o.value for o in result.outcomes] == [4, 9]

    def test_sequential_degeneration(self):
        entries = [
            RaceEntry("a", _square, 2),
            RaceEntry("b", _square, 3),
        ]
        result = race(entries, certify=lambda i, v: v == 4, workers=1)
        assert result.sequential
        assert result.winner == "a"
        assert result.outcomes[1].status == "cancelled"

    def test_sequential_skips_to_later_certifier(self):
        entries = [
            RaceEntry("a", _square, 2),
            RaceEntry("b", _square, 3),
        ]
        result = race(entries, certify=lambda i, v: v == 9, workers=1)
        assert result.winner == "b"
        assert result.outcomes[0].ok  # ran, just did not certify

    def test_to_dict_round_trips_labels(self):
        result = race(
            [RaceEntry("only", _square, 5)],
            certify=lambda i, v: True,
            workers=1,
        )
        data = result.to_dict()
        assert data["winner"] == "only"
        assert data["entries"] == ["only"]
        assert data["outcomes"][0]["status"] == "ok"


# ---------------------------------------------------------------------------
# RetryPolicy jitter


class TestRetryJitter:
    def test_default_is_deterministic(self):
        policy = RetryPolicy(backoff_s=0.5)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0

    def test_jitter_spreads_within_band(self):
        policy = RetryPolicy(backoff_s=1.0, jitter=0.5)
        rng = random.Random(42)
        delays = {policy.delay(2, rng) for _ in range(32)}
        assert len(delays) > 1  # actually varies
        assert all(1.0 <= d <= 3.0 for d in delays)  # 2.0 * (1 ± 0.5)

    def test_jitter_never_negative(self):
        policy = RetryPolicy(backoff_s=1e-9, jitter=1.0)
        rng = random.Random(7)
        assert all(policy.delay(1, rng) >= 0.0 for _ in range(32))

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=-0.1)

    def test_zero_backoff_stays_zero(self):
        assert RetryPolicy(backoff_s=0.0, jitter=0.5).delay(3) == 0.0


# ---------------------------------------------------------------------------
# Deadline edge cases (satellite: sub() with zero/negative budgets,
# unlimited children, expiry mid-retry)


class TestDeadlineEdges:
    def test_sub_zero_budget_is_immediately_expired(self):
        child = Deadline.unlimited().sub(0.0)
        assert child.expired
        assert child.remaining() == 0.0
        with pytest.raises(StageTimeoutError):
            child.check("stage")

    def test_sub_negative_budget_is_immediately_expired(self):
        child = Deadline(100.0).sub(-1.0)
        assert child.expired
        assert child.remaining() == 0.0

    def test_unlimited_child_inherits_parent_limit(self):
        clock = [0.0]
        parent = Deadline(10.0, clock=lambda: clock[0])
        child = parent.sub(None)
        assert child.remaining() == 10.0
        clock[0] = 11.0
        assert child.expired

    def test_unlimited_child_of_unlimited_parent(self):
        child = Deadline.unlimited().sub(None)
        assert child.remaining() is None
        assert not child.expired
        child.check("anything")  # never raises

    def test_child_cannot_extend_parent(self):
        clock = [0.0]
        parent = Deadline(5.0, clock=lambda: clock[0])
        child = parent.sub(60.0)
        assert child.remaining() == 5.0

    def test_clamp_on_expired_deadline_is_zero(self):
        clock = [0.0]
        deadline = Deadline(1.0, clock=lambda: clock[0])
        clock[0] = 2.0
        assert deadline.clamp(30.0) == 0.0
        assert deadline.clamp(None) == 0.0

    def test_expiry_mid_retry_in_solve_rap_resilient(self):
        # The chain is mid-retry (rung attempt 2) when the budget runs
        # out; the next deadline.check must raise with the provenance
        # accumulated so far attached.
        import numpy as np

        from repro.core.heights import solve_rap_resilient
        from repro.utils.errors import SolverError
        from repro.utils.resilience import (
            FlowProvenance,
            ResiliencePolicy,
        )

        rng = np.random.default_rng(3)
        f = rng.uniform(1, 10, (6, 4))
        w = rng.uniform(1, 2, 6)
        cap = np.full(4, w.sum() / 2)
        labels = rng.integers(0, 6, 12)

        clock = [0.0]

        def sleep(seconds):
            clock[0] += seconds

        plan = FaultPlan().fail("rap.highs", SolverError)
        policy = ResiliencePolicy(
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, backoff_s=4.0),
            sleep=sleep,
        )
        deadline = Deadline(5.0, clock=lambda: clock[0])
        prov = FlowProvenance()
        with pytest.raises(StageTimeoutError) as excinfo:
            solve_rap_resilient(
                [f], [w], cap, [2], [labels], [7.5],
                policy=policy, deadline=deadline, provenance=prov,
            )
        # Attempt 1 failed (fault), backoff pushed the clock past the
        # budget, so the mid-retry check fired with provenance attached.
        assert excinfo.value.provenance is prov
        assert any(not r.ok for r in prov.attempts)
