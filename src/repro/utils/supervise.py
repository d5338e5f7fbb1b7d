"""Supervised, crash-tolerant process pool and solver racing.

Every parallel surface in the library (sweep testcase×flow jobs, sparse-RAP
component sub-MILPs, racing solver rungs) historically assumed workers never
crash or hang: one ``BrokenProcessPool`` or a wedged solver call killed the
whole batch.  This module is the supervision layer underneath all of them:

* :class:`SupervisedPool` wraps :class:`~concurrent.futures.
  ProcessPoolExecutor` with

  - **per-task heartbeats** — a daemon thread in each worker touches a
    heartbeat file while the task runs, so the parent knows which PID runs
    which task and whether the interpreter is still alive;
  - **hung-task deadline kills** — a task exceeding ``task_timeout_s`` (or
    whose heartbeat goes stale beyond ``stale_after_s``) has its worker
    SIGKILLed from the parent;
  - **automatic executor respawn** — a broken executor (crash or kill) is
    torn down and respawned, with unfinished tasks resubmitted; tasks that
    merely shared the pool with the victim are not charged an attempt;
  - **bounded per-task retry with backoff** — crash/hang victims retry up
    to ``retry.max_attempts`` times (:class:`~repro.utils.resilience.
    RetryPolicy`, jitter-capable so concurrent racers don't retry in
    lockstep);
  - **inline-execution last resort** — a task that exhausts its retries
    (or a pool that exhausts its respawn budget) runs in the parent
    process, flagged ``ran_inline`` in its :class:`TaskOutcome` so callers
    can surface degraded-mode provenance.

* :func:`race` runs alternative strategies for the *same* answer
  concurrently on a ``SupervisedPool`` and returns as soon as one result
  certifies, killing the losers (cooperatively via :class:`CancelToken`
  where the solver polls it, by SIGKILL where it cannot).

* Worker-side fault injection: each task wrapper calls
  :meth:`~repro.utils.resilience.FaultPlan.check` with ``worker=True`` and
  the parent-side attempt number, so the ``worker_crash`` / ``worker_hang``
  / ``slow_solver`` fault kinds fire *inside pool workers* deterministically
  (see :mod:`repro.utils.resilience`).

Functions submitted to the pool must be module-level and their items
picklable (standard ``ProcessPoolExecutor`` rules); everything here is
stdlib-only.
"""

from __future__ import annotations

import atexit
import os
import signal
import tempfile
import threading
import time
import uuid
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TypeVar

import logging

from repro.obs.events import current_bus_handle, emit_event, spool_emitter
from repro.obs.metrics import current_registry
from repro.utils.errors import ReproError
from repro.utils.resilience import FaultPlan, RetryPolicy

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


class RaceCancelled(ReproError):
    """A racing strategy was cancelled because another one won."""


class PoolGaveUp(ReproError):
    """A supervised task failed every attempt and inline fallback is off."""


# ---------------------------------------------------------------------------
# Cooperative cancellation


class CancelToken:
    """File-backed cancellation flag shared across process boundaries.

    The token is just a path: ``set()`` creates the file, ``is_set()``
    checks its existence.  Paths pickle, so the token travels through any
    pool payload; solvers poll it between iterations (``bnb`` per node,
    ``lagrangian`` per subgradient step).  ``is_set`` throttles the
    ``stat`` call to once per ``poll_interval_s`` so a hot solver loop
    pays nothing.
    """

    def __init__(
        self, path: str | os.PathLike | None = None,
        poll_interval_s: float = 0.02,
    ) -> None:
        if path is None:
            path = Path(tempfile.gettempdir()) / (
                f"repro-cancel-{os.getpid()}-{uuid.uuid4().hex}"
            )
        self.path = str(path)
        self.poll_interval_s = poll_interval_s
        self._last_poll = 0.0
        self._cached = False

    def set(self) -> None:
        try:
            Path(self.path).touch()
        except OSError:  # pragma: no cover - tmpdir vanished
            pass
        self._cached = True

    def is_set(self) -> bool:
        if self._cached:
            return True
        now = time.monotonic()
        if now - self._last_poll < self.poll_interval_s:
            return False
        self._last_poll = now
        self._cached = os.path.exists(self.path)
        return self._cached

    def clear(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        self._cached = False
        self._last_poll = 0.0


# ---------------------------------------------------------------------------
# Worker-side task wrapper


def _touch(path: str) -> None:
    with open(path, "a"):
        os.utime(path, None)


def _heartbeat_loop(path: str, interval_s: float, stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            _touch(path)
        except OSError:  # pragma: no cover - tmpdir vanished mid-task
            return


def _supervised_call(payload: dict) -> Any:
    """Run one task inside a pool worker, under heartbeat + fault hooks.

    Writes ``<hb_path>`` (PID on the first line) when the task starts,
    beats it from a daemon thread every ``heartbeat_interval_s`` while the
    task runs, and writes ``<hb_path>.done`` just before returning so the
    parent can tell "crashed mid-task" from "finished but the pool broke
    in transit".
    """
    hb_path: str | None = payload.get("hb_path")
    stop = threading.Event()
    if hb_path:
        with open(hb_path, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        threading.Thread(
            target=_heartbeat_loop,
            args=(hb_path, payload.get("heartbeat_interval_s", 0.25), stop),
            daemon=True,
        ).start()
    try:
        plan: FaultPlan | None = payload.get("fault_plan")
        if plan is not None and payload.get("fault_stage"):
            plan.check(
                payload["fault_stage"],
                attempt=payload.get("attempt"),
                worker=True,
            )
        item = payload["item"]
        if isinstance(item, dict):
            # Parent-side attempt number, for task-internal fault hooks
            # (e.g. shm attach): worker-side plan copies are re-pickled
            # on every retry, so only this counter survives a respawn.
            item.setdefault("_pool_attempt", payload.get("attempt"))
        events_dir = payload.get("events")
        if events_dir:
            # The submitting parent had an event bus attached: stream
            # this task's telemetry (spans, convergence, shm, ...)
            # through a per-worker spool file the parent drains live.
            with spool_emitter(events_dir):
                result = payload["fn"](item)
        else:
            result = payload["fn"](item)
    finally:
        stop.set()
    if hb_path:
        try:
            _touch(hb_path + ".done")
        except OSError:  # pragma: no cover
            pass
    return result


# ---------------------------------------------------------------------------
# Outcomes and statistics


@dataclass
class TaskOutcome:
    """What happened to one supervised task (one entry per input item)."""

    index: int
    ok: bool = False
    value: Any = None
    status: str = "pending"  # ok | failed | cancelled | gave_up | pending
    error: str | None = None
    error_type: str | None = None
    attempts: int = 0
    crashes: int = 0  # worker deaths charged to this task
    hangs: int = 0  # deadline / stale-heartbeat kills of this task
    ran_inline: bool = False  # last-resort execution in the parent
    wall_s: float = 0.0

    @property
    def degraded(self) -> bool:
        """True when the result was not produced the normal way."""
        return self.ran_inline or self.crashes > 0 or self.hangs > 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "ok": self.ok,
            "status": self.status,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "ran_inline": self.ran_inline,
            "degraded": self.degraded,
            "wall_s": self.wall_s,
        }

    def _fail(self, exc: BaseException, status: str = "failed") -> None:
        self.ok = False
        self.status = status
        self.error = str(exc)
        self.error_type = type(exc).__name__


@dataclass
class PoolStats:
    """Aggregate supervision counters for one :class:`SupervisedPool`."""

    submitted: int = 0
    completed: int = 0
    crashes: int = 0
    hangs: int = 0
    respawns: int = 0
    retries: int = 0
    inline_runs: int = 0
    cancelled: int = 0

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "respawns": self.respawns,
            "retries": self.retries,
            "inline_runs": self.inline_runs,
            "cancelled": self.cancelled,
        }


@dataclass
class _InFlight:
    """Parent-side view of one submitted task attempt."""

    index: int
    hb_path: str
    submitted_at: float
    killed_as: str | None = None  # "hang" | "stale" once the parent kills it

    def pid(self) -> int | None:
        try:
            with open(self.hb_path) as fh:
                return int(fh.readline().strip() or 0) or None
        except (OSError, ValueError):
            return None

    @property
    def started(self) -> bool:
        return os.path.exists(self.hb_path)

    @property
    def finished(self) -> bool:
        return os.path.exists(self.hb_path + ".done")

    def last_beat(self) -> float | None:
        try:
            return os.stat(self.hb_path).st_mtime
        except OSError:
            return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - not ours, assume alive
        return True
    return True


# ---------------------------------------------------------------------------
# The pool


class SupervisedPool:
    """Crash- and hang-tolerant ``ProcessPoolExecutor`` wrapper.

    Safe defaults: no task timeout, no stale-heartbeat kills (heartbeats
    can be starved by long GIL-holding native calls, so staleness kills
    are opt-in), two attempts per task, inline last resort enabled.  The
    executor is created lazily and survives across :meth:`map` calls, so
    a module-level pool amortizes worker spawn across many small batches
    (see :func:`get_shared_pool`).
    """

    def __init__(
        self,
        workers: int,
        task_timeout_s: float | None = None,
        heartbeat_interval_s: float = 0.25,
        stale_after_s: float | None = None,
        retry: RetryPolicy | None = None,
        max_respawns: int = 3,
        inline_last_resort: bool = True,
        fault_plan: FaultPlan | None = None,
        tick_s: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.stale_after_s = stale_after_s
        self.retry = retry or RetryPolicy(max_attempts=2)
        self.max_respawns = max_respawns
        self.inline_last_resort = inline_last_resort
        self.fault_plan = fault_plan
        self.tick_s = tick_s
        self.sleep = sleep
        self.stats = PoolStats()
        self._executor: ProcessPoolExecutor | None = None
        self._hb_dir: tempfile.TemporaryDirectory | None = None

    # -- lifecycle ---------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        if self._hb_dir is None:
            self._hb_dir = tempfile.TemporaryDirectory(prefix="repro-hb-")
        return self._executor

    def _teardown_executor(self, kill: bool = False) -> None:
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        if kill:
            for proc in list(getattr(executor, "_processes", {}).values()):
                try:
                    proc.kill()
                except Exception:  # pragma: no cover - already gone
                    pass
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Tear down the executor and the heartbeat directory."""
        self._teardown_executor(kill=True)
        if self._hb_dir is not None:
            self._hb_dir.cleanup()
            self._hb_dir = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- supervision helpers -----------------------------------------------

    def _payload(
        self,
        fn: Callable,
        item: Any,
        attempt: int,
        fault_stage: str | None,
    ) -> tuple[dict, str]:
        assert self._hb_dir is not None
        hb_path = os.path.join(
            self._hb_dir.name, f"{uuid.uuid4().hex}.hb"
        )
        payload = {
            "fn": fn,
            "item": item,
            "hb_path": hb_path,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "attempt": attempt,
        }
        events_dir = current_bus_handle()
        if events_dir is not None:
            payload["events"] = events_dir
        if self.fault_plan is not None and fault_stage:
            payload["fault_plan"] = self.fault_plan
            payload["fault_stage"] = fault_stage
        return payload, hb_path

    def _check_deadlines(self, flights: dict, now: float) -> None:
        """SIGKILL workers whose task blew its deadline or went silent."""
        for flight in flights.values():
            if flight.killed_as is not None or flight.finished:
                continue
            verdict: str | None = None
            if (
                self.task_timeout_s is not None
                and now - flight.submitted_at > self.task_timeout_s
            ):
                verdict = "hang"
            elif self.stale_after_s is not None and flight.started:
                beat = flight.last_beat()
                if beat is not None and now - beat > self.stale_after_s:
                    verdict = "stale"
            if verdict is None:
                continue
            pid = flight.pid()
            flight.killed_as = verdict
            logger.warning(
                "supervised pool: killing %s task %d (pid %s)",
                verdict, flight.index, pid,
            )
            emit_event(
                "pool.kill", index=flight.index, reason=verdict, victim=pid
            )
            if pid is not None and _pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:  # pragma: no cover - raced its own death
                    pass
            else:
                # Never started or already dead: break the pool ourselves
                # so the respawn path reclaims the queued future.
                self._teardown_executor(kill=True)

    def _victims(self, flights: dict) -> list[_InFlight]:
        """Which unfinished tasks actually lost their worker.

        Killed tasks are victims by construction.  For spontaneous
        crashes, a task is a victim when it started, did not finish, and
        its recorded PID is gone; if the pool broke but no PID can be
        pinned down, every started-unfinished task is charged (bounded by
        the respawn budget, so over-charging cannot loop forever).
        """
        killed = [f for f in flights.values() if f.killed_as is not None]
        started = [
            f
            for f in flights.values()
            if f.killed_as is None and f.started and not f.finished
        ]
        dead = [f for f in started if (pid := f.pid()) and not _pid_alive(pid)]
        if killed or dead:
            return killed + dead
        return started

    # -- main API ----------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T] | Iterable[T],
        progress: Callable[[int, "TaskOutcome"], None] | None = None,
        stop_when: Callable[[int, "TaskOutcome"], bool] | None = None,
        fault_stages: Sequence[str | None] | None = None,
    ) -> list[TaskOutcome]:
        """Map ``fn`` over ``items`` under supervision.

        Returns one :class:`TaskOutcome` per item, in submission order.
        ``progress`` fires in completion order.  ``stop_when`` (used by
        :func:`race`) is evaluated on each successful outcome; returning
        True cancels everything still running (remaining outcomes get
        status ``cancelled``) and returns immediately.  ``fault_stages``
        names the fault-injection stage per item (requires a
        ``fault_plan`` on the pool); ``None`` entries inject nothing.
        """
        items = list(items)
        outcomes = [TaskOutcome(index=i) for i in range(len(items))]
        if not items:
            return outcomes
        self.stats.submitted += len(items)
        pending: set[int] = set(range(len(items)))
        inline_queue: list[int] = []
        respawns_left = self.max_respawns
        t0 = time.perf_counter()

        while pending:
            try:
                executor = self._ensure_executor()
                futures: dict = {}
                flights: dict[int, _InFlight] = {}
                for i in sorted(pending):
                    outcomes[i].attempts += 1
                    stage = (
                        fault_stages[i]
                        if fault_stages is not None
                        else None
                    )
                    payload, hb_path = self._payload(
                        fn, items[i], outcomes[i].attempts, stage
                    )
                    emit_event(
                        "pool.task_start",
                        index=i,
                        attempt=outcomes[i].attempts,
                    )
                    futures[executor.submit(_supervised_call, payload)] = i
                    flights[i] = _InFlight(
                        index=i,
                        hb_path=hb_path,
                        submitted_at=time.monotonic(),
                    )
            except BrokenProcessPool:
                pass  # fall through to the respawn path below
            else:
                broken = self._drain(
                    futures, flights, outcomes, pending, progress, stop_when,
                    t0,
                )
                if broken == "stopped":
                    return outcomes
                if not broken:
                    break  # everything finished
            # Pool broke: charge the victims, respawn, resubmit the rest.
            self._teardown_executor(kill=True)
            self.stats.respawns += 1
            victims = self._victims(flights) if flights else []
            victim_idx = {f.index for f in victims}
            emit_event("pool.respawn", victims=sorted(victim_idx))
            for flight in victims:
                outcome = outcomes[flight.index]
                if flight.killed_as is not None:
                    outcome.hangs += 1
                    self.stats.hangs += 1
                else:
                    outcome.crashes += 1
                    self.stats.crashes += 1
                if outcome.attempts >= self.retry.max_attempts:
                    pending.discard(flight.index)
                    inline_queue.append(flight.index)
                else:
                    self.stats.retries += 1
                    emit_event(
                        "pool.retry",
                        index=flight.index,
                        attempt=outcome.attempts,
                    )
                    self.sleep(self.retry.delay(outcome.attempts))
            # Innocent bystanders resubmit without being charged.
            for i in list(pending):
                if i not in victim_idx:
                    outcomes[i].attempts -= 1
            respawns_left -= 1
            if respawns_left < 0:
                logger.error(
                    "supervised pool: respawn budget exhausted with %d "
                    "task(s) unfinished", len(pending),
                )
                inline_queue.extend(sorted(pending))
                pending.clear()

        self._run_inline(fn, items, inline_queue, outcomes, progress, t0)
        return outcomes

    def _drain(
        self,
        futures: dict,
        flights: dict[int, "_InFlight"],
        outcomes: list[TaskOutcome],
        pending: set[int],
        progress: Callable | None,
        stop_when: Callable | None,
        t0: float,
    ) -> bool | str:
        """Wait out one generation of futures.

        Returns False when all futures completed, True when the pool
        broke (caller respawns), or ``"stopped"`` when ``stop_when``
        fired (everything else cancelled).
        """
        not_done = set(futures)
        while not_done:
            done, not_done = wait(
                not_done, timeout=self.tick_s, return_when=FIRST_COMPLETED
            )
            for future in done:
                i = futures[future]
                outcome = outcomes[i]
                try:
                    value = future.result()
                except (BrokenProcessPool, CancelledError):
                    return True
                except BaseException as exc:
                    outcome._fail(exc)
                    pending.discard(i)
                    flights.pop(i, None)
                    self.stats.completed += 1
                    emit_event(
                        "pool.task_done", index=i, status=outcome.status
                    )
                    if progress is not None:
                        progress(i, outcome)
                    continue
                outcome.ok = True
                outcome.status = "ok"
                outcome.value = value
                outcome.wall_s = time.perf_counter() - t0
                pending.discard(i)
                flights.pop(i, None)
                self.stats.completed += 1
                emit_event("pool.task_done", index=i, status="ok")
                if progress is not None:
                    progress(i, outcome)
                if stop_when is not None and stop_when(i, outcome):
                    self._cancel_pending(outcomes, pending)
                    return "stopped"
            self._check_deadlines(flights, time.monotonic())
        return False

    def _cancel_pending(
        self, outcomes: list[TaskOutcome], pending: set[int]
    ) -> None:
        self._teardown_executor(kill=True)
        for i in sorted(pending):
            outcomes[i].status = "cancelled"
            outcomes[i]._fail(
                RaceCancelled("cancelled: another task won"),
                status="cancelled",
            )
            self.stats.cancelled += 1
        pending.clear()

    def _run_inline(
        self,
        fn: Callable,
        items: list,
        inline_queue: list[int],
        outcomes: list[TaskOutcome],
        progress: Callable | None,
        t0: float,
    ) -> None:
        """Last resort: run exhausted tasks in the parent process.

        Worker-side faults do not fire here (they are defined to fire
        inside pool workers), so a task that crashed every pool attempt
        still gets one clean, in-process execution — flagged
        ``ran_inline`` for degraded-mode provenance.
        """
        registry = current_registry()
        for i in inline_queue:
            outcome = outcomes[i]
            if not self.inline_last_resort:
                outcome._fail(
                    PoolGaveUp(
                        f"task {i} failed {outcome.attempts} attempt(s) "
                        "and inline fallback is disabled"
                    ),
                    status="gave_up",
                )
                if progress is not None:
                    progress(i, outcome)
                continue
            outcome.ran_inline = True
            outcome.attempts += 1
            self.stats.inline_runs += 1
            registry.counter("pool.inline_runs").inc()
            emit_event("pool.inline", index=i, attempt=outcome.attempts)
            logger.warning(
                "supervised pool: running task %d inline after %d failed "
                "pool attempt(s)", i, outcome.attempts - 1,
            )
            try:
                outcome.value = fn(items[i])
            except BaseException as exc:
                outcome._fail(exc)
            else:
                outcome.ok = True
                outcome.status = "ok"
            outcome.wall_s = time.perf_counter() - t0
            if progress is not None:
                progress(i, outcome)


def supervised_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    workers: int = 1,
    progress: Callable[[int, R], None] | None = None,
    min_items: int = 2,
    pool: SupervisedPool | None = None,
    **pool_kwargs: Any,
) -> list[R]:
    """Map ``fn`` over ``items`` on a supervised process pool.

    Submission-order results, completion-order progress, inline for
    ``workers <= 1`` or fewer than ``min_items`` items, the first task
    exception re-raised; pooled execution survives worker crashes and
    hangs via :class:`SupervisedPool` (pass ``pool`` to reuse a warm one;
    extra kwargs construct a private pool).
    """
    items = list(items)
    if (pool is None and workers <= 1) or len(items) < min_items:
        results: list[R] = []
        for i, item in enumerate(items):
            result = fn(item)
            results.append(result)
            if progress is not None:
                progress(i, result)
        return results
    own_pool = pool is None
    pool = pool or SupervisedPool(workers=workers, **pool_kwargs)
    try:
        outcomes = pool.map(
            fn,
            items,
            progress=(
                None
                if progress is None
                else lambda i, out: progress(i, out.value)
            ),
        )
    finally:
        if own_pool:
            pool.shutdown()
    for outcome in outcomes:
        if not outcome.ok:
            raise PoolGaveUp(
                f"supervised task {outcome.index} failed "
                f"[{outcome.error_type}]: {outcome.error}"
            )
    return [outcome.value for outcome in outcomes]


# ---------------------------------------------------------------------------
# Shared pool


_SHARED_POOLS: dict[int, SupervisedPool] = {}


def get_shared_pool(workers: int, **kwargs: Any) -> SupervisedPool:
    """A process-wide :class:`SupervisedPool` for ``workers`` processes.

    Reused across calls so repeated small batches (RAP races inside the
    alternating refinement loop, per-component sub-solves) amortize the
    worker spawn.  Torn down at interpreter exit.
    """
    pool = _SHARED_POOLS.get(workers)
    if pool is None:
        pool = SupervisedPool(workers=workers, **kwargs)
        _SHARED_POOLS[workers] = pool
    return pool


@atexit.register
def _shutdown_shared_pools() -> None:  # pragma: no cover - exit path
    for pool in _SHARED_POOLS.values():
        pool.shutdown()
    _SHARED_POOLS.clear()


# ---------------------------------------------------------------------------
# Racing


@dataclass(frozen=True)
class RaceEntry:
    """One racing strategy: a module-level ``fn`` and its picklable item."""

    label: str
    fn: Callable[[Any], Any]
    item: Any
    fault_stage: str | None = None


@dataclass
class RaceResult:
    """Outcome of one :func:`race` call.

    ``outcomes[i]`` corresponds to ``entries[i]``; the winner (if any) has
    status ``ok`` and its index is ``winner_index``.  ``cancel_latency_s``
    is how long cancelling the losers took once the winner's answer
    landed (0.0 when nothing needed cancelling).
    """

    entries: list[str]
    outcomes: list[TaskOutcome]
    winner_index: int | None = None
    wall_s: float = 0.0
    cancel_latency_s: float = 0.0
    sequential: bool = False

    @property
    def winner(self) -> str | None:
        if self.winner_index is None:
            return None
        return self.entries[self.winner_index]

    @property
    def winner_value(self) -> Any:
        if self.winner_index is None:
            return None
        return self.outcomes[self.winner_index].value

    @property
    def crashes(self) -> int:
        return sum(o.crashes for o in self.outcomes)

    @property
    def hangs(self) -> int:
        return sum(o.hangs for o in self.outcomes)

    @property
    def n_cancelled(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cancelled")

    def to_dict(self) -> dict:
        return {
            "entries": list(self.entries),
            "winner": self.winner,
            "winner_index": self.winner_index,
            "wall_s": self.wall_s,
            "cancel_latency_s": self.cancel_latency_s,
            "sequential": self.sequential,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "n_cancelled": self.n_cancelled,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def _race_entry_call(payload: dict) -> Any:
    """Worker-side dispatcher for one race entry (module-level, picklable)."""
    return payload["entry_fn"](payload["entry_item"])


def race(
    entries: Sequence[RaceEntry],
    certify: Callable[[int, Any], bool],
    pool: SupervisedPool | None = None,
    workers: int | None = None,
    fault_plan: FaultPlan | None = None,
    task_timeout_s: float | None = None,
) -> RaceResult:
    """Run ``entries`` concurrently; first *certified* answer wins.

    ``certify(index, value)`` decides whether an entry's successful return
    value settles the race (e.g. "an exact backend proved optimality");
    the moment it does, every other entry is cancelled — the pool's
    workers are killed, and cooperative solvers additionally observe
    their :class:`CancelToken`.  When nothing certifies the race runs to
    completion and ``winner_index`` is None: the caller picks among the
    surviving outcomes (typically in preference order).

    With one entry, ``workers <= 1`` and no pool, the race degenerates to
    an in-process sequential scan in entry order — same certification
    rule, no processes (``result.sequential`` is True).
    """
    entries = list(entries)
    if not entries:
        raise ValueError("race needs at least one entry")
    t0 = time.perf_counter()
    emit_event("race.start", entries=[e.label for e in entries])
    if pool is None and (workers is None or workers <= 1 or len(entries) == 1):
        return _race_sequential(entries, certify, t0)

    own_pool = pool is None
    if pool is None:
        pool = SupervisedPool(
            workers=min(workers or len(entries), len(entries)),
            task_timeout_s=task_timeout_s,
            fault_plan=fault_plan,
        )
    else:
        if fault_plan is not None:
            pool.fault_plan = fault_plan
        if task_timeout_s is not None:
            pool.task_timeout_s = task_timeout_s

    winner: dict[str, Any] = {}
    cancel_t0 = [0.0]

    def stop_when(i: int, outcome: TaskOutcome) -> bool:
        if winner:
            return False
        if certify(i, outcome.value):
            winner["index"] = i
            cancel_t0[0] = time.perf_counter()
            emit_event("race.certified", index=i, label=entries[i].label)
            return True
        return False

    payloads = [
        {"entry_fn": e.fn, "entry_item": e.item} for e in entries
    ]
    try:
        outcomes = pool.map(
            _race_entry_call,
            payloads,
            stop_when=stop_when,
            fault_stages=[e.fault_stage for e in entries],
        )
    finally:
        if own_pool:
            pool.shutdown()
    result = RaceResult(
        entries=[e.label for e in entries],
        outcomes=outcomes,
        winner_index=winner.get("index"),
        wall_s=time.perf_counter() - t0,
        cancel_latency_s=(
            time.perf_counter() - cancel_t0[0] if winner else 0.0
        ),
    )
    _publish_race_metrics(result)
    return result


def _race_sequential(
    entries: list[RaceEntry],
    certify: Callable[[int, Any], bool],
    t0: float,
) -> RaceResult:
    """Entry-order sequential race (the ``workers <= 1`` degeneration)."""
    outcomes = [TaskOutcome(index=i) for i in range(len(entries))]
    winner_index: int | None = None
    for i, entry in enumerate(entries):
        outcome = outcomes[i]
        outcome.attempts = 1
        try:
            outcome.value = entry.fn(entry.item)
        except BaseException as exc:
            outcome._fail(exc)
            continue
        outcome.ok = True
        outcome.status = "ok"
        outcome.wall_s = time.perf_counter() - t0
        if certify(i, outcome.value):
            winner_index = i
            emit_event("race.certified", index=i, label=entry.label)
            for j in range(i + 1, len(entries)):
                outcomes[j]._fail(
                    RaceCancelled("skipped: earlier entry certified"),
                    status="cancelled",
                )
            break
    result = RaceResult(
        entries=[e.label for e in entries],
        outcomes=outcomes,
        winner_index=winner_index,
        wall_s=time.perf_counter() - t0,
        sequential=True,
    )
    _publish_race_metrics(result)
    return result


def _publish_race_metrics(result: RaceResult) -> None:
    registry = current_registry()
    registry.counter("race.runs").inc()
    if result.winner_index is not None:
        registry.counter("race.won").inc()
    registry.counter("race.crashes").inc(result.crashes)
    registry.counter("race.hangs").inc(result.hangs)
    registry.histogram("race.wall_s").observe(result.wall_s)
    emit_event(
        "race.done",
        entries=list(result.entries),
        winner=result.winner,
        wall_s=result.wall_s,
        cancelled=result.n_cancelled,
        crashes=result.crashes,
        hangs=result.hangs,
        sequential=result.sequential,
    )
