"""Executor layer: serial and process-pool execution of simulation work.

Two work shapes cover everything the flows fan out:

* **Fault-group sharding** — a whole-sequence fault simulation splits
  its fault list into the simulator's 63-fault groups; groups are
  independent, so they run on separate workers and their per-group
  :class:`~repro.sim.faultsim.FaultSimResult`\\ s merge into exactly the
  serial result (detection times are per-fault, groups are disjoint).
* **Screening batches** — the Section-4.2 procedure screens many
  candidate weighted sequences against one fault sample; each screen is
  an independent ``detects_any`` run.

Workers receive the circuit as canonical ``.bench`` text (cheap, and
round-trips to an identical circuit) and memoize the compiled simulator
per circuit, so repeated calls on the same circuit pay compilation once
per worker process.  Results are returned in task order — parallel
execution is *deterministic by construction*; worker count never
changes any result.

Fault tolerance
---------------
:class:`ProcessExecutor` survives the failure modes a long sweep
actually meets, under the knobs of a
:class:`~repro.resilience.policy.RetryPolicy`:

* a **crashed worker** (``BrokenProcessPool``) retires the pool,
  rebuilds it, and re-dispatches the unfinished tasks;
* a **hung worker** (no result within ``task_timeout``) is abandoned
  with its pool and the victim task retried;
* a **corrupted payload** (a result that fails shape validation, e.g.
  injected by the chaos harness) is discarded and the task retried;
* a task that keeps failing past ``retries`` attempts is **replayed
  serially** in the parent process — the same worker function on the
  same payload, so the result is identical by construction;
* after ``max_pool_rebuilds`` pool failures the executor **degrades to
  serial execution** for all remaining work.

Every path re-runs pure functions of immutable task payloads, so the
bit-identical-results-for-any-worker-count invariant survives any
combination of failures.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import Future
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.resilience.chaos import ChaosSpec, chaos_call, task_digest
from repro.resilience.policy import RetryPolicy
from repro.runtime.metrics import RuntimeStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.span import Tracer

#: Per-worker-process memo of compiled fault simulators, keyed by a
#: digest of the circuit's ``.bench`` text.
_WORKER_SIMS: Dict[str, object] = {}

#: A task function maps one payload to ``(result, busy_seconds)``.
TaskFn = Callable[[Any], Tuple[Any, float]]

#: A validator decides whether a worker's payload is structurally sound.
Validator = Callable[[Any], bool]

_UNSET = object()


def _worker_sim(bench_text: str):
    """The (memoized) fault simulator for ``bench_text`` in this process."""
    key = hashlib.sha1(bench_text.encode("utf-8")).hexdigest()
    sim = _WORKER_SIMS.get(key)
    if sim is None:
        # Imported lazily: workers under the ``spawn`` start method
        # import this module before the package is fully initialized.
        from repro.circuit.bench import parse_bench_text
        from repro.sim.faultsim import FaultSimulator

        sim = FaultSimulator(parse_bench_text(bench_text, name="worker"))
        _WORKER_SIMS[key] = sim
    return sim


def _run_group_task(task) -> Tuple[object, float]:
    """Worker: whole-sequence fault simulation of one fault group."""
    bench_text, stimulus, faults, record_lines, stop = task
    t0 = time.perf_counter()
    sim = _worker_sim(bench_text)
    result = sim.run(
        stimulus,
        faults,
        record_lines=record_lines,
        stop_when_all_detected=stop,
    )
    return result, time.perf_counter() - t0


def _screen_task(task) -> Tuple[bool, float]:
    """Worker: one screening (``detects_any``) run."""
    bench_text, stimulus, sample = task
    t0 = time.perf_counter()
    sim = _worker_sim(bench_text)
    return sim.detects_any(stimulus, sample), time.perf_counter() - t0


def _valid_group_result(result: Any) -> bool:
    """A fault-group payload must look like a ``FaultSimResult``."""
    return (
        hasattr(result, "detection_time")
        and hasattr(result, "undetected")
        and hasattr(result, "n_faults")
    )


def _valid_screen_result(result: Any) -> bool:
    """A screening payload must be a plain verdict."""
    return isinstance(result, bool)


class SerialExecutor:
    """In-process executor — the jobs=1 reference implementation.

    Runs every task inline via the same worker functions the pool uses,
    so the two paths cannot drift apart.
    """

    jobs = 1

    def __init__(
        self,
        stats: RuntimeStats | None = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.stats = stats if stats is not None else RuntimeStats()
        self.tracer = tracer

    def _add_task_span(self, label: str, task: Any, busy_s: float) -> None:
        if self.tracer is not None:
            self.tracer.add_task_span(label, task_digest(task), busy_s)

    def run_fault_groups(
        self,
        bench_text: str,
        stimulus,
        groups: Sequence[Sequence],
        record_lines: bool,
        stop_when_all_detected: bool,
    ) -> List[object]:
        """Simulate each fault group; per-group results in group order."""
        out = []
        for group in groups:
            task = (
                bench_text, stimulus, group, record_lines, stop_when_all_detected
            )
            result, elapsed = _run_group_task(task)
            self._add_task_span("fault_group", task, elapsed)
            out.append(result)
        return out

    def run_group_tasks(self, tasks: Sequence) -> List[object]:
        """Simulate pre-built fault-group tasks; results in task order.

        Unlike :meth:`run_fault_groups`, tasks may span *different*
        stimuli (the optimizer evaluates many candidate sequences in
        one fan-out).  Each task is the usual 5-tuple
        ``(bench_text, stimulus, group, record_lines, stop)``.
        """
        out = []
        for task in tasks:
            result, elapsed = _run_group_task(task)
            self._add_task_span("fault_group", task, elapsed)
            out.append(result)
        return out

    def screen_batch(
        self,
        bench_text: str,
        stimuli: Sequence,
        sample: Sequence,
    ) -> List[bool]:
        """Screen each stimulus against ``sample``; verdicts in order."""
        out = []
        for stimulus in stimuli:
            task = (bench_text, stimulus, sample)
            verdict, elapsed = _screen_task(task)
            self._add_task_span("screen", task, elapsed)
            out.append(verdict)
        return out

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ProcessExecutor:
    """``concurrent.futures.ProcessPoolExecutor``-backed executor.

    The pool is created lazily on first use and reused across calls;
    workers keep their compiled circuits between tasks.  Results are
    collected in task order, so merged results are identical to the
    serial executor's.

    ``policy`` governs recovery from crashed/hung workers and
    corrupted payloads (see the module docstring); ``chaos`` wires in
    the deterministic fault-injection harness — pool dispatches only,
    never serial replays, so exhausted retries always converge on the
    correct result.
    """

    def __init__(
        self,
        jobs: int,
        stats: RuntimeStats | None = None,
        policy: RetryPolicy | None = None,
        chaos: ChaosSpec | None = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if jobs < 2:
            raise ValueError(f"ProcessExecutor needs jobs >= 2, got {jobs}")
        self.jobs = jobs
        self.stats = stats if stats is not None else RuntimeStats()
        self.policy = policy if policy is not None else RetryPolicy()
        self.chaos = chaos
        self.tracer = tracer
        self._pool: Optional[_ProcessPool] = None
        self._rebuilds = 0
        self._degraded = False

    def _event(self, kind: str, **attrs: object) -> None:
        if self.tracer is not None:
            self.tracer.event(kind, **attrs)

    @property
    def degraded(self) -> bool:
        """True once repeated pool failures forced serial execution."""
        return self._degraded

    def _pool_instance(self) -> _ProcessPool:
        if self._pool is None:
            self._pool = _ProcessPool(max_workers=self.jobs)
        return self._pool

    def _submit(
        self, pool: _ProcessPool, fn: TaskFn, task: Any, attempt: int
    ) -> "Future[Tuple[Any, float]]":
        if self.chaos is not None and self.chaos.affects_workers:
            return pool.submit(chaos_call, (self.chaos, fn, attempt, task))
        return pool.submit(fn, task)

    def _retire_pool(self) -> None:
        """Throw the current pool away; degrade after repeated failures."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        self.stats.pool_rebuilds += 1
        self._rebuilds += 1
        self._event("pool_rebuild", rebuilds=self._rebuilds)
        if (
            self._rebuilds >= self.policy.max_pool_rebuilds
            and not self._degraded
        ):
            self._degraded = True
            self.stats.executor_degradations += 1
            self._event("executor_degraded", rebuilds=self._rebuilds)

    # -- the fault-tolerant fan-out -----------------------------------------

    def _map(
        self, fn: TaskFn, tasks: List[Any], validate: Validator, label: str
    ) -> List[Any]:
        """Run every task; results in task order, whatever fails."""
        results: List[Any] = [_UNSET] * len(tasks)
        busy = [0.0] * len(tasks)
        t0 = time.perf_counter()
        try:
            self._run_all(fn, tasks, results, busy, validate)
        finally:
            # Fan-out accounting must survive task exceptions — a
            # failed batch still dispatched work and burnt wall time.
            self.stats.record_fanout(
                time.perf_counter() - t0, sum(busy), len(tasks)
            )
            # Task spans are merged in *task order* with stable keys,
            # so the trace is independent of scheduling and PIDs.
            if self.tracer is not None:
                for task, task_busy in zip(tasks, busy):
                    self.tracer.add_task_span(label, task_digest(task), task_busy)
        return results

    def _run_all(
        self,
        fn: TaskFn,
        tasks: List[Any],
        results: List[Any],
        busy: List[float],
        validate: Validator,
    ) -> None:
        pending = list(range(len(tasks)))
        attempts = [0] * len(tasks)
        while pending:
            if self._degraded:
                for i in pending:
                    self._run_inline(fn, tasks[i], results, busy, i)
                return
            blamed, innocent = self._pool_round(
                fn, tasks, results, busy, validate, pending, attempts
            )
            pending = self._settle(
                fn, tasks, results, busy, blamed, innocent, attempts
            )

    def _pool_round(
        self,
        fn: TaskFn,
        tasks: List[Any],
        results: List[Any],
        busy: List[float],
        validate: Validator,
        pending: List[int],
        attempts: List[int],
    ) -> Tuple[List[int], List[int]]:
        """One dispatch round.

        Returns ``(blamed, innocent)``: tasks whose failure consumes a
        retry attempt, and tasks merely displaced by someone else's
        failure (resubmitted free of charge).
        """
        try:
            pool = self._pool_instance()
            futures = [
                (i, self._submit(pool, fn, tasks[i], attempts[i]))
                for i in pending
            ]
        except BrokenProcessPool:
            self.stats.worker_crashes += 1
            self._event("worker_crash", at="dispatch")
            self._retire_pool()
            return list(pending), []

        blamed: List[int] = []
        innocent: List[int] = []
        broken = False
        for i, fut in futures:
            if broken:
                # The pool is gone; harvest whatever already finished
                # and resubmit the rest without blame.
                if fut.cancelled():
                    innocent.append(i)
                elif fut.done():
                    try:
                        result, elapsed = fut.result()
                    except BaseException:
                        blamed.append(i)
                        continue
                    self._accept(
                        result, elapsed, results, busy, validate, i, blamed
                    )
                else:
                    fut.cancel()
                    innocent.append(i)
                continue
            try:
                result, elapsed = fut.result(
                    timeout=self.policy.task_timeout
                )
            except _FuturesTimeout:
                # Hung worker: abandon the pool (the only way to
                # reclaim the process) and retry the victim.
                self.stats.task_timeouts += 1
                self._event("task_timeout", task=task_digest(tasks[i]))
                blamed.append(i)
                broken = True
                self._retire_pool()
                continue
            except BrokenProcessPool:
                # A worker died; every unfinished task is suspect.
                self.stats.worker_crashes += 1
                self._event("worker_crash", task=task_digest(tasks[i]))
                blamed.append(i)
                broken = True
                self._retire_pool()
                continue
            # Any other exception is a deterministic error raised by
            # the task itself (bad circuit, invalid fault, ...) —
            # retrying cannot change it, so it propagates.  The
            # enclosing finally still records the fan-out.
            self._accept(result, elapsed, results, busy, validate, i, blamed)
        return blamed, innocent

    def _accept(
        self,
        result: Any,
        elapsed: float,
        results: List[Any],
        busy: List[float],
        validate: Validator,
        i: int,
        blamed: List[int],
    ) -> None:
        if validate(result):
            results[i] = result
            busy[i] = elapsed
        else:
            self.stats.corrupt_results += 1
            self._event("corrupt_result", index=i)
            blamed.append(i)

    def _settle(
        self,
        fn: TaskFn,
        tasks: List[Any],
        results: List[Any],
        busy: List[float],
        blamed: List[int],
        innocent: List[int],
        attempts: List[int],
    ) -> List[int]:
        """Charge retry attempts; replay exhausted tasks serially."""
        still = list(innocent)
        worst = 0
        for i in blamed:
            attempts[i] += 1
            if attempts[i] > self.policy.retries:
                self._run_inline(fn, tasks[i], results, busy, i)
            else:
                self.stats.task_retries += 1
                self._event(
                    "task_retry",
                    task=task_digest(tasks[i]),
                    attempt=attempts[i],
                )
                still.append(i)
                worst = max(worst, attempts[i])
        if still and worst:
            delay = self.policy.backoff(worst)
            if delay > 0:
                time.sleep(delay)
        return sorted(still)

    def _run_inline(
        self,
        fn: TaskFn,
        task: Any,
        results: List[Any],
        busy: List[float],
        i: int,
    ) -> None:
        """Serial replay: the same pure function on the same payload —
        the result is what the pool would have produced."""
        self._event("serial_replay", task=task_digest(task))
        result, elapsed = fn(task)
        results[i] = result
        busy[i] = elapsed
        self.stats.serial_fallback_tasks += 1

    # -- the work shapes ----------------------------------------------------

    def run_fault_groups(
        self,
        bench_text: str,
        stimulus,
        groups: Sequence[Sequence],
        record_lines: bool,
        stop_when_all_detected: bool,
    ) -> List[object]:
        """Simulate fault groups on the pool; results in group order."""
        tasks = [
            (bench_text, stimulus, group, record_lines, stop_when_all_detected)
            for group in groups
        ]
        return self._map(
            _run_group_task, tasks, _valid_group_result, "fault_group"
        )

    def run_group_tasks(self, tasks: Sequence) -> List[object]:
        """Simulate pre-built fault-group tasks on the pool.

        Results come back in task order; see
        :meth:`SerialExecutor.run_group_tasks` for the task shape.
        """
        return self._map(
            _run_group_task, list(tasks), _valid_group_result, "fault_group"
        )

    def screen_batch(
        self,
        bench_text: str,
        stimuli: Sequence,
        sample: Sequence,
    ) -> List[bool]:
        """Screen stimuli on the pool; verdicts in task order."""
        tasks = [(bench_text, stimulus, sample) for stimulus in stimuli]
        return self._map(_screen_task, tasks, _valid_screen_result, "screen")

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def make_executor(
    jobs: int,
    stats: RuntimeStats | None = None,
    policy: RetryPolicy | None = None,
    chaos: ChaosSpec | None = None,
    tracer: Optional["Tracer"] = None,
):
    """A :class:`SerialExecutor` for ``jobs <= 1``, else a
    :class:`ProcessExecutor` under ``policy`` (and, for tests of the
    recovery paths, ``chaos``)."""
    if jobs <= 1:
        return SerialExecutor(stats, tracer=tracer)
    return ProcessExecutor(jobs, stats, policy=policy, chaos=chaos, tracer=tracer)
