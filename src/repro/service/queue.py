"""Prioritised asyncio job scheduler for the campaign service.

The scheduler owns three layers of deduplication (cheapest first):

1. **in flight** — a second submission of a job id already queued or
   running attaches to the same :class:`JobHandle`;
2. **persistent store** — a job id with a stored result is answered from
   :class:`~repro.service.store.ResultStore` without executing a trial;
3. **compile cache** — distinct jobs over the same (source, config) pair
   share one compilation through the
   :class:`~repro.toolchain.workbench.Workbench` LRU.

Execution: ``runners`` asyncio runner tasks pop jobs by ``(priority,
submission order)`` and run them on worker threads via
``loop.run_in_executor`` so the event loop (and the HTTP tier on top of
it) stays responsive.  Each runner slot owns a private
:class:`~repro.toolchain.executor.CampaignExecutor` (``trial_workers``
processes) to shard trials; with ``trial_workers=0`` trials run
in-process.  Identical workloads hitting two slots at once
are serialised by a per-(program, workload) lock — the checkpoint-forked
trial scheduler reuses one trial CPU per workload and is not
re-entrant.

Campaign jobs execute through the :class:`~repro.service.fleet.
FleetCoordinator`: each attack becomes a leased shard that remote
workers pull over HTTP, and when no worker is active the runner slot
runs the shards itself — a fleet of zero degrades to exactly the
pre-fleet single-host behaviour, same events, same bytes.

Progress events stream to any number of subscribers per job (asyncio
queues feeding the NDJSON HTTP endpoint); lifecycle events are also
persisted for replay after the job — or the process — is gone.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
import weakref
from typing import Any, AsyncIterator, Optional

from repro.obs.metrics import MetricsRegistry, RegistryStats
from repro.obs.profile import ENGINE_COUNTERS, EngineProfiler
from repro.obs.trace import JobTraceRecorder
from repro.service.jobs import JobCancelled, JobError, job_from_dict
from repro.service.store import ResultStore

#: Default submission priority (lower number = served earlier).
PRIORITY_DEFAULT = 10

#: Event kinds persisted to the store for post-hoc replay (high-frequency
#: per-batch progress stays in memory only).  The fleet lifecycle events
#: are persisted too: "which worker lost which shard" is exactly what an
#: operator replays after the fact.
PERSISTED_EVENTS = frozenset(
    {
        "queued",
        "started",
        "attack-finished",
        "finished",
        "failed",
        "cancelled",
        "shard-stolen",
        "shard-retried",
        "shard-resumed",
    }
)


class UnknownJobError(KeyError):
    """A job id the scheduler and the store have never seen."""


class SchedulerStats(RegistryStats):
    """Counters the /status endpoint exposes (and tests assert on).

    Attribute-compatible with the old dataclass (``stats.executed += 1``
    still works), but the storage is :class:`~repro.obs.metrics.
    MetricsRegistry` counters — the same series ``GET /metrics`` renders,
    so the two surfaces cannot disagree.
    """

    _FIELDS = {
        "submitted": "repro_jobs_submitted_total",
        "executed": "repro_jobs_executed_total",
        "failed": "repro_jobs_failed_total",
        "cancelled": "repro_jobs_cancelled_total",
        "deduplicated_inflight": "repro_jobs_deduplicated_inflight_total",
        "deduplicated_store": "repro_jobs_deduplicated_store_total",
    }


class JobHandle:
    """Live state of one queued/running job."""

    def __init__(self, job, job_id: str):
        self.job = job
        self.job_id = job_id
        self.state = "queued"
        self.cancelled = False
        #: Optional :class:`repro.obs.trace.JobTraceRecorder` following
        #: this job's lifecycle (None with observability disabled).
        self.trace: Optional[JobTraceRecorder] = None
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        # Swallow "exception was never retrieved" for fire-and-forget
        # submissions that only ever poll /status.
        self.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self.events: list[dict[str, Any]] = []
        self.subscribers: list[asyncio.Queue] = []


#: Per-(program, workload) locks: the memoized TrialScheduler reuses one
#: trial CPU per workload, so two runner threads must not attack the same
#: workload concurrently.  Entries are keyed by ``id(program)`` but carry
#: a weakref that (a) removes the entry when the program is collected and
#: (b) detects id reuse — locks live exactly as long as their program and
#: are never evicted, so a handed-out lock cannot be silently replaced.
#: (CompiledProgram is an eq-without-hash dataclass, so it cannot key a
#: WeakKeyDictionary directly.)
_workload_locks: dict[int, tuple] = {}
_workload_locks_guard = threading.Lock()


def _drop_workload_locks(program_id: int, ref) -> None:
    with _workload_locks_guard:
        entry = _workload_locks.get(program_id)
        if entry is not None and entry[0] is ref:
            del _workload_locks[program_id]


def _workload_lock(program, function: str, args: tuple) -> threading.Lock:
    program_id = id(program)
    with _workload_locks_guard:
        entry = _workload_locks.get(program_id)
        if entry is None or entry[0]() is not program:
            ref = weakref.ref(
                program,
                lambda r, pid=program_id: _drop_workload_locks(pid, r),
            )
            entry = _workload_locks[program_id] = (ref, {})
        locks = entry[1]
        key = (function, tuple(args))
        lock = locks.get(key)
        if lock is None:
            lock = locks[key] = threading.Lock()
        return lock


class JobScheduler:
    """Owns the queue, the runner tasks, the workbench, and the store."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workbench=None,
        runners: int = 2,
        trial_workers: int = 0,
        cache_size: int = 64,
        fleet=None,
        lease_ttl: float = 10.0,
        observability: bool = True,
    ):
        if runners < 1:
            raise ValueError(f"runners must be >= 1, got {runners}")
        if trial_workers < 0:
            raise ValueError(f"trial_workers must be >= 0, got {trial_workers}")
        if workbench is None:
            from repro.toolchain.workbench import Workbench

            workbench = Workbench(cache_size=cache_size)
        self.store = store if store is not None else ResultStore(":memory:")
        self.workbench = workbench
        self.runners = runners
        self.trial_workers = trial_workers
        #: ``observability=False`` turns off span recording and trace
        #: persistence (metrics counters stay — they back /status).
        self.observability = bool(observability)
        if fleet is None:
            from repro.service.fleet import FleetCoordinator

            #: One registry backs the scheduler, the coordinator, and
            #: ``GET /metrics``: the fleet adopts ours (or we adopt the
            #: injected fleet's below), so /status counters and the
            #: Prometheus scrape read the same storage.
            self.registry = MetricsRegistry()
            fleet = FleetCoordinator(
                store=self.store, lease_ttl=lease_ttl, registry=self.registry
            )
        else:
            registry = getattr(fleet, "registry", None)
            self.registry = registry if registry is not None else MetricsRegistry()
        #: Every campaign executes through the fleet coordinator: remote
        #: workers lease its shards over HTTP, and with no worker active
        #: the runner slot degrades to executing shards locally — so a
        #: fleet of zero behaves exactly like the pre-fleet service.
        self.fleet = fleet
        self.stats = SchedulerStats(self.registry)
        self._profiler = EngineProfiler(self.registry)
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._inflight: dict[str, JobHandle] = {}
        self._runner_tasks: list[asyncio.Task] = []
        self._seq = 0
        self._closed = False
        # All job-lifecycle store *writes* funnel through this one thread:
        # SQLite write contention (another process holding the WAL lock)
        # must stall this worker, never the event loop — and a single
        # thread keeps writes in submission order.  WAL readers never
        # block on writers, so reads stay inline.
        self._store_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-store"
        )
        # Terminal states and full event logs are written to the store
        # asynchronously (via the pool above); these bounded overlays
        # answer status()/events() consistently in the window before the
        # writes land (and keep recent replays cheap).
        self._terminal: OrderedDict[str, tuple[str, Optional[str]]] = OrderedDict()
        self._recent_events: OrderedDict[str, list[dict[str, Any]]] = OrderedDict()
        # Traces ride the same async store thread as events; this overlay
        # answers trace() in the window before the write lands.
        self._recent_traces: OrderedDict[str, list[dict[str, Any]]] = OrderedDict()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "JobScheduler":
        if self._runner_tasks:
            raise RuntimeError("scheduler already started")
        self._runner_tasks = [
            asyncio.create_task(self._runner(), name=f"repro-service-runner-{i}")
            for i in range(self.runners)
        ]
        return self

    @property
    def closed(self) -> bool:
        """True once shutdown began — the HTTP tier answers 503 with a
        ``Retry-After`` hint instead of queueing doomed work."""
        return self._closed

    async def close(self) -> None:
        self._closed = True
        for task in self._runner_tasks:
            task.cancel()
        for task in self._runner_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._runner_tasks = []
        self._store_pool.shutdown(wait=True)

    def resume_from_store(self) -> int:
        """Re-enqueue jobs left ``queued``/``running`` by a dead process.

        Returns the number of jobs resumed.  Must be called on the event
        loop after :meth:`start`.
        """
        resumed = 0
        for record in self.store.resumable_jobs():
            if record.job_id in self._inflight:
                continue
            try:
                job = job_from_dict(record.spec)
            except JobError as exc:
                self._remember_terminal(
                    record.job_id, "failed", f"unresumable spec: {exc}"
                )
                self._store_write(
                    self.store.set_state,
                    record.job_id,
                    "failed",
                    f"unresumable spec: {exc}",
                )
                continue
            self._enqueue(job, record.job_id, PRIORITY_DEFAULT, requeue=True)
            resumed += 1
        return resumed

    # -- submission --------------------------------------------------------
    def submit(self, job, priority: int = PRIORITY_DEFAULT) -> tuple[str, bool]:
        """Queue a job (idempotently); returns ``(job_id, deduplicated)``.

        Must be called on the event loop.  ``deduplicated`` is true when
        the id was already in flight or already has a stored result.
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        job_id = job.job_id()
        if job_id in self._inflight:
            self.stats.deduplicated_inflight += 1
            return job_id, True
        record = self.store.get_job(job_id)
        if record is not None and record.state == "done":
            if self._stored_result_current(job_id, job):
                self.stats.deduplicated_store += 1
                return job_id, True
            # The scheme builder was replaced since this result was
            # computed (register_scheme(replace=True) bumps the revision,
            # exactly like the Workbench compile cache): re-execute.
        self._enqueue(job, job_id, priority, requeue=False)
        return job_id, False

    def _stored_result_current(self, job_id: str, job) -> bool:
        from repro.service.jobs import _scheme_revision

        payload = self.store.get_result(job_id)
        if (
            payload is None
            or payload.get("scheme_revision") != _scheme_revision(job.config)
        ):
            return False
        if job.kind == "campaign":
            # Pre-analytics payloads (stored before per-trial recording
            # existed) cannot build vulnerability maps; treat them as
            # stale so a resubmission re-executes and upgrades the row —
            # the one escape hatch a service client has.
            attacks = (payload.get("report") or {}).get("attacks") or {}
            if any("records" not in attack for attack in attacks.values()):
                return False
        return True

    def _enqueue(self, job, job_id: str, priority: int, requeue: bool) -> None:
        # A resubmission supersedes a failed/cancelled attempt's overlays
        # AND its persisted event log — a replay must never end at a stale
        # terminal event from the previous attempt.
        self._terminal.pop(job_id, None)
        self._recent_events.pop(job_id, None)
        self._store_write(self.store.clear_events, [job_id])
        # The durable ledger write rides the ordered store thread like
        # every other write (SQLite contention must never stall the event
        # loop); the ack therefore slightly precedes durability — a crash
        # in that window loses only the queued entry, and job ids are
        # deterministic so clients can simply resubmit.
        self._store_write(
            self.store.record_job, job_id, job.kind, job.to_dict(), True
        )
        handle = JobHandle(job, job_id)
        if self.observability:
            handle.trace = JobTraceRecorder(job_id)
            self._recent_traces.pop(job_id, None)
        self._inflight[job_id] = handle
        self._seq += 1
        self._queue.put_nowait((priority, self._seq, job_id))
        self.stats.submitted += 1
        self._publish(
            handle,
            {
                "event": "queued",
                "job_id": job_id,
                "kind": job.kind,
                "title": job.title,
                "resumed": requeue,
            },
        )

    # -- queries -----------------------------------------------------------
    def status(self, job_id: str) -> dict[str, Any]:
        handle = self._inflight.get(job_id)
        record = self.store.get_job(job_id)
        if record is not None:
            status = record.to_dict()
        elif handle is not None:
            # Submitted moments ago: the ledger write is still queued on
            # the store thread; answer from the live handle.
            status = {
                "job_id": job_id,
                "kind": handle.job.kind,
                "title": handle.job.title,
                "error": None,
                "submitted_at": None,
                "started_at": None,
                "finished_at": None,
            }
        else:
            raise UnknownJobError(job_id)
        if handle is not None:
            status["state"] = handle.state
        elif job_id in self._terminal:
            status["state"], status["error"] = self._terminal[job_id]
        return status

    async def result(self, job_id: str) -> dict[str, Any]:
        """The job's result payload, waiting for completion if needed."""
        handle = self._inflight.get(job_id)
        if handle is not None:
            try:
                return await asyncio.shield(handle.future)
            except asyncio.CancelledError:
                if handle.future.cancelled():
                    raise JobError(f"job {job_id} was cancelled") from None
                raise
        payload = self.store.get_result(job_id)
        if payload is not None:
            return payload
        record = self.store.get_job(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        raise JobError(
            f"job {job_id} is {record.state} and has no result"
            + (f": {record.error}" if record.error else "")
        )

    async def events(self, job_id: str) -> AsyncIterator[dict[str, Any]]:
        """Stream the job's events: full replay of what already happened,
        then live events until the job reaches a terminal state."""
        handle = self._inflight.get(job_id)
        if handle is None:
            recent = self._recent_events.get(job_id)
            if recent is not None:  # full in-memory log, incl. batch events
                for event in list(recent):
                    yield event
                return
            if self.store.get_job(job_id) is None:
                raise UnknownJobError(job_id)
            for event in self.store.events(job_id):
                yield event
            return
        queue: asyncio.Queue = asyncio.Queue()
        # No await between the replay snapshot and subscribing, so no
        # event can slip between the two.
        for event in handle.events:
            queue.put_nowait(event)
        if handle.future.done():
            queue.put_nowait(None)
        else:
            handle.subscribers.append(queue)
        try:
            while True:
                event = await queue.get()
                if event is None:
                    return
                yield event
        finally:
            if queue in handle.subscribers:
                handle.subscribers.remove(queue)

    # -- observability -----------------------------------------------------
    def trace(self, job_id: str) -> Optional[list[dict[str, Any]]]:
        """The job's span list: live spans while it executes, the
        persisted trace afterwards.  ``None`` for a known job with no
        trace (observability disabled, or pre-v3 rows).  Raises
        :class:`UnknownJobError` for a job nobody has ever seen."""
        handle = self._inflight.get(job_id)
        if handle is not None and handle.trace is not None:
            return handle.trace.export()
        recent = self._recent_traces.get(job_id)
        if recent is not None:
            return list(recent)
        stored = self.store.get_trace(job_id)
        if stored is not None:
            return stored
        if handle is None and self.store.get_job(job_id) is None:
            raise UnknownJobError(job_id)
        return None

    def collect(self) -> MetricsRegistry:
        """Refresh point-in-time gauges and return the shared registry —
        the ``GET /metrics`` scrape path.  Counters and histograms are
        always current (they are the live storage for stats objects and
        executor merges); only gauges need a poll."""
        registry = self.registry
        registry.gauge("repro_queue_depth").set(self._queue.qsize())
        registry.gauge("repro_jobs_inflight").set(len(self._inflight))
        registry.gauge("repro_runners").set(self.runners)
        registry.gauge("repro_trial_workers").set(self.trial_workers)
        self._profiler.sample_workbench(self.workbench)
        for state, count in self.store.counts().items():
            registry.gauge("repro_store_jobs", labels={"state": state}).set(count)
        fleet_status = self.fleet.status()
        registry.gauge("repro_fleet_workers_active").set(
            len(fleet_status.get("workers") or ())
        )
        for state, count in (fleet_status.get("shards") or {}).items():
            registry.gauge("repro_fleet_shards", labels={"state": state}).set(count)
        return registry

    def observability_status(self) -> dict[str, Any]:
        """The ``/status`` observability block: whether tracing is on,
        how many series exist, and the engine counters ``top`` needs to
        compute throughput deltas between polls."""
        registry = self.collect()
        return {
            "enabled": self.observability,
            "series": registry.series_count(),
            "engine": {
                field: registry.counter(series).value
                for field, series in ENGINE_COUNTERS.items()
            },
        }

    # -- analysis ----------------------------------------------------------
    async def vulnerability_map(self, job_id: str) -> dict[str, Any]:
        """The stored campaign's per-instruction vulnerability map, as a
        JSON payload.  Built off-loop (compile is a cache hit for jobs
        this process ran; the golden run is memoized per program)."""
        loop = asyncio.get_running_loop()
        vmap = await loop.run_in_executor(None, self._locked_map, job_id)
        return {"job_id": job_id, "kind": "vulnerability-map", "map": vmap.to_dict()}

    async def scheme_diff(self, job_a: str, job_b: str) -> dict[str, Any]:
        """Residual-vulnerability diff of two stored campaigns.

        The two jobs must attack the *same program input* — identical
        (source, initializers) content and (function, args) workload —
        otherwise the verdicts would compare unrelated binaries."""
        from repro.analysis.diff import SchemeDiff, require_same_program_input

        require_same_program_input(self.store, job_a, job_b)
        loop = asyncio.get_running_loop()
        # Independent builds (different schemes -> different programs and
        # workload locks): overlap their executor slots.
        map_a, map_b = await asyncio.gather(
            loop.run_in_executor(None, self._locked_map, job_a),
            loop.run_in_executor(None, self._locked_map, job_b),
        )
        diff = SchemeDiff.build(map_a, map_b)
        return {"a": job_a, "b": job_b, "kind": "scheme-diff", "diff": diff.to_dict()}

    def _campaign_job(self, job_id: str):
        from repro.service.jobs import job_from_dict

        record = self.store.get_job(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        try:
            job = job_from_dict(record.spec)
        except JobError as exc:
            raise JobError(f"job {job_id} has an unparsable spec: {exc}") from exc
        if job.kind != "campaign":
            raise JobError(f"job {job_id} is a {job.kind!r} job; maps need a campaign")
        return job

    def _locked_map(self, job_id: str):
        """Map a stored job under its workload lock — the golden-trace
        scheduler reuses one trial CPU per workload and must not be
        touched while a runner slot attacks the same workload.  The map
        is built from the exact program object the lock is keyed on
        (re-consulting the LRU could return a different one)."""
        from repro.analysis.vulnmap import map_from_store

        job = self._campaign_job(job_id)
        program = self.workbench.compile(
            job.source,
            job.config,
            initializers=_initializers_of(job) or None,
        )
        with _workload_lock(program, job.function, tuple(job.args)):
            return map_from_store(self.store, job_id, program=program)

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a job: immediately when still queued, at the next
        attack boundary when running.  Done jobs are left alone."""
        handle = self._inflight.get(job_id)
        if handle is None:
            record = self.store.get_job(job_id)
            if record is None:
                raise UnknownJobError(job_id)
            return {"job_id": job_id, "state": record.state, "cancelled": False}
        handle.cancelled = True
        if handle.state == "queued":
            self._finalize_cancel(handle)
            return {"job_id": job_id, "state": "cancelled", "cancelled": True}
        return {"job_id": job_id, "state": handle.state, "cancelled": True}

    # -- execution ---------------------------------------------------------
    async def _runner(self) -> None:
        executor = None
        try:
            while True:
                _, _, job_id = await self._queue.get()
                handle = self._inflight.get(job_id)
                if handle is None or handle.future.done():
                    continue  # cancelled while queued
                if self.trial_workers and executor is None:
                    from repro.toolchain.executor import CampaignExecutor

                    executor = CampaignExecutor(
                        max_workers=self.trial_workers,
                        metrics=self.registry if self.observability else None,
                    )
                try:
                    await self._execute(handle, executor)
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # noqa: BLE001 — keep the slot alive
                    self._fail(handle, exc)
        finally:
            if executor is not None:
                # Runner teardown happens on the event loop (task
                # cancellation at shutdown): never block it draining
                # workers mid-campaign.  The interrupted job stays
                # 'running' in the ledger and is resumed on next start.
                executor.close(wait=False)

    async def _execute(self, handle: JobHandle, executor) -> None:
        loop = asyncio.get_running_loop()
        handle.state = "running"
        await loop.run_in_executor(
            self._store_pool, self.store.set_state, handle.job_id, "running"
        )
        self._publish(
            handle,
            {"event": "started", "job_id": handle.job_id, "kind": handle.job.kind},
        )

        def emit(payload: dict[str, Any]) -> None:
            # Called from the worker thread (and, with trial_workers, from
            # executor merge loops): hop onto the loop for publication.
            loop.call_soon_threadsafe(self._publish, handle, payload)

        def compile_program(job):
            # Wall-clock lands only in the histogram and the trace span —
            # never in the compiled program or any compared artifact.
            compile_started = time.perf_counter()
            program = self.workbench.compile(
                job.source,
                job.config,
                initializers=_initializers_of(job) or None,
            )
            elapsed = time.perf_counter() - compile_started
            self.registry.histogram("repro_compile_seconds").observe(elapsed)
            return program

        def run() -> dict[str, Any]:
            job = handle.job
            recorder = handle.trace
            if job.kind == "campaign":
                if recorder is not None:
                    with recorder.span("compile", kind=job.kind):
                        program = compile_program(job)
                else:
                    program = compile_program(job)

                def local_run(job_, index: int) -> dict[str, Any]:
                    # Degradation path: this runner slot executes one
                    # shard itself, under the workload lock keyed on the
                    # exact compiled object (see _workload_lock).
                    lock = _workload_lock(program, job_.function, job_.args)
                    with lock:
                        return job_.run_shard(
                            self.workbench,
                            index,
                            executor=executor,
                            emit=emit,
                            program=program,
                        )

                try:
                    return self.fleet.execute_job(
                        job,
                        local_run=local_run,
                        emit=emit,
                        should_stop=lambda: handle.cancelled,
                    )
                finally:
                    # After-attack engine boundary: fold the trial
                    # schedulers' own counters into the shared registry
                    # (sampled, so the no-hook fast loop stays untouched).
                    self._profiler.sample_program(program)
                    self._profiler.sample_workbench(self.workbench)
                    if executor is not None:
                        self._profiler.sample_executor(executor)
            try:
                return job.execute(self.workbench, emit=emit)
            finally:
                self._profiler.sample_workbench(self.workbench)

        job_started = time.perf_counter()
        try:
            payload = await loop.run_in_executor(None, run)
            self.stats.executed += 1
            self.registry.histogram("repro_job_seconds").observe(
                time.perf_counter() - job_started
            )
            # Result durability before the 'finished' event: a client that
            # sees the stream end must find the result in the store.
            await loop.run_in_executor(
                self._store_pool, self.store.store_result, handle.job_id, payload
            )
        except JobCancelled:
            self._finalize_cancel(handle)
        except Exception as exc:  # noqa: BLE001 — jobs must not kill runners
            self._fail(handle, exc)
        else:
            handle.state = "done"
            self._publish(
                handle,
                {"event": "finished", "job_id": handle.job_id, "kind": handle.job.kind},
            )
            handle.future.set_result(payload)
            self._persist_trace(handle)
            self._close_stream(handle)

    def _fail(self, handle: JobHandle, exc: BaseException) -> None:
        error = f"{type(exc).__name__}: {exc}"
        self.stats.failed += 1
        handle.state = "failed"
        self._remember_terminal(handle.job_id, "failed", error)
        self._store_write(self.store.set_state, handle.job_id, "failed", error)
        self._publish(
            handle,
            {
                "event": "failed",
                "job_id": handle.job_id,
                "error": error,
                "traceback": "".join(
                    traceback.format_exception(exc, limit=8)
                ),
            },
        )
        if not handle.future.done():
            handle.future.set_exception(JobError(error))
        self._persist_trace(handle)
        self._close_stream(handle)

    def _finalize_cancel(self, handle: JobHandle) -> None:
        self.stats.cancelled += 1
        handle.state = "cancelled"
        self._remember_terminal(handle.job_id, "cancelled")
        self._store_write(self.store.set_state, handle.job_id, "cancelled")
        self._publish(
            handle, {"event": "cancelled", "job_id": handle.job_id}
        )
        handle.future.cancel()
        self._persist_trace(handle)
        self._close_stream(handle)

    # -- event plumbing ----------------------------------------------------
    def _publish(self, handle: JobHandle, payload: dict[str, Any]) -> None:
        handle.events.append(payload)
        if handle.trace is not None:
            # The recorder folds the event stream into spans.  _publish
            # always runs on the event loop, so per-handle calls are
            # serialised without any extra locking.
            handle.trace.on_event(payload)
        if payload.get("event") in PERSISTED_EVENTS:
            self._store_write(self.store.append_event, handle.job_id, payload)
        for queue in handle.subscribers:
            queue.put_nowait(payload)

    def _persist_trace(self, handle: JobHandle) -> None:
        recorder = handle.trace
        if recorder is None:
            return
        spans = recorder.export()
        self.registry.counter("repro_traces_total").inc()
        self._recent_traces[handle.job_id] = spans
        self._recent_traces.move_to_end(handle.job_id)
        while len(self._recent_traces) > 256:
            self._recent_traces.popitem(last=False)
        self._store_write(self.store.store_trace, handle.job_id, spans)

    def _remember_terminal(
        self, job_id: str, state: str, error: Optional[str] = None
    ) -> None:
        self._terminal[job_id] = (state, error)
        self._terminal.move_to_end(job_id)
        while len(self._terminal) > 1024:
            self._terminal.popitem(last=False)

    def _store_write(self, fn, *args) -> None:
        """Fire-and-forget store write on the (ordered) store thread;
        durability failures are reported, never fatal to the service."""

        def write() -> None:
            try:
                fn(*args)
            except Exception as exc:  # noqa: BLE001
                print(
                    f"repro.service: store write {fn.__name__}{args[:1]} "
                    f"failed: {exc}",
                    file=sys.stderr,
                )

        try:
            self._store_pool.submit(write)
        except RuntimeError:  # pool shut down mid-flight
            write()

    def _close_stream(self, handle: JobHandle) -> None:
        for queue in handle.subscribers:
            queue.put_nowait(None)
        handle.subscribers = []
        self._recent_events[handle.job_id] = handle.events
        self._recent_events.move_to_end(handle.job_id)
        while len(self._recent_events) > 256:
            self._recent_events.popitem(last=False)
        self._inflight.pop(handle.job_id, None)


def _initializers_of(job) -> dict[str, bytes]:
    from repro.service.jobs import _decode_initializers

    return _decode_initializers(job.initializers)
