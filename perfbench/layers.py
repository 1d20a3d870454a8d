"""Layer probes for the traced service run.

:func:`install` wraps public entry points of each layer with wall-clock
spans, from outside the package: nothing under ``src/`` changes, and the
untraced runs never import this module.  A span records its name, the
job its runner thread is executing (none for map requests), its start
and end on the host's monotonic clock (shared with the load generator),
its self time (duration minus nested probed spans), and layer counts
where the layer keeps them.  Spans stay in memory and :func:`dump`
writes them once, when the service exits.

Probes are per call, never per simulated instruction, so the trial
loop's inner dispatch is untouched.
"""

from __future__ import annotations

import functools
import json
import threading
from contextlib import contextmanager
from time import perf_counter

_local = threading.local()
#: [name, job, start, end, self_s, counts] rows, appended under the GIL.
SPANS: list[list] = []


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _probe(name, fn, counts=None):
    """Wrap ``fn`` in a span; ``counts(args, before)`` may return a dict
    of layer counts, with ``before`` what it returned before the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        child = [0.0]
        stack.append(child)
        before = counts(args, None) if counts else None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
            extra = counts(args, before) if counts else None
            SPANS.append(
                [name, getattr(_local, "job", None), start, end,
                 end - start - child[0], extra]
            )

    return wrapper


def _trial_counts(args, before):
    stats = args[0].stats
    now = (stats.forked, stats.short_circuited, stats.simulated_instructions)
    if before is None:
        return now
    return {
        "forked": now[0] - before[0],
        "short_circuited": now[1] - before[1],
        "instructions": now[2] - before[2],
    }


def _golden_counts(args, before):
    if before is None:
        return ()  # nothing to snapshot: the scheduler is being built
    scheduler = args[0]
    return {
        "instructions": scheduler.golden.instructions,
        "checkpoints": scheduler.stats.checkpoints,
    }


def _compile_counts(args, before):
    workbench = args[0]
    if before is None:
        return workbench.hits
    return {"hit": workbench.hits - before}


def install() -> None:
    """Wrap every probed entry point; call once, before serving."""
    import repro.backend.driver as backend_driver
    import repro.faults.isa_campaign as isa_campaign
    import repro.minic.driver as minic_driver
    import repro.service.fleet as fleet
    import repro.service.jobs as jobs
    from repro.faults.scheduler import TrialScheduler
    from repro.obs.trace import JobTraceRecorder
    from repro.passes.pipeline import PassPipeline
    from repro.toolchain.workbench import Workbench

    minic_driver.parse_to_ir = _probe("minic.parse", minic_driver.parse_to_ir)
    PassPipeline.run = _probe("passes.run", PassPipeline.run)
    compile_ir = _probe("backend.compile_ir", backend_driver.compile_ir)
    backend_driver.compile_ir = minic_driver.compile_ir = compile_ir
    Workbench.compile = _probe(
        "toolchain.compile", Workbench.compile, _compile_counts
    )
    TrialScheduler.__init__ = _probe(
        "faults.golden", TrialScheduler.__init__, _golden_counts
    )
    TrialScheduler.run_trial = _probe(
        "faults.trial", TrialScheduler.run_trial, _trial_counts
    )
    isa_campaign.classify = _probe("faults.classify", isa_campaign.classify)
    isa_campaign.run_attack = _probe("faults.run_attack", isa_campaign.run_attack)
    for suite, fn in list(jobs.ATTACK_SUITES.items()):
        jobs.ATTACK_SUITES[suite] = _probe("faults.suite", fn)

    # Job attribution: a job's compile runs inside its recorder's
    # "compile" span and its attacks inside FleetCoordinator.execute_job,
    # both on the runner thread that owns the job.
    recorder_span = JobTraceRecorder.span

    @contextmanager
    def span(self, name, **attrs):
        with recorder_span(self, name, **attrs) as opened:
            _local.job = self.job_id
            yield opened

    JobTraceRecorder.span = span
    execute_job = fleet.FleetCoordinator.execute_job

    @functools.wraps(execute_job)
    def attributed_execute_job(self, job, **kwargs):
        _local.job = job.job_id()
        try:
            return execute_job(self, job, **kwargs)
        finally:
            _local.job = None

    fleet.FleetCoordinator.execute_job = attributed_execute_job


def dump(path: str) -> None:
    with open(path, "w") as handle:
        json.dump(SPANS, handle, separators=(",", ":"))
