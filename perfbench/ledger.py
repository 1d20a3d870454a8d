"""Per-layer ledger of a traced run.

Inputs are the load generator's per-job records (submit, result and map
timings), the service's own per-job traces (``GET /jobs/<id>/trace``),
and the probed layer spans the traced service wrote on exit
(:mod:`layers`).  Only spans that start inside the timed list's window
count, so warm-up and post-list checks stay out of the ledger.

Layer times are per fresh job (sums over the list divided by its fresh
job count), so they add up to the mean client latency, less the overlap
of the submit call with the job span's start::

    latency = service.submit + job span + map fetch + unattributed
    job span = queue wait + service self + job compile + attack suites
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def _server_job_spans(traces: dict) -> dict:
    """job id -> (job span seconds, queue wait seconds)."""
    out = {}
    for job_id, spans in traces.items():
        root = next(s for s in spans if s["name"] == "job" and s["parent_id"] is None)
        events = {e["name"]: e["at_ms"] for e in root["events"]}
        queued = events.get("queued", root["start_ms"])
        started = events.get("started", queued)
        out[job_id] = ((root["end_ms"] - root["start_ms"]) / 1e3,
                       (started - queued) / 1e3)
    return out


def layer_metrics(untraced: dict, traced: dict, with_map: bool, rate) -> dict:
    """name -> (value, unit) for every per-layer metric; ``rate(raw)``
    gives a run's trials per second."""
    records = [r for r in traced["records"] if r["ok"]]
    fresh = [r for r in records if r["fresh"]]
    n = len(fresh)
    windows = traced["windows"]

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for name, job, start, end, own, extra in traced["spans"]:
        if not any(lo <= start <= hi for lo, hi in windows):
            continue
        if name == "toolchain.compile":
            counts["compile_hits"] += extra["hit"]
            counts["compile_calls"] += 1
            if job is None:
                name = "analysis.compile"  # a map request's compile
        total[name] += end - start
        self_time[name] += own
        calls[name] += 1
        if name == "faults.trial":
            for key in ("forked", "short_circuited", "instructions"):
                counts[f"trial_{key}"] += extra[key]
        elif name == "faults.golden":
            counts["golden_instructions"] += extra["instructions"]
            counts["checkpoints"] += extra["checkpoints"]

    latency = [r["end"] - r["t0"] for r in fresh]
    submit = [r["submit_end"] - r["t0"] for r in fresh]
    fetch_map = [r["end"] - r["result_end"] for r in fresh]
    spans = _server_job_spans(traced["traces"])
    job_span = [spans[r["job_id"]][0] for r in fresh]
    queue_wait = [spans[r["job_id"]][1] for r in fresh]
    unattributed = [
        max(0.0, lat - s - j - m)
        for lat, s, j, m in zip(latency, submit, job_span, fetch_map)
    ]
    dedup = [r["end"] - r["t0"] for r in records if not r["fresh"]]
    dedup += traced["post"]["dedup"]
    maps = fetch_map if with_map else traced["post"]["maps"]

    per_job = lambda name: total[name] / n  # noqa: E731
    mean_latency = statistics.fmean(latency)
    below = per_job("toolchain.compile") + per_job("faults.suite") + statistics.fmean(fetch_map)
    trials = max(1, calls["faults.trial"])

    m = {
        "minic.parse_s": (per_job("minic.parse"), "s"),
        "passes.run_s": (per_job("passes.run"), "s"),
        "backend.compile_ir_s": (self_time["backend.compile_ir"] / n, "s"),
        "toolchain.compile_s": (per_job("toolchain.compile"), "s"),
        "toolchain.compile_hit_share": (
            counts["compile_hits"] / max(1, counts["compile_calls"]), "share"),
        "faults.golden_s": (per_job("faults.golden"), "s"),
        "faults.checkpoints": (
            counts["checkpoints"] / max(1, calls["faults.golden"]), "count"),
        "faults.trial_s": (per_job("faults.trial"), "s"),
        "faults.trial_us": (total["faults.trial"] / trials * 1e6, "us"),
        "faults.forked_share": (counts["trial_forked"] / trials, "share"),
        "faults.short_circuit_share": (counts["trial_short_circuited"] / trials, "share"),
        "faults.classify_s": (per_job("faults.classify"), "s"),
        "faults.attack_self_s": (
            (self_time["faults.suite"] + self_time["faults.run_attack"]) / n, "s"),
        "isa.trial_instructions": (counts["trial_instructions"] / n, "count"),
        "isa.trial_mips": (
            counts["trial_instructions"] / max(1e-9, total["faults.trial"]) / 1e6, "MIPS"),
        "isa.golden_mips": (
            counts["golden_instructions"] / max(1e-9, total["faults.golden"]) / 1e6, "MIPS"),
        "service.submit_s": (statistics.fmean(submit), "s"),
        "service.job_span_s": (statistics.fmean(job_span), "s"),
        "service.self_s": (mean_latency - below, "s"),
        "service.dedup_s": (statistics.fmean(dedup), "s"),
        "analysis.map_s": (statistics.fmean(maps), "s"),
        "unattributed_share": (sum(unattributed) / sum(latency), "share"),
        "trace_overhead": (rate(traced) / rate(untraced), "ratio"),
    }
    # Self-time rows of the ledger table (seconds per fresh job).
    compile_job = per_job("toolchain.compile")
    suites = per_job("faults.suite")
    traced["ledger"] = {
        "mean_latency_s": mean_latency,
        "rows": [
            ("service.submit (client POST)", statistics.fmean(submit)),
            ("service.queue_wait", statistics.fmean(queue_wait)),
            ("service (job span self)",
             statistics.fmean(job_span) - statistics.fmean(queue_wait)
             - compile_job - suites),
            ("toolchain (self)", self_time["toolchain.compile"] / n),
            ("minic.parse", per_job("minic.parse")),
            ("passes.run", per_job("passes.run")),
            ("backend.compile_ir (self)", self_time["backend.compile_ir"] / n),
            ("faults.golden", self_time["faults.golden"] / n),
            ("faults.trial (incl. isa)", self_time["faults.trial"] / n),
            ("faults.classify", self_time["faults.classify"] / n),
            ("faults.attack (self)",
             (self_time["faults.suite"] + self_time["faults.run_attack"]) / n),
            ("analysis.map (client)", statistics.fmean(fetch_map)),
            ("unattributed", statistics.fmean(unattributed)),
        ],
    }
    return m


def print_ledger(workload: str, traced: dict, metrics: dict) -> None:
    ledger = traced["ledger"]
    mean = ledger["mean_latency_s"]
    print(f"layer ledger, {workload}: mean job latency {mean * 1e3:.2f} ms "
          f"over {sum(r['fresh'] and r['ok'] for r in traced['records'])} fresh jobs")
    print(f"  {'layer':<32}{'self ms/job':>12}{'share':>8}")
    for name, seconds in ledger["rows"]:
        print(f"  {name:<32}{seconds * 1e3:>12.3f}{seconds / mean:>8.1%}")
    covered = sum(seconds for _, seconds in ledger["rows"])
    print(f"  {'sum of rows':<32}{covered * 1e3:>12.3f}{covered / mean:>8.1%}")
    print(f"  unattributed_share {metrics['unattributed_share'][0]:.3f}, "
          f"trace_overhead (traced/untraced trials_per_s) "
          f"{metrics['trace_overhead'][0]:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30}{value:>14.6g} {unit}")
