"""Fixed-work benchmark of the campaign service, driven through its HTTP API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decision-mix --seed 1 --seconds 15 --trace 0

Each run starts ``python -m repro.service serve`` on its default flags
with a fresh store, submits a seeded job list from closed-loop clients
and checks every result.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
second, probed service runs the same list and the metrics are the
per-layer ledger (see ``perfbench/README.md``).

Nothing is tuned: no engine, worker count or environment knob reaches
the service beyond its store path and port (``REPRO_*`` variables are
removed from its environment so the defaults really are the defaults).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Fresh jobs re-submitted after the timed list (store answers + identity).
RESUBMIT_SAMPLE = 3
SERVICE_START_TIMEOUT = 60.0
SERVICE_STOP_TIMEOUT = 30.0


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# the service process
# ---------------------------------------------------------------------------
def service_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Service:
    """One ``serve`` process with its own fresh store."""

    def __init__(self, workdir: Path, name: str, traced: bool = False):
        self.db = workdir / f"{name}.sqlite"
        self.log = workdir / f"{name}.log"
        flags = ["--port", "0", "--db", str(self.db)]
        if traced:
            command = [sys.executable, str(HERE / "traced_serve.py"), *flags]
        else:
            command = [sys.executable, "-m", "repro.service", "serve", *flags]
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                env=service_env(), cwd=ROOT,
            )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.perf_counter() + SERVICE_START_TIMEOUT
        while time.perf_counter() < deadline:
            text = self.log.read_text()
            marker = text.find("listening on http://")
            if marker >= 0 and "\n" in text[marker:]:
                line = text[marker:].split("\n", 1)[0]
                return int(line.split()[2].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise BenchError(f"service exited on start-up:\n{text[-2000:]}")
            time.sleep(0.002)
        raise BenchError("service did not start listening in time")

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the service process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVICE_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ---------------------------------------------------------------------------
# one job, as a user runs it
# ---------------------------------------------------------------------------
def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_entry(client, entry, with_map: bool) -> dict:
    """Submit -> result in hand (-> map in hand); returns the timings and
    the output check of this one job."""
    from repro.service.client import ServiceError

    record = {"job_id": entry.job_id, "fresh": entry.resubmit_of is None,
              "ok": False, "error": None, "trials": 0, "result": None}
    record["t0"] = time.perf_counter()
    try:
        submitted = client.submit(entry.job)
        record["submit_end"] = time.perf_counter()
        result = client.results(entry.job_id, wait=True)
        record["result_end"] = time.perf_counter()
        if with_map:
            vmap = client.map(entry.job_id)
            if vmap.get("job_id") != entry.job_id or "map" not in vmap:
                raise BenchError("map payload does not describe the job")
        record["end"] = time.perf_counter()
    except (ServiceError, OSError, BenchError) as exc:
        record["end"] = time.perf_counter()
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["result"] = canonical(result)
    if submitted.get("deduplicated") == record["fresh"]:
        record["error"] = (
            "fresh job id was deduplicated (duplicate id in the list)"
            if record["fresh"] else "re-submitted id was executed again"
        )
        return record
    attacks = (result.get("report") or {}).get("attacks") or {}
    if result.get("job_id") != entry.job_id or set(attacks) != set(entry.labels):
        record["error"] = f"result lacks attacks: {sorted(attacks)}"
        return record
    if any(attack.get("trials", 0) < 1 for attack in attacks.values()):
        record["error"] = "an attack ran no trials"
        return record
    record["trials"] = sum(attack["trials"] for attack in attacks.values())
    record["ok"] = True
    return record


def run_list(service, entries, clients: int, with_map: bool):
    """Closed loop: ``clients`` threads each take the next entry only
    after their previous one completed.  Returns one record per entry."""
    records: list = [None] * len(entries)
    cursor = iter(range(len(entries)))
    lock = threading.Lock()

    def worker():
        client = service.client()
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            records[index] = run_entry(client, entries[index], with_map)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, record in enumerate(records):
        resubmit_of = entries[index].resubmit_of
        if record["ok"] and resubmit_of is not None:
            if record["result"] != records[resubmit_of]["result"]:
                record["ok"] = False
                record["error"] = "re-submitted id returned different bytes"
    return records


# ---------------------------------------------------------------------------
# set-up: cold start + warm-up, several times
# ---------------------------------------------------------------------------
def cold_start(workdir, name, warmups, with_map, traced=False):
    """Start a service and run the warm-up jobs; returns the live service
    and the seconds from launch to warm."""
    start = time.perf_counter()
    service = Service(workdir, name, traced=traced)
    try:
        service.client().service_status()
        records = run_list(service, warmups, 1, with_map)
    except BaseException:
        service.stop()
        raise
    failed = [r["error"] for r in records if not r["ok"]]
    if failed:
        service.stop()
        raise BenchError(f"warm-up job failed: {failed[0]}")
    return service, time.perf_counter() - start


# ---------------------------------------------------------------------------
# the reference oracle and the determinism guard
# ---------------------------------------------------------------------------
def reference_check(sample, served: dict) -> tuple[int, int, dict]:
    """Re-run ``sample`` in-process on ``engine="reference"``; returns
    (code bytes, golden cycles, {job id: mismatch})."""
    from repro.service.jobs import ATTACK_SUITES, attack_result_to_dict
    from repro.toolchain.workbench import Workbench

    workbench = Workbench()
    code_bytes = sim_cycles = 0
    mismatches = {}
    for entry in sample:
        job = entry.job
        initializers = {n: bytes.fromhex(h) for n, h in job.initializers} or None
        program = workbench.compile(job.source, job.config, initializers=initializers)
        golden = program.run(job.function, list(job.args), dispatch="reference")
        code_bytes += program.code_size
        sim_cycles += golden.cycles
        if golden.exit_code != entry.expected_exit:
            mismatches[entry.job_id] = (
                f"golden exit {golden.exit_code:#x}, "
                f"expected {entry.expected_exit:#x}"
            )
        attacks = json.loads(served[entry.job_id])["report"]["attacks"]
        for spec in job.attacks:
            result = ATTACK_SUITES[spec.suite](
                program, job.function, list(job.args),
                engine="reference", record_trials=True, **spec.kwargs,
            )
            want = attack_result_to_dict(result)
            got = attacks[spec.default_label]
            for key in ("outcomes", "trials", "wrong_codes", "records"):
                if got.get(key) != want.get(key):
                    mismatches[entry.job_id] = (
                        f"{spec.default_label}: served {key} differs from "
                        f"the reference engine"
                    )
    return code_bytes, sim_cycles, mismatches


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources: one commit's identity."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".mc") and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def determinism_guard(key: str, counts: dict) -> None:
    """Simulated counts must repeat exactly for one commit and seed; the
    first run of a key records them, every later run must match."""
    ledger_path = STATE / "determinism.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    known = ledger.get(key)
    if known is not None and known != counts:
        raise BenchError(
            f"DETERMINISM FAILURE for {key}: this run simulated {counts}, "
            f"an earlier run of the same commit and seed simulated {known}"
        )
    if known is None:
        ledger[key] = counts
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(ledger_path)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def tail_percentile(count: int) -> int:
    """Highest multiple-of-5 percentile leaving >= 10 jobs beyond it."""
    return max(50, (100 * (count - 10) // count) // 5 * 5) if count > 10 else 50


def percentile(values, pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))  # nearest rank
    return ordered[rank - 1]


def measure(workdir, rounds, warmups, clients, with_map, modes):
    """Run every round on its own freshly started, warmed service, once
    per mode (``False`` plain, ``True`` probed), alternating modes within
    a round so that both see the same phases of the host's speed.
    Returns mode -> raw results."""
    raw = {mode: {"setup": [], "records": [], "segments": [], "peak": [],
                  "windows": [], "traces": {}, "spans": [], "post": None}
           for mode in modes}
    for k, segments in enumerate(rounds):
        entries = [entry for segment in segments for entry in segment]
        for mode in modes:
            out = raw[mode]
            service, seconds = cold_start(
                workdir, f"{'probed' if mode else 'plain'}-{k}", warmups,
                with_map, traced=mode,
            )
            out["setup"].append(seconds)
            try:
                records = run_list(service, entries, clients, with_map)
                out["records"] += records
                start = 0
                for segment in segments:
                    out["segments"].append(records[start : start + len(segment)])
                    start += len(segment)
                out["windows"].append(
                    (min(r["t0"] for r in records), max(r["end"] for r in records))
                )
                if k == len(rounds) - 1:
                    out["post"] = post_checks(service, entries, records, mode)
                out["peak"].append(service.peak_rss_mb())
                if mode:
                    client = service.client()
                    for record in records:
                        if record["ok"] and record["fresh"]:
                            out["traces"][record["job_id"]] = client.trace(record["job_id"])
            finally:
                service.stop()
            if mode:
                out["spans"] += json.loads(Path(f"{service.db}.spans.json").read_text())
    return raw


def post_checks(service, entries, records, traced):
    """Outside the timed window: re-submit a fixed sample of fresh jobs
    (the store must answer with identical bytes) and, when traced, fetch
    their maps."""
    fresh = [i for i, r in enumerate(records) if r["fresh"] and r["ok"]]
    sample = random.Random(len(entries)).sample(fresh, min(RESUBMIT_SAMPLE, len(fresh)))
    client = service.client()
    dedup, maps, errors = [], [], []
    for index in sample:
        resubmission = dataclasses.replace(entries[index], resubmit_of=index)
        again = run_entry(client, resubmission, False)
        if not again["ok"] or again["result"] != records[index]["result"]:
            errors.append(again["error"] or f"{entries[index].job_id}: "
                          "re-submission returned different bytes")
        dedup.append(again["end"] - again["t0"])
        if traced:
            start = time.perf_counter()
            client.map(entries[index].job_id)
            maps.append(time.perf_counter() - start)
    return {"dedup": dedup, "maps": maps, "errors": errors}


def segment_rate(records) -> float:
    """Fresh trials per second of one segment of the closed loop."""
    wall = max(r["end"] for r in records) - min(r["t0"] for r in records)
    return sum(r["trials"] for r in records if r["fresh"]) / wall


def end_to_end(raw) -> dict:
    latencies = [r["end"] - r["t0"] for r in raw["records"]]
    tail = tail_percentile(len(latencies))
    segments = raw["segments"]
    return {
        "setup_s": statistics.median(raw["setup"]),
        "trials_per_s": statistics.median(segment_rate(s) for s in segments),
        "job_p50_s": statistics.median(
            statistics.median(r["end"] - r["t0"] for r in s) for s in segments
        ),
        "job_tail_s": percentile(latencies, tail),
        "tail_percentile": tail,
        "trials": sum(r["trials"] for r in raw["records"] if r["fresh"]),
        "peak_rss_mb": max(raw["peak"]),
    }


# ---------------------------------------------------------------------------
def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin hash randomisation for the load generator too.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    # A terminated run still stops its services (the finally clauses).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    import workloads
    from ledger import layer_metrics, print_ledger

    args = parse_args(argv)
    workload, seed = args.workload, args.seed
    key = f"{source_fingerprint()}/{workload}/{seed}/{args.seconds}"
    rounds = workloads.timed_rounds(workload, seed, args.seconds)
    entries = [entry for segments in rounds for segment in segments for entry in segment]
    warmups = workloads.warmup_jobs(workload, seed)
    fresh_ids = [e.job_id for e in entries if e.resubmit_of is None]
    if len(set(fresh_ids)) != len(fresh_ids):
        raise BenchError("the job list repeats a fresh job id")
    if set(fresh_ids) & {w.job_id for w in warmups}:
        raise BenchError("warm-up and timed job ids overlap")
    clients = workloads.CLIENTS[workload]
    with_map = workload == "decision-mix"

    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"run-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        modes = (False, True) if args.trace else (False,)
        raw = measure(workdir, rounds, warmups, clients, with_map, modes)
        untraced = raw[False]
        served = {r["job_id"]: r["result"] for r in untraced["records"]
                  if r["ok"] and r["fresh"]}
        sample = workloads.check_sample(entries, seed)
        missing = [e.job_id for e in sample if e.job_id not in served]
        if missing:
            code_bytes = sim_cycles = 0
            mismatches = {job_id: "no served result to check" for job_id in missing}
        else:
            code_bytes, sim_cycles, mismatches = reference_check(sample, served)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(untraced)
    if args.trace and end_to_end(raw[True])["trials"] != e2e["trials"]:
        raise BenchError("probed and plain services simulated different trial totals")
    attempted = len(entries)
    ok = sum(1 for r in untraced["records"]
             if r["ok"] and r["job_id"] not in mismatches)
    problems = [r["error"] for run in raw.values() for r in run["records"] if not r["ok"]]
    problems += [f"{job_id}: {m}" for job_id, m in mismatches.items()]
    problems += [e for run in raw.values() for e in run["post"]["errors"]]
    if not problems:
        # Only a fully served run has the counts the guard compares.
        determinism_guard(key, {"code_bytes": code_bytes, "sim_cycles": sim_cycles,
                                "trials": e2e["trials"]})
    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = layer_metrics(untraced, raw[True], with_map,
                                lambda run: end_to_end(run)["trials_per_s"])
        print_ledger(workload, raw[True], metrics)
        units = {name: unit for name, (value, unit) in metrics.items()}
        values = {name: value for name, (value, unit) in metrics.items()}
    else:
        values = {
            "setup_s": e2e["setup_s"],
            "trials_per_s": e2e["trials_per_s"],
            "job_p50_s": e2e["job_p50_s"],
            "job_tail_s": e2e["job_tail_s"],
            "ok_share": ok / attempted,
            "peak_rss_mb": e2e["peak_rss_mb"],
            "code_bytes": code_bytes,
            "sim_cycles": sim_cycles,
        }
        units = dict(zip(values, ("s", "1/s", "s", "s", "share", "MB", "bytes", "cycles")))
        print(f"{workload} seed={seed}: {attempted} jobs, {clients} client(s), "
              f"{e2e['trials']} trials; job_tail_s is p{e2e['tail_percentile']} "
              f"of {attempted} jobs; setup samples "
              f"{[round(s, 3) for s in untraced['setup']]}; segment trials/s "
              f"{[round(segment_rate(s), 1) for s in untraced['segments']]}")
        for name, value in values.items():
            print(f"  {name:<14} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems and ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(3)
