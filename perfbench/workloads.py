"""Seeded job lists for the three benchmark workloads.

Every list is a pure function of ``(workload, seed, seconds)``: the same
arguments give byte-identical jobs, so the work in a run is fixed and two
runs of one seed are directly comparable.  ``seconds`` only sets how many
jobs the list holds (``JOB_RATE`` jobs per second on the reference host),
never how long the loop runs.

Job sizes -- the properties that set how much a job simulates -- sit on a
fixed grid over each workload's range, the same for every seed and
every scheme x target, so every seed asks for the same amount of work
and the run-to-run spread is the host's, not the draw's.  The seed picks
everything else: contents, keys and arguments, the memcmp length
argument and mismatching byte, which digests are forged, job ids and
order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.analysis.table3 import TABLE3_ATTACKS
from repro.programs import load_source
from repro.service.jobs import AttackSpec, CampaignJob
from repro.toolchain.config import CompileConfig
from repro.toolchain.registry import table3_schemes

TARGETS = ("baseline", "rv32")

ACCEPT, REJECT = 0xB007, 0xDEAD

#: Jobs per requested second, per workload (measured on a 2-vCPU host
#: under CPython 3.11), and closed-loop client counts.
JOB_RATE = {"decision-mix": 40.0, "memcmp-sweep": 7.5, "sha-tail": 2.4}
CLIENTS = {"decision-mix": 2, "memcmp-sweep": 1, "sha-tail": 1}
WORKLOADS = tuple(JOB_RATE)

#: Each run starts ROUNDS services, one after another; each is timed from
#: launch to warm (setup_s is their median) and then runs one round of the
#: timed list, in SEGMENTS segments of the same job mix.  Throughput and
#: median latency are medians over all segments, so a burst of host
#: contention (the reference host slows by up to half for several
#: seconds at a time) moves one or two segments, not the run's figure.
ROUNDS = 3
SEGMENTS = 2

#: decision-mix: one list entry in RESUBMIT_EVERY re-submits an earlier
#: job id, at least RESUBMIT_GAP entries back so the store answers it.
RESUBMIT_EVERY = 8
RESUBMIT_GAP = 4

MEMCMP_N = (2, 24)
SHA_ONE_BLOCK = (0, 55)
SHA_TWO_BLOCKS = (56, 119)

_SHA_DRIVER = (Path(__file__).with_name("sha_tail.mc")).read_text()


@dataclass(frozen=True)
class BenchJob:
    """One entry of a job list: the job plus what its output must be."""

    job: CampaignJob
    scheme: str
    target: str
    #: workload size (decision comparisons, memcmp bytes compared,
    #: message bytes)
    size: int
    #: exit code of the golden run, computed on the host
    expected_exit: int
    #: index of the earlier entry of the round this one re-submits, or None
    resubmit_of: Optional[int] = None

    @property
    def job_id(self) -> str:
        return self.job.job_id()

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(spec.default_label for spec in self.job.attacks)


def combos() -> list[tuple[str, str]]:
    return [(s, t) for s in table3_schemes() for t in TARGETS]


def job_count(workload: str, seconds: int) -> int:
    """Fresh jobs in the timed list: the same number for every scheme x
    target, a whole number per segment."""
    segments = ROUNDS * SEGMENTS
    per_combo = segments * max(
        1, round(JOB_RATE[workload] * seconds / len(combos()) / segments)
    )
    return per_combo * len(combos())


def _grid(count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers in [lo, hi], the midpoints of equal-width strata."""
    width = (hi - lo + 1) / count if count else 0
    return [lo + int((i + 0.5) * width) for i in range(count)]


# ---------------------------------------------------------------------------
# decision-mix: PIN / privilege checks with 1-3 protected comparisons
# ---------------------------------------------------------------------------
def _decision(rng: random.Random, tag: str, comparisons: int):
    """(source, function, args, expected exit) of one decision function."""
    name = f"check_{tag}"
    k = [rng.randrange(1, 1 << 16) for _ in range(3)]
    hit = rng.random() < 0.5
    if comparisons == 1:
        pin = k[0] if hit else (k[0] ^ (1 << rng.randrange(16)))
        body = (
            f"    if (pin == {k[0]}) {{\n        return {ACCEPT};\n    }}\n"
            f"    return {REJECT};\n"
        )
        params, args = "u32 pin", (pin,)
        expected = ACCEPT if pin == k[0] else REJECT
    elif comparisons == 2:
        limit = 1 + k[1] % 8
        tries = rng.randrange(limit + 2)
        pin = k[0] if hit else rng.randrange(1 << 16)
        body = (
            f"    if (tries >= {limit}) {{\n        return {REJECT};\n    }}\n"
            f"    if (pin == {k[0]}) {{\n        return {ACCEPT};\n    }}\n"
            f"    return {REJECT};\n"
        )
        params, args = "u32 pin, u32 tries", (pin, tries)
        expected = ACCEPT if tries < limit and pin == k[0] else REJECT
    else:
        level_req = 1 + k[1] % 7
        public_max = k[2]
        uid = k[0] if hit else rng.randrange(1 << 16)
        level = rng.randrange(9)
        res = rng.randrange(1 << 16)
        body = (
            f"    if (level < {level_req}) {{\n        return {REJECT};\n    }}\n"
            f"    if (uid == {k[0]}) {{\n        return {ACCEPT};\n    }}\n"
            f"    if (res > {public_max}) {{\n        return {REJECT};\n    }}\n"
            f"    return {ACCEPT};\n"
        )
        params, args = "u32 uid, u32 level, u32 res", (uid, level, res)
        if level < level_req:
            expected = REJECT
        elif uid == k[0]:
            expected = ACCEPT
        else:
            expected = REJECT if res > public_max else ACCEPT
    source = f"protect u32 {name}({params}) {{\n{body}}}\n"
    return source, name, args, expected


def _decision_jobs(rng, count, tag_prefix):
    attacks = tuple(
        AttackSpec.make(suite, label=label, **kwargs)
        for label, suite, kwargs in TABLE3_ATTACKS
    )
    jobs = []
    for scheme, target in combos():
        for comparisons in _grid(count, 1, 3):
            tag = f"{tag_prefix}{len(jobs)}"
            source, function, args, expected = _decision(rng, tag, comparisons)
            job = CampaignJob(
                source=source,
                function=function,
                args=args,
                config=CompileConfig(scheme=scheme, target=target),
                attacks=attacks,
                title=f"decision-mix/{tag}",
            )
            jobs.append(BenchJob(job, scheme, target, comparisons, expected))
    return jobs


# ---------------------------------------------------------------------------
# memcmp-sweep: Table III row 2 with seeded length and mismatch position
# ---------------------------------------------------------------------------
def _memcmp_jobs(rng, count, tag_prefix):
    source = load_source("memcmp")
    attacks = (
        AttackSpec.make("skip-sweep"),
        AttackSpec.make("branch-flip", max_branches=64),
    )
    jobs = []
    for scheme, target in combos():
        # A job's cost is set by how many bytes the loop compares (trials
        # and trial length both grow with it, so cost ~ compared**2): the
        # grid is uniform in cost, which keeps the latency tail out of a
        # steep stretch of the distribution.  The length argument and the
        # contents are seeded around it.
        lo, hi = MEMCMP_N
        for i, square in enumerate(_grid(count, lo * lo, hi * hi)):
            compared = math.isqrt(square)
            a = bytes(rng.randrange(256) for _ in range(128))
            b = bytearray(a)
            if i % 4:  # three in four differ at the last compared byte
                n = rng.randint(compared, MEMCMP_N[1])
                b[compared - 1] ^= rng.randrange(1, 256)
            else:
                n = compared
            expected = 1 if a[:n] == bytes(b[:n]) else 0
            job = CampaignJob(
                source=source,
                function="run_memcmp",
                args=(n,),
                config=CompileConfig(scheme=scheme, target=target),
                attacks=attacks,
                initializers=(("cmp_a", a.hex()), ("cmp_b", bytes(b).hex())),
                title=f"memcmp-sweep/{tag_prefix}{len(jobs)}",
            )
            jobs.append(BenchJob(job, scheme, target, compared, expected))
    return jobs


# ---------------------------------------------------------------------------
# sha-tail: SHA-256 over a short message, then a protected digest compare
# ---------------------------------------------------------------------------
def _digest_words(message: bytes) -> bytes:
    """The digest as the device stores it: big-endian state words kept in
    little-endian memory."""
    digest = hashlib.sha256(message).digest()
    return b"".join(digest[i : i + 4][::-1] for i in range(0, 32, 4))


def _sha_jobs(rng, count, tag_prefix):
    source = load_source("sha256") + _SHA_DRIVER
    attacks = (
        AttackSpec.make("branch-flip", max_branches=2),
        AttackSpec.make("repeated-branch-flip"),
    )
    jobs = []
    for scheme, target in combos():
        # One message in four fits one compression block, the rest take
        # two: the latency median and tail then sit inside the two-block
        # mode instead of on the step between the modes.
        one_block = count // 4
        lengths = (_grid(one_block, *SHA_ONE_BLOCK)
                   + _grid(count - one_block, *SHA_TWO_BLOCKS))
        for i, length in enumerate(lengths):
            message = bytes(rng.randrange(256) for _ in range(length))
            expected = bytearray(_digest_words(message))
            accept = i % 4 != 2
            if not accept:  # a near-miss forgery: one flipped digest bit
                expected[rng.randrange(32)] ^= 1 << rng.randrange(8)
            job = CampaignJob(
                source=source,
                function="boot_check",
                args=(),
                config=CompileConfig(scheme=scheme, target=target),
                attacks=attacks,
                initializers=(
                    ("msg", message.hex()),
                    ("msg_len", length.to_bytes(4, "little").hex()),
                    ("expected", bytes(expected).hex()),
                ),
                title=f"sha-tail/{tag_prefix}{len(jobs)}",
            )
            jobs.append(
                BenchJob(job, scheme, target, length, ACCEPT if accept else REJECT)
            )
    return jobs


_BUILDERS = {
    "decision-mix": _decision_jobs,
    "memcmp-sweep": _memcmp_jobs,
    "sha-tail": _sha_jobs,
}


def timed_rounds(workload: str, seed: int, seconds: int) -> list[list[list[BenchJob]]]:
    """The timed job list as ``ROUNDS`` rounds of ``SEGMENTS`` segments.

    Each round runs on its own freshly started service.  Every segment
    holds the same mix: each scheme x target's jobs are dealt, in size
    order, a block of one-per-segment at a time, so the per-segment
    rates and medians the run reports are comparable.  On decision-mix
    one entry in ``RESUBMIT_EVERY`` re-submits an earlier id of the same
    segment; ``resubmit_of`` indexes the round's flattened list."""
    rng = random.Random(f"{workload}/timed/{seed}")
    per_combo = job_count(workload, seconds) // len(combos())
    fresh = _BUILDERS[workload](rng, per_combo, f"s{seed}j")
    count = ROUNDS * SEGMENTS
    segments: list[list[BenchJob]] = [[] for _ in range(count)]
    for start in range(0, len(fresh), count):
        for segment, bench_job in zip(rng.sample(range(count), count),
                                      fresh[start : start + count]):
            segments[segment].append(bench_job)
    rounds = []
    for k in range(ROUNDS):
        offset = 0
        round_segments = []
        for jobs in segments[k * SEGMENTS : (k + 1) * SEGMENTS]:
            rng.shuffle(jobs)
            entries: list[BenchJob] = []
            for bench_job in jobs:
                if (workload == "decision-mix"
                        and len(entries) % RESUBMIT_EVERY == RESUBMIT_EVERY - 1):
                    index = rng.choice(
                        [i for i, e in enumerate(entries[: len(entries) - RESUBMIT_GAP + 1])
                         if e.resubmit_of is None]
                    )
                    entries.append(
                        dataclasses.replace(entries[index], resubmit_of=offset + index)
                    )
                entries.append(bench_job)
            round_segments.append(entries)
            offset += len(entries)
        rounds.append(round_segments)
    return rounds


def warmup_jobs(workload: str, seed: int) -> list[BenchJob]:
    """One job per scheme x target, the smallest of four drawn from a seed
    stream disjoint from the timed list's (the run checks that no id is
    shared): it loads every code path a job takes, at the least cost."""
    rng = random.Random(f"{workload}/warmup/{seed}")
    drawn = _BUILDERS[workload](rng, 4, f"w{seed}j")
    return [
        min((j for j in drawn if (j.scheme, j.target) == combo), key=lambda j: j.size)
        for combo in combos()
    ]


def check_sample(jobs: list[BenchJob], seed: int) -> list[BenchJob]:
    """One fresh job per scheme x target, picked by seed among that
    combination's cheapest shape -- smallest size, then accepting
    decisions -- so the sample's code size and golden cycles (and its cost
    on the slow reference engine) are the same for every seed."""
    rng = random.Random(f"check/{seed}")
    sample = []
    for combo in combos():
        pool = [j for j in jobs
                if j.resubmit_of is None and (j.scheme, j.target) == combo]
        cheapest = min((j.size, j.expected_exit) for j in pool)
        sample.append(rng.choice(
            sorted((j for j in pool if (j.size, j.expected_exit) == cheapest),
                   key=lambda j: j.job_id)
        ))
    return sample
