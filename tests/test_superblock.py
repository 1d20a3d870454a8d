"""The superblock engine's own contract: trace geometry, tiering,
deoptimisation boundaries, and observability.

:mod:`tests.test_engine_equivalence` proves the engine byte-identical to
the reference interpreter from the outside; this module pins the
*mechanism* — that traces actually close loops, that small workloads
stay on the cold decode-cache tier while hot code is compiled (once, and
safely under concurrent runners), that a trial forks, deoptimises while
its fault window is open, fires, and re-enters compiled dispatch, and
that the engine's obs counters account for exactly that.
"""

import pickle
import sys
import threading
from collections import OrderedDict

import pytest

from repro.analysis.table3 import table3_report
from repro.faults.models import (
    FlagFlip,
    InstructionSkip,
    RepeatedFlagFlip,
)
from repro.faults.scheduler import TrialScheduler
from repro.isa import superblock
from repro.isa.superblock import (
    UNBOUNDED,
    TraceTable,
    partition_image,
    superblock_tables,
)
from repro.minic.driver import compile_source
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import EngineProfiler
from repro.programs import load_source
from repro.toolchain import CompileConfig, Workbench
from tiers import forced


def _program(name="memcmp", scheme="ancode"):
    return compile_source(load_source(name), config=CompileConfig(scheme=scheme))


def _tier_state(program):
    """Partitions and trace tables the image holds."""
    cache = program.image._superblock_cache or {}
    partitions = [key for key in ("traces", "blocks") if key in cache]
    tables = [value for value in cache.values() if isinstance(value, TraceTable)]
    return partitions, tables


# ---------------------------------------------------------------------------
# Trace geometry
# ---------------------------------------------------------------------------
class TestPartition:
    def test_traces_close_loops(self):
        # memcmp's compare loop must become a looping trace (a back edge
        # to its own entry), not a chain of single-pass fragments — that
        # closure is where the engine's speedup lives.
        program = _program()
        partition = partition_image(program.image, traces=True)
        looping = [b for b in partition.blocks if b.loop or b.fall_loop]
        assert looping, "no looping trace found in a loop-heavy program"

    def test_basic_blocks_never_follow_branches(self):
        # The speculative variant partitions at every control transfer:
        # no loop closure, no followed Bcc arms.
        program = _program()
        partition = partition_image(program.image, traces=False)
        for block in partition.blocks:
            assert not block.loop and not block.fall_loop
            assert not block.taken

    def test_looping_traces_publish_unbounded_footprint(self, hot_tiers):
        # Phase-1 (windowed) stepping must never enter a looping trace:
        # its retired-instruction count is unknowable up front, so it
        # advertises an UNBOUNDED guard count.  Run once so the hot tier
        # promotes every trace the workload reaches, then inspect them.
        program = _program()
        cpu = program.prepare_cpu("run_memcmp", [8])
        assert cpu.run().ok
        table = superblock_tables(cpu)
        partition = partition_image(program.image, traces=True)
        saw_unbounded = False
        for block in partition.blocks:
            entry = table.compiled.get(block.addr)
            if entry is None:
                continue
            guard_count = entry[1]
            if block.loop:
                assert guard_count >= UNBOUNDED, hex(block.addr)
                saw_unbounded = True
        assert saw_unbounded

    def test_table_cache_is_not_pickled(self, hot_tiers):
        # The trace tables hold exec'd functions; the image must travel
        # to executor workers without them and rebuild lazily.
        program = _program()
        assert program.run("run_memcmp", [8]).ok
        assert _tier_state(program)[1]
        clone = pickle.loads(pickle.dumps(program.image))
        assert clone._superblock_cache is None
        # and the program still runs (rebuilding its own tables)
        program.image._superblock_cache = None
        result = program.run("run_memcmp", [8])
        assert result.ok


# ---------------------------------------------------------------------------
# Tiering
# ---------------------------------------------------------------------------
DECISION = """protect u32 check(u32 uid, u32 level, u32 res) {
    if (level < 5) {
        return 57005;
    }
    if (uid == 4321) {
        return 45063;
    }
    if (res > 30000) {
        return 57005;
    }
    return 45063;
}
"""


class TestTiers:
    @pytest.mark.parametrize("target", ["baseline", "rv32"])
    def test_decision_sized_campaign_stays_cold(self, target):
        # The largest protected decision a served decision-mix job
        # carries (three comparisons, the AN-code scheme), swept by the
        # canonical Table III attacks at the default constants: the
        # image never warms up, so it is never partitioned and nothing
        # is compiled.
        program = compile_source(
            DECISION, config=CompileConfig(scheme="ancode", target=target)
        )
        report = table3_report(program, "check", [1, 6, 40000])
        assert sum(result.trials for result in report.attacks.values()) > 50
        assert _tier_state(program) == ([], [])
        stats = program.trial_scheduler("check", [1, 6, 40000]).stats
        assert stats.superblock_blocks == 0
        assert stats.superblock_deopt_steps == 0

    def test_long_run_tiers_up_part_way(self):
        # One run far longer than the warm-up starts cold and compiles
        # its hot loop part-way through, at the default constants.
        source = """u32 sum(u32 n) {
            u32 s = 0;
            for (u32 i = 0; i < n; i += 1) {
                s += i;
            }
            return s;
        }"""
        program = compile_source(source, config=CompileConfig(scheme="none"))
        cpu = program.prepare_cpu("sum", [20_000])
        result = cpu.run()
        assert result.instructions > 2 * superblock.WARMUP_STEPS
        assert result == program.run("sum", [20_000], dispatch="reference")
        assert cpu._sb_blocks > 0
        assert cpu._sb_steps < result.instructions // 2

    def test_hot_tier_compiles_only_visited_traces(self, hot_tiers):
        # Promotion is per trace: the branch of the decision that never
        # runs is partitioned but never compiled.
        program = compile_source(DECISION, config=CompileConfig(scheme="none"))
        cpu = program.prepare_cpu("check", [1, 0, 1])
        assert cpu.run().ok
        table = superblock_tables(cpu)
        assert table.compiled
        assert table.pending, "every trace was compiled"

    def test_double_promotion_is_idempotent(self, hot_tiers, monkeypatch):
        # Two runner threads can both see a head as pending and both
        # promote it.  Replay that interleaving deterministically: while
        # the first promotion generates its source, a second one runs to
        # completion.  Neither may fail, and both must yield the same
        # entry (the compiled-code memo hands back one function).
        program = _program()
        cpu = program.prepare_cpu("run_memcmp", [8])
        table = superblock_tables(cpu)
        pc = next(iter(table.pending))
        generate = superblock._trace_source
        inner = []

        def racing_source(*args):
            if not inner:
                inner.append(None)
                inner[0] = table.visit(pc, cpu)  # the other thread
            return generate(*args)

        monkeypatch.setattr(superblock, "_trace_source", racing_source)
        outer = table.visit(pc, cpu)
        assert inner[0] is not None
        assert outer == inner[0]
        assert pc not in table.pending
        assert table.visit(pc, cpu) == outer

    def test_runner_threads_share_one_image(self, hot_tiers):
        # More runner threads than cores promote the shared image's
        # traces concurrently, switching every few bytecodes: every trial
        # result must still equal a single-threaded cold run's, and every
        # promoted head must have left the pending set.
        program = _program()
        args = [32]
        total = program.trial_scheduler("run_memcmp", args).golden.instructions
        models = [InstructionSkip(i) for i in range(1, total + 1, 9)]
        with forced("cold", program):
            expected = [
                TrialScheduler(program, "run_memcmp", args).run_trial(m)
                for m in models
            ]
        program.image._superblock_cache = None
        runners = 4
        barrier = threading.Barrier(runners)
        results, errors = {}, []

        def runner(name):
            try:
                scheduler = TrialScheduler(program, "run_memcmp", args)
                barrier.wait()
                results[name] = [scheduler.run_trial(m) for m in models]
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(n,)) for n in range(runners)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(results[n] == expected for n in range(runners))
        table = _tier_state(program)[1][0]
        assert table.compiled
        assert not table.compiled.keys() & table.pending.keys()

    def test_compiled_code_is_shared_across_initializers(self, hot_tiers):
        # Data initializers change the image's bytes, not its code: two
        # such programs get the very same compiled trace functions.
        workbench = Workbench()
        source = load_source("memcmp")
        config = CompileConfig(scheme="ancode")
        tables = []
        for fill in (b"\x11", b"\x22"):
            program = workbench.compile(
                source, config, initializers={"cmp_a": fill * 128}
            )
            cpu = program.prepare_cpu("run_memcmp", [16])
            cpu.run()
            tables.append(superblock_tables(cpu))
        first, second = tables
        assert first is not second
        shared = first.compiled.keys() & second.compiled.keys()
        assert shared
        for pc in shared:
            assert first.compiled[pc][0] is second.compiled[pc][0]

    def test_compiled_code_memo_is_bounded(self, hot_tiers, monkeypatch):
        monkeypatch.setattr(superblock, "_CODE", OrderedDict())
        monkeypatch.setattr(superblock, "CODE_CACHE_SIZE", 3)
        program = _program()
        cpu = program.prepare_cpu("run_memcmp", [8])
        assert cpu.run().ok
        assert len(superblock_tables(cpu).compiled) > 3
        assert len(superblock._CODE) == 3


# ---------------------------------------------------------------------------
# Deoptimisation boundaries
# ---------------------------------------------------------------------------
def _cold_and_hot(program, function, args, model):
    """``model``'s trial on the cold tier (the former fork engine's
    stepping) and on the hot tier, with each scheduler's stats."""
    out = []
    for tier in ("cold", "hot"):
        with forced(tier, program):
            scheduler = TrialScheduler(program, function, args)
            out.append((scheduler.run_trial(model), scheduler.stats))
    return out


class TestDeoptBoundary:
    def test_fork_deopt_fire_reenter(self):
        # The canonical trial shape: fork from a checkpoint, single-step
        # while the fault window is open, fire, then re-enter compiled
        # dispatch for the suffix.  Both tiers must agree on the full
        # ExecutionResult — cycles included — and the hot tier's stats
        # must show both compiled blocks *and* deopt steps.
        program = _program()
        total = program.trial_scheduler("run_memcmp", [16]).golden.instructions
        model = InstructionSkip(total // 2)
        (expected, cold), (result, hot) = _cold_and_hot(
            program, "run_memcmp", [16], model
        )
        assert result == expected
        # The tier-independent obs counters move identically...
        shared = ("trials", "forked", "short_circuited",
                  "simulated_instructions", "simulated_cycles")
        assert {f: getattr(cold, f) for f in shared} == {
            f: getattr(hot, f) for f in shared
        }
        # ...and the superblock-specific ones show the deopt round trip.
        assert cold.superblock_blocks == cold.superblock_deopt_steps == 0
        assert hot.superblock_blocks > 0, "never re-entered traces"
        assert hot.superblock_deopt_steps > 0, "never deoptimised"

    def test_windowed_trial_steps_only_near_the_window(self, hot_tiers):
        # A one-instruction window deep in the run must not force
        # stepping for the whole trial: the deopt steps for that trial
        # stay well under the golden instruction count.
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [32])
        total = scheduler.golden.instructions
        steps0 = scheduler.stats.superblock_deopt_steps
        scheduler.run_trial(InstructionSkip(total - 5))
        stepped = scheduler.stats.superblock_deopt_steps - steps0
        assert 0 < stepped < total // 2

    def test_unbounded_hook_falls_back_entirely(self):
        # RepeatedFlagFlip carries no fire window; the hot tier must run
        # the whole trial on the hooked step loop (no compiled blocks)
        # and still match the cold tier exactly.
        program = _program()
        (expected, _), (result, hot) = _cold_and_hot(
            program, "run_memcmp", [16], RepeatedFlagFlip("z")
        )
        assert result == expected
        assert hot.superblock_blocks == 0

    @pytest.mark.parametrize("scheme", ["none", "ancode", "duplication"])
    def test_cycle_exact_across_trial_zoo(self, scheme):
        # Cycle accounting is part of the trial contract (timeout
        # classification depends on it): windowed and unbounded models,
        # early and late windows.
        program = _program(scheme=scheme)
        total = program.trial_scheduler("run_memcmp", [16]).golden.instructions
        zoo = [
            InstructionSkip(1),
            InstructionSkip(total // 3),
            InstructionSkip(total),
            FlagFlip("z", 1),
            FlagFlip("c", 2),
            RepeatedFlagFlip("z"),
        ]
        for tier in ("cold", "hot"):
            with forced(tier, program):
                scheduler = TrialScheduler(program, "run_memcmp", [16])
                results = [scheduler.run_trial(model) for model in zoo]
            if tier == "cold":
                expected = results
        for model, want, got in zip(zoo, expected, results):
            assert got == want, f"{scheme}/{model}"
            assert got.cycles == want.cycles

    def test_timeout_boundary_sweep(self):
        # Exact timeout behaviour: for every max_cycles cutoff, the hot
        # tier must stop at the same instruction with the same status as
        # the cold step loop (the back-edge budget guard and the entry
        # guard both matter here).
        program = _program(scheme="ancode")
        full = program.run("run_memcmp", [8])
        cutoffs = range(0, full.cycles + 2, 7)
        runs = {}
        for tier in ("cold", "hot"):
            with forced(tier, program):
                runs[tier] = [
                    program.run("run_memcmp", [8], max_cycles)
                    for max_cycles in cutoffs
                ]
        for max_cycles, cold, hot in zip(cutoffs, runs["cold"], runs["hot"]):
            assert cold == hot, f"max_cycles={max_cycles}"


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
class TestObsCounters:
    def test_scheduler_stats_reach_the_registry(self, hot_tiers):
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        total = scheduler.golden.instructions
        for occurrence in (1, total // 2, total):
            scheduler.run_trial(InstructionSkip(occurrence))
        profiler = EngineProfiler(MetricsRegistry())
        profiler.sample_scheduler(scheduler)
        registry = profiler.registry
        blocks = registry.counter("repro_engine_superblock_blocks_total").value
        steps = registry.counter(
            "repro_engine_superblock_deopt_steps_total"
        ).value
        assert blocks == scheduler.stats.superblock_blocks > 0
        assert steps == scheduler.stats.superblock_deopt_steps > 0

    def test_cold_tier_reports_no_superblock_activity(self, cold_tiers):
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        scheduler.run_trial(InstructionSkip(3))
        assert scheduler.stats.superblock_blocks == 0
        assert scheduler.stats.superblock_deopt_steps == 0
