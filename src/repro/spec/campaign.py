"""The ``speculative`` attack suite.

Answers the tentpole question end-to-end: take a program protected by one
of the Table III schemes, fire predictor-targeted faults
(:class:`~repro.faults.models.PredictorFlip` occurrence sweeps and/or
:class:`~repro.faults.models.HistoryPoison` BHB aliasing) at its
conditional branches, and classify what survives the squash.  A scheme
whose architectural verdict is MASKED/DETECTED but whose transient-trace
digest moved is reported as :data:`~repro.faults.classify.Outcome.
TRANSIENT_LEAK` — the protected branch decision escaped through the
wrong path's memory accesses even though the fault never architecturally
landed.

The suite takes JSON primitives only, so it registers in the service's
``ATTACK_SUITES`` and serialises through campaign jobs unchanged;
``CampaignBuilder.speculative(...)`` is the workbench sugar.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.faults.isa_campaign import AttackResult, run_attack
from repro.faults.models import HistoryPoison, PredictorFlip
from repro.faults.scheduler import TrialScheduler
from repro.spec.config import SpecConfig

#: Fault kinds the suite can sweep.
SPECULATIVE_KINDS = ("predictor-flip", "history-poison")


def speculative_sweep(
    program,
    function: str,
    args: Sequence[int],
    window: int = 8,
    predictor: str = "twobit",
    max_branches: int = 64,
    kinds: Sequence[str] = ("predictor-flip",),
    poison_patterns: Sequence[int] = (0b1010,),
    focus: Optional[str] = None,
    table_size: int = 64,
    history_bits: int = 4,
    penalty: Optional[int] = None,
    max_cycles: int = 2_000_000,
    executor=None,
    record_trials: bool = False,
) -> AttackResult:
    """Sweep predictor-targeted faults over a workload's branches.

    One trial per (kind, branch occurrence[, poison pattern]): the
    ``n``-th golden conditional branch gets its prediction inverted
    (``"predictor-flip"``) or the global history register overwritten
    with each ``poison_patterns`` entry just before it resolves
    (``"history-poison"`` — pair it with ``predictor="gshare"``; it is a
    no-op on history-free predictors).

    ``focus`` restricts the sweep to branches inside the named function's
    code range — e.g. the signature check of a bootloader whose run
    retires thousands of branches elsewhere.  Without ``focus`` the first
    ``max_branches`` golden branch occurrences are swept; with it, the
    first ``max_branches`` occurrences *inside the range*.
    """
    spec = SpecConfig(
        window=window,
        predictor=predictor,
        table_size=table_size,
        history_bits=history_bits,
        penalty=penalty,
    )
    for kind in kinds:
        if kind not in SPECULATIVE_KINDS:
            raise ValueError(
                f"unknown speculative fault kind {kind!r}; "
                f"known: {list(SPECULATIVE_KINDS)}"
            )
    if focus is not None:
        # Resolve which branch occurrences land in the focus function —
        # from the same memoized golden run the trials (and the trial
        # records) will use.
        lo, hi = program.image.function_ranges[focus]
        trace = TrialScheduler.for_program(
            program, function, list(args), spec=spec
        ).trace
        occurrences = [
            occurrence
            for occurrence, addr in enumerate(trace.bcc_addrs, start=1)
            if lo <= addr < hi
        ][:max_branches]
    else:
        occurrences = list(range(1, max_branches + 1))
    models = []
    for kind in kinds:
        if kind == "predictor-flip":
            models.extend(PredictorFlip(n) for n in occurrences)
        else:
            models.extend(
                HistoryPoison(n, pattern)
                for n in occurrences
                for pattern in poison_patterns
            )
    return run_attack(
        program,
        function,
        list(args),
        models,
        speculative_sweep.attack_label,
        max_cycles=max_cycles,
        executor=executor,
        record_trials=record_trials,
        spec=spec,
    )


speculative_sweep.attack_label = "speculative"
