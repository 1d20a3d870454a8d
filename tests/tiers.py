"""Tier control for the superblock engine's tests.

The production engine promotes code by measured heat (see
:mod:`repro.isa.superblock`): small workloads never leave the cold
decode-cache loops, so the compiled-trace tier is only exercised when a
test forces it.  :func:`forced` runs a block under one of three promotion
policies, on images whose tier state starts empty:

* ``"default"`` — the production constants,
* ``"hot"`` — every image warm at once, every trace compiled on its first
  visit,
* ``"cold"`` — promotion unreachable: the former fork engine's stepping.
"""

from contextlib import contextmanager

from repro.isa import superblock

#: the tiers every equivalence oracle runs production under
TIERS = ("default", "hot")

_CONSTANTS = {
    "default": (superblock.WARMUP_STEPS, superblock.HOT_STEPS),
    "hot": (0, 0),
    "cold": (1 << 62, 1 << 62),
}


@contextmanager
def forced(tier: str, *programs):
    """Promotion constants of ``tier`` for the body; the tier state of
    ``programs`` (partitions, trace tables, memoized trial schedulers and
    their CPUs) is dropped first, so it is built under those constants."""
    saved = superblock.WARMUP_STEPS, superblock.HOT_STEPS
    superblock.WARMUP_STEPS, superblock.HOT_STEPS = _CONSTANTS[tier]
    for program in programs:
        program.image._superblock_cache = None
        program._schedulers.clear()
    try:
        yield
    finally:
        superblock.WARMUP_STEPS, superblock.HOT_STEPS = saved
