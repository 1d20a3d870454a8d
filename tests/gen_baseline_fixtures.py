"""Regenerate the pre-refactor baseline-target golden fixtures.

The byte-identity pin in ``tests/test_engine_equivalence.py`` compares
golden runs and quick-suite campaign reports for every device program x
Table III scheme against the JSON files under ``tests/fixtures/``.  The
fixtures were captured from the tree *before* the ``repro.target``
refactor landed, so any drift means the refactor changed observable
behaviour for the existing machine.

Regenerate (only when a deliberate, reviewed behaviour change lands)::

    PYTHONPATH=src:. python tests/gen_baseline_fixtures.py

The capture itself is pure: fixed workloads, the deterministic
production engine, and canonical (sorted-key) JSON.
"""

from __future__ import annotations

import json
import os

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

#: (fixture name, program loader key, function, args) — the five device
#: programs.  ``None`` loader keys are built by the helpers below.
WORKLOADS = (
    ("integer_compare", "integer_compare", [7, 7]),
    ("memcmp", "run_memcmp", [16]),
    ("sha256", "run_sha", [0]),
    ("ecverify", "run_modmul", [999999, 123456]),
    ("bootloader", "bootloader_main", []),
)


def _programs(scheme):
    """name -> compiled program for one Table III scheme."""
    from repro.backend import compile_ir
    from repro.crypto import build_signed_image
    from repro.crypto.image import bootloader_params, prepare_bootloader_module
    from repro.minic import parse_to_ir
    from repro.minic.driver import compile_source
    from repro.programs import load_source
    from repro.toolchain import CompileConfig

    sha_driver = """
    u8 msg[256];
    u32 msg_len = 0;
    u32 digest[8];
    u32 run_sha(u32 word_index) {
        sha256(&msg[0], msg_len, &digest[0]);
        return digest[word_index];
    }
    """
    ec_driver = "u32 run_modmul(u32 a, u32 b) { return modmul(a, b, CURVE_P); }"

    sha_module = parse_to_ir(load_source("sha256") + sha_driver, "sha")
    sha_module.globals["msg"].initializer = b"abc"
    sha_module.globals["msg_len"].initializer = (3).to_bytes(4, "little")

    boot_image = build_signed_image(b"FW-FIXTURE-PIN-1" * 4)  # 64 bytes
    return {
        "integer_compare": compile_source(
            load_source("integer_compare"), config=CompileConfig(scheme=scheme)
        ),
        "memcmp": compile_source(
            load_source("memcmp"), config=CompileConfig(scheme=scheme)
        ),
        "sha256": compile_ir(sha_module, config=CompileConfig(scheme=scheme)),
        "ecverify": compile_ir(
            parse_to_ir(load_source("ecverify") + ec_driver, "ec"),
            config=CompileConfig(scheme=scheme),
        ),
        "bootloader": compile_ir(
            prepare_bootloader_module(boot_image),
            config=CompileConfig(scheme=scheme, params=bootloader_params()),
        ),
    }


def result_to_dict(result) -> dict:
    """Canonical dict of an ExecutionResult (spec is always None here)."""
    return {
        "status": result.status.value,
        "exit_code": result.exit_code,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "detect_code": result.detect_code,
        "console": list(result.console),
    }


def capture_workload(program, function, args) -> dict:
    """Golden run + quick-suite reports for one (program, workload)."""
    from repro.faults.isa_campaign import branch_flip_sweep, repeated_branch_flip
    from repro.service.jobs import attack_result_to_dict

    golden = program.run(function, args, max_cycles=30_000_000)
    flips = branch_flip_sweep(program, function, args, max_branches=8)
    repeated = repeated_branch_flip(program, function, args)
    return {
        "golden": result_to_dict(golden),
        "attacks": {
            flips.attack: attack_result_to_dict(flips),
            repeated.attack: attack_result_to_dict(repeated),
        },
    }


def capture_all() -> dict:
    from repro.toolchain import table3_schemes

    fixture: dict = {}
    for scheme in table3_schemes():
        programs = _programs(scheme)
        for name, function, args in WORKLOADS:
            fixture.setdefault(name, {})[scheme] = capture_workload(
                programs[name], function, args
            )
    return fixture


def main() -> None:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    fixture = capture_all()
    for name, per_scheme in fixture.items():
        path = os.path.join(FIXTURE_DIR, f"baseline_{name}.json")
        with open(path, "w") as fh:
            json.dump(per_scheme, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
