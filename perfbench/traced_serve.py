"""Run ``python -m repro.service serve`` with the layer probes installed.

Usage: ``python perfbench/traced_serve.py --port 0 --db STORE`` (the
same flags as ``serve``).  The probed spans are written next to the
store, to ``STORE.spans.json``, when the service stops.
"""

import sys

import layers


def main(argv: list[str]) -> int:
    from repro.service.cli import main as service_main

    db = argv[argv.index("--db") + 1]
    layers.install()
    try:
        return service_main(["serve", *argv])
    finally:
        layers.dump(db + ".spans.json")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
