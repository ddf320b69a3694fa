"""Rewrite pins.json from the current sources: python3 perfbench/pin.py

Run it only for a declared stream change (one that bumps FORMAT_VERSION) or
when a workload changes; the gate exists to catch every other change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import gate
import workloads

PIN_SEED = 0


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from remlab import cli

    pins = {"workloads": {}}
    for name in workloads.WORKLOADS:
        steps = workloads.steps(name)
        seeds = workloads.cli_seeds(steps, PIN_SEED)
        outputs = workloads.execute(steps, seeds, threads=len(os.sched_getaffinity(0)))
        pins["workloads"][name] = gate.make_pin(outputs, PIN_SEED, workloads.seeded(steps),
                                                cli.FORMAT_VERSION)
        print(f"pinned {name}", file=sys.stderr)
    with open(gate.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
