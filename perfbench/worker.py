"""One measurement of one workload, in a fresh interpreter.

Usage: ``worker.py <workload> <seed> <spawn-ns> plain|profile``, where
``spawn-ns`` is the parent's ``CLOCK_MONOTONIC`` reading just before it
started this interpreter, so ``setup_s`` includes start-up and imports.
Prints one JSON object on its last line. ``profile`` runs the timed
section under cProfile and adds the layer split; it is never used for the
end-to-end numbers.
"""

import json
import sys
from pathlib import Path


def main(argv) -> None:
    name, seed, spawn_ns, mode = argv[1], int(argv[2]), int(argv[3]), argv[4]
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import workloads

    report = workloads.measure(workloads.WORKLOADS[name], seed, profile=mode == "profile")
    report["setup_s"] = (report.pop("setup_end_ns") - spawn_ns) / 1e9
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv)
