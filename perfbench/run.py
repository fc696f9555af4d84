"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from
``src/`` as it stands; nothing in it is modified.  ``--trace 0``
measures the end-to-end metrics with nothing wrapped.  ``--trace 1``
runs the same procedure twice, untraced and then with every layer
wrapped (:mod:`instrument`), and reports the per-layer metrics plus the
tracing overhead of each end-to-end metric.  The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``;
the full document, with the host and configuration record, is printed
before it and written under ``.perfbench_run/``.  The exit code is
0 only when every request succeeded and every checked answer matched
the BFS oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import metrics

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    run_dir = os.path.join(
        ".perfbench_run",
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        doc = harness.run(args.workload, args.seed, args.seconds,
                          bool(args.trace), run_dir)
    finally:
        for entry in os.listdir(run_dir):
            os.unlink(os.path.join(run_dir, entry))
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    for line in metrics.report_lines(doc):
        print(line)
    print(json.dumps(doc, sort_keys=True))
    print(json.dumps(doc["result"]))
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
