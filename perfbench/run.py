"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload resp-dpdk-sharded --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with every profiler and telemetry hub off; ``--trace 1`` runs
the nominal point again under cProfile and reports per-layer metrics,
writing per-request spans and the per-module profile under
``.perfbench-out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when any answer was wrong or the run could not start.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Run as a script, this file's own directory would shadow stdlib names.
if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
    sys.path.pop(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: no program source at %s" % src, file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import measure

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(sorted(workloads))),
              file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench-out")
    result = measure.run(args.workload, workloads[args.workload], args.seed,
                         args.seconds, bool(args.trace), out_dir)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
