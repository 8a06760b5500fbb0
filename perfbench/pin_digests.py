"""Pin the output digests the benchmark checks, in ``perfbench/digests.json``.

Runs one untraced pass per workload and seed and records its digests::

    python3 perfbench/pin_digests.py 0 31                # seeds 0..31, every workload
    python3 perfbench/pin_digests.py 7 7 --workload traffic

Re-pin only in a change that means to alter the program's outputs; the diff
of ``digests.json`` then shows which outputs moved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    path = os.path.join(run.HERE, "digests.json")
    pinned = run.load_json(path)
    for workload in args.workload or sorted(workloads.WORKLOADS):
        entries = pinned.setdefault(workload, {})
        for seed in range(args.first, args.last + 1):
            result = run.run_child(workload, seed, False, run.TIME_LIMIT_S)
            if "error" in result:
                print(f"{workload} seed {seed}: {result['error']}", file=sys.stderr)
                return 1
            entries[str(seed)] = result["outputs"]
            print(f"{workload} seed {seed}: {result['outputs']}", flush=True)
        pinned[workload] = dict(sorted(entries.items(), key=lambda item: int(item[0])))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(pinned, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
