"""The repo benchmark: the paper's own experiments, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload discovery --seed 7 --seconds 30 --trace 0

Workloads: ``discovery``, ``maintenance``, ``traffic``, ``large-population``
(see ``perfbench/README.md`` for why each exists).  With ``--trace 0`` the
workload runs pass after pass, each in a fresh interpreter, for as many
whole passes as fit in ``--seconds`` (at least two, so set-up is always
timed more than once), and the end-to-end metrics are medians over the
passes.  With ``--trace 1`` one untraced pass and one traced pass run, and
the per-layer metrics come from the traced one; their wall-clock difference
is the tracing overhead.

Every pass's output digests are checked against the digests pinned in
``perfbench/digests.json`` for that seed (for a seed with no pinned entry,
against the first pass).  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` work units, and
``metrics``.  Without the program's sources (``src/repro``) the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

#: Hard ceiling on one benchmark run, under the 180 s every run must meet.
TIME_LIMIT_S = 170.0
#: Fewest timed passes per run, even when they overrun ``--seconds``.
MIN_PASSES = 2


def load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def machine_facts() -> Dict[str, Any]:
    """Context for a result set; never compared."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast this machine is right now."""
    started = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value * value % 7
    return time.perf_counter() - started


def run_child(workload: str, seed: int, trace: bool, timeout: float) -> Dict[str, Any]:
    """One pass in a fresh interpreter; ``{"error": ...}`` when it fails."""
    command = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        workload,
        str(seed),
        "1" if trace else "0",
    ]
    # The pass must see the program's defaults, not a caller's overrides.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    try:
        process = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s"}
    if process.returncode != 0:
        tail = process.stderr.strip().splitlines()[-3:]
        return {"error": f"pass exited with {process.returncode}: " + " | ".join(tail)}
    try:
        return json.loads(process.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "pass printed no result"}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> List[Dict[str, Any]]:
    """The passes of one run: timed passes filling *seconds*, or the traced pair."""
    started = time.monotonic()

    def remaining() -> float:
        return max(1.0, TIME_LIMIT_S - (time.monotonic() - started))

    if trace:
        untraced = run_child(workload, seed, False, remaining())
        return [untraced, run_child(workload, seed, True, remaining())]
    passes: List[Dict[str, Any]] = []
    while True:
        passes.append(run_child(workload, seed, False, remaining()))
        if "error" in passes[-1]:
            break
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
    return passes


def check_outputs(
    passes: List[Dict[str, Any]], pinned: Optional[Dict[str, str]], units_per_pass: int
) -> Dict[str, Any]:
    """Count attempted and failed work units over *passes*.

    A pass that raised, or whose outputs differ from the pinned digests (or,
    with none pinned, from the first good pass), fails all of its units;
    otherwise its failed sweep tasks fail.
    """
    reference = pinned
    if reference is None:
        reference = next((p["outputs"] for p in passes if "error" not in p), None)
    failed = 0
    problems = []
    for index, result in enumerate(passes):
        if "error" in result:
            failed += units_per_pass
            problems.append(f"pass {index}: {result['error']}")
        elif result["outputs"] != reference:
            failed += units_per_pass
            wrong = sorted(
                part
                for part in set(result["outputs"]) | set(reference)
                if result["outputs"].get(part) != reference.get(part)
            )
            problems.append(f"pass {index}: digest mismatch in {', '.join(wrong)}")
        else:
            failed += result["failed_units"]
    attempted = units_per_pass * len(passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
    }


def end_to_end(passes: List[Dict[str, Any]], specs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median of each end-to-end metric over the good passes."""
    good = [result for result in passes if "error" not in result]
    return {
        spec["name"]: {
            "value": statistics.median(result[spec["name"]] for result in good),
            "unit": spec["unit"],
        }
        for spec in specs
    }


def per_layer(passes: List[Dict[str, Any]], specs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The per-layer metrics of the traced pass, plus tracing overhead and coverage."""
    untraced, traced = passes
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    layers["trace.coverage"] = traced["top_level_s"] / traced["wall_s"]
    return {spec["name"]: {"value": layers[spec["name"]], "unit": spec["unit"]} for spec in specs}


def describe(passes: List[Dict[str, Any]], trace: bool) -> List[str]:
    """Human-readable lines printed above the result."""
    lines = []
    for index, result in enumerate(passes):
        if "error" in result:
            lines.append(f"pass {index}: FAILED {result['error']}")
            continue
        lines.append(
            f"pass {index}: wall {result['wall_s']:.3f} s, setup {result['setup_s']:.3f} s, "
            f"{result['units_per_s']:.4g} units/s, peak {result['peak_rss_mb']:.1f} MB"
            + (" (traced)" if "layers" in result else "")
        )
    if trace and len(passes) == 2 and "spans" in passes[1]:
        traced = passes[1]
        lines.append(f"{'span':32} {'calls':>8} {'total s':>9} {'self s':>9}")
        rows = sorted(traced["spans"].items(), key=lambda item: -item[1]["self"])
        for name, row in rows:
            lines.append(f"{name:32} {row['calls']:8d} {row['total']:9.3f} {row['self']:9.3f}")
        if traced["missing"]:
            lines.append("entry points not found: " + ", ".join(traced["missing"]))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {workloads.SRC}", file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pinned = load_json(os.path.join(HERE, "digests.json")).get(args.workload, {}).get(str(args.seed))
    trace = args.trace == 1

    facts = machine_facts()
    print(
        f"machine: {facts['nproc']} cpus, {facts['cpu']}, python {facts['python']}, "
        f"numpy {facts['numpy']}; calibration loop {calibrate():.4f} s"
    )
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    passes = measure(args.workload, args.seed, args.seconds, trace)
    for line in describe(passes, trace):
        print(line)
    check = check_outputs(passes, pinned, workloads.WORKLOADS[args.workload][2])
    for problem in check["problems"]:
        print(f"INCORRECT {problem}")
    if pinned is None:
        print(f"no digests pinned for seed {args.seed}: passes checked against each other")
    if any("error" in result for result in passes) and trace:
        print("error: the traced pair did not complete", file=sys.stderr)
        return 1
    if all("error" in result for result in passes):
        print("error: no pass completed", file=sys.stderr)
        return 1
    if trace:
        metrics = per_layer(passes, spec["per_layer"])
    else:
        metrics = end_to_end(passes, spec["end_to_end"])
    for name, metric in metrics.items():
        print(f"{name:34} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        # Context, not a gated metric: see perfbench/README.md.
        rate = statistics.median(p["units_per_s"] for p in passes if "error" not in p)
        print(f"{'units_per_s (context)':34} {rate:>16.6g} 1/s")
    print(f"{'error_rate':34} {check['error_rate']:>16.6g} failed/attempted units")
    print(
        json.dumps(
            {
                "correct": check["correct"],
                "attempted": check["attempted"],
                "failed": check["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
