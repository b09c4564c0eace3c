"""Benchmark of the youngwalls CLI, one workload per run.

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # every workload in turn

Each workload runs in its own child process (``worker.py``).  With
``--trace 0`` a run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced chunks of work, each paired with the same chunk
run untraced, which is never wrapped.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import OUT, WORKLOADS  # noqa: E402

#: Set-up is measured this many times per run (the workload's own process
#: included) and reported as the median.
SETUP_SAMPLES = 5
#: A set-up-only child that runs longer than this is killed.
SETUP_TIMEOUT_S = 30

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: Unit of every metric, end to end and per layer.
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class WorkerError(RuntimeError):
    pass


def child_timeout(seconds: int) -> float:
    """Seconds a workload's child may take: set-up, warm-up (one long pass
    of up to ``seconds``), and timed passes that may overrun ``seconds``."""
    return 30 + 6 * seconds


def spawn(argv: list[str], timeout: float) -> tuple[tuple[float, float], str]:
    """Run the worker; returns the scaled and the raw set-up time it
    reported with ``ready``, and the rest of its stdout."""
    cmd = [sys.executable, str(HERE / "worker.py")] + argv
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(argv)} ran longer than {timeout} s")
    first, _, rest = proc.stdout.partition("\n")
    words = first.split()
    if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
        raise WorkerError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return (float(words[1]), float(words[2])), rest


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    argv = ["--workload", workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [spawn(argv + ["--setup-only"], SETUP_TIMEOUT_S)[0] for _ in range(probes)]
    setup, rest = spawn(argv + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        child_timeout(args.seconds))
    setups.append(setup)
    if not rest.strip():
        raise WorkerError(f"worker {' '.join(argv)} printed no result")
    result = json.loads(rest.splitlines()[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": statistics.median(s for s, _ in setups),
                             **result["metrics"]}
        result["meta"]["unscaled"]["setup_s"] = statistics.median(r for _, r in setups)
    result["meta"]["setup_samples_s"] = [s for s, _ in setups]
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(workload: str, result: dict) -> None:
    meta = result["meta"]
    print(f"== {workload} seed={meta['seed']} trace={meta['trace']} "
          f"passes={meta['passes']} queries={meta['query_samples']} "
          f"beyond_p99={meta['samples_beyond_p99']}")
    for name, value in result["metrics"].items():
        print(f"  {name:52s} {value:>14.6g} {UNITS[name]}")
    print(f"  {'error_rate':52s} {meta['error_rate']:>14.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations failed)")
    print("meta " + json.dumps(meta, sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(args, workload)
            report(workload, results[workload])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for workload, result in results.items():
        prefix = f"{workload}/" if args.workload == "all" else ""
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": UNITS[name]}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
