"""Run one workload in this process: set up, warm up, time passes, check outputs.

``run.py`` starts this script once per workload, so peak memory and warm-up
belong to one workload alone.  It prints ``ready <setup_s> <raw setup_s>``
once set-up is done (``speed.py`` explains the scaling), then one JSON line
with the result.  With ``--setup-only`` it stops after ``ready``.
"""

# Set-up is timed from here, the first statement, so that it covers the
# imports below, the input generation and the loading of the expected outputs.
import time

STARTED = time.perf_counter()

import argparse
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import queries
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
OUT = HERE / "out"

EULER_DEGREE = 500
#: The argv lists of one pass of each `verify` workload.
VERIFY = {
    "verify-default": [["verify"]],
    "verify-deep": [["verify", "--n-range", "2..5", "--max-m", "40"]],
    "euler-deep": [["verify", "--checks", "euler", "--degree", str(EULER_DEGREE // 2)],
                   ["verify", "--checks", "euler", "--degree", str(EULER_DEGREE)]],
}
WORKLOADS = tuple(VERIFY) + ("query-mix",)
#: The query-mix seed whose per-query stdout digests are committed.
DEFAULT_SEED = 0
#: Untimed passes run for at least this long (and at least one pass).
WARMUP_S = 2.0
#: A traced run times at least this many traced and untraced passes each.
MIN_TRACED_PASSES = 2
#: Queries run back to back in one mode, untraced or traced, on query-mix.
TRACE_CHUNK = 50
#: What reading a wrong-shaped stdout can raise; it counts as a failure.
MALFORMED = (ValueError, KeyError, IndexError, TypeError)


def load_program():
    """Import ``youngwalls.cli`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import youngwalls.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import youngwalls from {SRC}: {exc}")
    where = Path(youngwalls.cli.__file__).resolve().parent
    if where != (SRC / "youngwalls").resolve():
        raise SystemExit(f"youngwalls was imported from {where}, not from {SRC}")
    return youngwalls.cli


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def batch_digest(batch: list[dict]) -> str:
    return digest(json.dumps([q["argv"] for q in batch]))


def invoke(cli, argv: list[str]) -> tuple[object, str]:
    """Run the CLI in-process; returns (exit code or error, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed operation, not fatal
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


class Workload:
    """The operations of one pass and the checks on their outputs."""

    def __init__(self, cli, name: str, seed: int, digests: bool = True):
        """``digests`` False checks query-mix without its committed digests."""
        self.name = name
        self.invoke = functools.partial(invoke, cli)
        self.probe = speed.Probe()
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.reference: list[str | None] | None = None
        if name in VERIFY:
            self.ops = [{"argv": argv} for argv in VERIFY[name]]
            runs = json.loads((EXPECTED / "verify.json").read_text())[name]
            if len(runs) != len(self.ops):
                raise SystemExit(f"{EXPECTED}/verify.json has {len(runs)} "
                                 f"outputs for {name}, need {len(self.ops)}")
            for lines in runs:
                if not lines or not all(line.startswith("PASS ") for line in lines):
                    raise SystemExit(f"expected output of {name} is not all PASS")
            self.expected = ["".join(line + "\n" for line in lines) for lines in runs]
        else:
            self.ops = queries.generate(seed)
            self.expected = None
            if seed == DEFAULT_SEED and digests:
                saved = json.loads((EXPECTED / f"query-mix-seed{seed}.json").read_text())
                if saved["batch"] != batch_digest(self.ops):
                    raise SystemExit("query-mix batch differs from the one "
                                     "whose digests are committed")
                self.expected = saved["stdout"]

    def run_ops(self, ops: list[dict]) -> tuple[list[tuple[object, str]], list[float]]:
        """Run operations back to back; returns their outputs and latencies,
        less the time of speed samples taken meanwhile."""
        clock, probe = time.perf_counter, self.probe
        outputs, latencies = [], []
        for op in ops:
            stolen, t0 = probe.stolen, clock()
            outputs.append(self.invoke(op["argv"]))
            latencies.append(clock() - t0 - (probe.stolen - stolen))
        return outputs, latencies

    def run_pass(self) -> tuple[float, list[float]]:
        """One timed pass; returns its duration and per-operation latencies."""
        stolen, start = self.probe.stolen, time.perf_counter()
        outputs, latencies = self.run_ops(self.ops)
        duration = time.perf_counter() - start - (self.probe.stolen - stolen)
        self.check(outputs)
        return duration, latencies

    def _fail(self, op: dict, problems: list[str]) -> None:
        """Count one failed operation; keep the first few reasons."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{' '.join(op['argv'])}: {'; '.join(problems)}")

    def check(self, outputs: list[tuple[object, str]]) -> None:
        self.attempted += len(outputs)
        if self.name == "query-mix" and self.reference is None:
            self.reference = self._check_queries(outputs)
            return
        wanted = self.expected if self.name in VERIFY else self.reference
        for op, (code, text), want in zip(self.ops, outputs, wanted):
            if code != 0:
                self._fail(op, [f"exit {code}"])
            elif text != want:
                self._fail(op, ["stdout differs from the "
                                + ("expected output" if self.name in VERIFY
                                   else "checked first pass")])

    def _check_queries(self, outputs: list[tuple[object, str]]) -> list[str | None]:
        """Check every query of the first pass on its own, and its digest at
        the default seed; later passes must repeat this pass byte for byte."""
        parsed: list[dict | None] = []
        problems: list[list[str]] = []
        counts: dict[tuple, list[int]] = {}
        for q, (code, text) in zip(self.ops, outputs):
            out, found = None, []
            if code != 0:
                found.append(f"exit {code}")
            else:
                try:
                    out = queries.parse(q, text)
                    key = (q.get("set"), q.get("n"))
                    if q["kind"] == "count" and len(out["counts"]) > len(counts.get(key, ())):
                        counts[key] = out["counts"]
                except MALFORMED as exc:
                    out = None
                    found.append(f"malformed output ({exc!r})")
            parsed.append(out)
            problems.append(found)
        ref = queries.Reference(max(q.get(k, 0) for q in self.ops
                                    for k in ("m", "max_m", "degree")))
        reference = []
        for i, (q, out, found) in enumerate(zip(self.ops, parsed, problems)):
            text = outputs[i][1]
            if out is not None:
                try:
                    found += queries.check(q, out, ref, counts, self.invoke)
                except MALFORMED as exc:
                    found.append(f"malformed output ({exc!r})")
            if self.expected is not None and digest(text) != self.expected[i]:
                found.append("stdout digest differs from the committed one")
            if found:
                self._fail(q, found)
            # a wrong first output must not become the reference
            reference.append(None if found else text)
        return reference


def passes(work: Workload, budget: float):
    """Yield (duration, latencies) of passes until the next one would end
    past ``budget`` seconds; at least one."""
    start = time.perf_counter()
    while True:
        duration, latencies = work.run_pass()
        yield duration, latencies
        if time.perf_counter() - start + duration > budget:
            return


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def queries_of(work: Workload, durations, latencies) -> list[float]:
    """A query is one CLI call on query-mix and one pass otherwise."""
    return ([x for lat in latencies for x in lat] if work.name == "query-mix"
            else list(durations))


def end_to_end(work: Workload, durations, latencies, scale: float) -> dict:
    """The timings multiplied by ``scale`` (see ``speed.py``)."""
    taken = queries_of(work, durations, latencies)
    return {
        # The mean, not the median: pass times switch between a fast and a
        # slow level of the machine for seconds at a time, and the median
        # jumps with whichever level held most of a run.
        "wall_s": scale * statistics.fmean(durations),
        "queries_per_s": len(taken) / sum(durations) / scale,
        "query_p50_ms": scale * 1000 * statistics.median(taken),
        "query_p99_ms": scale * 1000 * percentile(taken, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def samples(work: Workload, durations, latencies) -> dict:
    """How many samples the timings rest on."""
    taken = queries_of(work, durations, latencies)
    p99 = percentile(taken, 99)
    return {"passes": len(durations), "query_samples": len(taken),
            "samples_beyond_p99": sum(t > p99 for t in taken)}


def growth_exp(work: Workload, latencies) -> float:
    """log2 t(D) / t(D/2) of the euler checks; 0 where one degree runs."""
    if work.name != "euler-deep":
        return 0.0
    half = statistics.median(lat[0] for lat in latencies)
    full = statistics.median(lat[1] for lat in latencies)
    return math.log2(full / half)


def traced(work: Workload, budget: float, seed: int):
    """Run each chunk of a pass untraced and traced back to back, untraced
    first in one pair and traced first in the next (ABBA), so that order and
    drift in machine speed fall on both modes alike.  A chunk is one
    operation on the ``verify`` workloads and ``TRACE_CHUNK`` queries on
    query-mix.  Each mode's times in a pass are scaled by the speed samples
    taken while it ran, and spans leave out the samples' own time.  Returns
    the scaled untraced pass times, their unscaled per-operation latencies
    and the layer metrics."""
    import tracer

    probe = work.probe
    probe.sample()  # so that every pass has a sample to scale by
    trace = tracer.Tracer(clock=lambda: time.perf_counter() - probe.stolen)
    size = TRACE_CHUNK if work.name == "query-mix" else 1
    chunks = [work.ops[i:i + size] for i in range(0, len(work.ops), size)]
    plain, latencies, durations, per_pass = [], [], [], []
    pairs = 0
    start = time.perf_counter()
    while True:
        outputs: dict[bool, list] = {False: [], True: []}
        lat: dict[bool, list[float]] = {False: [], True: []}
        refs: dict[bool, list[float]] = {False: [], True: []}
        mark = trace.mark()
        for chunk in chunks:
            for on in ((False, True) if pairs % 2 == 0 else (True, False)):
                first = len(probe.samples)
                if on:
                    trace.install()
                try:
                    out, taken = work.run_ops(chunk)
                finally:
                    trace.uninstall()
                outputs[on] += out
                lat[on] += taken
                refs[on] += probe.samples[first:]
            pairs += 1
        work.check(outputs[False])
        work.check(outputs[True])
        scale = {on: speed.scale_of(refs[on] or refs[not on] or probe.samples[-1:])
                 for on in refs}
        per_pass.append({name: value * scale[True] if name.endswith("_s") else value
                         for name, value in trace.summarize(mark).items()})
        plain.append(scale[False] * sum(lat[False]))
        durations.append(scale[True] * sum(lat[True]))
        latencies.append(lat[False])
        if (len(plain) >= MIN_TRACED_PASSES
                and time.perf_counter() - start + sum(lat[False]) + sum(lat[True]) > budget):
            break
    OUT.mkdir(exist_ok=True)
    trace.write(OUT / f"spans-{work.name}-seed{seed}.tsv.gz")
    metrics = {}
    for name in tracer.metric_names():
        values = [p[name] for p in per_pass]
        metrics[name] = (statistics.median(values) if name.endswith("_s")
                         else statistics.median_low(values))
    metrics["trace_overhead_ratio"] = (statistics.median(durations)
                                       / statistics.median(plain))
    return plain, latencies, metrics


def source_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "youngwalls").glob("*.py")))


def git_commit() -> str:
    """The checked-out commit; "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli = load_program()
    work = Workload(cli, args.workload, args.seed)
    setup = time.perf_counter() - STARTED
    print(f"ready {setup * speed.setup_scale()!r} {setup!r}", flush=True)
    if args.setup_only:
        return 0

    warm_start = time.perf_counter()
    while True:
        work.run_pass()
        if time.perf_counter() - warm_start >= WARMUP_S:
            break

    if args.trace:
        with work.probe:
            durations, latencies, metrics = traced(work, args.seconds, args.seed)
        metrics["verify.verify_euler.growth_exp"] = growth_exp(work, latencies)
    else:
        with work.probe:
            durations, latencies = map(list, zip(*passes(work, args.seconds)))
        metrics = end_to_end(work, durations, latencies, work.probe.scale())
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_lines": source_lines(),
        **samples(work, durations, latencies),
        "trace_overhead_ratio": metrics.get("trace_overhead_ratio"),
        "speed_samples": len(work.probe.samples),
        "speed_scale": work.probe.scale() if work.probe.samples else None,
        "unscaled": (None if args.trace
                     else end_to_end(work, durations, latencies, 1.0)),
        "error_rate": work.failed / work.attempted,
    }
    result = {"metrics": metrics, "attempted": work.attempted,
              "failed": work.failed, "failures": work.failures, "meta": meta}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
