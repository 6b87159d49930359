"""zipstrata benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run is a sequence of passes; each pass
is a fresh `child.py` process that sets up, sends the workload's items one at
a time to zipstrata's public entry points (a closed loop with one caller),
and checks every output.  Passes repeat until the next one would end after S
seconds, and at least the workload's minimum number run.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  Times
are given at a reference host speed.  On a shared host the same code runs
up to 1.6 times slower for seconds to minutes at a time, and a 30 s run
cannot wait such a phase out.  So the child times a fixed pure-Python
calibration loop between items (see child.py), and each item's latency is
multiplied by REFERENCE_CALIBRATION_S over the faster of the two samples
around it; set-up time is scaled by the sample right after set-up.  Every
pass runs the same items in the same order; an item's latency is the
median of its scaled latencies over the untraced passes.
  wall_s        sum of the items' latencies: the item loop
  item_p50_ms   median of the items' latencies
  item_tail_ms  mean latency of the slowest tenth of the items: those at or
                above the 90th percentile (nearest rank)
  setup_s       median over passes of child start to first item, scaled
  peak_rss_mb   median over passes of the child's ru_maxrss
  ok_share      items answered and checked correct, out of items attempted
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics, medians over the traced passes; `trace.overhead_s` is traced minus
untraced loop wall time, neither scaled.  The line before the result holds
the unscaled end-to-end values.

A wrong answer, an exception, BudgetExceeded or a pass that exceeds its
timeout fails an item; the run still completes.  The line before the result
records the environment and the failures.  The exit code is 0 when a result
is printed, 1 when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# every child is killed by then, so a run ends well within three minutes
RUN_LIMIT_S = 150.0
TAIL_PERCENTILE = 90.0
# time of child.calibration_loop() on the reference host: about the fastest
# a 2-vCPU shared VM with Python 3.11 gives
REFERENCE_CALIBRATION_S = 0.009
# fewest passes per run, enough for a steady median per item
MIN_PASSES = {"poset-gl": 5, "poset-generic": 3, "decide-sweep": 8, "oracle": 8}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed item)."""


def run_pass(workload: str, seed: int, workdir: str, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    finished = time.monotonic()
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    ready = next((r["ready"] for r in records if "ready" in r), None)
    if ready is None:
        raise BenchError(f"{workload} pass failed before its first item "
                         f"(exit {proc.returncode}):\n{err.strip()}")
    latencies = [r["ms"] for r in records if "ms" in r]
    spans = [(r["t0"], r["t1"]) for r in records if "ms" in r]
    samples = [(r["t"], r["cal"]) for r in records if "cal" in r]
    setup = ready - spawned
    result = {"setup_s": setup, "duration_s": finished - spawned, "latencies": latencies,
              "scaled_setup_s": setup * REFERENCE_CALIBRATION_S / samples[0][1]
              if samples else setup,
              "scaled_latencies": scale_latencies(latencies, spans, samples),
              "traced": traced, "complete": "wall_s" in records[-1]}
    if result["complete"]:
        result.update(records[-1])
    else:
        # the item after the last reported one was in flight when the pass
        # ended; the loop ran at least until then
        why = (f"timeout after {timeout:.0f} s" if timed_out
               else f"child exited with code {proc.returncode}: {err.strip()[-300:]}")
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(attempted=len(latencies) + 1, wall_s=finished - ready,
                      peak_rss_mb=rss_kb / 1024.0,
                      failures=[{"item": f"#{len(latencies)}", "reason": why}])
    return result


def scale_latencies(latencies, spans, samples) -> list[float]:
    """Each latency at the reference speed: times REFERENCE_CALIBRATION_S over
    the faster of the calibration samples just before and just after it."""
    ends = [t for t, _ in samples]
    scaled = []
    for ms, (t0, t1) in zip(latencies, spans):
        before = bisect.bisect_right(ends, t0) - 1
        after = min(bisect.bisect_left(ends, t1), len(ends) - 1)
        seconds = min(samples[max(before, 0)][1], samples[after][1])
        scaled.append(ms * REFERENCE_CALIBRATION_S / seconds)
    return scaled


def item_medians(passes: list[dict], key: str) -> list[float]:
    """Each item's median latency over the passes that reached it, in item order."""
    per_item: list[list[float]] = []
    for p in passes:
        for i, ms in enumerate(p[key]):
            if i == len(per_item):
                per_item.append([])
            per_item[i].append(ms)
    return [statistics.median(v) for v in per_item]


def tail_mean(values, p: float) -> float:
    """Mean of the values at or above the p-th percentile (nearest rank)."""
    ranked = sorted(values)
    k = max(1, math.ceil(p / 100 * len(ranked)))
    return statistics.fmean(ranked[k - 1:])


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
        sha = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> list[dict]:
    """Run passes until the next would end after `seconds`; see module doc."""
    start = time.monotonic()
    passes: list[dict] = []
    min_untraced = 1 if trace else MIN_PASSES[workload]
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.monotonic() - start
        timeout = RUN_LIMIT_S - elapsed
        passes.append(run_pass(workload, seed, workdir, traced, timeout))
        if not passes[-1]["complete"]:
            break
        untraced = [p for p in passes if not p["traced"]]
        enough = len(untraced) >= min_untraced and (not trace or len(untraced) < len(passes))
        next_traced = trace and len(passes) % 2 == 1
        similar = [p["duration_s"] for p in passes if p["traced"] == next_traced]
        next_duration = statistics.median(similar or [passes[-1]["duration_s"]])
        expected_end = time.monotonic() - start + next_duration
        if expected_end > RUN_LIMIT_S - 10 or (enough and expected_end > seconds):
            break
    return passes


def timings(passes: list[dict], scaled: bool) -> dict:
    prefix = "scaled_" if scaled else ""
    items = item_medians(passes, prefix + "latencies")
    return {
        "wall_s": sum(items) / 1000.0,
        "item_p50_ms": statistics.median(items),
        "item_tail_ms": tail_mean(items, TAIL_PERCENTILE),
        "setup_s": statistics.median(p[prefix + "setup_s"] for p in passes),
    }


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Metrics of the untraced passes; see the module doc."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = timings(passes, scaled=True)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    metrics["ok_share"] = (attempted - failed) / attempted
    notes = {"unscaled": timings(passes, scaled=False),
             "item_samples": sum(len(p["latencies"]) for p in passes),
             "failed_share": failed / attempted,
             "pass_wall_s": [p["wall_s"] for p in passes],
             "pass_setup_s": [p["setup_s"] for p in passes]}
    return metrics, notes


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"] and p["complete"]]
    untraced = [p for p in passes if not p["traced"] and p["complete"]]
    if not traced or not untraced:
        raise BenchError("the traced run needs one complete traced and untraced pass")
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.covered_share"] = metrics.pop("trace.covered_s") / traced_wall
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        passes = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        metrics, notes = end_to_end([p for p in passes if not p["traced"]])
        if args.trace:
            metrics = per_layer(passes)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark error: no value for {missing}", file=sys.stderr)
        return 1

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "env": environment(), "numpy_loaded":
        any(p.get("numpy_loaded") for p in passes), **notes, "failures": failures[:20],
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
