"""One pass of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR
                               [--trace] [--inject CHECK]

Set-up (imports, inputs, datum or model table) runs first and ends with a
`{"ready": t}` line, t on the system-wide monotonic clock.  Then a single
caller issues the items one after the other, printing
`{"i": k, "ms": x, "t0": start, "t1": end}` as each returns.  Right after
set-up, between items at least CALIBRATION_INTERVAL_S apart and after the
last item, the child times `calibration_loop()` and prints
`{"cal": seconds, "t": end}`: the runner scales each item's latency by the
host speed these samples show around it.  Outputs are checked after the
timed loop; the last line holds the loop's wall time (without the
calibration samples), the peak RSS, the failed items and, with --trace, the
per-layer metrics.  --inject CHECK corrupts every output that CHECK applies
to before it is checked, which must make the check fail.

Only the standard library, zipstrata and this directory are imported here,
so set-up time and peak RSS belong to zipstrata.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_INTERVAL_S = 0.1


def calibration_loop() -> None:
    """Fixed pure-Python work (tuple keys, dict updates, a sort), the kind of
    work zipstrata's item loops do but independent of zipstrata: its time
    follows the speed the shared host gives this process."""
    counts: dict = {}
    for i in range(12_000):
        key = (i % 97, i % 89, i & 255)
        counts[key] = counts.get(key, 0) + len(key)
    sorted(counts.items())


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import zipstrata

    if not Path(zipstrata.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"zipstrata imported from {zipstrata.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    from zipstrata.weyl import BudgetExceeded

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    if args.inject is not None and args.inject not in workloads.CHECKS:
        print(f"unknown check {args.inject!r}", file=sys.stderr)
        return 2
    items = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    emit({"ready": time.monotonic()})

    clock = time.perf_counter

    def calibrate() -> float:
        """Time one calibration sample; return how long it took."""
        c0 = clock()
        calibration_loop()
        c1 = clock()
        sys.stdout.write(f'{{"cal": {c1 - c0!r}, "t": {c1!r}}}\n')
        return c1 - c0

    outputs: dict = {}
    errors: dict = {}
    calibrate()
    last_sample = loop_start = clock()
    calibrating = 0.0
    for i, item in enumerate(items):
        if clock() - last_sample >= CALIBRATION_INTERVAL_S:
            calibrating += calibrate()
            last_sample = clock()
        t0 = clock()
        span = tracer.begin(tracer.item_id) if tracer else None
        try:
            outputs[item.key] = item.call(outputs)
        except BudgetExceeded as exc:
            errors[item.key] = f"BudgetExceeded: {exc}"
        except Exception as exc:  # a failed item is a result, not a harness crash
            errors[item.key] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(span)
        t1 = clock()
        ms = (t1 - t0) * 1000.0
        sys.stdout.write(f'{{"i": {i}, "ms": {ms!r}, "t0": {t0!r}, "t1": {t1!r}}}\n')
        sys.stdout.flush()
    wall = clock() - loop_start - calibrating
    calibrate()
    sys.stdout.flush()
    if tracer:
        tracer.uninstall()

    failures = check_outputs(workloads, items, outputs, errors, args.inject)
    record = {
        "wall_s": wall,
        "attempted": len(items),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy_loaded": "numpy" in sys.modules,
    }
    if tracer:
        record["layers"] = tracer.metrics()
    emit(record)
    return 0


def check_outputs(workloads, items, outputs, errors, inject) -> list[dict]:
    """Run each item's checks; return one record per failed item."""
    decoded = {}
    for item in items:
        if item.key in outputs:
            try:
                decoded[item.key] = item.decode(outputs[item.key])
            except Exception as exc:
                errors[item.key] = f"undecodable output: {type(exc).__name__}: {exc}"
    failures = []
    for item in items:
        if item.key in errors:
            failures.append({"item": item.key, "reason": errors[item.key]})
            continue
        failed = []
        for name in item.checks:
            check, corrupt = workloads.CHECKS[name]
            value = item.decode(outputs[item.key])
            if name == inject:
                value = corrupt(value)
            try:
                ok = check(item, value, decoded)
            except Exception as exc:
                ok = False
                name = f"{name} ({type(exc).__name__}: {exc})"
            if not ok:
                failed.append(name)
        if failed:
            failures.append({"item": item.key, "reason": "check failed: " + ", ".join(failed)})
    return failures


if __name__ == "__main__":
    sys.exit(main())
