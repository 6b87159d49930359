"""Self-test: every check of the benchmark passes on correct outputs and is
able to fail.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload, one clean pass must report no failed item.  Then, for each
check the workload's items use, a pass with `--inject CHECK` corrupts the
outputs that check applies to; the pass must report a non-zero failed share
with that check named among the reasons.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_child(workload: str, seed: int, workdir: str, inject: str | None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def checks_used(workload: str, seed: int, workdir: str) -> list[str]:
    import workloads

    items = workloads.WORKLOADS[workload](seed, workdir)
    return sorted({name for item in items for name in item.checks})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append",
                        default=None, help="default: every workload")
    args = parser.parse_args(argv)
    names = args.workload or ["poset-gl", "poset-generic", "decide-sweep", "oracle"]
    sys.path.insert(0, str(ROOT / "src"))
    ok = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for workload in names:
            clean = run_child(workload, args.seed, workdir, None)
            status = "ok" if not clean["failures"] else "FAIL"
            ok &= not clean["failures"]
            print(f"{workload}: clean pass, {len(clean['failures'])}/{clean['attempted']} "
                  f"failed: {status}")
            for check in checks_used(workload, args.seed, workdir):
                result = run_child(workload, args.seed, workdir, check)
                named = [f for f in result["failures"] if check in f["reason"]]
                share = len(result["failures"]) / result["attempted"]
                status = "ok" if named else "FAIL"
                ok &= bool(named)
                print(f"{workload}: inject {check}: failed_share {share:.3f}, "
                      f"{len(named)} items name the check: {status}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
