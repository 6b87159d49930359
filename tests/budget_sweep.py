"""The CLI's budget sweep: exit code, stderr and the sha256 of stdout of
every `closure` on w in ^I W and every `decide` on (w, w') in ^I W with
l(w') = l(w) - 1, over GL_3..5, every signature, sigma id and flip, at the
budgets in BUDGETS and at the default budget.

    PYTHONPATH=src python tests/budget_sweep.py --write   # rewrite the table
    PYTHONPATH=src python tests/budget_sweep.py           # print what differs

The table, `data/budget_sweep_GL.json`, maps each command (its arguments
without --budget) to its runs: budget, or "default", -> [exit code, stderr,
stdout sha256].  `test_cli` compares a fresh sweep with it.
"""

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

from zipstrata.cli import main
from zipstrata.zipdatum import gl_zip_datum

TABLE = Path(__file__).parent / "data" / "budget_sweep_GL.json"
BUDGETS = (-1, 0, 1, 2, 3, 4, 6, 12)


def commands():
    """The argument lists of the sweep, without --budget."""
    for n in (3, 4, 5):
        for r in range(1, n):
            for sigma in ("id", "flip"):
                reps = gl_zip_datum(n, r, sigma=sigma).minimal_reps()
                text = {w: ",".join(map(str, w.one_line())) for w in reps}
                head = ["--gl", str(n), str(r), "--sigma", sigma]
                for w in reps:
                    yield head + ["closure", text[w]]
                for w in reps:
                    for v in reps:
                        if v.length == w.length - 1:
                            yield head + ["decide", text[w], text[v]]


def run(argv):
    """[exit code, stderr, sha256 of stdout] of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()]


def sweep():
    """The table as the code at hand answers it."""
    table = {}
    for argv in commands():
        head, tail = argv[:5], argv[5:]
        runs = {str(b): run(head + ["--budget", str(b)] + tail) for b in BUDGETS}
        runs["default"] = run(argv)
        table[" ".join(argv)] = runs
    return table


def load():
    return json.loads(TABLE.read_text())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the table")
    args = parser.parse_args()
    table = sweep()
    if args.write:
        # one command a line
        lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in table.items())
        TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    else:
        golden = load()
        for command in sorted(golden.keys() | table.keys()):
            for budget in sorted(golden.get(command, {}).keys() | table.get(command, {}).keys()):
                old = golden.get(command, {}).get(budget)
                new = table.get(command, {}).get(budget)
                if old != new:
                    print(f"{command} --budget {budget}: {old} -> {new}")
