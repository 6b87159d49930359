"""Command-line surface: batch decisions, poset reports, DOT/JSON/CSV output.

Subcommands: strata-list, decide, sweep-length2, hasse, xi, census,
closed-form.  Exit codes: 0 success, 1 standard output closed before the
report was written (as when piped into ``head``), 2 precondition violation,
3 budget exceeded.

A JSON report is byte for byte ``json.dumps(payload, indent=2,
sort_keys=True)``: ASCII only, keys sorted, two-space indent, no trailing
whitespace.  The goldens under ``tests/data`` and the sha256 pins of the
E8 poset and the GL_4(F_2) census rely on this.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .fq import Fq
from .glnzip import (
    Signature,
    _factor_prime_power,
    fp_point_census,
    length2_closed_form,
    verify_length2,
    xi_classify,
)
from .hasse import hasse_feasible, hasse_report
from .rootdata import TYPE_A_GL, RootDataError
from .strata import closure_codim1, decide_smooth, is_small, xi_of_weyl
from .weyl import DEFAULT_BUDGET, BudgetExceeded, WeylElement, budget_scope
from .zipdatum import ZipDatum, ZipDatumError, gl_zip_datum, zip_datum_from_json

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


@dataclass
class RunConfig:
    gl: tuple[int, int] | None
    cartan_file: str | None
    sigma: str
    I: list[int] | None
    fmt: str = "json"

    def datum(self) -> ZipDatum:
        if self.gl is not None:
            if self.cartan_file is not None:
                raise ZipDatumError("--gl N R and --cartan FILE each name a datum; give one")
            if self.I is not None:
                raise ZipDatumError("--I is for --cartan data; with --gl N R, I is fixed by R")
            n, r = self.gl
            return gl_zip_datum(n, r, sigma=self.sigma)
        if self.cartan_file is None:
            raise ZipDatumError("specify a datum with --gl N R or --cartan FILE")
        try:
            with open(self.cartan_file) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ZipDatumError(f"cannot read {self.cartan_file}: {exc.strerror}") from None
        if isinstance(doc, dict):  # zip_datum_from_json refuses anything else
            if self.I is not None:
                doc["I"] = self.I
            if self.sigma != "id":
                doc["sigma"] = self.sigma
        return zip_datum_from_json(doc)

    def refuse_datum(self, command: str, gl: bool = False) -> None:
        """Raise `ZipDatumError` naming the first datum option given that
        ``command`` cannot honour: ``--gl`` (unless ``gl``), ``--cartan``,
        ``--I``, or a ``--sigma`` other than ``id``."""
        given = (
            ("--gl N R", self.gl is not None and not gl),
            ("--cartan FILE", self.cartan_file is not None),
            ("--I", self.I is not None),
            (f"--sigma {self.sigma}", self.sigma != "id"),
        )
        for option, present in given:
            if present:
                raise ZipDatumError(f"{command} does not take {option}")


def _parse_element(zd: ZipDatum, text: str) -> WeylElement:
    """One-line '3,4,1,2' or reduced word 's1 s3' (words only, for generic)."""
    text = text.strip()
    if text in ("e", "id", "identity"):
        return zd.W.identity
    if text.startswith("s"):
        word = [int(tok.lstrip("s")) for tok in text.replace(",", " ").split()]
        return zd.W.from_word(word)
    if zd.rs.realization != TYPE_A_GL:
        raise ZipDatumError("one-line input is only available for type A; use 's1 s3'")
    return zd.W.from_one_line([int(x) for x in text.replace(",", " ").split()])


def _emit(payload, fmt: str) -> str:
    if fmt == "json":
        parts: list[str] = []
        _json_parts(payload, "\n", parts)
        return "".join(parts)
    raise ZipDatumError(f"format {fmt!r} is not available for this report")


def _json_parts(value, newline: str, parts: list[str]) -> None:
    """Append to ``parts`` what ``json.dumps(value, indent=2, sort_keys=True)``
    prints for ``value`` at the depth whose line break and indent is
    ``newline``.  With an indent, ``json`` leaves its C encoder for a
    pure-Python one; this covers only what a report holds (dicts with str
    keys, lists and tuples, str, int, bool, None) and raises TypeError on
    anything else, as ``json.dumps`` does on an object it cannot serialise."""
    if isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        if {*map(type, value)} == {int}:  # a label or a weight: one join
            parts.append("[" + inner + ("," + inner).join(map(int.__repr__, value))
                         + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep + _quote(key) + ": ")  # TypeError on a key not str
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:  # before int: bool is a subclass of int
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def cmd_strata_list(config: RunConfig) -> str:
    zd = config.datum()
    reps = zd.minimal_reps()
    zero = (0,) * zd.lattice.dim
    nodes = []
    covers = []
    for w in reps:
        feasible0 = hasse_feasible(zd, w, zero).feasible
        nodes.append(
            {
                "w": w.label(),
                "length": w.length,
                "I_w": sorted(zd.canonical_type(w)),
                "small": is_small(zd, w),
                "hasse_feasible_at_0": feasible0,
            }
        )
        for v in zd.lower_neighbors(zd.I, w):
            covers.append({"upper": w.label(), "lower": v.label()})
    payload = {"z": zd.z.label(), "J": sorted(zd.J), "nodes": nodes, "covers": covers}
    if config.fmt == "dot":
        return _to_dot(payload)
    return _emit(payload, config.fmt)


def _to_dot(payload: dict) -> str:
    def node_id(label) -> str:
        return "w_" + "_".join(str(x) for x in label)

    lines = ["digraph strata {", "  rankdir=BT;"]
    for node in payload["nodes"]:
        attrs = (
            f"{node['w']}\\nl={node['length']} I_w={node['I_w']}"
            f"\\nsmall={str(node['small']).lower()}"
            f" ha0={str(node['hasse_feasible_at_0']).lower()}"
        )
        lines.append(f'  {node_id(node["w"])} [label="{attrs}"];')
    for cover in payload["covers"]:
        lines.append(f'  {node_id(cover["lower"])} -> {node_id(cover["upper"])};')
    lines.append("}")
    return "\n".join(lines)


def cmd_decide(config: RunConfig, w_text: str, w_prime_text: str) -> str:
    zd = config.datum()
    w = _parse_element(zd, w_text)
    wp = _parse_element(zd, w_prime_text)
    verdict = decide_smooth(zd, w, wp)
    return _emit(verdict.to_json(), config.fmt)


def cmd_closure(config: RunConfig, w_text: str) -> str:
    zd = config.datum()
    w = _parse_element(zd, w_text)
    ok, verdicts = closure_codim1(zd, w)
    payload = {
        "w": w.label(),
        "smooth_in_codim_1": ok,
        "neighbors": {",".join(map(str, k.label())): v.to_json() for k, v in verdicts.items()},
    }
    return _emit(payload, config.fmt)


def cmd_sweep_length2(config: RunConfig, n_max: int, verify: bool) -> str:
    config.refuse_datum("sweep-length2")
    rows = []
    for n in range(4, n_max + 1):
        for s in range(2, n // 2 + 1):
            sig = Signature(n - s, s)
            rows.append(
                verify_length2(sig) if verify else length2_closed_form(sig)
            )
    if config.fmt == "csv":
        return _sweep_csv(rows)
    return _emit(rows, config.fmt)


def _sweep_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r", "s", "n", "gcd", "branch", "U1_smooth", "U2_smooth"])
    for row in rows:
        writer.writerow(
            [row["r"], row["s"], row["n"], row["gcd"], row["branch"],
             row["U1"]["smooth"], row["U2"]["smooth"]]
        )
    return buf.getvalue()


def cmd_hasse(config: RunConfig, w_text: str | None, lam_text: str | None) -> str:
    zd = config.datum()
    lam = None if lam_text is None else [int(x) for x in lam_text.replace(",", " ").split()]
    if w_text is not None:
        return _emit(hasse_report(zd, _parse_element(zd, w_text), lam), config.fmt)
    reports = [hasse_report(zd, w, lam) for w in zd.minimal_reps()]
    return _emit(reports, config.fmt)


def cmd_xi(config: RunConfig, w_text: str | None, matrix_text: str | None,
           q: int | None, m: int | None) -> str:
    zd = config.datum()
    if (w_text is None) == (matrix_text is None):
        raise ZipDatumError("give exactly one of an element or --matrix")
    if w_text is not None:
        for option, value in (("--q", q), ("--m", m)):
            if value is not None:
                raise ZipDatumError(f"xi takes {option} only with --matrix")
        w = _parse_element(zd, w_text)
        out = xi_of_weyl(zd, w)
        payload = {"input": w.label(), "xi": out.label(), "small": is_small(zd, w)}
        return _emit(payload, config.fmt)
    F = Fq(*_factor_prime_power(2 if q is None else q))
    entries = [int(x) % F.p for x in matrix_text.replace(",", " ").split()]
    n = zd.rs.ambient_dim
    if len(entries) != n * n:
        raise ZipDatumError(f"need {n * n} row-major entries for a {n}x{n} matrix")
    if F.k != 1:
        raise ZipDatumError("matrix entries are reduced mod p; use a prime q")
    f = tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
    m = 1 if m is None else m
    out = xi_classify(zd, F, f, m)
    return _emit({"matrix": entries, "m": m, "xi": out.label()}, config.fmt)


def cmd_census(config: RunConfig, q: int, m_list: list[int]) -> str:
    config.refuse_datum("census", gl=True)
    if config.gl is None:
        raise ZipDatumError("census needs --gl N R")
    n, r = config.gl
    s = n - r
    sig = Signature(max(r, s), min(r, s))
    if sig.r != r:
        raise ZipDatumError("census expects r >= s; swap the signature")
    report = fp_point_census(sig, q, m_list)
    if config.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "stratum", "count"])
        for m, counts in report["counts"].items():
            for label, count in counts.items():
                writer.writerow([m, label, count])
        return buf.getvalue()
    return _emit(report, config.fmt)


def cmd_closed_form(config: RunConfig, r: int, s: int) -> str:
    config.refuse_datum("closed-form")
    return _emit(length2_closed_form(Signature(r, s)), config.fmt)


class _AfterCommand(argparse.Action):
    """Refuses an option given before the command that takes it."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} belongs after its command "
                     "(census --q Q, xi --matrix ... --q Q --m M)")


def build_parser() -> argparse.ArgumentParser:
    # no parser takes an abbreviated option: an option given to a command
    # that does not take it would otherwise be read as the option it
    # abbreviates (``census --m`` as ``--m-list``)
    parser = argparse.ArgumentParser(
        prog="zipstrata",
        description="decide regularity in codimension one of zip strata "
        "from root-datum combinatorics",
        allow_abbrev=False,
    )
    parser.add_argument("--gl", nargs=2, type=int, metavar=("N", "R"))
    parser.add_argument("--cartan", metavar="FILE")
    parser.add_argument("--I", type=str, default=None,
                        help="comma-separated simple indices (generic data)")
    parser.add_argument("--sigma", default="id", help="'id', 'flip', or a permutation '2,1'")
    parser.add_argument("--format", dest="fmt", choices=["json", "dot", "csv"], default="json")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    # without these, argparse sets an unknown option aside and reads its
    # value as the command ("invalid choice: '5'")
    parser.add_argument("--q", "--m", action=_AfterCommand, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name):
        return sub.add_parser(name, allow_abbrev=False)

    command("strata-list")
    p = command("decide")
    p.add_argument("w")
    p.add_argument("w_prime")
    p = command("closure")
    p.add_argument("w")
    p = command("sweep-length2")
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--verify", action="store_true",
                   help="cross-check the closed form against decide_smooth")
    p = command("hasse")
    p.add_argument("w", nargs="?")
    p.add_argument("--weight", default=None, help="lattice vector '0,0,1,1'; omit to search")
    p = command("xi")
    p.add_argument("w", nargs="?")
    p.add_argument("--matrix", default=None, help="row-major entries, reduced mod p")
    p.add_argument("--q", type=int, default=None, help="field size of --matrix (default 2)")
    p.add_argument("--m", type=int, default=None,
                   help="Frobenius exponent of --matrix (default 1)")
    p = command("census")
    p.add_argument("--q", type=int, default=2, help="field size")
    p.add_argument("--m-list", default="1", help="comma-separated exponents")
    p = command("closed-form")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    return parser


# subcommand -> handler of (config, parsed arguments)
COMMANDS = {
    "strata-list": lambda config, args: cmd_strata_list(config),
    "decide": lambda config, args: cmd_decide(config, args.w, args.w_prime),
    "closure": lambda config, args: cmd_closure(config, args.w),
    "sweep-length2": lambda config, args: cmd_sweep_length2(config, args.n_max, args.verify),
    "hasse": lambda config, args: cmd_hasse(config, args.w, args.weight),
    "xi": lambda config, args: cmd_xi(config, args.w, args.matrix, args.q, args.m),
    "census": lambda config, args: cmd_census(
        config, args.q, [int(x) for x in args.m_list.split(",")]),
    "closed-form": lambda config, args: cmd_closed_form(config, args.r, args.s),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            gl=tuple(args.gl) if args.gl else None,
            cartan_file=args.cartan,
            sigma=args.sigma,
            I=[int(x) for x in args.I.split(",")] if args.I else None,
            fmt=args.fmt,
        )
        with budget_scope(args.budget):
            out = COMMANDS[args.command](config, args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ZipDatumError, RootDataError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        print(out)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the recipe of Python's signal docs: the flush at exit then writes
        # to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
