"""The benchmark's workloads: inputs made from a seed, the calls into
zipstrata's public entry points, and the checks on every output.

A workload's builder, `WORKLOADS[name](seed, workdir)`, is the set-up of one
pass: it makes the inputs and whatever datum or model table the items then
use.  Each `Item` issues one public call.  After the timed loop every output
is checked by the checks its item names; `CHECKS` maps a check to the
function deciding it and to a corruption that makes it fail, which the
self-test injects.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from zipstrata import cli, fq, glnzip, strata, zipdatum

import reference as ref


@dataclass
class Item:
    key: str
    call: Callable[[dict], object]  # gets the raw outputs of earlier items by key
    checks: tuple[str, ...]
    decode: Callable[[object], object] = json.loads
    info: dict = field(default_factory=dict)


# -- poset checks: nodes and covers of a `strata-list` payload ---------------


def _measure(item: Item, label) -> int:
    """Length of a node label without the library: inversions or word length."""
    if item.info["labels"] == "one-line":
        return ref.inversions([v - 1 for v in label])
    return len(label)


def check_coset_count(item, payload, decoded) -> bool:
    """|^I W| * |W_I| = |W|."""
    return len(payload["nodes"]) * item.info["parabolic_order"] == item.info["order"]


def check_node_length(item, payload, decoded) -> bool:
    labels = [tuple(node["w"]) for node in payload["nodes"]]
    return len(set(labels)) == len(labels) and all(
        node["length"] == _measure(item, node["w"]) for node in payload["nodes"]
    )


def check_cover_drop(item, payload, decoded) -> bool:
    """Every cover joins two nodes and drops length by exactly one."""
    labels = {tuple(node["w"]) for node in payload["nodes"]}
    return all(
        tuple(c["upper"]) in labels
        and tuple(c["lower"]) in labels
        and _measure(item, c["upper"]) - _measure(item, c["lower"]) == 1
        for c in payload["covers"]
    )


def _add_long_cover(payload):
    top = max(payload["nodes"], key=lambda node: node["length"])
    payload["covers"].append({"upper": top["w"], "lower": payload["nodes"][0]["w"]})
    return payload


def _pop_node(payload):
    payload["nodes"].pop()
    return payload


def _bump_length(payload):
    payload["nodes"][0]["length"] += 1
    return payload


# -- closure checks --------------------------------------------------------------


def check_closure_matches_poset(item, payload, decoded) -> bool:
    """The closure report agrees with the poset of the same datum: its
    neighbours are the covers below w, each verdict's boundedness is
    I_{w'} inside I_w on the poset's canonical types, smooth means bounded
    and separating, and a smooth closure has only bounded neighbours."""
    poset = decoded[item.info["poset_key"]]
    w = payload["w"]
    types = {tuple(node["w"]): set(node["I_w"]) for node in poset["nodes"]}
    lower = {",".join(map(str, c["lower"])) for c in poset["covers"] if c["upper"] == w}
    verdicts = payload["neighbors"]
    if set(verdicts) != lower:
        return False
    for verdict in verdicts.values():
        bounded = types[tuple(verdict["w_prime"])] <= types[tuple(w)]
        if verdict["bounded"] != bounded:
            return False
        if verdict["smooth"] != (verdict["bounded"] and verdict["separating"]):
            return False
    if payload["smooth_in_codim_1"] and not all(v["bounded"] for v in verdicts.values()):
        return False
    return True


def _drop_neighbor(payload):
    if payload["neighbors"]:
        payload["neighbors"].pop(next(iter(payload["neighbors"])))
    else:
        payload["neighbors"]["0"] = {}
    return payload


# -- generic A_{n-1} against GL_n ------------------------------------------------


_word = ref.canonical_word


def _gl_poset_as_words(payload):
    return {
        "z": _word(payload["z"]),
        "J": payload["J"],
        "nodes": [dict(node, w=_word(node["w"])) for node in payload["nodes"]],
        "covers": [
            {"upper": _word(c["upper"]), "lower": _word(c["lower"])}
            for c in payload["covers"]
        ],
    }


def _gl_verdict_as_words(v):
    out = dict(v)
    for key in ("w", "w_prime"):
        out[key] = _word(v[key])
    for key in ("gamma", "gamma_small"):
        out[key] = [_word(x) for x in v[key]]
    out["certificate"] = None if v["certificate"] is None else _word(v["certificate"])
    # the GL_n character lattice has rank n, the root lattice of A_{n-1} rank
    # n-1: dim P, hence the flag dimension, differs by the rank-1 centre
    out["flag_dim"] = v["flag_dim"] - 1
    return out


def _gl_closure_as_words(payload):
    return {
        "w": _word(payload["w"]),
        "smooth_in_codim_1": payload["smooth_in_codim_1"],
        "neighbors": {
            ",".join(map(str, _word(v["w_prime"]))): _gl_verdict_as_words(v)
            for v in payload["neighbors"].values()
        },
    }


def check_matches_gl(item, payload, decoded) -> bool:
    """Generic A_{n-1} output equals the GL_n output of the same signature,
    once one-line labels are rewritten as canonical words."""
    gl = decoded[item.info["gl_key"]]
    convert = _gl_poset_as_words if item.info["kind"] == "poset" else _gl_closure_as_words
    return payload == convert(gl)


def _flip_flag(payload):
    if "nodes" in payload:
        payload["nodes"][-1]["small"] = not payload["nodes"][-1]["small"]
    else:
        payload["smooth_in_codim_1"] = not payload["smooth_in_codim_1"]
    return payload


# -- decide-sweep ------------------------------------------------------------------


def check_closed_form(item, row, decoded) -> bool:
    r, s = item.info["signature"]
    expected = ref.length2_expected(r, s)
    if (row["r"], row["s"]) != (r, s):
        return False
    return all(
        (row[key]["decided_bounded"], row[key]["decided_smooth"]) == expected[key]
        for key in ("U1", "U2")
    )


def _flip_decision(row):
    row["U1"]["decided_smooth"] = not row["U1"]["decided_smooth"]
    return row


# -- oracle ------------------------------------------------------------------------


def check_classify_22(item, label, decoded) -> bool:
    """Membership of g is Xi(g z): the (2,2) Hasse-invariant table of g."""
    return tuple(glnzip.classify_22(item.info["field"], item.info["g"])) == label


def check_char_valuation(item, label, decoded) -> bool:
    """At signature (n-1, 1) the stratum of g is x_i, i the valuation of the
    characteristic polynomial of the top-left block of g."""
    n, p = len(item.info["g"]), item.info["field"].p
    return ref.x_label(n, ref.char_valuation(item.info["g"], n - 1, p)) == label


def check_xi_of_weyl(item, label, decoded) -> bool:
    """On a permutation matrix P_w the filtration classifier equals the
    combinatorial Xi(w)."""
    zd = item.info["datum"]
    w = zd.W.from_one_line([v + 1 for v in item.info["perm"]])
    return tuple(strata.xi_of_weyl(zd, w).one_line()) == label


def _other_label(label):
    ident = tuple(range(1, len(label) + 1))
    return (2, 1) + ident[2:] if label == ident else ident


CHECKS: dict[str, tuple[Callable, Callable]] = {
    "coset_count": (check_coset_count, _pop_node),
    "node_length": (check_node_length, _bump_length),
    "cover_drop": (check_cover_drop, _add_long_cover),
    "closure_matches_poset": (check_closure_matches_poset, _drop_neighbor),
    "matches_gl": (check_matches_gl, _flip_flag),
    "closed_form": (check_closed_form, _flip_decision),
    "classify_22": (check_classify_22, _other_label),
    "char_valuation": (check_char_valuation, _other_label),
    "xi_of_weyl": (check_xi_of_weyl, _other_label),
}

POSET_CHECKS = ("coset_count", "node_length", "cover_drop")


# -- workload builders -----------------------------------------------------------------


def _strata_list(config):
    return lambda outputs: cli.cmd_strata_list(config)


def _closure(config, poset_key, index, labels):
    def call(outputs):
        node = json.loads(outputs[poset_key])["nodes"][index]["w"]
        if labels == "one-line":
            text = ",".join(map(str, node))
        else:
            text = " ".join(f"s{k}" for k in node) or "e"
        return cli.cmd_closure(config, text)

    return call


def _gl_config(n, r, sigma):
    return cli.RunConfig(gl=(n, r), cartan_file=None, sigma=sigma, I=None)


def _gl_info(n, r):
    return {"labels": "one-line", "order": math.factorial(n),
            "parabolic_order": math.factorial(n) // ref.gl_coset_count(n, r)}


def build_poset_gl(seed: int, workdir: str) -> list[Item]:
    # The seed draws nothing here: a shuffled order changes when the
    # collector runs over which live data, and so moved wall_s by a tenth
    # from seed to seed on the same code.
    specs = [(n, r, sigma) for n in (5, 6, 7) for r in range(1, n) for sigma in ("id", "flip")]
    return [
        Item(f"GL{n}({r},{n - r}) {sigma}", _strata_list(_gl_config(n, r, sigma)),
             POSET_CHECKS, info=_gl_info(n, r))
        for n, r, sigma in specs
    ]


# name: (Cartan matrix, I, |W|, |W_I|, closures too).  cartan[i][j] is
# <alpha_i, alpha_j^vee> in Bourbaki numbering; the group orders are the
# textbook ones (B4 = C4 384, D4 192, A4 120; C3/B3 48, A3 24, A2 x A1 12).
# F4 is left out: its one strata-list item takes 2 s, longer than all the
# other items of a pass together, and too few passes fit in a run for the
# median of its latencies to be steady.
GENERIC_DATA = {
    "B4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
           [2, 3, 4], 384, 48, False),
    "C4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
           [2, 3, 4], 384, 48, False),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
           [2, 3, 4], 192, 24, True),
    "A4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
           [1, 2, 4], 120, 12, True),
}
# generic A4 with I = {1,2,4} is GL_5 of signature (3,2) in another representation
GL_TWIN = {"A4": (5, 3)}


def _poset_block(key, config, info, closures, twin_of=None):
    """strata-list on one datum, then, if asked, closure on every stratum."""
    labels = info["labels"]
    checks = POSET_CHECKS + (("matches_gl",) if twin_of else ())
    items = [Item(key, _strata_list(config), checks,
                  info=dict(info, kind="poset", gl_key=twin_of))]
    if closures:
        for j in range(info["order"] // info["parabolic_order"]):
            checks = ("closure_matches_poset",) + (("matches_gl",) if twin_of else ())
            items.append(Item(
                f"{key} closure {j}", _closure(config, key, j, labels), checks,
                info={"kind": "closure", "poset_key": key,
                      "gl_key": twin_of and f"{twin_of} closure {j}"},
            ))
    return items


def build_poset_generic(seed: int, workdir: str) -> list[Item]:
    # a fixed order, as in build_poset_gl
    items = []
    for name, (cartan, I, order, parabolic, closures) in GENERIC_DATA.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"cartan": cartan}, fh)
        config = cli.RunConfig(gl=None, cartan_file=path, sigma="id", I=I)
        info = {"labels": "word", "order": order, "parabolic_order": parabolic}
        twin_key = None
        if name in GL_TWIN:
            n, r = GL_TWIN[name]
            twin_key = f"GL{n}({r},{n - r})"
            items += _poset_block(twin_key, _gl_config(n, r, "id"), _gl_info(n, r), closures)
        items += _poset_block(f"{name}{I}", config, info, closures, twin_of=twin_key)
    return items


def build_decide_sweep(seed: int, workdir: str) -> list[Item]:
    # Every signature up to n = 10 (only the scalar Xi scan runs there), plus
    # the two n = 11 signatures whose Xi calls take the numpy batch path in
    # under a second each; (9,2) alone takes 6 s and n = 12 needs 600 MB.
    # The order is sweep-length2's and the seed draws nothing: the order fixes
    # which memoised data are alive when the largest Xi batch runs, so a
    # shuffled order would move peak RSS from seed to seed.
    sigs = [(n - s, s) for n in range(4, 11) for s in range(2, n // 2 + 1)]
    sigs += [(7, 4), (6, 5)]
    items = []
    for r, s in sigs:
        sig = glnzip.Signature(r, s)
        sig.zip_datum()  # datum construction belongs to set-up
        items.append(Item(f"({r},{s})", lambda outputs, sig=sig: glnzip.verify_length2(sig),
                          ("closed_form",), decode=_copy_row, info={"signature": (r, s)}))
    return items


def _copy_row(row):
    return json.loads(json.dumps(row))


# (n, q, r, points per pass): signature (2,2) over F_2 and F_3, (4,1) over F_2
ORACLE_CASES = ((4, 2, 2, 500), (4, 3, 2, 500), (5, 2, 4, 300))
PERMUTATION_SHARE = 0.125


def build_oracle(seed: int, workdir: str) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for n, q, r, count in ORACLE_CASES:
        zd = zipdatum.gl_zip_datum(n, r)
        F = fq.Fq(q)
        z = ref.gl_frame_element(n, r)
        z_inv = ref.invert(z)
        # the first classification builds the model table: part of set-up
        glnzip.xi_classify(zd, F, ref.perm_matrix(z, n))
        closed_form = "classify_22" if (n, r) == (4, 2) else "char_valuation"
        for i in range(count):
            info = {"field": F, "datum": zd}
            if rng.random() < PERMUTATION_SHARE:
                perm = list(range(n))
                rng.shuffle(perm)
                f = ref.perm_matrix(perm, n)
                info["g"] = ref.times_perm(f, z_inv)
                info["perm"] = perm
                checks = (closed_form, "xi_of_weyl")
            else:
                info["g"] = ref.random_invertible(n, q, rng)
                f = ref.times_perm(info["g"], z)
                checks = (closed_form,)
            items.append(Item(
                f"GL{n}(F{q}) #{i}",
                lambda outputs, zd=zd, F=F, f=f: glnzip.xi_classify(zd, F, f, 1),
                checks, decode=lambda w: tuple(w.one_line()), info=info,
            ))
    return items


WORKLOADS: dict[str, Callable[[int, str], list[Item]]] = {
    "poset-gl": build_poset_gl,
    "poset-generic": build_poset_generic,
    "decide-sweep": build_decide_sweep,
    "oracle": build_oracle,
}
