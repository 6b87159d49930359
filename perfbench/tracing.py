"""Span tracing of zipstrata's public functions, installed from outside.

`Tracer.install` replaces each function in `TARGETS` by a wrapper that
records one span per call: the name, start, end and the span that was open
when the call began.  A module-level function is replaced under every name
a zipstrata module binds it to (`strata.xi_of_weyl` and `cli.xi_of_weyl`
alike), so calls are seen whichever module makes them; a method is replaced
on its class.  Generator functions get one span per resumption, so their
self time is the time spent producing elements.

Spans stay in flat arrays until `metrics` turns them into the per-layer
numbers; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array

# (span name, module, attribute path) for every function the traced run wraps.
TARGETS = [
    ("weyl.mul", "zipstrata.weyl", "WeylElement.__mul__"),
    ("weyl.apply", "zipstrata.weyl", "WeylElement.apply"),
    ("weyl.bruhat_leq", "zipstrata.weyl", "WeylGroup.bruhat_leq"),
    ("weyl.minimal_reps", "zipstrata.weyl", "WeylGroup.minimal_reps"),
    ("weyl.parabolic_elements", "zipstrata.weyl", "WeylGroup.parabolic_elements"),
    ("weyl.elements_of_length", "zipstrata.weyl", "WeylGroup.elements_of_length"),
    ("weyl.min_coset_rep", "zipstrata.weyl", "WeylGroup.min_coset_rep"),
    ("zipdatum.twisted_leq", "zipstrata.zipdatum", "ZipDatum.twisted_leq"),
    ("zipdatum.lower_neighbors", "zipstrata.zipdatum", "ZipDatum.lower_neighbors"),
    ("zipdatum.canonical_type", "zipstrata.zipdatum", "ZipDatum.canonical_type"),
    ("zipdatum.psi", "zipstrata.zipdatum", "ZipDatum.psi"),
    ("zipdatum.make_zip_datum", "zipstrata.zipdatum", "make_zip_datum"),
    ("strata.xi_of_weyl", "zipstrata.strata", "xi_of_weyl"),
    ("strata.pi_small", "zipstrata.strata", "pi_small"),
    ("strata.is_small", "zipstrata.strata", "is_small"),
    ("strata.w_sequences", "zipstrata.strata", "w_sequences"),
    ("strata.decide_smooth", "zipstrata.strata", "decide_smooth"),
    ("strata.closure_codim1", "zipstrata.strata", "closure_codim1"),
    ("hasse.hasse_feasible", "zipstrata.hasse", "hasse_feasible"),
    ("fq.rref", "zipstrata.fq", "rref"),
    ("fq.mat_mul", "zipstrata.fq", "mat_mul"),
    ("fq.mat_inv", "zipstrata.fq", "mat_inv"),
    ("fq.kernel_basis", "zipstrata.fq", "kernel_basis"),
    ("fq.preimage", "zipstrata.fq", "FqSubspace.preimage"),
    ("fq.map_semilinear", "zipstrata.fq", "FqSubspace.map_semilinear"),
    ("glnzip.xi_classify", "zipstrata.glnzip", "xi_classify"),
    ("glnzip.canonical_filtration", "zipstrata.glnzip", "canonical_filtration"),
    ("glnzip.model_table", "zipstrata.glnzip", "_model_table"),
    ("glnzip.verify_length2", "zipstrata.glnzip", "verify_length2"),
    ("rootdata.build_gl", "zipstrata.rootdata", "build_gl"),
    ("rootdata.build_generic", "zipstrata.rootdata", "build_generic"),
    ("rootdata.root_from_coords", "zipstrata.rootdata", "RootSystem.root_from_coords"),
    ("cli.cmd_strata_list", "zipstrata.cli", "cmd_strata_list"),
    ("cli.cmd_closure", "zipstrata.cli", "cmd_closure"),
]

ITEM = "bench.item"

# |W_I| above which the seed's xi_of_weyl switches to its numpy batch path.
# Fixed here so that `batched_calls` keeps one meaning across library versions.
XI_BATCH_THRESHOLD = 40_320


def type_a_parabolic_order(zd) -> int:
    """|W_I| for type-A data: the product of the factorials of the I-blocks."""
    n, I = zd.rs.ambient_dim, zd.I
    sizes, run = [], 1
    for k in range(1, n):
        if k in I:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return math.prod(math.factorial(s) for s in sizes)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.calls: list[int] = []
        self.yielded: list[int] = []
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.yielded.append(0)
        return len(self.names) - 1

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- spans opened by the benchmark itself ---------------------------------

    def begin(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    # -- wrappers ----------------------------------------------------------------

    def _wrap_function(self, nid, fn, pre, post):
        sn, sp, ss, se = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, calls, clock = self.stack, self.calls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if pre is not None:
                pre(args)
            idx = len(sn)
            sn.append(nid)
            sp.append(stack[-1])
            se.append(0.0)
            stack.append(idx)
            ss.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                se[idx] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def _wrap_generator(self, nid, fn, on_yields):
        sn, sp, ss, se = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, calls, yielded, clock = self.stack, self.calls, self.yielded, time.perf_counter

        def resume(inner, args, creator):
            produced = 0
            try:
                while True:
                    idx = len(sn)
                    sn.append(nid)
                    sp.append(stack[-1])
                    se.append(0.0)
                    stack.append(idx)
                    ss.append(clock())
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        se[idx] = clock()
                        stack.pop()
                    produced += 1
                    yield value
            finally:
                yielded[nid] += produced
                if on_yields is not None:
                    on_yields(args, creator, produced)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            creator = sn[stack[-1]] if stack[-1] >= 0 else -1
            return resume(fn(*args, **kwargs), args, creator)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; the zipstrata modules must import cleanly."""
        self.item_id = self._name_id(ITEM)
        ids = {}
        for name, _, _ in TARGETS:
            ids[name] = self._name_id(name)
        xi_id = ids["strata.xi_of_weyl"]
        count = self.count
        hooks = {
            "strata.xi_of_weyl": (self._xi_pre, None),
            "zipdatum.twisted_leq": (None, lambda r: count("twisted_leq.true", bool(r))),
            "zipdatum.lower_neighbors": (None, lambda r: count("lower_neighbors.found", len(r))),
            "hasse.hasse_feasible": (None, lambda r: count("hasse_feasible.feasible", r.feasible)),
            "glnzip.canonical_filtration": (
                None, lambda r: count("canonical_filtration.chain", len(r))),
        }

        def scan_yields(args, creator, produced):
            # generic data: the Xi scan draws W_I from parabolic_elements
            if creator == xi_id and args[0].rs.realization != "TYPE_A_GL":
                self.count("xi_of_weyl.wi_scanned", produced)

        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            if inspect.isgeneratorfunction(original):
                on_yields = scan_yields if name == "weyl.parabolic_elements" else None
                wrapper = self._wrap_generator(ids[name], original, on_yields)
            else:
                pre, post = hooks.get(name, (None, None))
                wrapper = self._wrap_function(ids[name], original, pre, post)
            if owner_name:
                self._replace(owner, attr, original, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "zipstrata" or mod_name.startswith("zipstrata."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._replace(mod, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _xi_pre(self, args) -> None:
        zd = args[0]
        if zd.rs.realization == "TYPE_A_GL":
            size = type_a_parabolic_order(zd)
            self.count("xi_of_weyl.wi_scanned", size)
            if size > XI_BATCH_THRESHOLD:
                self.count("xi_of_weyl.batched_calls")

    # -- per-layer numbers ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded since `install`.

        `<name>.self_s` is span time minus the time of its child spans;
        `trace.covered_s` is the time of library spans opened directly inside
        benchmark item spans, i.e. the part of the item loop the layers account
        for.
        """
        sn, sp, ss, se = self.span_name, self.span_parent, self.span_start, self.span_end
        k = len(self.names)
        total = [0.0] * k
        own = [0.0] * k
        covered = 0.0
        item_id = self.item_id
        for i in range(len(sn)):
            d = se[i] - ss[i]
            nid = sn[i]
            total[nid] += d
            own[nid] += d
            parent = sp[i]
            if parent >= 0:
                pid = sn[parent]
                own[pid] -= d
                if pid == item_id:
                    covered += d
        out: dict[str, float] = {"trace.spans": len(sn), "trace.covered_s": covered}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = own[nid]
            out[f"{name}.s"] = total[nid]
            out[f"{name}.yielded"] = self.yielded[nid]

        def share(num, den):
            return num / den if den else 0.0

        c = self.counts
        out["rootdata.build.s"] = out["rootdata.build_gl.s"] + out["rootdata.build_generic.s"]
        out["zipdatum.twisted_leq.true_share"] = share(
            c.get("twisted_leq.true", 0), out["zipdatum.twisted_leq.calls"])
        out["zipdatum.lower_neighbors.found_per_candidate"] = share(
            c.get("lower_neighbors.found", 0), out["weyl.elements_of_length.yielded"])
        out["strata.xi_of_weyl.wi_scanned"] = c.get("xi_of_weyl.wi_scanned", 0)
        out["strata.xi_of_weyl.batched_calls"] = c.get("xi_of_weyl.batched_calls", 0)
        out["hasse.hasse_feasible.feasible_share"] = share(
            c.get("hasse_feasible.feasible", 0), out["hasse.hasse_feasible.calls"])
        out["glnzip.canonical_filtration.chain_len"] = share(
            c.get("canonical_filtration.chain", 0), out["glnzip.canonical_filtration.calls"])
        return out
