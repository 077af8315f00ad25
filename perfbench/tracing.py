"""Span tracing around latticebump's public functions, from outside the package.

``Tracer.install`` replaces each wrapped function under every name a
``latticebump`` module holds it by (so ``transference.apply_T_sigma`` is
wrapped as well as ``operators.apply_T_sigma``) and ``uninstall`` puts the
originals back, so untraced ops run the unmodified program.  Each call records
a span (layer, start, end, parent span, op id) in memory; the one private
helper, ``norms._power_norm``, is only counted.  ``layer_metrics`` turns the
spans into per-op layer metrics: ``calls``, ``self_s`` (span time minus the
time of its child spans) and counts computed from array shapes.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

# layer name -> functions it wraps, as (module, attribute) in latticebump
LAYERS = {
    "transference.search_T_period": [("transference", "estimate_norm_T_period")],
    "transference.search_S": [("transference", "estimate_norm_S")],
    "transference.estimate_T_aPhi": [("transference", "estimate_norm_T_aPhi")],
    "transference.witness": [("transference", "build_amalgam_witness"),
                             ("transference", "build_wiener_witness")],
    "transference.verify": [("transference", "verify_amalgam_factorization"),
                            ("transference", "verify_wiener_factorization")],
    "symbols.synth_sigma": [("symbols", "synth_sigma")],
    "symbols.cm_decompose": [("symbols", "cm_decompose")],
    "operators.apply_T_sigma": [("operators", "apply_T_sigma")],
    "operators.apply_T_aPhi_fast": [("operators", "apply_T_aPhi_fast")],
    "operators.band_project": [("operators", "band_project")],
    "operators.apply_S": [("operators", "apply_S")],
    "operators.apply_T_period": [("operators", "apply_T_period")],
    "norms.amalgam_norm": [("norms", "amalgam_norm")],
    "norms.wiener_norm": [("norms", "wiener_norm")],
    "norms.wiener_band_values": [("norms", "wiener_band_values")],
    "norms.lp_norm": [("norms", "lp_norm")],
    "grid.transform": [("grid", "dft"), ("grid", "idft")],
    "bumps.eval": [("bumps", "bump_eval_axes"), ("bumps", "window_eval_axes")],
    "bumps.fixture": [("bumps", "check_condition_B"), ("bumps", "make_theta_pair"),
                      ("bumps", "make_window")],
    "scalinglab.family": [("scalinglab", "make_scaling_family")],
    "scalinglab.slope": [("scalinglab", "amalgam_scaling_slope"),
                         ("scalinglab", "wiener_scaling_slope")],
    "scalinglab.product": [("scalinglab", "bilinear_product_scaling")],
    "cli": [("cli", "main")],
}
# methods wrapped on their class: layer -> (module, class, method names)
METHOD_LAYERS = {"scalinglab.dilate": ("scalinglab", "ScalingFamily", ("f", "f_hat"))}

MODULES = ("grid", "bumps", "symbols", "operators", "norms", "transference",
           "scalinglab", "cli")


def _search_counts(args, kwargs, result) -> dict:
    hist = result.trace.get("history", [])
    return {"transference.search.sweeps": result.trace.get("iterations", 0),
            "transference.search.steps": max(len(hist) - 1, 0),
            "transference.search.improving": sum(b > a for a, b in zip(hist, hist[1:]))}


def _fast_counts(args, kwargs, result) -> dict:
    a, d = args[0], args[1]
    bands = (len({m1 for m1, _ in a.entries}) + len({m2 for _, m2 in a.entries}))
    return {"operators.apply_T_aPhi_fast.band_projections": bands * (2 * d.M + 1) ** d.n}


# computed counts recorded from a call's arguments and result
COUNTERS = {
    "transference.search_T_period": _search_counts,
    "transference.search_S": _search_counts,
    "symbols.synth_sigma": lambda args, kw, r: {"symbols.synth_sigma.bytes": r.samples.nbytes},
    "operators.apply_T_sigma": lambda args, kw, r: {
        "operators.apply_T_sigma.pairs": args[0].samples.size},
    "operators.apply_T_aPhi_fast": _fast_counts,
    "norms.amalgam_norm": lambda args, kw, r: {"norms.amalgam_norm.samples": args[0].samples.size},
    "norms.wiener_band_values": lambda args, kw, r: {"norms.wiener_band_values.bands": len(r[0])},
}

SELF_LAYERS = sorted(set(LAYERS) | set(METHOD_LAYERS))
COUNTS = ("norms.power_norm.calls", "cli.out_bytes", "transference.search.sweeps",
          "symbols.synth_sigma.bytes", "operators.apply_T_sigma.pairs",
          "operators.apply_T_aPhi_fast.band_projections", "norms.amalgam_norm.samples",
          "norms.wiener_band_values.bands")


class Tracer:
    """In-memory span recorder; spans are (layer, start, end, parent, op)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record one span of ``layer`` under the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (layer, t0, t1, parent, self.op)

    def root(self, op: int):
        """The root span of op ``op``; every span inside it belongs to the op."""
        self.op = op
        return self.span("op")

    def _wrap(self, layer: str, fn, counter):
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, v in counter(args, kwargs, result).items():
                    self.counts[self.op][key] += v
            return result

        return traced

    def _count(self, fn):
        def counted(*args, **kwargs):
            self.counts[self.op]["norms.power_norm.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced function under each name a latticebump module uses."""
        mods = {name: sys.modules[f"latticebump.{name}"] for name in MODULES}
        replace = {}
        for layer, targets in LAYERS.items():
            for mod, attr in targets:
                fn = getattr(mods[mod], attr)
                replace[id(fn)] = (fn, self._wrap(layer, fn, COUNTERS.get(layer)))
        power = mods["norms"]._power_norm
        replace[id(power)] = (power, self._count(power))
        for mod in list(mods.values()) + [sys.modules["latticebump"]]:
            for attr, val in list(vars(mod).items()):
                if id(val) in replace and replace[id(val)][0] is val:
                    self._patch(mod, attr, replace[id(val)][1])
        for layer, (mod, cls_name, methods) in METHOD_LAYERS.items():
            cls = getattr(mods[mod], cls_name)
            for m in methods:
                self._patch(cls, m, self._wrap(layer, cls.__dict__[m], None))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self, ops: list[int]) -> dict[str, float]:
        """Per-op means over ``ops`` of every per-layer metric.

        The root span of each op is named ``op``; its self time is the part of
        the op no wrapped function covers (``trace.unattributed_s``), so the
        layer self times plus that part add up to the op's wall time."""
        child = [0.0] * len(self.spans)
        for _layer, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        keep = set(ops)
        totals = dict.fromkeys(COUNTS, 0.0)
        for layer in SELF_LAYERS:
            totals[f"{layer}.calls"] = totals[f"{layer}.self_s"] = 0.0
        totals["trace.op_s"] = totals["trace.unattributed_s"] = 0.0
        for i, (layer, t0, t1, _parent, op) in enumerate(self.spans):
            if op not in keep:
                continue
            if layer == "op":
                totals["trace.op_s"] += t1 - t0
                totals["trace.unattributed_s"] += (t1 - t0) - child[i]
            else:
                totals[f"{layer}.calls"] += 1
                totals[f"{layer}.self_s"] += (t1 - t0) - child[i]
        for op in ops:
            for key, v in self.counts[op].items():
                totals[key] = totals.get(key, 0.0) + v
        steps = totals.pop("transference.search.steps", 0.0)
        improving = totals.pop("transference.search.improving", 0.0)
        out = {key: v / len(ops) for key, v in totals.items()}
        out["transference.search.improving_sweep_frac"] = improving / steps if steps else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for layer, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([layer, t0, t1, parent, op]) + "\n")

