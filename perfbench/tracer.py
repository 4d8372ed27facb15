"""Runtime span tracing of coarselab's layers, installed from outside.

The tracer replaces named functions and methods with timing wrappers
for the length of a traced run and restores them afterwards; no file of
the package changes.  A module-level function is also replaced wherever
another coarselab module imported it by name (``from .lineset import
_distances_to`` leaves a second reference in ``nearness_lab``).

Each wrapped call records a span ``[name, start, end, parent, op]``;
spans stay in memory and are written out when the run ends.  The
per-layer metrics are ``<layer>.<function>.calls`` and
``<layer>.<function>.self_s``, where self time is the span's duration
minus the time its direct child spans cover, plus the extra counts
named in ``layer_metrics``.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute path) of every spanned function.  The metric prefix
# is the module name without the package, then the attribute path.
SPANNED = (
    ("lineset", "PeriodicSet.window_array"),
    ("lineset", "BlocksSet.window_array"),
    ("lineset", "_distances_to"),
    ("lineset", "normality_split"),
    ("lineset", "hausdorff_distance"),
    ("lineset", "intersection"),
    ("lineset", "point_distance"),
    ("nearness_lab", "bunch_obstruction"),
    ("nearness_lab", "BunchObstruction.revalidate"),
    ("nearness_lab", "BunchObstruction.from_json"),
    ("nearness_lab", "BunchObstruction.to_json"),
    ("documents", "load_document"),
    ("documents", "build_line_sets"),
    ("cli", "main"),
    ("_bitops", "or_has_submask"),
    ("_bitops", "maximal_keys"),
    ("_bitops", "minimal_keys"),
    ("_bitops", "fold_or"),
    ("_bitops", "fold_and"),
    ("mining", "random_lsr"),
    ("mining", "close_lsr"),
    ("structures", "check_lsr_axioms"),
    ("structures", "is_ls_regular"),
    ("structures", "is_a_lsr"),
    ("structures", "check_nearness_axioms"),
    ("structures", "_is_down_closed"),
    ("structures", "ExplicitLSR.bounded_mask"),
    ("maps", "is_ls_equivalence"),
    ("maps", "is_lsr_map"),
    ("dimension", "asdim_explicit"),
    ("backends", "induced_nearness"),
    ("backends", "regularize"),
    ("backends", "FiniteBackend.bounded_mask"),
    ("backends", "PartitionCoarseBackend.member_table"),
    ("setcore", "Family.from_mask_key"),
)

# Called too often for per-call spans: a count and a total time only.
COUNTED = (("maps", "ExplicitMap.image_key"),)

# Left unwrapped on purpose, for the same reason: _bitops.bits,
# _bitops.submasks and _bitops.vee_key run millions of times per run.

WINDOW_BUILDS = ("lineset.PeriodicSet.window_array", "lineset.BlocksSet.window_array")
BITOPS_SWEEPS = {
    # name -> position of the slot count m among the positional arguments
    "_bitops.or_has_submask": 1,
    "_bitops.maximal_keys": 1,
    "_bitops.minimal_keys": 1,
    "_bitops.fold_or": 0,
    "_bitops.fold_and": 0,
}

EXTRA_COUNTS = (
    "lineset.PeriodicSet.window_array.points",
    "lineset._distances_to.points",
    "lineset.window_array.repeat_frac",
    "nearness_lab.scale_checks",
    "_bitops.keys_swept",
    "mining.close_lsr.useful_frac",
    "mining.close_lsr.rounds",
    "mining.close_lsr.keys_out",
    "maps.ExplicitMap.image_key.calls",
    "maps.ExplicitMap.image_key.total_s",
    "dimension.asdim_explicit.ub_covers",
)


def span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in table order."""
    names = []
    for module, path in SPANNED:
        base = span_name(module, path)
        names += [f"{base}.calls", f"{base}.self_s"]
    return names + list(EXTRA_COUNTS)


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``restore`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self._window_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- operation boundaries ------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._window_keys = set()

    def bump(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, path in SPANNED:
            self._patch(module, path, self._span_wrapper)
        for module, path in COUNTED:
            self._patch(module, path, self._count_wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        mod = importlib.import_module(f"coarselab.{module}")
        name = span_name(module, path)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(make_wrapper(name, original.__func__))
            else:
                wrapped = make_wrapper(name, original)
            self._set(owner, attr, wrapped)
            return
        original = getattr(mod, path)
        wrapped = make_wrapper(name, original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("coarselab"):
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        calls, total = f"{name}.calls", f"{name}.total_s"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[total] = counts.get(total, 0.0) + perf_counter() - t0
                counts[calls] = counts.get(calls, 0) + 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts observed at the boundaries -----------------------------------

    def _observer(self, name: str):
        if name in WINDOW_BUILDS:

            def observe(args, result):
                key = (args[0], args[1])
                if key in self._window_keys:
                    self.bump("window_array.repeats")
                self._window_keys.add(key)
                self.bump("window_array.builds")
                if name == "lineset.PeriodicSet.window_array":
                    self.bump("lineset.PeriodicSet.window_array.points", int(result.size))

            return observe
        if name == "lineset._distances_to":
            return lambda args, result: self.bump("lineset._distances_to.points", int(result.size))
        if name in BITOPS_SWEEPS:
            pos = BITOPS_SWEEPS[name]

            def observe(args, result):
                m = int(args[pos])
                self.bump("_bitops.keys_swept", m << m)

            return observe
        if name == "nearness_lab.bunch_obstruction":
            return lambda args, result: self.bump("nearness_lab.scale_checks", len(result.scale_checks))
        if name == "nearness_lab.BunchObstruction.revalidate":
            return lambda args, result: self.bump("nearness_lab.scale_checks", len(args[0].scale_checks))
        if name == "mining.close_lsr":

            def observe(args, result):
                self.bump("close_lsr.attempts")
                if result is not None:
                    self.bump("close_lsr.within_cap")
                    self.bump("mining.close_lsr.keys_out", len(result.keys))

            return observe
        if name == "dimension.asdim_explicit":
            return lambda args, result: self.bump(
                "dimension.asdim_explicit.ub_covers", result.uniformly_bounded_covers
            )
        return None

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, op_durations: list[float]) -> dict[str, float]:
        """Per-layer metrics over every span recorded, plus
        ``trace.unattributed_frac``: the share of operation time that
        lies outside any top-level span."""
        self_s = self_times(self.spans)
        out = {name: 0 for name in layer_metric_names()}
        top_level = 0.0
        for rec, own in zip(self.spans, self_s):
            name = rec[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if rec[3] == -1:
                top_level += rec[2] - rec[1]
        for key in EXTRA_COUNTS:
            if key in self.counts:
                out[key] = self.counts[key]
        builds = self.counts.get("window_array.builds", 0)
        out["lineset.window_array.repeat_frac"] = (
            self.counts.get("window_array.repeats", 0) / builds if builds else 0.0
        )
        attempts = self.counts.get("close_lsr.attempts", 0)
        out["mining.close_lsr.useful_frac"] = (
            self.counts.get("close_lsr.within_cap", 0) / attempts if attempts else 0.0
        )
        out["mining.close_lsr.rounds"] = count_under(
            self.spans, "_bitops.maximal_keys", "mining.close_lsr"
        )
        total = sum(op_durations)
        out["trace.unattributed_frac"] = max(0.0, 1.0 - top_level / total) if total else 0.0
        return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    hits = 0
    for rec in spans:
        if rec[0] != name:
            continue
        parent = rec[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                hits += 1
                break
            parent = spans[parent][3]
    return hits
