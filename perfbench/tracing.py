"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every traced function at each module-global
binding in `cbfsteer.*` that holds that function object (several modules
import `signed_distance_batch` and friends by name, so patching the defining
module alone would miss their calls), and the traced methods on their
classes. Each call then records one span: name, start, end, parent span and
a row count. Spans stay in memory; `save()` writes them out and `metrics()`
turns them into the per-layer numbers listed in BENCHMARK.json.

A layer's self time is its span time minus the time of its child spans.
Time inside an operation window that no top-level span covers is
`trace.unattributed_s`, so the self times plus that figure add up to the
traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("kinematics", "geometry", "environment", "neural", "cbf", "controller",
           "planner", "bench", "config", "jsonio", "cli")


def _arg(a, k, i, name):
    return a[i] if len(a) > i else k[name]


def _rows(i, name):
    """Row count = length of the call's argument at position i (or keyword name)."""
    return lambda a, k, out: len(_arg(a, k, i, name))


def _empty(a, k, out):
    return int(out.empty)


def _truncated(a, k, out):
    return int(len(out) < len(_arg(a, k, 2, "configs")))


def _qp_flags(a, k, out):
    return int(out[1].constraint_active) | 2 * int(out[1].infeasible)


@dataclass(frozen=True)
class Layer:
    """One traced function.

    `rows` extracts the batch size from (args, kwargs, result); `flags`
    returns a bit mask (bit 0 and bit 1) that becomes the `*_frac` metrics."""

    name: str
    module: str
    attr: str
    rows: object = None
    flags: object = None
    flag_names: tuple = ()


LAYERS = (
    # entry layer: the calls the harness itself makes
    Layer("planner.rrt_plan", "planner", "rrt_plan"),
    Layer("bench.build_steer", "bench", "build_steer"),
    Layer("bench.eval_controller", "bench", "eval_controller"),
    Layer("cbf.collect_dataset", "cbf", "collect_dataset", rows=lambda a, k, out: len(out)),
    Layer("cbf.train", "cbf", "train"),
    Layer("cbf.evaluate_constraints", "cbf", "evaluate_constraints"),
    Layer("neural.save_checkpoint", "neural", "save_checkpoint"),
    Layer("neural.load_checkpoint", "neural", "load_checkpoint"),
    # planner
    Layer("planner.SearchTree.nearest", "planner", "SearchTree.nearest"),
    *(Layer("planner.steer", "planner", steer, flags=_empty, flag_names=("empty_frac",))
      for steer in ("steer_cbf_inc", "steer_straight", "steer_filter_lqr")),
    Layer("planner.validate_and_truncate", "planner", "validate_and_truncate",
          flags=_truncated, flag_names=("truncated_frac",)),
    # controller
    Layer("controller.solve_safety_qp", "controller", "solve_safety_qp",
          flags=_qp_flags, flag_names=("active_frac", "infeasible_frac")),
    Layer("controller.safe_rollout", "controller", "safe_rollout"),
    # barrier functions
    Layer("cbf.HandcraftedBarrier.value_and_grad", "cbf", "HandcraftedBarrier.value_and_grad"),
    Layer("cbf.NeuralBarrier.value_and_grad", "cbf", "NeuralBarrier.value_and_grad"),
    Layer("cbf.stencil_distances", "cbf", "stencil_distances", rows=_rows(0, "samples")),
    # networks
    Layer("neural.mlp_forward", "neural", "mlp_forward",
          rows=lambda a, k, out: out[1].x.shape[0]),
    Layer("neural.encoder_forward_batch", "neural", "encoder_forward_batch",
          rows=_rows(1, "qs")),
    Layer("neural.mlp_backward", "neural", "mlp_backward",
          rows=lambda a, k, out: _arg(a, k, 0, "tape").y.shape[0]),
    Layer("neural.encoder_backward_batch", "neural", "encoder_backward_batch",
          rows=lambda a, k, out: _arg(a, k, 0, "tape").trunk_tape.y.shape[0]),
    Layer("neural.adam_step", "neural", "adam_step"),
    # environment and geometry
    Layer("environment.signed_distance_batch", "environment", "signed_distance_batch",
          rows=_rows(2, "qs")),
    Layer("environment.step_obstacles", "environment", "step_obstacles"),
    Layer("environment.ray_cast_scan", "environment", "ray_cast_scan",
          rows=lambda a, k, out: out.points.shape[0]),
    Layer("kinematics.batch_link_frames", "kinematics", "batch_link_frames",
          rows=_rows(1, "qs")),
    Layer("geometry.capsule_world_min", "geometry", "capsule_world_min",
          rows=_rows(0, "seg_a")),
    Layer("geometry.seg_seg_distance_paired", "geometry", "seg_seg_distance_paired",
          rows=_rows(0, "a1")),
    Layer("geometry.segment_rect_signed_distance", "geometry", "segment_rect_signed_distance"),
    Layer("geometry.ray_rects", "geometry", "ray_rects", rows=_rows(0, "origins")),
    Layer("geometry.ray_circles", "geometry", "ray_circles", rows=_rows(0, "origins")),
)

# signed_distance_batch cost per configuration, by batch size: batch 1 is a
# control tick's collision check, 2-8 a finite-difference stencil, 65 and up
# an edge-validation ladder or a data-collection chunk.
SDB_BUCKETS = (("b1", 1, 1), ("b2_8", 2, 8), ("b9_64", 9, 64), ("b65_up", 65, None))
SDB = "environment.signed_distance_batch"
VALIDATE = "planner.validate_and_truncate"
OVERLAP = "geometry.segment_rect_signed_distance"
NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))

PLAN = ("plan-hand", "plan-cloud")
# Which end-to-end metric a per-layer metric should move, on which workloads
# (an optimisation of that layer should show there), and which workloads
# bypass it (there the prediction is no change). Keys are metric-name prefixes.
MAPPING = (
    (f"{SDB}.us_per_row.b2_8", "work_per_s, op_s_p50", ("plan-hand",), ("plan-cloud",)),
    (f"{SDB}.us_per_row.b1", "work_per_s, op_s_p50", ("control-dynamic",), ()),
    (f"{SDB}.us_per_row.b65_up", "work_per_s", ("learn",), ("plan-cloud",)),
    ("geometry.capsule_world_min", "work_per_s", ("plan-hand", "control-dynamic", "learn"), ()),
    ("geometry.seg_seg_distance_paired", "work_per_s",
     ("plan-hand", "control-dynamic", "learn"), ()),
    ("kinematics.batch_link_frames", "work_per_s", ("plan-hand", "control-dynamic", "learn"), ()),
    (OVERLAP, "work_per_s", ("learn", "plan-cloud"), ("control-dynamic",)),
    ("geometry.overlap_pairs_per_row", "work_per_s", ("learn", "plan-cloud"), ()),
    (VALIDATE, "work_per_s", PLAN, ("control-dynamic", "learn")),
    ("planner.SearchTree.nearest", "work_per_s", PLAN, ("control-dynamic", "learn")),
    ("planner.steer", "work_per_s, op_s_p50", PLAN, ("control-dynamic", "learn")),
    ("planner.rrt_plan", "op_s_p50", PLAN, ("control-dynamic", "learn")),
    ("controller.solve_safety_qp", "work_per_s", (*PLAN, "control-dynamic"), ("learn",)),
    ("controller.safe_rollout", "work_per_s, op_s_p50", ("control-dynamic",), PLAN),
    ("cbf.HandcraftedBarrier.value_and_grad", "work_per_s", ("plan-hand",), ("plan-cloud",)),
    ("cbf.NeuralBarrier.value_and_grad", "work_per_s", ("plan-cloud", "control-dynamic"),
     ("plan-hand",)),
    ("cbf.stencil_distances", "work_per_s", ("learn",), PLAN),
    ("cbf.collect_dataset", "work_per_s", ("learn",), PLAN),
    ("cbf.train", "work_per_s, op_s_p50", ("learn",), PLAN),
    ("cbf.evaluate_constraints", "work_per_s", ("learn",), PLAN),
    ("neural.mlp_forward", "work_per_s", ("plan-cloud", "control-dynamic"), ("plan-hand",)),
    ("neural.encoder_forward_batch", "work_per_s", ("plan-cloud", "control-dynamic"),
     ("plan-hand",)),
    ("neural.mlp_backward", "work_per_s", ("learn",), ("plan-cloud", "control-dynamic")),
    ("neural.encoder_backward_batch", "work_per_s", ("learn",),
     ("plan-cloud", "control-dynamic")),
    ("neural.adam_step", "work_per_s", ("learn",), ("plan-cloud", "control-dynamic")),
    ("neural.load_checkpoint", "op_s_p50", ("control-dynamic",), ()),
    ("environment.step_obstacles", "work_per_s", ("control-dynamic",), (*PLAN, "learn")),
    ("environment.ray_cast_scan", "work_per_s", ("control-dynamic",), (*PLAN, "learn")),
    ("geometry.ray_rects", "work_per_s", ("control-dynamic",), (*PLAN, "learn")),
    ("geometry.ray_circles", "work_per_s", ("control-dynamic",), (*PLAN, "learn")),
)


def _resolve(mod, attr):
    owner = mod
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Span recorder for one benchmark run; nothing is patched until install()."""

    def __init__(self):
        import cbfsteer.cli  # noqa: F401  (loads every module of the package)

        self.spans: list = []  # (name index, start, end, parent span, rows, flags)
        self._stack = [-1]
        self._patches = []  # (owner, attribute, wrapper, original)
        mods = [sys.modules[f"cbfsteer.{m}"] for m in MODULES]
        for layer in LAYERS:
            owner, last = _resolve(sys.modules[f"cbfsteer.{layer.module}"], layer.attr)
            original = owner.__dict__[last]
            wrapper = self._wrap(NAMES.index(layer.name), original, layer)
            if isinstance(owner, type):
                self._patches.append((owner, last, wrapper, original))
                continue
            for mod in mods:
                for key, val in vars(mod).items():
                    if val is original:
                        self._patches.append((mod, key, wrapper, original))

    def _wrap(self, fid, fn, layer):
        spans = self.spans
        stack = self._stack
        rows_fn = layer.rows
        flags_fn = layer.flags
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, 0, 0)
            spans[idx] = (fid, t0, t1, parent,
                          rows_fn(args, kwargs, out) if rows_fn else 1,
                          flags_fn(args, kwargs, out) if flags_fn else 0)
            return out

        return traced

    def install(self) -> None:
        for owner, key, wrapper, _ in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, _, original in self._patches:
            setattr(owner, key, original)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """Spans [lo, hi) as columns; parents index into the same range."""
        sp = np.array(self.spans[lo:hi], dtype=float).reshape(-1, 6)
        parent = sp[:, 3].astype(np.int64)
        return {
            "name": sp[:, 0].astype(np.int32),
            "start": sp[:, 1],
            "end": sp[:, 2],
            "parent": np.where(parent >= 0, parent - lo, -1),
            "rows": sp[:, 4].astype(np.int64),
            "flags": sp[:, 5].astype(np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def metrics(self, wall_s: float, lo: int, hi: int) -> dict:
        """Per-layer numbers of one traced pass, whose spans are [lo, hi) and
        whose operation windows add up to `wall_s`."""
        a = self.arrays(lo, hi)
        name, rows, flags = a["name"], a["rows"], a["flags"]
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        out = {}
        for fid, layer_name in enumerate(NAMES):
            sel = name == fid
            calls = int(sel.sum())
            layer = next(layer for layer in LAYERS if layer.name == layer_name)
            out[f"{layer_name}.calls"] = calls
            out[f"{layer_name}.self_s"] = float(self_s[sel].sum())
            if layer.rows is not None:
                out[f"{layer_name}.rows"] = int(rows[sel].sum())
            for bit, flag in enumerate(layer.flag_names):
                hits = int(((flags[sel] >> bit) & 1).sum())
                out[f"{layer_name}.{flag}"] = hits / calls if calls else 0.0

        sdb = name == NAMES.index(SDB)
        # edge validation rows: configurations it checked, start included
        parent_name = np.where(has_parent, name[np.maximum(a["parent"], 0)], -1)
        under = sdb & (parent_name == NAMES.index(VALIDATE))
        out[f"{VALIDATE}.rows"] = int(rows[under].sum())
        for label, lo, hi in SDB_BUCKETS:
            b = sdb & (rows >= lo) & (rows <= (hi or np.inf))
            n_rows = int(rows[b].sum())
            out[f"{SDB}.us_per_row.{label}"] = 1e6 * float(dur[b].sum()) / n_rows if n_rows else 0.0
        sdb_rows = out[f"{SDB}.rows"]
        out["geometry.overlap_pairs_per_row"] = (out[f"{OVERLAP}.calls"] / sdb_rows
                                                 if sdb_rows else 0.0)
        out["trace.spans"] = len(dur)
        out["trace.unattributed_s"] = (wall_s - float(dur[~has_parent].sum()))
        out["trace.wall_s"] = wall_s
        return out


if __name__ == "__main__":
    for prefix, metrics, moves, bypass in MAPPING:
        print(f"{prefix}: {metrics} on {', '.join(moves)}"
              + (f"; no change on {', '.join(bypass)}" if bypass else ""))
