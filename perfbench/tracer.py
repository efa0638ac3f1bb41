"""Span tracing from outside the program.

The tracer replaces public temporalkit functions at the module attributes
their callers look them up by, records one span per call (name, start, end,
parent span, operation id) in memory, and puts every original back when the
`installed()` block ends. Nothing inside temporalkit is edited.

A span's self time is its duration minus the part of that interval covered
by its child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time

import numpy as np

# (module, attribute, span name). The same function is bound under several
# modules (`from .x import f`), and each binding is wrapped on its own.
BINDINGS = (
    ("temporalkit.train", "load_video", "videofile.load_video"),
    ("temporalkit.train", "materialize_view", "videofile.materialize_view"),
    ("temporalkit.evaluate", "materialize_view", "videofile.materialize_view"),
    ("temporalkit.videofile", "resize_frames", "videofile.resize_frames"),
    ("temporalkit.train", "train_augment_view", "sampling.train_augment_view"),
    ("temporalkit.evaluate", "dense_test_plan", "sampling.dense_test_plan"),
    ("temporalkit.train", "backbone_forward", "model.backbone_forward"),
    ("temporalkit.evaluate", "backbone_forward", "model.backbone_forward"),
    ("temporalkit.gradcheck", "backbone_forward", "model.backbone_forward"),
    ("temporalkit.train", "backbone_backward", "model.backbone_backward"),
    ("temporalkit.gradcheck", "backbone_backward", "model.backbone_backward"),
    ("temporalkit.model", "offset_weight_net_forward", "model.offset_weight_net_forward"),
    ("temporalkit.gradcheck", "offset_weight_net_forward", "model.offset_weight_net_forward"),
    ("temporalkit.model", "offset_weight_net_backward", "model.offset_weight_net_backward"),
    ("temporalkit.gradcheck", "offset_weight_net_backward", "model.offset_weight_net_backward"),
    ("temporalkit.ops", "conv2d_with_cols", "ops.conv2d.fwd"),
    ("temporalkit.ops", "conv2d_backward", "ops.conv2d.bwd"),
    ("temporalkit.model", "interlace_forward", "temporal.interlace_forward"),
    ("temporalkit.gradcheck", "interlace_forward", "temporal.interlace_forward"),
    ("temporalkit.model", "interlace_backward", "temporal.interlace_backward"),
    ("temporalkit.gradcheck", "interlace_backward", "temporal.interlace_backward"),
    ("temporalkit.model", "tsm_shift", "temporal.tsm_shift"),
    ("temporalkit.gradcheck", "tsm_shift", "temporal.tsm_shift"),
    ("temporalkit.model", "tsm_shift_backward", "temporal.tsm_shift_backward"),
    ("temporalkit.gradcheck", "tsm_shift_backward", "temporal.tsm_shift_backward"),
    ("temporalkit.train", "bce_scaled", "losses.bce_scaled"),
    ("temporalkit.losses", "bce_scaled", "losses.bce_scaled"),
    ("temporalkit.train", "sgd_step", "optim.sgd_step"),
    ("temporalkit.evaluate", "evaluate_predictions", "evaluate.evaluate_predictions"),
    ("temporalkit.train", "evaluate_predictions", "evaluate.evaluate_predictions"),
    ("temporalkit.train", "map_eval", "metrics.map_eval"),
    ("temporalkit.metrics", "map_eval", "metrics.map_eval"),
    ("temporalkit.train", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("temporalkit.train", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("temporalkit.gradcheck", "run_op_suite", "gradcheck.run_op_suite"),
    ("temporalkit.gradcheck", "run_model_suite", "gradcheck.run_model_suite"),
    ("temporalkit.gradcheck", "fd_gradient", "gradcheck.fd_gradient"),
)

CONV_ROLES = ("stem", "conv1", "conv2", "skip", "other")
BACKBONE_SPANS = ("model.backbone_forward", "model.backbone_backward")

# Field positions in a span record.
NAME, START, END, PARENT, OP = range(5)


def span_names() -> list[str]:
    """Every span name a traced run can report, conv roles expanded."""
    names = []
    for _, _, name in BINDINGS:
        if name.startswith("ops.conv2d."):
            names += [f"ops.conv2d.{role}.{name.rsplit('.', 1)[1]}" for role in CONV_ROLES]
        elif name not in names:
            names.append(name)
    return list(dict.fromkeys(names))


def _arg(args, kwargs, pos, key, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def conv_fwd_flops(x_shape, k_shape, stride, pad) -> int:
    """Multiply-adds x2 of one conv2d forward (the main GEMM)."""
    n, _, h, w = x_shape
    co, ci, kh, kw = k_shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    return 2 * n * co * ho * wo * ci * kh * kw


class Tracer:
    """In-memory span recorder; it may be installed for several windows."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0  # operation id stamped on each new span
        self.missing: list[str] = []
        self.clip_chw = None  # (C, H, W) of the clip the current backbone call got
        self.conv_flops = {"fwd": 0, "bwd": 0}
        self.clips = 0  # rows fed to backbone_forward
        self.plan_views = 0
        self.plan_distinct = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][END] = time.perf_counter_ns()

    def _in_backbone(self) -> bool:
        return any(self.spans[i][NAME] in BACKBONE_SPANS for i in self.stack)

    def _conv_role(self, x_shape, k_shape, stride) -> str:
        # The rule follows the model's layout: the stem convolves the clip
        # itself, the skip projection is 1x1, conv2 is the only stride-1 3x3.
        if not self._in_backbone():
            return "other"
        if self.clip_chw is not None and tuple(x_shape[1:]) == self.clip_chw:
            return "stem"
        if k_shape[2:] == (1, 1):
            return "skip"
        return "conv2" if stride == 1 else "conv1"

    def _name_and_note(self, name, args, kwargs):
        """Span name for this call, plus counters read from its arguments."""
        if name == "model.backbone_forward":
            clip = np.shape(_arg(args, kwargs, 0, "clip", None))
            self.clip_chw = tuple(clip[2:])
            self.clips += clip[0]
        elif name.startswith("ops.conv2d."):
            direction = name.rsplit(".", 1)[1]
            if direction == "fwd":
                x, kernel = _arg(args, kwargs, 0, "x", None), _arg(args, kwargs, 1, "kernel", None)
            else:
                x, kernel = _arg(args, kwargs, 1, "x", None), _arg(args, kwargs, 2, "kernel", None)
            stride = _arg(args, kwargs, 3, "stride", 1)
            pad = _arg(args, kwargs, 4, "pad", 0)
            flops = conv_fwd_flops(np.shape(x), np.shape(kernel), stride, pad)
            # backward runs two GEMMs of the forward's size (weight and input grads)
            self.conv_flops[direction] += flops if direction == "fwd" else 2 * flops
            role = self._conv_role(np.shape(x), np.shape(kernel), stride)
            return f"ops.conv2d.{role}.{direction}"
        return name

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(tracer._name_and_note(name, args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "sampling.dense_test_plan":
                tracer.plan_views += len(out)
                tracer.plan_distinct += len(set(out))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- install / restore ---------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding that exists; restore all of them on exit."""
        self.missing = []
        try:
            for mod_name, attr, name in BINDINGS:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[int]:
    """Per-span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered, cursor = 0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append(end - start - covered)
    return out


def has_ancestor(spans, idx: int, names) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False
