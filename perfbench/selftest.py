"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the tracer puts every wrapped function back (also when the
traced code raises), that self time is computed right on a hand-built span
tree, that each correctness gate counts a corrupted output as a failure,
that the host-speed scale reaches every reported time, and that
BENCHMARK.json names exactly the metrics run.py reports.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import tracer as tr


def binding_snapshot() -> dict:
    """Identity of every function the tracer may wrap, keyed by binding."""
    out = {}
    for mod_name, attr, _ in tr.BINDINGS:
        out[(mod_name, attr)] = getattr(importlib.import_module(mod_name), attr, None)
    return out


# root [0,100] has children A [10,40], B [30,60] (overlapping A) and D [90,120]
# (running past root's end); A has child C [15,25].
HAND_BUILT = [
    ["root", 0, 100, -1, 0],
    ["A", 10, 40, 0, 0],
    ["B", 30, 60, 0, 0],
    ["C", 15, 25, 1, 0],
    ["D", 90, 120, 0, 0],
]
# root: 100 - |[10,60] u [90,100]| = 40; A: 30 - 10; B, C, D have no children.
HAND_BUILT_SELF = [40, 20, 30, 10, 30]


def self_time_case_ok() -> bool:
    return tr.self_times(HAND_BUILT) == HAND_BUILT_SELF


class TracerTest(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        self.assertEqual(tr.self_times(HAND_BUILT), HAND_BUILT_SELF)

    def test_every_wrapped_function_is_restored(self):
        from temporalkit import ops

        before = binding_snapshot()
        tracer = tr.Tracer()
        with self.assertRaises(RuntimeError):
            with tracer.installed():
                self.assertIsNot(ops.conv2d_with_cols, before[("temporalkit.ops", "conv2d_with_cols")])
                ops.conv2d(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), np.zeros(1))
                raise RuntimeError("traced code failed")
        self.assertEqual(binding_snapshot(), before)
        self.assertEqual(tracer.missing, [])
        self.assertEqual([rec[tr.NAME] for rec in tracer.spans], ["ops.conv2d.other.fwd"])

    def test_conv_roles_inside_the_backbone(self):
        from temporalkit import evaluate, model

        cfg = model.ModelConfig(frames=2, in_channels=1, height=8, width=8, num_classes=2,
                                channels=(2, 3), dropout=0.0)
        params = model.init_params(cfg, 0)
        tracer = tr.Tracer()
        with tracer.installed():
            evaluate.backbone_forward(np.zeros((1, 2, 1, 8, 8)), params, cfg)
        names = [rec[tr.NAME] for rec in tracer.spans if rec[tr.NAME].startswith("ops.")]
        self.assertEqual(names, ["ops.conv2d.stem.fwd"]
                         + ["ops.conv2d.conv1.fwd", "ops.conv2d.conv2.fwd", "ops.conv2d.skip.fwd"] * 2)


class GateTest(unittest.TestCase):
    def test_corrupted_training_log_counts(self):
        import run
        import workloads as wl
        from temporalkit.checkpoint import save_checkpoint

        run.WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            good, bad_ckpt = Path(tmp) / "good.xtck", Path(tmp) / "nan.xtck"
            save_checkpoint(good, [("w", np.ones(2))])
            save_checkpoint(bad_ckpt, [("w", np.array([1.0, np.nan]))])
            lines = [f"{k}\t0.001\t1.5\t-" for k in range(3)]
            self.assertEqual(wl.check_training([lines], [good], 3).failed, 0)
            nan_loss = lines[:2] + ["2\t0.001\tnan\t-"]
            self.assertEqual(wl.check_training([nan_loss], [good], 3).failed, 1)
            drifted = lines[:2] + ["2\t0.001\t1.6\t-"]
            self.assertEqual(wl.check_training([lines, drifted], [good, good], 3).failed, 1)
            self.assertEqual(wl.check_training([lines], [bad_ckpt], 3).failed, 1)
            self.assertEqual(wl.check_training([lines[:2]], [good], 3).failed, 3)

    def test_corrupted_predictions_count(self):
        import workloads as wl
        from temporalkit.metrics import PredictionMatrix

        row = np.full(6, 0.5)
        preds = [PredictionMatrix(("a", "b"), np.stack([row, row]))]
        self.assertEqual(wl.check_predictions(preds, {"a": row}).failed, 0)
        for value in (np.nan, 1.5, -0.1, 0.5 + 1e-6):
            bad = [PredictionMatrix(("a", "b"), np.stack([row, row]))]
            bad[0].probs[0, 3] = value
            self.assertEqual(wl.check_predictions(bad, {"a": row}).failed, 1, value)

    def test_corrupted_gradcheck_counts(self):
        import workloads as wl
        from temporalkit.gradcheck import RTOL, CheckResult

        ok = [CheckResult("conv2d", RTOL / 10, 4), CheckResult("linear", 0.0, 4)]
        self.assertEqual(wl.check_gradients([ok]).failed, 0)
        bad = [ok[0], CheckResult("linear", RTOL, 4)]
        self.assertEqual(wl.check_gradients([ok, bad]).failed, 4)


class ScaleTest(unittest.TestCase):
    def test_scale_multiplies_every_time(self):
        import run
        from workloads import Unit

        units = [Unit(2.0, 4, [0.5] * 4, [1, 2, 3, 4]), Unit(1.0, 2, [0.5, 0.5], [5, 6])]
        setup = [(0.1, 0), (0.3, 5)]
        wall, _ = run.end_to_end(units, setup, lambda end: 1.0)
        half, _ = run.end_to_end(units, setup, lambda end: 0.5)
        self.assertAlmostEqual(wall["ops_per_s"], 2.0)
        self.assertAlmostEqual(half["ops_per_s"], 2 * wall["ops_per_s"])
        for name in ("setup_s", "step_ms_p50", "step_ms_p95"):
            self.assertAlmostEqual(half[name], wall[name] / 2)
        # each time takes the scale of the moment it ended
        split, _ = run.end_to_end(units, setup, lambda end: 0.5 if end <= 4 else 1.0)
        self.assertAlmostEqual(split["ops_per_s"], 6 / (2.0 * 0.5 + 1.0))

    def test_probe_scale_uses_the_probes_near_a_moment(self):
        import speed

        probe = speed.Probe()
        probe.ends = [float(t) for t in range(20)]
        probe.samples = [0.01] * 10 + [0.04] * 10
        self.assertAlmostEqual(probe.scale_at(2.5), speed.REF_S / 0.01)
        self.assertAlmostEqual(probe.scale_at(16.5), speed.REF_S / 0.04)
        self.assertAlmostEqual(probe.scale_at(99.0), speed.REF_S / 0.04)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_reported_metrics(self):
        import run

        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units(tr.span_names()))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))


if __name__ == "__main__":
    import run

    run.import_program()
    sys.exit(0 if unittest.main(exit=False).result.wasSuccessful() else 1)
