"""The four workloads: input generation, timed units, and correctness gates.

Each workload is a closed loop with one caller. A *unit* is one call into a
public temporalkit entry point; an *operation* is what `ops_per_s` counts:
a training step, a densely scored video, or one finite-difference case.
Every input is generated here from the workload seed; temporalkit only ever
sees the generated files and parameters.

Gates run outside the timed window. Each takes the outputs as plain values,
so the self-test can feed it a corrupted copy and see the failure counted.
"""

from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import temporalkit.checkpoint as tk_checkpoint
import temporalkit.evaluate as tk_evaluate
import temporalkit.gradcheck as tk_gradcheck
import temporalkit.train as tk_train
from temporalkit.config import RunConfig
from temporalkit.metrics import LabelMatrix, PredictionMatrix, map_eval
from temporalkit.model import backbone_forward, init_params, predict_clip
from temporalkit.sampling import dense_test_plan
from temporalkit.synth import NUM_CLASSES, generate_dataset
from temporalkit.videofile import materialize_view

# Dense predictions must match a one-view-at-a-time recomputation this closely;
# batching views only reorders float64 GEMM sums, far below this.
RECOMPUTE_ATOL = 1e-9


@dataclass
class Unit:
    """One timed call: its wall time, operations done, and step latencies."""

    seconds: float
    ops: int
    steps: list[float]
    ends: list[float]  # perf_counter at the end of each step
    setup: float | None = None
    window: tuple[float, float] | None = None  # perf_counter span of the training steps


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)


def _seeds(seed: int, count: int) -> list[int]:
    """Independent sub-seeds for the inputs of one workload seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


class _SetupDone(Exception):
    """Raised by the set-up probe at the first batch to stop run_training."""


class _FirstCall:
    """Replace a module function until its first call, noting when that came.

    The hook puts the original back on that first call, so the rest of the
    run pays nothing for it.
    """

    def __init__(self, module, attr: str, stop: bool = False):
        self.module, self.attr, self.stop = module, attr, stop
        self.original = getattr(module, attr)
        self.at: float | None = None

    def __enter__(self):
        def hook(*args, **kwargs):
            self.at = time.perf_counter()
            setattr(self.module, self.attr, self.original)
            if self.stop:
                raise _SetupDone
            return self.original(*args, **kwargs)

        setattr(self.module, self.attr, hook)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)
        return exc[0] is _SetupDone


# ---------------------------------------------------------------------------
# train-tin
# ---------------------------------------------------------------------------

class TrainTin:
    """run_training in tin mode on the acceptance experiment's data shape."""

    steps = 200
    min_units = 1
    setups_per_unit = 12
    pause_every = 20  # steps between calls of a unit's `pause`

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.logs: list[list[str]] = []
        self.checkpoints: list[Path] = []
        self._runs = 0

    def prepare(self) -> None:
        train_seed, val_seed = _seeds(self.seed, 2)
        root = self.work / "data"
        generate_dataset(root / "train", 600, seed=train_seed, rel_prefix="train/")
        generate_dataset(root / "val", 120, seed=val_seed, rel_prefix="val/")
        self.cfg = RunConfig(
            temporal_mode="tin", max_iters=self.steps, seed=self.seed, data_root=str(root),
            train_manifest=str(root / "train" / "manifest.tsv"),
            val_manifest=str(root / "val" / "manifest.tsv"),
            # the only clip eval and checkpoint come after the last step
            eval_interval=self.steps, checkpoint_interval=self.steps,
        )

    def _cfg(self, **changes) -> RunConfig:
        self._runs += 1
        return dataclasses.replace(self.cfg, out_dir=str(self.work / f"run{self._runs:03d}"),
                                   **changes)

    def warmup(self) -> None:
        tk_train.run_training(self._cfg(max_iters=3))

    def setup_samples(self, repeats: int) -> list[float]:
        """Time run_training from its call to the first batch, then stop it."""
        out = []
        for _ in range(repeats):
            cfg = self._cfg()
            with _FirstCall(tk_train, "train_augment_view", stop=True) as first:
                t0 = time.perf_counter()
                tk_train.run_training(cfg)
            out.append(first.at - t0)
        return out

    def unit(self, tracer=None, pause=None) -> Unit:
        """One training. `pause`, if given, is called after every
        `pause_every` steps; its time is left out of the steps and the unit."""
        cfg = self._cfg()
        stamps, resumes, lines = [], [], []

        def log_fn(line):
            stamps.append(time.perf_counter())
            lines.append(line)
            if tracer is not None:
                tracer.op += 1
            if pause is not None and len(lines) % self.pause_every == 0:
                pause()
            resumes.append(time.perf_counter())

        with _FirstCall(tk_train, "train_augment_view") as first:
            t0 = time.perf_counter()
            ckpt = tk_train.run_training(cfg, log_fn=log_fn)
            t1 = time.perf_counter()
        self.logs.append(lines)
        self.checkpoints.append(Path(ckpt))
        steps = (np.array(stamps) - np.array([first.at] + resumes[:-1])).tolist()
        paused = sum(r - s for s, r in zip(stamps, resumes))
        return Unit(t1 - t0 - paused, len(lines), steps, stamps, setup=first.at - t0,
                    window=(first.at, stamps[-1]))

    def quality(self) -> dict:
        _, _, loss, val_map = self.logs[0][-1].split("\t")
        return {"loss_final": float(loss), "sample_map": float(val_map)}

    def gate(self) -> Gate:
        return check_training(self.logs, self.checkpoints, self.steps)

    def corrupted_gate(self) -> Gate:
        logs = [list(run) for run in self.logs]
        it, lr, _, val_map = logs[0][-1].split("\t")
        logs[0][-1] = "\t".join((it, lr, "nan", val_map))
        return check_training(logs, self.checkpoints, self.steps)


def _finite_loss(line: str) -> bool:
    try:
        return math.isfinite(float(line.split("\t")[2]))
    except (IndexError, ValueError):
        return False


def check_training(logs, checkpoints, steps: int) -> Gate:
    """Finite losses, identical logs across runs of one config (training is
    bit-deterministic), and a final checkpoint that loads back finite."""
    gate = Gate()
    reference = logs[0]
    for run, (lines, ckpt) in enumerate(zip(logs, checkpoints)):
        gate.attempted += steps
        bad = set()
        if len(lines) != steps:
            gate.fail(steps, f"run {run}: {len(lines)} log lines, expected {steps}")
            continue
        for k, line in enumerate(lines):
            if not _finite_loss(line) or k >= len(reference) or line != reference[k]:
                bad.add(k)
        try:
            entries = tk_checkpoint.load_checkpoint(ckpt)
            if not all(np.all(np.isfinite(arr)) for _, arr in entries):
                bad.add(steps - 1)
        except (OSError, ValueError) as exc:
            gate.notes.append(f"run {run}: checkpoint {ckpt.name}: {exc}")
            bad.add(steps - 1)
        if bad:
            gate.fail(len(bad), f"run {run}: steps {sorted(bad)[:5]} non-finite or not reproduced")
    return gate


# ---------------------------------------------------------------------------
# eval-dense-repeat / eval-dense-distinct
# ---------------------------------------------------------------------------

class _Shard:
    """The slice of a Dataset that evaluate_predictions needs, for a few videos."""

    def __init__(self, data, indices):
        self.data, self.indices = data, list(indices)
        self.ids = tuple(data.ids[i] for i in self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def num_frames(self, i: int) -> int:
        return self.data.num_frames(self.indices[i])

    def frames(self, i: int) -> np.ndarray:
        return self.data.frames(self.indices[i])


class EvalDense:
    """Dense eval (10 clips x 3 crops x 3 scales) of seeded checkpoints."""

    min_units = 2
    setups_per_unit = 1
    shard = 1  # videos per evaluate_predictions call
    quality_units = 8  # units whose predictions give sample_map
    pool = 48  # distinct videos; a fresh Dataset decodes them again each pass

    def __init__(self, work: Path, seed: int, mode: str, frames: int):
        self.work, self.seed, self.mode, self.frames = work, seed, mode, frames
        self.preds: list[PredictionMatrix] = []
        self._next = 0

    def prepare(self) -> None:
        video_seed, param_seed = _seeds(self.seed, 2)
        root = self.work / "data"
        manifest = generate_dataset(root / "val", self.pool, t=self.frames, seed=video_seed,
                                    rel_prefix="val/")
        self.cfg = RunConfig(temporal_mode=self.mode, seed=self.seed, data_root=str(root),
                             val_manifest=str(manifest))
        mcfg = tk_train.model_config_from_run(self.cfg, in_channels=1)
        params = init_params(mcfg, self.seed)
        if self.mode == "tin":
            # Non-zero offset/weight heads, so interlacing takes its fractional
            # two-tap path; zero heads would only ever shift by whole frames.
            rng = np.random.default_rng(param_seed)
            for name in params.names():
                if ".tin.offs." in name or ".tin.wts." in name:
                    params.values[name][...] = rng.normal(scale=0.5, size=params[name].shape)
        self.ckpt = self.work / "model.xtck"
        tk_checkpoint.save_checkpoint(self.ckpt, tk_checkpoint.pack_training_state(params, {}, 0))

    def _open(self):
        data = tk_train.Dataset(self.cfg.val_manifest, self.cfg.data_root, self.cfg.classes)
        mcfg = tk_train.model_config_from_run(self.cfg, data.in_channels)
        params = tk_train.load_params_for_eval(self.cfg, mcfg, self.ckpt)
        return data, mcfg, params

    def setup_samples(self, repeats: int) -> list[float]:
        out = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._open()
            out.append(time.perf_counter() - t0)
        return out

    def warmup(self) -> None:
        self.data, self.mcfg, self.params = self._open()
        tk_evaluate.evaluate_predictions(self.cfg, self.params, self.mcfg,
                                         _Shard(self.data, range(self.shard)), mode="dense")
        self.data, self.mcfg, self.params = self._open()

    def unit(self, tracer=None, pause=None) -> Unit:
        """One evaluate_predictions call; `pause` has no step to follow inside it."""
        if self._next + self.shard > self.pool:
            # next pass over the pool: a fresh Dataset, so videos are decoded again
            self.data, self.mcfg, self.params = self._open()
            self._next = 0
        shard = _Shard(self.data, range(self._next, self._next + self.shard))
        self._next += self.shard
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        preds = tk_evaluate.evaluate_predictions(self.cfg, self.params, self.mcfg, shard,
                                                 mode="dense")
        t1 = time.perf_counter()
        self.preds.append(preds)
        return Unit(t1 - t0, len(shard), [t1 - t0], [t1])

    def _labels(self, ids) -> LabelMatrix:
        index = {sid: i for i, sid in enumerate(self.data.ids)}
        return LabelMatrix(tuple(ids), self.data.labels[[index[i] for i in ids]])

    def quality(self) -> dict:
        first = self.preds[: self.quality_units]
        ids = sum((p.ids for p in first), ())
        preds = PredictionMatrix(ids, np.concatenate([p.probs for p in first]))
        return {"sample_map": map_eval(preds, self._labels(ids), "sample")}

    def reference(self) -> dict[str, np.ndarray]:
        """Recompute the first video of the first two units one view at a time."""
        data, mcfg, params = self._open()
        spec = tk_train.clip_spec_from_config(self.cfg)
        index = {sid: i for i, sid in enumerate(data.ids)}
        out = {}
        for preds in self.preds[: self.min_units]:
            sid = preds.ids[0]
            frames = data.frames(index[sid])
            plan = dense_test_plan(frames.shape[0], spec, num_clips=10, crops_per_clip=3,
                                   scales=self.cfg.scales, crop_size=self.cfg.crop)
            rows = [predict_clip(backbone_forward(materialize_view(frames, v)[None], params, mcfg))
                    for v in plan]
            out[sid] = np.concatenate(rows).mean(axis=0)
        return out

    def gate(self) -> Gate:
        self._ref = self.reference()
        return check_predictions(self.preds, self._ref)

    def corrupted_gate(self) -> Gate:
        preds = [PredictionMatrix(p.ids, p.probs.copy()) for p in self.preds]
        preds[0].probs[0, 0] += 1e-6  # in range, but off the recomputation
        preds[-1].probs[-1, -1] = np.nan
        return check_predictions(preds, self._ref)


def check_predictions(preds, reference) -> Gate:
    """Rows finite and in [0,1]; sampled rows equal the per-view recomputation."""
    gate = Gate()
    for pm in preds:
        for sid, row in zip(pm.ids, pm.probs):
            gate.attempted += 1
            if row.shape != (NUM_CLASSES,) or not np.all(np.isfinite(row)) \
                    or np.any(row < 0) or np.any(row > 1):
                gate.fail(1, f"{sid}: prediction row out of [0,1] or not finite")
            elif sid in reference and np.max(np.abs(row - reference[sid])) > RECOMPUTE_ATOL:
                err = float(np.max(np.abs(row - reference[sid])))
                gate.fail(1, f"{sid}: differs from per-view recomputation by {err:.3e}")
    return gate


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

class GradCheck:
    """run_op_suite + run_model_suite at a fixed case count per call."""

    cases = 1
    min_units = 1
    setups_per_unit = 1

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.results: list = []

    def prepare(self) -> None:
        # The suites draw their own cases from base_seed; the workload seed is
        # that base, so seed 0 starts with the cases `temporalkit gradcheck` runs.
        self._next_case = self.seed

    def _suites(self, cases: int):
        base = self._next_case
        self._next_case += cases
        return tk_gradcheck.run_op_suite(cases, base) + tk_gradcheck.run_model_suite(cases, base)

    def warmup(self) -> None:
        self._suites(1)

    def setup_samples(self, repeats: int) -> list[float]:
        """Import time of the gradcheck module in a fresh interpreter: what a
        `temporalkit gradcheck` user waits for before the first case."""
        src = str(Path(tk_gradcheck.__file__).resolve().parents[1])
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import temporalkit.gradcheck; print(time.perf_counter() - t)")
        out = []
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                                  text=True, timeout=120, check=True)
            out.append(float(proc.stdout.strip()))
        return out

    def unit(self, tracer=None, pause=None) -> Unit:
        """One call of each suite; `pause` has no step to follow inside it."""
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        results = self._suites(self.cases)
        t1 = time.perf_counter()
        self.results.append(results)
        return Unit(t1 - t0, sum(r.cases for r in results), [t1 - t0], [t1])

    def quality(self) -> dict:
        return {"max_scaled_err": max(r.max_error for rs in self.results for r in rs)}

    def gate(self) -> Gate:
        return check_gradients(self.results)

    def corrupted_gate(self) -> Gate:
        results = [list(rs) for rs in self.results]
        worst = results[0][0]
        results[0][0] = tk_gradcheck.CheckResult(worst.name, 10 * tk_gradcheck.RTOL, worst.cases)
        return check_gradients(results)


def check_gradients(results) -> Gate:
    """Every case under RTOL. A suite reports only its worst case per check,
    so a failing check counts all of its cases as failed."""
    gate = Gate()
    for rs in results:
        for r in rs:
            gate.attempted += r.cases
            if not r.ok:
                gate.fail(r.cases, f"{r.name}: max scaled error {r.max_error:.3e}")
    return gate


WORKLOADS = {
    "train-tin": TrainTin,
    "eval-dense-repeat": lambda work, seed: EvalDense(work, seed, "tin", frames=16),
    "eval-dense-distinct": lambda work, seed: EvalDense(work, seed, "tsm", frames=64),
    "gradcheck": GradCheck,
}

