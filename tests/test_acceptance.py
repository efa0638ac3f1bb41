"""Acceptance suite: one test per shipping criterion, each at its stated
tolerance, printing a labeled pass line as it completes.

The separation experiment trains seven full models (about fifteen minutes
total on two laptop-class cores); everything else is seconds. Run with
`pytest tests/test_acceptance.py -v -s` to watch the criterion lines appear.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import temporalkit.gradcheck as gc
from temporalkit.checkpoint import load_checkpoint, save_checkpoint, unpack_training_state
from temporalkit.config import RunConfig, model_config_from_run
from temporalkit.evaluate import evaluate_predictions
from temporalkit.losses import LossConfig, bce_scaled
from temporalkit.metrics import (
    LabelMatrix,
    PredictionMatrix,
    average_precision,
    ensemble_average,
    map_eval,
)
from temporalkit.model import ModelConfig, backbone_forward, init_params
from temporalkit.optim import Schedule, SgdConfig, lr_at
from temporalkit.sampling import ClipSamplerSpec, dense_test_plan
from temporalkit.synth import generate_dataset
from temporalkit.temporal import (
    GroupSpec,
    InterlaceParams,
    ShiftSpec,
    interlace_forward,
    tsm_shift,
)
from temporalkit.train import Dataset, load_params_for_eval, run_training

from test_metrics import map_by_counting


def report(line):
    print(f"\n{line}", flush=True)


# ---------------------------------------------------------------------------
# shared training fixtures for the synthetic separation experiment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sep_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("sep")
    generate_dataset(root / "train", 600, t=16, h=32, w=32, seed=11, rel_prefix="train/")
    generate_dataset(root / "val", 120, t=16, h=32, w=32, seed=12, rel_prefix="val/")
    return root


def _run_config(root, out_dir, mode, seed, **overrides):
    kw = dict(
        data_root=str(root),
        train_manifest=str(root / "train" / "manifest.tsv"),
        val_manifest=str(root / "val" / "manifest.tsv"),
        out_dir=str(out_dir),
        temporal_mode=mode,
        seed=seed,
    )
    kw.update(overrides)
    return RunConfig(**kw)


def _final_val_map(out_dir) -> float:
    last = Path(out_dir, "metrics.log").read_text().splitlines()[-1]
    return float(last.split("\t")[3])


@pytest.fixture(scope="module")
def sep_runs(sep_data, tmp_path_factory):
    """Seven full 2000-iteration runs: tin/tsm across three seeds, one none."""
    out_root = tmp_path_factory.mktemp("runs")
    results = {}
    for mode, seeds in (("tin", (0, 1, 2)), ("tsm", (0, 1, 2)), ("none", (0,))):
        for seed in seeds:
            out_dir = out_root / f"{mode}_{seed}"
            cfg = _run_config(sep_data, out_dir, mode, seed)
            start = time.perf_counter()
            ckpt = run_training(cfg)
            elapsed = time.perf_counter() - start
            results[(mode, seed)] = {
                "map": _final_val_map(out_dir),
                "ckpt": ckpt,
                "cfg": cfg,
                "seconds": elapsed,
            }
    return results


# ---------------------------------------------------------------------------
# criterion 1: the gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite_under_budget():
    start = time.perf_counter()
    results = gc.run_op_suite(cases=100) + gc.run_model_suite(cases=100)
    elapsed = time.perf_counter() - start
    for res in results:
        assert res.ok, res.line()
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    worst = max(r.max_error for r in results)
    report(f"PASS criterion 1: {len(results)} gradient checks, worst scaled error "
           f"{worst:.2e} < 1e-4, runtime {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 2: identity at initialization
# ---------------------------------------------------------------------------

def test_criterion_2_identity_at_init():
    none_cfg = ModelConfig(frames=6, in_channels=1, height=16, width=16, num_classes=6,
                           temporal_mode="none", dropout=0.0)
    tin_cfg = ModelConfig(frames=6, in_channels=1, height=16, width=16, num_classes=6,
                          temporal_mode="tin", num_groups=2, dropout=0.0)
    none_params = init_params(none_cfg, seed=0)
    tin_params = init_params(tin_cfg, seed=0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        clip = rng.normal(size=(2, 6, 1, 16, 16))
        delta = backbone_forward(clip, tin_params, tin_cfg) - backbone_forward(
            clip, none_params, none_cfg
        )
        worst = max(worst, float(np.max(np.abs(delta))))
    assert worst <= 1e-12
    report(f"PASS criterion 2: zero-init interlace model matches the plain model, "
           f"worst |delta logit| {worst:.2e} <= 1e-12 over 50 inputs")


# ---------------------------------------------------------------------------
# criterion 3: operator equivalences
# ---------------------------------------------------------------------------

def test_criterion_3_operator_equivalence():
    rng = np.random.default_rng(7)

    def pure_shift(x, k):
        t = x.shape[1]
        y = np.zeros_like(x)
        for dst in range(t):
            if 0 <= dst + k < t:
                y[:, dst] = x[:, dst + k]
        return y

    worst_int = 0.0
    for trial in range(50):
        x = rng.normal(size=(2, 5, 4, 3, 3))
        offsets = rng.integers(-2, 3, size=(2, 2)).astype(float)
        params = InterlaceParams(offsets, np.ones((2, 2, 5)), delta_max=2.5)
        groups = GroupSpec.even(4, 2)
        got = interlace_forward(x, groups, params)
        want = np.empty_like(x)
        for n in range(2):
            for g, (c0, c1) in enumerate(groups.ranges):
                want[n, :, c0:c1] = pure_shift(x[n : n + 1, :, c0:c1], int(offsets[n, g]))[0]
        worst_int = max(worst_int, float(np.max(np.abs(got - want))))
    assert worst_int <= 1e-15

    groups = GroupSpec(((0, 1), (1, 2), (2, 4)))
    worst_tsm = 0.0
    for trial in range(100):
        x = rng.normal(size=(2, 4, 4, 2, 2))
        offsets = np.tile([1.0, -1.0, 0.0], (2, 1))
        params = InterlaceParams(offsets, np.ones((2, 3, 4)), delta_max=2.0)
        diff = tsm_shift(x, ShiftSpec(0.25)) - interlace_forward(x, groups, params)
        worst_tsm = max(worst_tsm, float(np.max(np.abs(diff))))
    assert worst_tsm <= 1e-15
    report(f"PASS criterion 3: integer-offset interlace == composed shifts "
           f"({worst_int:.1e}) and TSM == interlace configuration ({worst_tsm:.1e}), "
           f"both <= 1e-15")


# ---------------------------------------------------------------------------
# criterion 4: schedule anchors
# ---------------------------------------------------------------------------

def test_criterion_4_schedule_anchors():
    cos_cfg = SgdConfig(base_lr=0.2, momentum=0.9)
    cos = Schedule(kind="cosine", max_iter=180_000)
    assert lr_at(cos, cos_cfg, 0) == 0.2
    assert lr_at(cos, cos_cfg, 90_000) == 0.1
    assert lr_at(cos, cos_cfg, 180_000) == 0.0

    step_cfg = SgdConfig(base_lr=0.01, momentum=0.9)
    step = Schedule(kind="step", milestones=(10, 20), factor=0.1)
    seq = [lr_at(step, step_cfg, k) for k in (9, 10, 19, 20)]
    np.testing.assert_allclose(seq, [0.01, 0.001, 0.001, 0.0001], rtol=1e-12)
    report("PASS criterion 4: cosine anchors (0.2, 0.1, 0.0) exact at 180k iters; "
           "step decades 0.01 -> 0.001 -> 0.0001 at milestones {10, 20}")


# ---------------------------------------------------------------------------
# criterion 5: the loss-scale / learning-rate (non-)equivalence, end to end
# ---------------------------------------------------------------------------

def _params_after(root, out_dir, scale, lr, decay):
    cfg = _run_config(root, out_dir, "none", 0, val_manifest="", max_iters=50, batch=4,
                      loss_scale=scale, lr=lr, momentum=0.0, weight_decay=decay,
                      warmup_iters=0, checkpoint_interval=50)
    ckpt = run_training(cfg)
    values, _, _ = unpack_training_state(load_checkpoint(ckpt))
    return values


def test_criterion_5_loss_scale_property(sep_data, tmp_path):
    eta = 1e-5
    a = _params_after(sep_data, tmp_path / "a", 160.0, eta, 0.0)
    b = _params_after(sep_data, tmp_path / "b", 1.0, 160.0 * eta, 0.0)
    agree = max(np.max(np.abs(a[k] - b[k])) for k in a)
    assert agree <= 1e-9, f"trajectories diverged by {agree}"

    c = _params_after(sep_data, tmp_path / "c", 160.0, eta, 5e-4)
    d = _params_after(sep_data, tmp_path / "d", 1.0, 160.0 * eta, 5e-4)
    differ = max(np.max(np.abs(c[k] - d[k])) for k in c)
    assert differ > 1e-6, f"weight decay failed to break the equivalence ({differ})"
    report(f"PASS criterion 5: scale-160/lr vs scale-1/160lr agree to {agree:.1e} "
           f"over 50 steps; weight decay 5e-4 drives them {differ:.1e} apart")


# ---------------------------------------------------------------------------
# criterion 6: the mAP oracle
# ---------------------------------------------------------------------------

def test_criterion_6_map_matches_bruteforce_oracle():
    assert average_precision([0.9, 0.1, 0.8], [1, 0, 1]) == 1.0
    np.testing.assert_allclose(
        average_precision([0.9, 0.8, 0.1], [0, 1, 1]), 7.0 / 12.0, rtol=1e-12
    )

    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 1000:
        s = int(rng.integers(1, 9))
        c = int(rng.integers(1, 7))
        probs = np.round(rng.random((s, c)), 2)
        labels = (rng.random((s, c)) < 0.4).astype(float)
        if labels.sum() == 0:
            continue
        ids = tuple(f"v{i}" for i in range(s))
        pm, lm = PredictionMatrix(ids, probs), LabelMatrix(ids, labels)
        for mode in ("sample", "class"):
            want = map_by_counting(probs, labels, mode)
            worst = max(worst, abs(map_eval(pm, lm, mode) - want))
        checked += 1
    assert worst <= 1e-12
    report(f"PASS criterion 6: mAP equals the brute-force oracle on 1000 instances "
           f"(worst gap {worst:.1e} <= 1e-12); hand examples 1.0 and 7/12 reproduce")


# ---------------------------------------------------------------------------
# criterion 7: synthetic temporal separation
# ---------------------------------------------------------------------------

def test_criterion_7_synthetic_separation(sep_runs):
    for (mode, seed), run in sep_runs.items():
        assert run["seconds"] < 600.0, f"{mode}/{seed} took {run['seconds']:.0f}s"

    tin = [sep_runs[("tin", s)]["map"] for s in (0, 1, 2)]
    tsm = [sep_runs[("tsm", s)]["map"] for s in (0, 1, 2)]
    none_map = sep_runs[("none", 0)]["map"]

    for mode, maps in (("tin", tin), ("tsm", tsm)):
        for seed, value in zip((0, 1, 2), maps):
            assert value >= 0.85, f"{mode} seed {seed} reached only {value:.3f}"
    assert none_map <= 0.65, f"temporal-free model reached {none_map:.3f}"
    assert np.mean(tin) >= np.mean(tsm) - 0.03

    report("PASS criterion 7: val mAP tin=" + "/".join(f"{m:.3f}" for m in tin)
           + " tsm=" + "/".join(f"{m:.3f}" for m in tsm)
           + f" >= 0.85; none={none_map:.3f} <= 0.65; mean tin >= mean tsm - 0.03; "
           f"slowest run {max(r['seconds'] for r in sep_runs.values()):.0f}s < 600s")


# ---------------------------------------------------------------------------
# criterion 8: dense-inference bookkeeping
# ---------------------------------------------------------------------------

def test_criterion_8_dense_inference(sep_runs, sep_data):
    plan = dense_test_plan(90, ClipSamplerSpec.strided(8, 8))
    assert len(plan) == 90

    run = sep_runs[("tin", 0)]
    cfg = run["cfg"]
    val = Dataset(cfg.val_manifest, cfg.resolve_data_root(), cfg.classes)
    mcfg = model_config_from_run(cfg, val.in_channels)
    params = load_params_for_eval(cfg, mcfg, run["ckpt"])
    labels = val.label_matrix()
    clip_map = map_eval(evaluate_predictions(cfg, params, mcfg, val, "clip"), labels, "sample")
    dense_map = map_eval(evaluate_predictions(cfg, params, mcfg, val, "dense"), labels, "sample")
    assert dense_map >= clip_map - 0.02
    report(f"PASS criterion 8: default dense plan emits 90 views; dense mAP "
           f"{dense_map:.4f} >= clip mAP {clip_map:.4f} - 0.02")


# ---------------------------------------------------------------------------
# companion to the ensembling contract: merging two trained models of
# different kinds and seeds must not fall below the best individual
# ---------------------------------------------------------------------------

def test_ensemble_of_tin_and_tsm_does_not_lose(sep_runs):
    preds, individual = [], []
    labels = None
    for mode, seed in (("tin", 0), ("tsm", 1)):
        run = sep_runs[(mode, seed)]
        cfg = run["cfg"]
        val = Dataset(cfg.val_manifest, cfg.resolve_data_root(), cfg.classes)
        mcfg = model_config_from_run(cfg, val.in_channels)
        params = load_params_for_eval(cfg, mcfg, run["ckpt"])
        pm = evaluate_predictions(cfg, params, mcfg, val, "clip")
        labels = val.label_matrix()
        preds.append(pm)
        individual.append(map_eval(pm, labels, "sample"))
    merged_map = map_eval(ensemble_average(preds), labels, "sample")
    assert merged_map >= max(individual) - 0.01
    report(f"PASS ensemble companion: tin+tsm ensemble mAP {merged_map:.4f} >= "
           f"max individual {max(individual):.4f} - 0.01")


# ---------------------------------------------------------------------------
# criterion 9: persistence
# ---------------------------------------------------------------------------

def test_criterion_9_persistence(sep_data, sep_runs, tmp_path):
    trained_ckpt = sep_runs[("tin", 0)]["ckpt"]
    entries = load_checkpoint(trained_ckpt)
    copy1, copy2 = tmp_path / "c1.xtck", tmp_path / "c2.xtck"
    save_checkpoint(copy1, entries)
    save_checkpoint(copy2, load_checkpoint(copy1))
    assert copy1.read_bytes() == copy2.read_bytes()

    full_dir, resumed_dir = tmp_path / "full", tmp_path / "resumed"
    base = dict(val_manifest="", max_iters=200, batch=4, checkpoint_interval=100)
    full_cfg = _run_config(sep_data, full_dir, "tsm", 3, **base)
    run_training(full_cfg)
    mid = full_dir / "checkpoint_000100.xtck"
    resumed_cfg = _run_config(sep_data, resumed_dir, "tsm", 3, **base)
    run_training(resumed_cfg, resume=str(mid))

    a, _, _ = unpack_training_state(load_checkpoint(full_dir / "checkpoint.xtck"))
    b, _, _ = unpack_training_state(load_checkpoint(resumed_dir / "checkpoint.xtck"))
    drift = max(np.max(np.abs(a[k] - b[k])) for k in a)
    assert drift <= 1e-9
    report(f"PASS criterion 9: checkpoint save/load/save byte-identical; resumed "
           f"run drifts {drift:.1e} <= 1e-9 after 100 further steps")
