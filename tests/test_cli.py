"""End-to-end command tests on miniature datasets; each training run here is
a few dozen iterations at most."""

import numpy as np
import pytest

from temporalkit.checkpoint import load_checkpoint, unpack_training_state
from temporalkit.cli import main
from temporalkit.evaluate import read_predictions
from temporalkit.metrics import map_eval


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert main(["gen-synth", "--out-dir", str(root / "train"), "--num-videos", "16",
                 "--seed", "1", "--prefix", "train/"]) == 0
    assert main(["gen-synth", "--out-dir", str(root / "val"), "--num-videos", "8",
                 "--seed", "2", "--prefix", "val/"]) == 0
    return root


def train_flags(root, out_dir, **overrides):
    flags = {
        "data-root": str(root),
        "train-manifest": str(root / "train" / "manifest.tsv"),
        "val-manifest": str(root / "val" / "manifest.tsv"),
        "out-dir": str(out_dir),
        "max-iters": "20",
        "batch": "4",
        "eval-interval": "10",
        "checkpoint-interval": "20",
        "warmup-iters": "5",
    }
    flags.update({k.replace("_", "-"): str(v) for k, v in overrides.items()})
    out = []
    for key, value in flags.items():
        out += [f"--{key}", value]
    return out


class TestGenSynth:
    def test_cli_generation_deterministic(self, tmp_path):
        for sub in ("x", "y"):
            assert main(["gen-synth", "--out-dir", str(tmp_path / sub),
                         "--num-videos", "8", "--seed", "9"]) == 0
        a = (tmp_path / "x" / "vid00003.xvid").read_bytes()
        b = (tmp_path / "y" / "vid00003.xvid").read_bytes()
        assert a == b

    def test_odd_count_is_validation_error(self, tmp_path):
        assert main(["gen-synth", "--out-dir", str(tmp_path), "--num-videos", "9"]) == 1


class TestTrain:
    def test_identical_runs_are_fully_deterministic(self, dataset, tmp_path):
        for sub in ("r1", "r2"):
            assert main(["train"] + train_flags(dataset, tmp_path / sub, seed=3)) == 0
            assert main(["eval"] + train_flags(dataset, tmp_path / sub, seed=3)
                        + ["--checkpoint", str(tmp_path / sub / "checkpoint.xtck"),
                           "--out", str(tmp_path / sub / "p.csv")]) == 0
        for name in ("checkpoint.xtck", "metrics.log", "p.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_log_format(self, dataset, tmp_path):
        assert main(["train"] + train_flags(dataset, tmp_path / "run", seed=4)) == 0
        lines = (tmp_path / "run" / "metrics.log").read_text().splitlines()
        assert len(lines) == 20
        for i, line in enumerate(lines):
            it, lr, loss, val = line.split("\t")
            assert int(it) == i
            float(lr), float(loss)
            assert val == "-" or 0.0 <= float(val) <= 1.0
        assert lines[9].split("\t")[3] != "-"  # eval every 10 iters

    def test_resume_matches_uninterrupted_run(self, dataset, tmp_path):
        # one run saves a mid-run interval checkpoint; the restarted run picks
        # it up and must replay the remaining iterations exactly
        full = tmp_path / "full"
        resumed = tmp_path / "resumed"
        assert main(["train"] + train_flags(dataset, full, seed=5, max_iters=20,
                                            checkpoint_interval=10)) == 0
        mid = full / "checkpoint_000010.xtck"
        assert mid.exists()
        assert main(["train"] + train_flags(dataset, resumed, seed=5, max_iters=20,
                                            checkpoint_interval=10)
                    + ["--resume", str(mid)]) == 0
        a_vals, _, a_iter = unpack_training_state(load_checkpoint(full / "checkpoint.xtck"))
        b_vals, _, b_iter = unpack_training_state(load_checkpoint(resumed / "checkpoint.xtck"))
        assert a_iter == b_iter == 20
        for name in a_vals:
            drift = np.max(np.abs(a_vals[name] - b_vals[name]))
            assert drift <= 1e-9, (name, drift)

    def test_resume_into_same_dir_rewrites_log_from_checkpoint(self, dataset, tmp_path):
        flags = dict(seed=5, max_iters=20, checkpoint_interval=10)
        assert main(["train"] + train_flags(dataset, tmp_path / "full", **flags)) == 0
        run = tmp_path / "run"
        assert main(["train"] + train_flags(dataset, run, **flags)) == 0
        assert main(["train"] + train_flags(dataset, run, **flags)
                    + ["--resume", str(run / "checkpoint_000010.xtck")]) == 0
        full_log = (tmp_path / "full" / "metrics.log").read_text()
        assert len(full_log.splitlines()) == 20
        assert (run / "metrics.log").read_text() == full_log

    def test_tin_at_init_matches_none_loss(self, dataset, tmp_path):
        losses = {}
        for mode in ("tin", "none"):
            out = tmp_path / f"init_{mode}"
            assert main(["train"] + train_flags(dataset, out, seed=6, max_iters=1,
                                                temporal_mode=mode,
                                                checkpoint_interval=1)) == 0
            first = (out / "metrics.log").read_text().splitlines()[0]
            losses[mode] = float(first.split("\t")[2])
        assert abs(losses["tin"] - losses["none"]) <= 1e-9

    def test_unknown_flag_value_is_validation_error(self, dataset, tmp_path):
        assert main(["train"] + train_flags(dataset, tmp_path / "bad", temporal_mode="warp")) == 1

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data_root = {dataset}\n"
            f"train_manifest = {dataset / 'train' / 'manifest.tsv'}\n"
            f"out_dir = {tmp_path / 'from_file'}\n"
            "max_iters = 3\nbatch = 2\nwarmup_iters = 0\ncheckpoint_interval = 3\n"
            "temporal_mode = tsm\n"
        )
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "checkpoint.xtck").exists()  # flag beat the file
        assert not (tmp_path / "from_file").exists()

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert main(["train", "--data-root", str(tmp_path),
                     "--train-manifest", str(tmp_path / "none.tsv"),
                     "--out-dir", str(tmp_path / "out")]) == 2


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(["train"] + train_flags(dataset, out, seed=7)) == 0
    return out / "checkpoint.xtck"


@pytest.fixture(scope="module")
def preds_file(dataset, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("ens")
    assert main(["train"] + train_flags(dataset, out_dir, seed=8)) == 0
    path = out_dir / "p.csv"
    assert main(["eval"] + train_flags(dataset, out_dir, seed=8)
                + ["--checkpoint", str(out_dir / "checkpoint.xtck"),
                   "--out", str(path)]) == 0
    return path


class TestEvalAndPredictions:
    def eval_flags(self, dataset, trained, **kw):
        return (["eval"] + train_flags(dataset, trained.parent, **kw)
                + ["--checkpoint", str(trained)])

    def test_clip_eval_writes_parseable_predictions(self, dataset, trained, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        assert main(self.eval_flags(dataset, trained) + ["--mode", "clip", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "sample mAP" in printed and "class mAP" in printed
        preds = read_predictions(out)
        assert preds.probs.shape == (8, 6)
        assert np.all(preds.probs >= 0) and np.all(preds.probs <= 1)

    def test_prediction_file_round_trip_precision(self, dataset, trained, tmp_path):
        # in-memory probabilities -> file -> parse must agree within 1e-9
        from temporalkit.config import RunConfig
        from temporalkit.evaluate import evaluate_predictions, write_predictions
        from temporalkit.train import Dataset, load_params_for_eval, model_config_from_run

        cfg = RunConfig(data_root=str(dataset),
                        train_manifest=str(dataset / "train" / "manifest.tsv"),
                        val_manifest=str(dataset / "val" / "manifest.tsv"))
        val = Dataset(cfg.val_manifest, cfg.data_root, cfg.classes)
        mcfg = model_config_from_run(cfg, val.in_channels)
        params = load_params_for_eval(cfg, mcfg, trained)
        preds = evaluate_predictions(cfg, params, mcfg, val, "clip")

        out = tmp_path / "preds.csv"
        write_predictions(out, preds)
        parsed = read_predictions(out)
        assert parsed.ids == preds.ids
        assert np.max(np.abs(parsed.probs - preds.probs)) <= 1e-9

    def test_dense_mode_emits_probabilities_in_unit_interval(self, dataset, trained, tmp_path):
        out = tmp_path / "dense.csv"
        assert main(self.eval_flags(dataset, trained) + ["--mode", "dense",
                                                         "--out", str(out)]) == 0
        preds = read_predictions(out)
        assert np.all(preds.probs >= 0) and np.all(preds.probs <= 1)

    def test_incompatible_checkpoint_is_validation_error(self, dataset, trained, tmp_path):
        flags = self.eval_flags(dataset, trained, channels="4,8")
        assert main(flags) == 1


class TestEnsembleAndMap:
    def _val_manifest(self, dataset):
        return str(dataset / "val" / "manifest.tsv")

    def test_map_command(self, dataset, preds_file, capsys):
        assert main(["map", "--predictions", str(preds_file),
                     "--manifest", self._val_manifest(dataset)]) == 0
        out = capsys.readouterr().out
        assert "sample mAP" in out and "class mAP" in out

    def test_self_ensemble_keeps_map(self, dataset, preds_file, capsys):
        assert main(["map", "--predictions", str(preds_file),
                     "--manifest", self._val_manifest(dataset)]) == 0
        single = capsys.readouterr().out.splitlines()[0]
        assert main(["ensemble", "--predictions", str(preds_file), str(preds_file),
                     "--manifest", self._val_manifest(dataset)]) == 0
        ens = [l for l in capsys.readouterr().out.splitlines() if l.startswith("ensemble")][0]
        assert single.split()[-1] == ens.split()[-1]

    def test_degenerate_weights_reproduce_first_model(self, dataset, preds_file, tmp_path, capsys):
        out = tmp_path / "merged.csv"
        assert main(["ensemble", "--predictions", str(preds_file), str(preds_file),
                     "--weights", "1.0,0.0",
                     "--manifest", self._val_manifest(dataset),
                     "--out", str(out)]) == 0
        np.testing.assert_array_equal(read_predictions(out).probs,
                                      read_predictions(preds_file).probs)

    def test_bad_weights_rejected(self, dataset, preds_file):
        assert main(["ensemble", "--predictions", str(preds_file), str(preds_file),
                     "--weights", "0.9,0.9",
                     "--manifest", self._val_manifest(dataset)]) == 1

    def test_labels_missing_for_prediction_id_rejected(self, dataset, preds_file):
        wrong_manifest = str(dataset / "train" / "manifest.tsv")
        assert main(["map", "--predictions", str(preds_file),
                     "--manifest", wrong_manifest]) == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_loss_stops_with_exit_4_and_keeps_checkpoints(dataset, tmp_path, capsys):
    from temporalkit.train import NonFiniteLossError

    assert not issubclass(NonFiniteLossError, ValueError)  # exit 1 must not swallow it
    out = tmp_path / "blowup"
    # an absurd learning rate overflows the weights within a few steps
    code = main(["train"] + train_flags(dataset, out, seed=9, lr=1e200, warmup_iters=0,
                                        checkpoint_interval=1, eval_interval=100))
    err = capsys.readouterr().err
    assert code == 4, err
    lines = (out / "metrics.log").read_text().splitlines()
    bad = len(lines)  # the failing iteration logs nothing
    assert 1 <= bad < 20
    assert f"iteration {bad}: loss is " in err
    assert all(np.isfinite(float(line.split("\t")[2])) for line in lines)
    # checkpoints up to the last finite step stay; none is written for the failing step
    saved = sorted(p.name for p in out.glob("checkpoint*.xtck"))
    assert saved == [f"checkpoint_{i:06d}.xtck" for i in range(1, bad + 1)]
    _, _, last_iter = unpack_training_state(load_checkpoint(out / saved[-1]))
    assert last_iter == bad
