"""End-to-end command tests on miniature datasets; each training run here is
a few dozen iterations at most."""

import shutil

import numpy as np
import pytest

from temporalkit import evaluate
from temporalkit.checkpoint import load_checkpoint, unpack_training_state
from temporalkit.cli import main
from temporalkit.evaluate import read_predictions, write_predictions
from temporalkit.metrics import LabelMatrix, PredictionMatrix, map_eval
from temporalkit.videofile import read_header, write_video


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

    def test_resume_drops_a_partly_written_log_line(self, dataset, tmp_path):
        flags = dict(seed=5, max_iters=14, checkpoint_interval=10)
        assert main(["train"] + train_flags(dataset, tmp_path / "full", **flags)) == 0
        run = tmp_path / "run"
        assert main(["train"] + train_flags(dataset, run, **flags)) == 0
        # a crash while writing iteration 12's line left only its first character
        lines = (run / "metrics.log").read_text().splitlines(keepends=True)
        (run / "metrics.log").write_text("".join(lines[:12]) + lines[12][0])
        assert main(["train"] + train_flags(dataset, run, **flags)
                    + ["--resume", str(run / "checkpoint_000010.xtck")]) == 0
        assert (run / "metrics.log").read_text() == (tmp_path / "full" / "metrics.log").read_text()

    def test_lane_on_and_off_write_the_same_checkpoint(self, dataset, tmp_path, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        from temporalkit import ops

        flags = dict(seed=3, max_iters=4, checkpoint_interval=4, temporal_mode="tin")
        with ThreadPoolExecutor(max_workers=1) as pool:
            monkeypatch.setattr(ops, "_lane", lambda: pool)
            monkeypatch.setattr(ops, "HANDOFF_MADDS", 0)
            assert main(["train"] + train_flags(dataset, tmp_path / "on", **flags)) == 0
        monkeypatch.setattr(ops, "_lane", lambda: None)
        monkeypatch.setattr(ops, "HANDOFF_MADDS", 1 << 62)  # no split either: the unsplit ops
        assert main(["train"] + train_flags(dataset, tmp_path / "off", **flags)) == 0
        for name in ("checkpoint.xtck", "metrics.log"):
            assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "off" / name).read_bytes()

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

    def test_flag_setting_is_named_by_its_flag(self, capsys):
        assert main(["train", "--lr", "0"]) == 1
        assert capsys.readouterr().err == "error: --lr: base_lr must be positive, got 0.0\n"

    @pytest.mark.parametrize("flag,value,message", [
        ("--lr", "abc", "bad value for 'lr': 'abc' is not a decimal number"),
        ("--channels", "8,,16", "bad value for 'channels': '' is not a decimal integer"),
    ], ids=["lr", "channels"])
    def test_flag_value_that_does_not_parse_is_named_by_its_flag(self, capsys, flag, value,
                                                                 message):
        assert main(["train", flag, value]) == 1
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"

    def test_rule_over_a_file_key_and_a_flag_names_both(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 0.1\ncrop = 32\n")
        assert main(["train", "--config", str(cfg), "--scale-min", "30"]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2, --scale-min: crop must fit scale_min\n"

    def test_rank_loss_with_a_weight_rule_names_both_flags(self, capsys):
        assert main(["train", "--loss", "warp", "--weight-rule", "ratio"]) == 1
        assert capsys.readouterr().err == ("error: --loss, --weight-rule: loss kind 'warp' takes "
                                           "no class weights: weight_rule must be 'none', "
                                           "got 'ratio'\n")

    def test_ratio_rule_with_an_empty_class_names_it(self, dataset, tmp_path, capsys):
        manifest = tmp_path / "class0.tsv"
        rows = (dataset / "train" / "manifest.tsv").read_text().splitlines()
        manifest.write_text("".join(row.rsplit("\t", 1)[0] + "\t0\n" for row in rows))
        argv = train_flags(dataset, tmp_path / "out", train_manifest=manifest, max_iters=2,
                           weight_rule="ratio")
        assert main(["train"] + argv) == 1
        assert capsys.readouterr().err == (f"error: {manifest}: weight_rule = ratio: classes "
                                           "[1, 2, 3, 4, 5] have no video; ratio rules need "
                                           "every count positive\n")
        assert not (tmp_path / "out" / "checkpoint.xtck").exists()

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert main(["train", "--data-root", str(tmp_path),
                     "--train-manifest", str(tmp_path / "none.tsv"),
                     "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command,key", [("train", "train_manifest"), ("eval", "val_manifest")])
    def test_unset_manifest_is_validation_error(self, tmp_path, capsys, command, key):
        argv = [command, "--data-root", str(tmp_path), "--out-dir", str(tmp_path / "out")]
        if command == "eval":
            argv += ["--checkpoint", str(tmp_path / "none.xtck")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("row,message", [
        ("vid1.xvid\tabc\t0,4", ":2: frame count and labels must be integers, got 'abc' and '0,4'"),
        ("vid1.xvid\t16\t0,x", ":2: frame count and labels must be integers, got '16' and '0,x'"),
        ("vid1.xvid\t16\t0,99", "vid1.xvid: label index 99 out of range for 6 classes"),
    ])
    def test_bad_manifest_entry_names_where_it_is(self, tmp_path, capsys, row, message):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text(f"vid0.xvid\t16\t0,4\n{row}\n")
        assert main(["train", "--data-root", str(tmp_path), "--train-manifest", str(manifest),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        where = str(manifest) if message.startswith(":") else ""
        assert err == f"error: {where}{message}\n"


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
        from temporalkit.config import RunConfig, model_config_from_run
        from temporalkit.evaluate import evaluate_predictions, write_predictions
        from temporalkit.train import Dataset, load_params_for_eval

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

    def test_id_with_a_comma_keeps_the_previous_prediction_file(self, dataset, trained,
                                                                 tmp_path, capsys, monkeypatch):
        # a manifest splits on tabs, so a video path may hold a comma
        row = (dataset / "val" / "manifest.tsv").read_text().splitlines()[0]
        name, rest = row.split("\t", 1)
        (tmp_path / "val").mkdir()
        shutil.copy(dataset / name, tmp_path / "val" / "a,b.xvid")
        manifest = tmp_path / "comma.tsv"
        manifest.write_text(f"val/a,b.xvid\t{rest}\n")
        out = tmp_path / "p.csv"
        out.write_text("previous\n")
        forwards = []
        real = evaluate.backbone_forward
        monkeypatch.setattr(evaluate, "backbone_forward",
                            lambda *a, **kw: forwards.append(1) or real(*a, **kw))
        flags = train_flags(tmp_path, trained.parent, val_manifest=manifest)
        assert main(["eval"] + flags + ["--checkpoint", str(trained), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: prediction id 'val/a,b.xvid' would not read back from {out}: "
            "ids may hold no comma or line break, nor start with white space\n")
        assert out.read_text() == "previous\n"
        assert forwards == []  # the ids are checked before any video is scored

    def test_incompatible_checkpoint_is_validation_error(self, dataset, trained, tmp_path):
        flags = self.eval_flags(dataset, trained, channels="4,8")
        assert main(flags) == 1


def test_video_with_another_channel_count_is_named(dataset, trained, tmp_path, capsys):
    # four validation videos, the second rewritten with 3 channels; a batch of
    # four draws every one of them in training's first step
    rows = (dataset / "val" / "manifest.tsv").read_text().splitlines()[:4]
    for row in rows:
        name = row.split("\t")[0]
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(dataset / name, tmp_path / name)
    bad = tmp_path / rows[1].split("\t")[0]
    t, h, w, _ = read_header(bad)
    write_video(bad, np.zeros((t, h, w, 3), dtype=np.uint8))
    manifest = tmp_path / "mixed.tsv"
    manifest.write_text("\n".join(rows) + "\n")
    flags = train_flags(tmp_path, tmp_path / "out", batch=4, train_manifest=manifest,
                        val_manifest=manifest)
    for argv in (["train"] + flags, ["eval"] + flags + ["--checkpoint", str(trained)]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err == f"error: {bad}: 3 channels, the first video has 1\n", argv[0]


class TestInspect:
    def test_lists_tensors_shapes_norms_and_iteration(self, trained, capsys):
        assert main(["inspect", str(trained)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        entries = [(n, a) for n, a in load_checkpoint(trained) if n != "__opt__/iter"]
        assert [r[0] for r in rows[:-1]] == [n for n, _ in entries]
        for (name, shape, norm), (_, arr) in zip(rows, entries):
            assert shape == str(arr.shape)
            assert float(norm) == pytest.approx(np.sqrt(np.sum(arr**2)), rel=1e-8)
        assert rows[-1] == ["iteration", "20"]

    def test_truncated_file_is_validation_error(self, trained, tmp_path, capsys):
        cut = tmp_path / "cut.xtck"
        cut.write_bytes(trained.read_bytes()[:100])
        assert main(["inspect", str(cut)]) == 1
        captured = capsys.readouterr()
        assert f"error: {cut}: truncated in " in captured.err
        assert captured.out == ""


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

    def test_negative_weight_rejected_with_one_error_line(self, dataset, preds_file, capsys):
        capsys.readouterr()
        assert main(["ensemble", "--predictions", str(preds_file), str(preds_file),
                     "--weights", "2,-1",
                     "--manifest", self._val_manifest(dataset)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ensemble weight 1 is -1.0") and err.count("\n") == 1, err

    def test_labels_missing_for_prediction_id_rejected(self, dataset, preds_file):
        wrong_manifest = str(dataset / "train" / "manifest.tsv")
        assert main(["map", "--predictions", str(preds_file),
                     "--manifest", wrong_manifest]) == 1

    def test_class_count_comes_from_the_prediction_file(self, tmp_path, capsys):
        # 8 classes, where the synthetic data has 6; "c" holds label 7
        manifest = tmp_path / "eight.tsv"
        manifest.write_text("a.xvid\t16\t0,5\nb.xvid\t16\t6\nc.xvid\t16\t7,1\n")
        probs = np.random.default_rng(3).random((3, 8))
        path = tmp_path / "eight.csv"
        ids = ("c.xvid", "a.xvid", "b.xvid")
        write_predictions(path, PredictionMatrix(ids, probs))
        preds = read_predictions(path)
        labels = np.zeros((3, 8))
        labels[[0, 0, 1, 1, 2], [7, 1, 0, 5, 6]] = 1.0
        want = map_eval(preds, LabelMatrix(ids, labels), "sample")
        capsys.readouterr()
        assert main(["map", "--predictions", str(path), "--manifest", str(manifest)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"sample mAP: {want:.6f}"
        assert main(["ensemble", "--predictions", str(path), str(path),
                     "--manifest", str(manifest)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"ensemble: sample mAP {want:.6f}"

    def test_ensemble_of_files_with_other_class_counts_is_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.xvid\t16\t0\nb.xvid\t16\t1\n")
        paths = [str(tmp_path / "p6.csv"), str(tmp_path / "p8.csv")]
        for path, classes in zip(paths, (6, 8)):
            write_predictions(path, PredictionMatrix(("a.xvid", "b.xvid"),
                                                     np.full((2, classes), 0.5)))
        capsys.readouterr()
        assert main(["ensemble", "--predictions", *paths, "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == "error: ensemble inputs must share the class count\n"


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
