"""Command-line surface.

Subcommands: gen-synth, train, eval, gradcheck, ensemble, map. Training and
evaluation read a key=value config file; every config key is also exposed as
a --kebab-case flag that overrides the file. Exit codes: 0 success,
1 validation error, 2 I/O error, 3 gradient-check failure, 4 non-finite
training loss.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import SCHEMA, ConfigError, build_config, model_config_from_run, parse_value
from .evaluate import (
    evaluate_predictions,
    labels_for_ids,
    read_predictions,
    write_predictions,
)
from .gradcheck import run_model_suite, run_op_suite
from .metrics import LabelMatrix, ensemble_average, map_eval
from .synth import NUM_CLASSES, generate_dataset, labels_to_matrix, read_manifest
from .train import Dataset, NonFiniteLossError, load_params_for_eval, run_training

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_GRADCHECK = 3
EXIT_NONFINITE = 4


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    for key in SCHEMA:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V")


def _collect_overrides(args) -> dict:
    out = {}
    for key in SCHEMA:
        raw = getattr(args, f"cfg_{key}", None)
        if raw is not None:
            out[key] = parse_value(key, raw)
    return out


def _manifest_labels(path) -> LabelMatrix:
    rows = read_manifest(path)
    return LabelMatrix(tuple(r[0] for r in rows), labels_to_matrix(rows, NUM_CLASSES))


def cmd_gen_synth(args) -> int:
    manifest = generate_dataset(
        args.out_dir, args.num_videos, t=args.frames, h=args.height, w=args.width,
        seed=args.seed, rel_prefix=args.prefix,
    )
    print(f"wrote {args.num_videos} videos, manifest {manifest}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_config(args.config, _collect_overrides(args))
    ckpt = run_training(cfg, resume=args.resume, log_fn=print if args.verbose else None)
    print(f"final checkpoint: {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = build_config(args.config, _collect_overrides(args))
    data = Dataset(cfg.val_manifest or cfg.train_manifest, cfg.resolve_data_root(), cfg.classes)
    mcfg = model_config_from_run(cfg, data.in_channels)
    params = load_params_for_eval(cfg, mcfg, args.checkpoint)
    preds = evaluate_predictions(cfg, params, mcfg, data, mode=args.mode)
    if args.out:
        write_predictions(args.out, preds)
        print(f"predictions written to {args.out}")
    labels = data.label_matrix()
    print(f"sample mAP: {map_eval(preds, labels, 'sample'):.6f}")
    print(f"class mAP:  {map_eval(preds, labels, 'class'):.6f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_op_suite(args.cases) if args.scope == "ops" else run_model_suite(args.cases)
    failed = False
    for res in results:
        print(res.line())
        failed = failed or not res.ok
    return EXIT_GRADCHECK if failed else EXIT_OK


def cmd_ensemble(args) -> int:
    preds = [read_predictions(p) for p in args.predictions]
    weights = None
    if args.weights:
        weights = np.array([float(tok) for tok in args.weights.split(",")])
    labels = _manifest_labels(args.manifest)
    for path, pm in zip(args.predictions, preds):
        aligned = labels_for_ids(labels, pm.ids)
        print(f"{path}: sample mAP {map_eval(pm, aligned, 'sample'):.6f}")
    merged = ensemble_average(preds, weights)
    aligned = labels_for_ids(labels, merged.ids)
    print(f"ensemble: sample mAP {map_eval(merged, aligned, 'sample'):.6f}")
    if args.out:
        write_predictions(args.out, merged)
        print(f"ensembled predictions written to {args.out}")
    return EXIT_OK


def cmd_map(args) -> int:
    preds = read_predictions(args.predictions)
    labels = labels_for_ids(_manifest_labels(args.manifest), preds.ids)
    print(f"sample mAP: {map_eval(preds, labels, 'sample'):.6f}")
    print(f"class mAP:  {map_eval(preds, labels, 'class'):.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="temporalkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate the synthetic square-motion dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--num-videos", type=int, required=True)
    p.add_argument("--frames", type=int, default=16)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefix", default="", help="prepended to manifest paths, e.g. 'train/'")
    p.set_defaults(fn=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model")
    _add_config_flags(p)
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("clip", "dense"), default="clip")
    p.add_argument("--out", help="prediction file to write")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference verification of backward passes")
    p.add_argument("--scope", choices=("ops", "model"), default="ops")
    p.add_argument("--cases", type=int, default=100)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ensemble", help="average prediction files and score them")
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--weights", help="comma-separated, must sum to 1")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("map", help="score a prediction file against a manifest")
    p.add_argument("--predictions", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_map)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
