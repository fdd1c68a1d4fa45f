"""Command-line entry points: analyze, train, evaluate, gradcheck, export-curves.

Machine-readable output (JSON, CSV) goes to stdout or named files; human
tables go to stderr unless explicitly requested. Exit codes: 0 success,
2 usage, 3 data/format problems, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import config_for, cost_report, default_grid, render_table
from .checkpoint import load_model, save_model
from .data import (AugmentPolicy, load_cifar_binary, load_raw_dataset, normalize,
                   split_train_val, synth_dataset)
from .errors import CrmnError, InputError, TrainingError
from .gradcheck import run_scope
from .model import TAP_FLATTEN_ORDER, build_crmn, build_resnet
from .tensor import deterministic_mode
from .training import (HISTORY_COLUMNS, TrainConfig, evaluate_model, read_history,
                       read_schedule, train, write_history, write_schedule)

CURVE_SERIES = ("train_loss", "val_error", "val_acc", "lr_trunk", "lr_lstm", "lr_head")


def _add_network_flags(sub):
    sub.add_argument("--kind", choices=("crmn", "resnet"), default="crmn")
    sub.add_argument("--layers", type=int, default=32, help="depth, must be 6n+2")
    sub.add_argument("--fm-mult", type=float, default=1.0,
                     help="first-stage map count as a multiple of 16")
    sub.add_argument("--hidden", type=int, default=100)
    sub.add_argument("--variant", choices=("auto", "original", "preactivation"),
                     default="auto")
    sub.add_argument("--shortcut", choices=("pad", "projection"), default="pad")
    sub.add_argument("--output-gate", choices=("tanh", "sigmoid"), default="tanh")


def _add_data_flags(sub):
    sub.add_argument("--synth", metavar="CLASSES,PER_CLASS",
                     help="generate a synthetic dataset instead of reading one")
    sub.add_argument("--synth-seed", type=int, default=0)
    sub.add_argument("--data", help="dataset file path")
    sub.add_argument("--format", choices=("raw", "c10", "c100"), default="raw",
                     help="layout of --data")


def _network_config(args, parser, classes):
    try:
        return config_for(args.layers, args.fm_mult, hidden=args.hidden,
                          classes=classes, variant=args.variant,
                          shortcut=args.shortcut, output_gate=args.output_gate)
    except InputError as exc:
        parser.error(str(exc))


def _load_dataset(args, parser):
    if args.synth:
        try:
            classes, per_class = (int(v) for v in args.synth.split(","))
        except ValueError:
            parser.error(f"--synth expects CLASSES,PER_CLASS, got {args.synth!r}")
        return synth_dataset(classes, per_class, seed=args.synth_seed)
    if not args.data:
        parser.error("provide --synth or --data")
    if args.format == "raw":
        return load_raw_dataset(args.data)
    return load_cifar_binary(args.data, args.format)


def cmd_analyze(args, parser):
    if args.table:
        if args.table != "default-grid":
            parser.error(f"unknown table {args.table!r}")
        print(render_table(default_grid()))
        return 0
    cfg = _network_config(args, parser, args.classes)
    report = cost_report(args.kind, cfg)
    print(json.dumps(report.as_json(), indent=2))
    if args.pretty:
        print(render_table([(args.kind, cfg)]), file=sys.stderr)
    return 0


def cmd_train(args, parser):
    raw_ds = _load_dataset(args, parser)
    if raw_ds.class_count < 2:
        raise InputError(f"dataset has {raw_ds.class_count} classes, need at least 2")
    cfg = _network_config(args, parser, raw_ds.class_count)
    train_ds, val_ds = split_train_val(raw_ds, args.val_fraction, seed=args.seed)
    norm_stats = None
    if args.normalize != "none":
        train_ds, norm_stats = normalize(train_ds, args.normalize)
        val_ds, _ = normalize(val_ds, args.normalize, stats=norm_stats)

    replay = read_schedule(args.schedule_replay) if args.schedule_replay else None
    policy = AugmentPolicy(flip=args.flip) if args.augment else None
    tcfg = TrainConfig(
        lr_ladder=tuple(float(v) for v in args.ladder.split(",")),
        momentum=args.momentum, weight_decay=args.weight_decay,
        batch_size=args.batch_size, patience=args.patience,
        min_epochs_first_shift=args.min_epochs_first_shift,
        lr_floor=args.lr_floor, max_epochs=args.max_epochs, seed=args.seed,
        rrlr=args.rrlr, decay_all=args.decay_all, augment=policy).validate()

    builder = build_crmn if args.kind == "crmn" else build_resnet
    model = builder(cfg, seed=args.seed)
    result = train(model, train_ds, tcfg, val_ds=val_ds, replay=replay)

    os.makedirs(args.out_dir, exist_ok=True)
    ckpt = os.path.join(args.out_dir, "checkpoint.crmn")
    hist = os.path.join(args.out_dir, "history.csv")
    sched = os.path.join(args.out_dir, "schedule.json")
    man = os.path.join(args.out_dir, "manifest.json")
    save_model(model, ckpt)
    write_history(hist, result.history)
    write_schedule(sched, result.schedule)
    artifacts = [ckpt, hist, sched, man]
    if norm_stats is not None:
        stats_path = os.path.join(args.out_dir, "norm_stats.npy")
        np.save(stats_path, norm_stats)
        artifacts.insert(3, stats_path)
    manifest = {
        "tool": f"crmn {__version__}",
        "kind": args.kind,
        "network": cfg.as_dict(),
        "train": tcfg.as_dict(),
        "mode": "schedule-replay" if replay is not None else "schedule-search",
        "normalize": args.normalize,
        "flatten_order": TAP_FLATTEN_ORDER,
        "deterministic": deterministic_mode(),
        "seeds": {"model": args.seed, "shuffle": tcfg.seed},
        "dataset": {"checksum": raw_ds.checksum(), "n_train": len(train_ds),
                    "n_val": len(val_ds), "classes": raw_ds.class_count},
    }
    with open(man, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    last = result.history[-1]
    print(json.dumps({
        "out_dir": args.out_dir, "epochs": result.final_epoch,
        "best_epoch": result.best_epoch, "stopped": result.stopped,
        "train_loss": last["train_loss"], "val_error": last["val_error"],
        "val_acc": last["val_acc"],
        "artifacts": [os.path.basename(p) for p in artifacts],
    }, indent=2))
    return 0


def cmd_evaluate(args, parser):
    model = load_model(args.checkpoint)
    ds = _load_dataset(args, parser)
    if args.normalize == "gcn":
        ds, _ = normalize(ds, "gcn")
    elif args.normalize == "mean_pixel":
        if not args.norm_stats:
            parser.error("--normalize mean_pixel needs --norm-stats from training")
        ds, _ = normalize(ds, "mean_pixel", stats=np.load(args.norm_stats))
    loss, acc = evaluate_model(model, ds, args.batch_size)
    print(json.dumps({"loss": loss, "accuracy": acc, "count": len(ds)}, indent=2))
    return 0


def cmd_gradcheck(args, parser):
    try:
        report = run_scope(args.scope, seed=args.seed, eps=args.eps)
    except InputError as exc:
        parser.error(str(exc))
    print(json.dumps(report.as_json(), indent=2))
    return 0 if report.passed else 4


def cmd_export_curves(args, parser):
    rows = read_history(args.history)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("series,epoch,value\n")
        for series in CURVE_SERIES:
            for row in rows:
                out.write(f"{series},{row['epoch']},{row[series]!r}\n")
    finally:
        if args.out:
            out.close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crmn",
        description="Convolutional residual memory networks: analysis, "
                    "training, and verification tools.")
    parser.add_argument("--version", action="version", version=f"crmn {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="parameter and operation accounting")
    _add_network_flags(p)
    p.add_argument("--classes", type=int, default=100)
    p.add_argument("--table", nargs="?", const="default-grid",
                   help="render the reference 12-row grid")
    p.add_argument("--pretty", action="store_true",
                   help="also print a human table to stderr")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("train", help="train a model and record its schedule")
    _add_network_flags(p)
    _add_data_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--normalize", choices=("none", "mean_pixel", "gcn"), default="none")
    p.add_argument("--augment", action="store_true", help="pad-4 random crop")
    p.add_argument("--flip", action="store_true", help="also flip horizontally")
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--ladder", default="0.1,0.01,0.001",
                   help="comma-separated descending learning rates")
    p.add_argument("--patience", type=int, default=10, help="epochs without improvement")
    p.add_argument("--min-epochs-first-shift", type=int, default=70)
    p.add_argument("--lr-floor", type=float, default=None)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--decay-all", action="store_true")
    p.add_argument("--rrlr", action="store_true", help="round-robin per-group shifts")
    p.add_argument("--schedule-replay", metavar="JSON",
                   help="apply a recorded schedule instead of learning it from validation")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="score a checkpoint on a dataset")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--normalize", choices=("none", "mean_pixel", "gcn"), default="none")
    p.add_argument("--norm-stats", help="mean image saved by training")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", choices=("ops", "lstm", "full"), default="ops")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("export-curves", help="history CSV to long-format series CSV")
    p.add_argument("history")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_curves)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except TrainingError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (CrmnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
