"""The benchmark's workloads: fixtures, timed set-up, units of work, checks.

Each workload is a closed loop run from one process: the runner calls
``unit`` again only after the previous call returned. A unit is the
smallest piece of work a user waits for (one SGD step, one eval batch, one
gradient-check verdict); a pass is the fixed group of units behind
``wall_s`` (one epoch of the train set, one sweep of the eval set, one
verdict).
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np

import crmn.checkpoint as checkpoint
import crmn.data as data
import crmn.gradcheck as gradcheck
import crmn.model as model_mod
import crmn.training as training
from crmn.analysis import config_for, cost_report
from crmn.errors import TrainingError
from crmn.layers import BatchNorm
from crmn.tensor import Tensor, count_ops
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

CLASSES = 10
EXTENT = 32
SETUP_REPEATS = 3

# eval fixtures: the model and its calibration data do not depend on the
# run's seed, so the canary batch has recorded loss and accuracy
EVAL_MODEL_SEED = 0
CALIBRATION_SEED = 1001
CANARY_SEED = 1002
EVAL_BATCH = 100
EVAL_BATCHES = 4  # batch 0 is the canary, the rest are drawn from --seed
CANARY_LOSS_RTOL = 1e-3
CANARY_ACC_ATOL = 0.02  # two images of the 100
REPEAT_RTOL = 1e-6

TRAIN_BATCH = 50
TRAIN_BATCHES = 2
TRAIN_LR = 0.1

# check_full's float64 micro model at the seed the acceptance suite verifies
GRADCHECK_SEED = 0


def crmn32_config():
    """CRMN-32x1 / ResNet-32x1: n=5, base 16 maps, hidden 100, 10 classes."""
    return config_for(32, 1, hidden=100, classes=CLASSES)


def _batch_norms(model):
    trunk = model.trunk
    found = [trunk.stem_bn, trunk.final_bn]
    for block in trunk.blocks:
        found += [block.bn1, block.bn2, block.proj_bn]
    return [bn for bn in found if isinstance(bn, BatchNorm)]


def warm_and_fit(model, calib):
    """Set batch-norm running statistics from ``calib`` and fit the head.

    One training-mode forward with momentum 1 makes every running estimate
    equal to the calibration batch's statistics, so eval-mode features on
    that batch equal the ones returned here. The dense head is then a ridge
    regression of those features onto scaled one-hot targets, which gives
    the untrained trunk an accuracy check that is not blind.
    """
    norms = _batch_norms(model)
    saved = [bn.momentum for bn in norms]
    for bn in norms:
        bn.momentum = 1.0
    x = Tensor(np.ascontiguousarray(calib.images, dtype=np.float32))
    _, parts = model.forward(x, training=True, return_parts=True)
    for bn, momentum in zip(norms, saved):
        bn.momentum = momentum
    feats = [parts["pool_out"].data]
    if "hidden" in parts:
        feats.append(parts["hidden"].data)
    f = np.concatenate(feats, axis=1).astype(np.float64)
    f = np.concatenate([f, np.ones((f.shape[0], 1))], axis=1)
    target = np.eye(calib.class_count)[calib.labels] * 8.0 - 4.0
    ridge = 1e-2 * np.trace(f.T @ f) / f.shape[1]
    w = np.linalg.solve(f.T @ f + ridge * np.eye(f.shape[1]), f.T @ target)
    model.head.weight.data[...] = w[:-1]
    model.head.bias.data[...] = w[-1]


def op_check(model, kind, cfg, dtype):
    """Count one batch-1 forward and compare with the closed-form counts.

    Returns (mismatches, numerators). Numerators are forward operations per
    image from ``cost_report`` (total, per stage, LSTM), plus the conv2d
    share, which the closed form does not split out and is taken from the
    same instrumented pass.
    """
    report = cost_report(kind, cfg, batch=1)
    x = Tensor(np.full((1, 3, cfg.input_extent, cfg.input_extent), 0.5, dtype=dtype))
    with count_ops() as counter:
        tracer = Tracer(counter)
        with tracer:
            model.forward(x, training=False)
    spans = tracer.stats
    expected = {"total": report.flops["total"]}
    measured = {"total": counter.total}
    for s in (1, 2, 3):
        name = f"resnet.stage{s}"
        expected[name] = sum(b["cost"] for b in report.block_breakdown if b["stage"] == s)
        measured[name] = spans[name].ops
    if kind == "crmn":
        expected["lstm.step"] = report.flops["lstm"]["total"]
        measured["lstm.step"] = spans["lstm.step"].ops
        expected["model.adapt_tap"] = report.flops["adapter"]["total"]
        measured["model.adapt_tap"] = spans["model.adapt_tap"].ops
    mismatches = {k: {"counted": measured[k], "closed_form": v}
                  for k, v in expected.items() if measured[k] != v}
    numerators = {
        "fwd_ops_per_img": report.flops["total"],
        "stage_ops_per_img": {s: expected[f"resnet.stage{s}"] for s in (1, 2, 3)},
        "lstm_ops_per_img": report.flops["lstm"]["total"] if kind == "crmn" else 0,
        "conv_ops_per_img": spans["layers.conv2d"].ops,
        "convs_per_fwd": spans["layers.conv2d"].calls,
        "blocks_per_stage": cfg.n,
        "lstm_steps_per_fwd": 3 * cfg.n if kind == "crmn" else 0,
    }
    return mismatches, numerators


class Workload:
    name = ""
    kind = "crmn"
    dtype = np.float32
    units_per_pass = 1
    batch = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.setup_parts = {}  # sub-step name -> list of seconds

    def _timed(self, part, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.setup_parts.setdefault(part, []).append(time.perf_counter() - t0)
        return out

    def prepare(self):
        """Untimed fixtures that a user would already have on disk."""

    def setup(self):
        """Timed set-up: everything between a cold start and the first unit."""
        raise NotImplementedError

    def check_ops(self):
        return op_check(self.model, self.kind, self.cfg, self.dtype)

    def unit(self, index):
        """Run one unit; returns (images, attempted, failed, detail)."""
        raise NotImplementedError

    def extra_layer_metrics(self):
        return {}


class TrainCrmn32(Workload):
    name = "train-crmn32"
    units_per_pass = TRAIN_BATCHES
    batch = TRAIN_BATCH

    def setup(self):
        self.cfg = crmn32_config()
        self.model = self._timed("model.build_crmn", model_mod.build_crmn,
                                 self.cfg, seed=self.seed)
        ds = self._timed("data.synth_dataset", data.synth_dataset, CLASSES,
                         TRAIN_BATCH * TRAIN_BATCHES // CLASSES, seed=self.seed)
        perm = np.random.default_rng(self.seed).permutation(len(ds))
        self.batches = [ds.subset(perm[k * TRAIN_BATCH:(k + 1) * TRAIN_BATCH], "train")
                        for k in range(TRAIN_BATCHES)]
        self.policy = data.AugmentPolicy(pad=4, crop=EXTENT, flip=True)

    def unit(self, index):
        cfg = training.TrainConfig(lr_ladder=(TRAIN_LR,), batch_size=TRAIN_BATCH,
                                   max_epochs=1, seed=self.seed * 1000 + index,
                                   augment=self.policy)
        try:
            result = training.train(self.model, self.batches[index % TRAIN_BATCHES],
                                    cfg, replay=[])
        except TrainingError as exc:
            return TRAIN_BATCH, 1, 1, {"error": str(exc)}
        loss = result.history[0]["train_loss"]
        return TRAIN_BATCH, 1, int(not math.isfinite(loss)), {"loss": loss}

    def extra_layer_metrics(self):
        return {"data.synth_dataset_s": _median(self.setup_parts["data.synth_dataset"])}


class EvalWorkload(Workload):
    units_per_pass = EVAL_BATCHES
    batch = EVAL_BATCH

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ckpt_path = self.workdir / f"{self.name}.crmn"
        self.data_path = self.workdir / f"{self.name}.crtd"
        self.first_visit = {}
        self.reference = None  # read at the first canary visit

    def prepare(self):
        build = model_mod.build_crmn if self.kind == "crmn" else model_mod.build_resnet
        model = build(crmn32_config(), seed=EVAL_MODEL_SEED)
        per_class = EVAL_BATCH // CLASSES
        warm_and_fit(model, data.synth_dataset(CLASSES, per_class, seed=CALIBRATION_SEED))
        checkpoint.save_model(model, self.ckpt_path)
        self.ckpt_bytes = os.path.getsize(self.ckpt_path)
        canary = data.synth_dataset(CLASSES, per_class, seed=CANARY_SEED)
        t0 = time.perf_counter()
        drawn = data.synth_dataset(CLASSES, per_class * (EVAL_BATCHES - 1), seed=self.seed)
        self.setup_parts["data.synth_dataset"] = [time.perf_counter() - t0]
        drawn = drawn.subset(np.random.default_rng(self.seed).permutation(len(drawn)), "val")
        both = data.ImageDataset(np.concatenate([canary.images, drawn.images]),
                                 np.concatenate([canary.labels, drawn.labels]), CLASSES, "val")
        data.save_raw_dataset(both, self.data_path)

    def setup(self):
        self.model = self._timed("checkpoint.load_model", checkpoint.load_model,
                                 self.ckpt_path)
        ds = self._timed("data.load_raw_dataset", data.load_raw_dataset, self.data_path)
        self.batches = [ds.subset(np.arange(k * EVAL_BATCH, (k + 1) * EVAL_BATCH), "val")
                        for k in range(EVAL_BATCHES)]
        self.cfg = self.model.cfg

    def evaluate_canary(self):
        return training.evaluate_model(self.model, self.batches[0], EVAL_BATCH)

    def unit(self, index):
        k = index % EVAL_BATCHES
        loss, acc = training.evaluate_model(self.model, self.batches[k], EVAL_BATCH)
        failed = not (math.isfinite(loss) and 0.0 <= acc <= 1.0)
        if k == 0:
            if self.reference is None:
                self.reference = json.loads(REFERENCE_PATH.read_text())[self.name]
            ref = self.reference
            failed |= abs(loss - ref["loss"]) > CANARY_LOSS_RTOL * abs(ref["loss"])
            failed |= abs(acc - ref["acc"]) > CANARY_ACC_ATOL
        first = self.first_visit.setdefault(k, (loss, acc))
        failed |= abs(loss - first[0]) > REPEAT_RTOL * abs(first[0]) or acc != first[1]
        return EVAL_BATCH, 1, int(failed), {"batch": k, "loss": loss, "acc": acc}

    def extra_layer_metrics(self):
        return {
            "checkpoint.load_model_s": _median(self.setup_parts["checkpoint.load_model"]),
            "checkpoint.bytes": self.ckpt_bytes,
            "data.load_raw_dataset_s": _median(self.setup_parts["data.load_raw_dataset"]),
            "data.synth_dataset_s": _median(self.setup_parts["data.synth_dataset"]),
        }


class EvalCrmn32(EvalWorkload):
    name = "eval-crmn32"
    kind = "crmn"


class EvalResnet32(EvalWorkload):
    name = "eval-resnet32"
    kind = "resnet"


class GradcheckFull(Workload):
    name = "gradcheck-full"
    dtype = np.float64
    batch = 2  # check_full's default batch

    def setup(self):
        self.cfg = gradcheck.micro_config()
        self.model = self._timed("model.build_crmn", model_mod.build_crmn, self.cfg,
                                 seed=GRADCHECK_SEED, dtype=self.dtype)
        self.expected_scalars = cost_report("crmn", self.cfg).params_total

    def unit(self, index):
        report = gradcheck.check_full(GRADCHECK_SEED)
        checked = sum(e.checked for e in report.entries)
        # report.passed holds exactly when no entry reaches the tolerance
        failed = sum(e.max_rel_err >= report.tolerance for e in report.entries)
        failed += int(checked != self.expected_scalars)
        # every checked scalar costs two loss evaluations of `batch` images
        return (2 * checked * self.batch, len(report.entries), failed,
                {"passed": report.passed, "worst": report.worst, "checked": checked,
                 "loss_evals": 2 * checked})

    def calibration_unit(self):
        """One block of full-model loss evaluations, the bulk of check_full."""
        rng = np.random.default_rng(GRADCHECK_SEED + 50)
        x = Tensor(rng.uniform(0.0, 1.0, (self.batch, 3, EXTENT, EXTENT)))
        labels = rng.integers(0, self.cfg.classes, self.batch)

        def block(evals=100):
            for _ in range(evals):
                logits = self.model.forward(x, training=True)
                gradcheck.softmax_cross_entropy(logits, labels).item()

        return block


WORKLOADS = {w.name: w for w in (TrainCrmn32, EvalCrmn32, EvalResnet32, GradcheckFull)}


def _median(values):
    return float(np.median(values)) if values else 0.0
