"""SGD with momentum and weight decay, plus validation-patience scheduling.

Parameters fall into three learning-rate groups by name prefix: trunk,
lstm, head. Joint mode moves all three down the ladder together; round
robin mode shifts one group per trigger, cycling trunk -> lstm -> head.

An epoch "improves" when validation error strictly drops or validation
accuracy strictly rises; ties count as no improvement. After ``patience``
consecutive non-improving epochs the controller reloads the best snapshot
and shifts the learning rate, except that no shift may happen before epoch
``min_epochs_first_shift`` (first shift only). Training stops when a shift
would walk off the ladder. Each shift record names the
epoch whose snapshot it reloaded, so a replay snapshots, reloads and shifts
at the same epochs as the run it records.

Weight decay skips biases, batch-norm shifts, and the learned initial
state unless ``decay_all`` is set. Momentum velocities reset to zero
whenever the best snapshot is reloaded, since the old velocities described
a trajectory that was abandoned.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .data import AugmentPolicy, ImageDataset, augment
from .errors import ContractError, InputError, TrainingError
from .tensor import Tape, Tensor, backward, softmax_cross_entropy

GROUPS = ("trunk", "lstm", "head")
HISTORY_COLUMNS = ("epoch", "lr_trunk", "lr_lstm", "lr_head",
                   "train_loss", "val_error", "val_acc")


@dataclass
class TrainConfig:
    lr_ladder: tuple = (0.1, 0.01, 0.001)
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 100
    patience: int = 10
    min_epochs_first_shift: int = 70
    max_epochs: int = 100
    seed: int = 0
    rrlr: bool = False
    decay_all: bool = False
    augment: AugmentPolicy | None = None

    def validate(self):
        ladder = tuple(float(v) for v in self.lr_ladder)
        if not ladder or not all(0 < v < math.inf for v in ladder):
            raise InputError(f"ladder must be positive and finite, got {ladder}")
        if any(a <= b for a, b in zip(ladder, ladder[1:])):
            raise InputError(f"ladder must be strictly decreasing, got {ladder}")
        if self.batch_size < 2:
            raise InputError(f"batch_size must be >= 2 (training-mode norm), "
                             f"got {self.batch_size}")
        if self.patience < 1 or self.max_epochs < 1:
            raise InputError("patience and max_epochs must be >= 1")
        if self.min_epochs_first_shift < 0:
            raise InputError(f"min_epochs_first_shift must be >= 0, "
                             f"got {self.min_epochs_first_shift}")
        # comparisons with NaN are false, so each range test also rejects it
        if not 0 <= self.momentum < 1:
            raise InputError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise InputError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        return self


def _group_of(name):
    head = name.split(".", 1)[0]
    return head if head in GROUPS else "head"


class SgdOptimizer:
    def __init__(self, named_params, momentum=0.9, weight_decay=1e-4, decay_all=False):
        self.entries = [(name, t, _group_of(name), decay or decay_all)
                        for name, t, decay in named_params]
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(t.data) for name, t, _, _ in self.entries}

    def step(self, lrs, context=""):
        for name, t, group, decays in self.entries:
            g = t.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in {name}{context}")
            if decays and self.weight_decay:
                g = g + self.weight_decay * t.data
            v = self.velocity[name]
            v *= self.momentum
            v -= lrs[group] * g
            t.data += v

    def zero_grads(self):
        for _, t, _, _ in self.entries:
            t.zero_grad()

    def zero_velocity(self):
        for v in self.velocity.values():
            v[...] = 0.0


@dataclass
class Decision:
    kind: str  # continue | shift | stop
    improved: bool = False
    lrs: dict = field(default_factory=dict)


class PatienceController:
    """State machine over validation metrics driving learning-rate shifts."""

    def __init__(self, ladder, patience, min_epochs_first_shift=70, rrlr=False):
        self.ladder = tuple(float(v) for v in ladder)
        self.patience = patience
        self.min_epochs_first_shift = min_epochs_first_shift
        self.rrlr = rrlr
        self.index = {g: 0 for g in GROUPS}
        self.cursor = 0
        self.best_error = math.inf
        self.best_acc = -math.inf
        self.best_epoch = None
        self.stall = 0
        self.shifted_once = False
        self.records = []

    def lrs(self):
        return {g: self.ladder[self.index[g]] for g in GROUPS}

    def observe(self, epoch, val_error, val_acc) -> Decision:
        improved = val_error < self.best_error or val_acc > self.best_acc
        self.best_error = min(self.best_error, val_error)
        self.best_acc = max(self.best_acc, val_acc)
        if improved:
            self.best_epoch = epoch
            self.stall = 0
            return Decision("continue", improved=True, lrs=self.lrs())
        self.stall += 1
        if self.stall < self.patience:
            return Decision("continue", lrs=self.lrs())
        if not self.shifted_once and epoch < self.min_epochs_first_shift:
            return Decision("continue", lrs=self.lrs())
        groups = (GROUPS[self.cursor],) if self.rrlr else GROUPS
        next_index = self.index[groups[0]] + 1
        if next_index >= len(self.ladder):
            return Decision("stop", lrs=self.lrs())
        for g in groups:
            self.index[g] = next_index
            self.records.append({"epoch": epoch, "group": g, "lr": self.ladder[next_index],
                                 "reload": self.best_epoch})
        if self.rrlr:
            self.cursor = (self.cursor + 1) % len(GROUPS)
        self.shifted_once = True
        self.stall = 0
        return Decision("shift", lrs=self.lrs())


@dataclass
class TrainResult:
    history: list
    schedule: list
    best_epoch: int | None
    final_epoch: int
    stopped: str  # budget | ladder


def _batch_tensor(images, dtype=np.float32):
    return Tensor(np.ascontiguousarray(images, dtype=dtype))


def evaluate_model(model, ds: ImageDataset, batch_size=100):
    """Mean cross-entropy and accuracy in eval mode; no tape, no shuffle.

    Each batch of two or more images runs on one contiguous slice of them per
    CPU at once (``CrmnModel.forward``), and scores the same bit for bit as on
    one thread: an eval trunk computes each image alone, and the LSTM and the
    head run on the whole batch.
    """
    n = len(ds)
    if n == 0:
        raise ContractError("evaluate_model: empty dataset")
    if batch_size < 1:
        raise InputError(f"batch_size must be >= 1, got {batch_size}")
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        x = _batch_tensor(ds.images[start:stop])
        labels = ds.labels[start:stop]
        logits = model.forward(x, training=False)
        loss = softmax_cross_entropy(logits, labels)
        total_loss += loss.item() * (stop - start)
        correct += int((logits.data.argmax(axis=1) == labels).sum())
    return total_loss / n, correct / n


def _replayed(records, epoch, lrs) -> Decision:
    """The controller's decision at ``epoch``, read back from its records."""
    improved = any(r.get("reload") == epoch for r in records)
    shifts = {r["group"]: r["lr"] for r in records if r["epoch"] == epoch}
    return Decision("shift" if shifts else "continue", improved, {**lrs, **shifts})


def train(model, train_ds: ImageDataset, cfg: TrainConfig, val_ds=None, replay=None):
    """Run the training protocol; returns history, schedule, and stop cause.

    With ``replay`` (a recorded schedule: list of {epoch, group, lr, reload}),
    validation is optional and the records stand in for the controller's
    decisions, so the replay trains as the recorded run did; records without
    ``reload`` only shift. Otherwise a validation split is required, the
    patience controller learns the schedule, and the best snapshot is
    restored at the end.
    """
    cfg.validate()
    n = len(train_ds)
    if n < cfg.batch_size:
        raise ContractError(f"need at least one full batch: {n} samples, "
                            f"batch {cfg.batch_size}")
    if replay is None and val_ds is None:
        raise ContractError("schedule search needs a validation split")

    optimizer = SgdOptimizer(model.named_params(), cfg.momentum,
                             cfg.weight_decay, cfg.decay_all)
    controller = None
    if replay is None:
        controller = PatienceController(cfg.lr_ladder, cfg.patience,
                                        cfg.min_epochs_first_shift, cfg.rrlr)
        lrs = controller.lrs()
    else:
        replay = sorted(replay, key=lambda r: (r["epoch"], GROUPS.index(r["group"])))
        lrs = {g: cfg.lr_ladder[0] for g in GROUPS}

    shuffle_rng = np.random.default_rng(cfg.seed)
    augment_rng = np.random.default_rng(cfg.seed + 1)
    best_snapshot = None
    best_epoch = None
    history = []
    stopped = "budget"
    final_epoch = 0

    for epoch in range(1, cfg.max_epochs + 1):
        final_epoch = epoch
        perm = shuffle_rng.permutation(n)
        batches = n // cfg.batch_size
        loss_sum = 0.0
        for bi in range(batches):
            idx = perm[bi * cfg.batch_size:(bi + 1) * cfg.batch_size]
            images = train_ds.images[idx]
            if cfg.augment is not None:
                images = augment(images, cfg.augment, augment_rng)
            x = _batch_tensor(images)
            labels = train_ds.labels[idx]
            optimizer.zero_grads()
            # backward frees each tape entry once run: the step peaks at its tape plus gradients
            with Tape():
                loss = softmax_cross_entropy(model.forward(x, training=True), labels)
                if not np.isfinite(loss.item()):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, batch {bi}")
                backward(loss)
            optimizer.step(lrs, context=f" at epoch {epoch}, batch {bi}")
            loss_sum += loss.item()
        train_loss = loss_sum / batches

        if val_ds is not None:
            val_error, val_acc = evaluate_model(model, val_ds, cfg.batch_size)
        else:
            val_error, val_acc = math.nan, math.nan
        history.append({"epoch": epoch, "lr_trunk": lrs["trunk"], "lr_lstm": lrs["lstm"],
                        "lr_head": lrs["head"], "train_loss": train_loss,
                        "val_error": val_error, "val_acc": val_acc})

        decision = (_replayed(replay, epoch, lrs) if controller is None
                    else controller.observe(epoch, val_error, val_acc))
        if decision.improved:
            best_snapshot = model.snapshot()
            best_epoch = epoch
        if decision.kind == "stop":
            stopped = "ladder"
            break
        if decision.kind == "shift":
            if best_snapshot is not None:
                model.restore(best_snapshot)
                optimizer.zero_velocity()
            lrs = decision.lrs

    if controller is not None and best_snapshot is not None:
        model.restore(best_snapshot)
    schedule = controller.records if controller is not None else list(replay)
    return TrainResult(history, schedule, best_epoch, final_epoch, stopped)


def write_history(path, history):
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow([row["epoch"]] + [repr(float(row[k]))
                                              for k in HISTORY_COLUMNS[1:]])


def read_history(path):
    """Rows of a history CSV; anything but the written layout raises InputError."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if tuple(header) != HISTORY_COLUMNS:
                raise InputError(f"{path}: unexpected history columns {header}")
            rows = []
            for row in reader:
                if len(row) != len(HISTORY_COLUMNS):
                    raise InputError(f"{path}: row {row} is not {len(HISTORY_COLUMNS)} fields")
                rows.append({"epoch": int(row[0]),
                             **{k: float(v) for k, v in zip(HISTORY_COLUMNS[1:], row[1:])}})
    except (ValueError, csv.Error) as exc:  # undecodable bytes or an unparsable number
        raise InputError(f"{path}: malformed history: {exc}") from None
    return rows


def write_schedule(path, records):
    with atomic_open(path, "w") as fh:
        json.dump(list(records), fh, indent=2)
        fh.write("\n")


def _valid_record(r):
    if not isinstance(r, dict) or r.get("group") not in GROUPS:
        return False
    epoch, lr, reload = r.get("epoch"), r.get("lr"), r.get("reload")
    return (type(epoch) is int and epoch >= 1
            and type(lr) in (int, float) and 0 < lr <= np.finfo(float).max
            and (reload is None or type(reload) is int and 1 <= reload < epoch))


def read_schedule(path):
    """Shift records of a schedule file; a malformed one raises InputError."""
    try:
        with open(path) as fh:
            records = json.load(fh)
    except (ValueError, RecursionError) as exc:  # undecodable bytes or bad JSON
        raise InputError(f"{path}: not a JSON schedule: {exc}") from None
    if not isinstance(records, list):
        raise InputError(f"{path}: a schedule is a list, not {type(records).__name__}")
    for r in records:
        if not _valid_record(r):
            raise InputError(f"{path}: malformed schedule record {r}")
    # a run improves again only after every shift that reloaded its last best epoch
    marks = sorted((r["reload"], r["epoch"]) for r in records if r.get("reload") is not None)
    if any(b1 < b2 <= e1 for (b1, e1), (b2, _) in zip(marks, marks[1:])):
        raise InputError(f"{path}: no single run reloads the epochs of {marks}")
    return records
