"""Dataset ingestion, preprocessing, augmentation, and synthetic corpora.

Images are carried as float arrays shaped N*3*H*W with raw pixels scaled
into [0, 1]; normalization happens explicitly afterwards so the statistics
source (train split only) stays visible at the call site.

Two on-disk layouts are read: the published CIFAR binary record layout
(1 or 2 label bytes followed by 3072 channel-major pixel bytes), and a
small raw-tensor container (fixed little-endian header, label bytes, pixel
bytes) used for everything else, including converted SVHN-style corpora.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import atomic_open
from .errors import DimensionError, FormatError, InputError

RAW_MAGIC = b"CRTD"
RAW_VERSION = 1
_RAW_HEADER = struct.Struct("<4sIIIIIII")  # magic, version, label_width, N, C, H, W, classes
NORMALIZE_MODES = ("none", "mean_pixel", "gcn")


@dataclass
class ImageDataset:
    images: np.ndarray  # N*3*H*W float32
    labels: np.ndarray  # N int64
    class_count: int
    split: str = "train"

    def __len__(self):
        return self.images.shape[0]

    def validate(self):
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise DimensionError(
                f"dataset images {self.images.shape} vs labels {self.labels.shape}")
        if len(self) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise InputError(f"labels out of range for {self.class_count} classes")
        return self

    def subset(self, indices, split):
        return ImageDataset(self.images[indices], self.labels[indices],
                            self.class_count, split)

    def checksum(self):
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.images).tobytes())
        digest.update(np.ascontiguousarray(self.labels).tobytes())
        return digest.hexdigest()


@dataclass
class AugmentPolicy:
    pad: int = 4
    crop: int = 32
    flip: bool = False

    def validate(self, extent=32):
        if self.pad < 0 or self.crop < 1 or self.crop > extent + 2 * self.pad:
            raise InputError(f"crop {self.crop} does not fit extent {extent} + pad {self.pad}")
        return self


def load_cifar_binary(path, variant="c10"):
    """Read the published binary record layout; pixels scaled into [0, 1]."""
    if variant not in ("c10", "c100"):
        raise InputError(f"variant must be c10 or c100, got {variant!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    label_bytes = 1 if variant == "c10" else 2
    record = label_bytes + 3072
    if len(raw) == 0 or len(raw) % record:
        offset = (len(raw) // record) * record
        raise FormatError(
            f"{path}: size {len(raw)} is not a multiple of the {record}-byte record; "
            f"truncated record starts at byte offset {offset}")
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record)
    # c100 records carry (coarse, fine); the fine label is the second byte
    labels = data[:, label_bytes - 1].astype(np.int64)
    images = data[:, label_bytes:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    classes = 10 if variant == "c10" else 100
    return _loaded(path, images, labels, classes)


def save_raw_dataset(ds: ImageDataset, path):
    """Write the raw-tensor container; pixels are quantized to 8 bits."""
    n, c, h, w = ds.images.shape
    label_width = 1 if ds.class_count <= 256 else 2
    pixels = np.clip(np.rint(ds.images * 255.0), 0, 255).astype(np.uint8)
    labels = ds.labels.astype("<u2" if label_width == 2 else "u1")
    with atomic_open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(RAW_MAGIC, RAW_VERSION, label_width,
                                  n, c, h, w, ds.class_count))
        fh.write(labels.tobytes())
        fh.write(pixels.tobytes())


def load_raw_dataset(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _RAW_HEADER.size:
        raise FormatError(f"{path}: shorter than the {_RAW_HEADER.size}-byte header")
    magic, version, label_width, n, c, h, w, classes = _RAW_HEADER.unpack_from(raw)
    if magic != RAW_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != RAW_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if label_width not in (1, 2):
        raise FormatError(f"{path}: bad label width {label_width}")
    need = _RAW_HEADER.size + n * label_width + n * c * h * w
    if len(raw) != need:
        raise FormatError(f"{path}: expected {need} bytes, found {len(raw)}; "
                          f"payload starts at byte offset {_RAW_HEADER.size}")
    offset = _RAW_HEADER.size
    ldtype = np.dtype("<u2") if label_width == 2 else np.dtype("u1")
    labels = np.frombuffer(raw, dtype=ldtype, count=n, offset=offset).astype(np.int64)
    offset += n * label_width
    pixels = np.frombuffer(raw, dtype=np.uint8, count=n * c * h * w, offset=offset)
    try:
        pixels = pixels.reshape(n, c, h, w)
    except ValueError as exc:  # an empty payload whose other extents overflow int64
        raise FormatError(f"{path}: cannot shape {n}x{c}x{h}x{w} images: {exc}") from None
    images = pixels.astype(np.float32) / 255.0
    return _loaded(path, images, labels, classes)


def _loaded(path, images, labels, classes):
    """Dataset from decoded file contents; unsigned labels must be below ``classes``."""
    if len(labels) and labels.max() >= classes:
        raise FormatError(f"{path}: label {labels.max()} out of range for {classes} classes")
    return ImageDataset(images, labels, classes).validate()


def normalize(ds: ImageDataset, mode="mean_pixel", stats=None):
    """Returns (normalized dataset, stats). Stats come from the train split.

    none returns ``ds`` itself. mean_pixel subtracts a per-position mean
    image (computed here when ``stats`` is None, which is only correct on the
    training split). gcn centers and scales each image by its own statistics.
    """
    if mode not in NORMALIZE_MODES:
        raise InputError(f"normalize mode must be one of {NORMALIZE_MODES}, got {mode!r}")
    if mode == "none":
        return ds, None
    if mode == "mean_pixel":
        if stats is None:
            stats = ds.images.mean(axis=0)
        if stats.shape != ds.images.shape[1:]:
            raise DimensionError(
                f"mean image {stats.shape} does not match images {ds.images.shape[1:]}")
        images = ds.images - stats[None]
    else:
        flat = ds.images.reshape(len(ds), -1)
        mean = flat.mean(axis=1)
        std = np.maximum(flat.std(axis=1), 1e-8)
        images = ((flat - mean[:, None]) / std[:, None]).reshape(ds.images.shape)
        stats = None
    out = ImageDataset(images.astype(np.float32), ds.labels, ds.class_count, ds.split)
    return out, stats


def augment(images, policy: AugmentPolicy, rng):
    """Pad with zeros, take per-image random crops, optionally flip."""
    policy.validate(images.shape[2])
    n, _, h, _ = images.shape
    pad = policy.pad
    span = 2 * pad + h - policy.crop  # offsets range over [0, span]
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    offsets = rng.integers(0, span + 1, size=(n, 2))
    # (n, c, span + 1, span + 1, crop, crop); one gather takes every image's crop
    windows = sliding_window_view(padded, (policy.crop, policy.crop), axis=(2, 3))
    out = windows[np.arange(n), :, offsets[:, 0], offsets[:, 1]]
    if policy.flip:
        flips = rng.integers(0, 2, size=n).astype(bool)
        out[flips] = out[flips, :, :, ::-1]
    return out


def synth_dataset(classes, per_class, seed=0, extent=32):
    """Deterministic class-separable images: per-class color plus an
    oriented grating with random phase, under mild seeded noise."""
    if classes < 2 or per_class < 1:
        raise InputError(f"need >= 2 classes and >= 1 sample each, got "
                         f"{classes} x {per_class}")
    rng = np.random.default_rng(seed)
    u = np.arange(extent, dtype=np.float64) / extent
    rows, cols = np.meshgrid(u, u, indexing="ij")
    images = np.empty((classes * per_class, 3, extent, extent), dtype=np.float32)
    labels = np.empty(classes * per_class, dtype=np.int64)
    for cls in range(classes):
        hue = 2.0 * np.pi * cls / classes
        color = 0.5 + 0.35 * np.array([np.cos(hue),
                                       np.cos(hue - 2.0 * np.pi / 3.0),
                                       np.cos(hue + 2.0 * np.pi / 3.0)])
        theta = np.pi * cls / classes
        freq = 2.0 + (cls % 3)
        wave = rows * np.cos(theta) + cols * np.sin(theta)
        for j in range(per_class):
            idx = cls * per_class + j
            phase = rng.uniform(0.0, 2.0 * np.pi)
            grating = 0.22 * np.sin(2.0 * np.pi * freq * wave + phase)
            noise = rng.normal(0.0, 0.06, (3, extent, extent))
            img = color[:, None, None] + grating[None] + noise
            images[idx] = np.clip(img, 0.0, 1.0)
            labels[idx] = cls
    return ImageDataset(images, labels, classes).validate()


def split_train_val(ds: ImageDataset, val_fraction=0.1, seed=0):
    """Deterministic disjoint split; validation takes the stated fraction."""
    n = len(ds)
    n_val = int(round(n * val_fraction)) if math.isfinite(val_fraction) else 0
    if n_val < 1 or n_val >= n:
        raise InputError(f"cannot take {val_fraction:.0%} of {n} samples for validation")
    perm = np.random.default_rng(seed).permutation(n)
    return ds.subset(perm[n_val:], "train"), ds.subset(perm[:n_val], "val")
