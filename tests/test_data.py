"""Dataset loading, containers, normalization, augmentation, splits."""

import numpy as np
import pytest

from crmn.data import (
    _RAW_HEADER, RAW_MAGIC, RAW_VERSION, AugmentPolicy, ImageDataset, augment,
    load_cifar_binary, load_raw_dataset, normalize, save_raw_dataset, split_train_val,
    synth_dataset,
)
from crmn.errors import DimensionError, FormatError, InputError


def write_c10(path, records):
    """records: list of (label, fill_byte) pairs."""
    blob = bytearray()
    for label, fill in records:
        blob.append(label)
        blob += bytes([fill]) * 3072
    path.write_bytes(bytes(blob))
    return path


def test_cifar10_records_decode_labels_and_scale(tmp_path):
    path = write_c10(tmp_path / "batch.bin", [(7, 0), (3, 255), (1, 128)])
    ds = load_cifar_binary(path, "c10")
    assert len(ds) == 3
    assert ds.class_count == 10
    assert list(ds.labels) == [7, 3, 1]
    assert ds.images.shape == (3, 3, 32, 32)
    assert not ds.images[0].any()
    assert np.all(ds.images[1] == 1.0)
    assert np.allclose(ds.images[2], 128.0 / 255.0)


def test_cifar100_fine_label_is_second_byte(tmp_path):
    blob = bytes([4, 42]) + bytes(3072)  # (coarse, fine) then pixels
    path = tmp_path / "train.bin"
    path.write_bytes(blob)
    ds = load_cifar_binary(path, "c100")
    assert ds.class_count == 100
    assert list(ds.labels) == [42]


def test_cifar_truncation_reports_the_bad_offset(tmp_path):
    path = write_c10(tmp_path / "cut.bin", [(1, 0), (2, 0)])
    data = path.read_bytes()
    path.write_bytes(data + data[: 3073 // 2])  # half a third record
    with pytest.raises(FormatError) as err:
        load_cifar_binary(path, "c10")
    assert str(2 * 3073) in str(err.value)


def test_cifar_rejects_unknown_variant(tmp_path):
    path = write_c10(tmp_path / "x.bin", [(0, 0)])
    with pytest.raises(InputError):
        load_cifar_binary(path, "c20")


def test_raw_container_roundtrip(tmp_path):
    ds = synth_dataset(3, 4, seed=1)
    path = tmp_path / "data.crtd"
    save_raw_dataset(ds, path)
    back = load_raw_dataset(path)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_count == 3
    assert back.images.shape == ds.images.shape
    # pixels survive 8-bit quantization to within half a step
    assert np.abs(back.images - ds.images).max() <= 0.5 / 255.0 + 1e-6


def test_raw_container_wide_labels(tmp_path):
    images = np.zeros((3, 3, 8, 8), dtype=np.float32)
    labels = np.array([0, 300, 999], dtype=np.int64)
    ds = ImageDataset(images, labels, class_count=1000).validate()
    path = tmp_path / "wide.crtd"
    save_raw_dataset(ds, path)
    back = load_raw_dataset(path)
    assert list(back.labels) == [0, 300, 999]


def test_raw_container_detects_corruption(tmp_path):
    ds = synth_dataset(2, 2, seed=0, extent=8)
    path = tmp_path / "data.crtd"
    save_raw_dataset(ds, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.crtd"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_raw_dataset(bad_magic)

    short = tmp_path / "short.crtd"
    short.write_bytes(blob[:-10])
    with pytest.raises(FormatError):
        load_raw_dataset(short)

    version = tmp_path / "version.crtd"
    version.write_bytes(blob[:4] + bytes([9, 0, 0, 0]) + blob[8:])
    with pytest.raises(FormatError):
        load_raw_dataset(version)


def test_mean_pixel_normalization_centres_the_train_split():
    ds = synth_dataset(3, 6, seed=2)
    out, stats = normalize(ds, "mean_pixel")
    assert stats.shape == (3, 32, 32)
    assert np.allclose(out.images.mean(axis=0), 0.0, atol=1e-6)
    # reusing train stats on another split is a plain subtraction
    val = synth_dataset(3, 2, seed=3)
    val_out, _ = normalize(val, "mean_pixel", stats=stats)
    assert np.allclose(val_out.images, val.images - stats[None], atol=1e-7)


def test_gcn_standardizes_each_image():
    ds = synth_dataset(3, 4, seed=4)
    out, stats = normalize(ds, "gcn")
    assert stats is None
    flat = out.images.reshape(len(ds), -1)
    assert np.allclose(flat.mean(axis=1), 0.0, atol=1e-5)
    assert np.allclose(flat.std(axis=1), 1.0, atol=1e-4)


def test_gcn_constant_image_stays_finite():
    images = np.full((2, 3, 8, 8), 0.5, dtype=np.float32)
    ds = ImageDataset(images, np.array([0, 1]), class_count=2).validate()
    out, _ = normalize(ds, "gcn")
    assert not out.images.any()
    assert np.isfinite(out.images).all()


def test_normalize_rejects_unknown_mode():
    ds = synth_dataset(2, 2, seed=0, extent=8)
    with pytest.raises(InputError):
        normalize(ds, "whitening")


class FixedOffsets:
    """Stands in for a generator: every crop lands at the same offset."""

    def __init__(self, row, col, flip=False):
        self.row, self.col, self.flip = row, col, flip

    def integers(self, low, high, size=None):
        if size is not None and not np.isscalar(size):
            return np.tile([self.row, self.col], (size[0], 1))
        return np.full(size, int(self.flip))


def test_augment_centre_crop_is_identity():
    images = np.random.default_rng(5).random((3, 3, 32, 32), dtype=np.float32)
    out = augment(images, AugmentPolicy(pad=4, crop=32), FixedOffsets(4, 4))
    assert np.array_equal(out, images)


def test_augment_corner_crop_shows_the_zero_band():
    images = np.ones((2, 3, 32, 32), dtype=np.float32)
    out = augment(images, AugmentPolicy(pad=4, crop=32), FixedOffsets(0, 0))
    assert not out[:, :, :4, :].any()  # top padding slid into view
    assert not out[:, :, :, :4].any()
    assert np.all(out[:, :, 4:, 4:] == 1.0)


def test_augment_flip_reverses_columns():
    images = np.random.default_rng(6).random((2, 3, 32, 32), dtype=np.float32)
    out = augment(images, AugmentPolicy(pad=4, crop=32, flip=True),
                  FixedOffsets(4, 4, flip=True))
    assert np.array_equal(out, images[:, :, :, ::-1])


def test_augment_is_seed_deterministic():
    images = np.random.default_rng(7).random((4, 3, 32, 32), dtype=np.float32)
    a = augment(images, AugmentPolicy(), np.random.default_rng(42))
    b = augment(images, AugmentPolicy(), np.random.default_rng(42))
    assert np.array_equal(a, b)
    offsets_seen = augment(images, AugmentPolicy(), np.random.default_rng(43))
    assert not np.array_equal(a, offsets_seen)


@pytest.mark.parametrize("pad, crop", [(4, 32), (2, 30)])
def test_augment_matches_per_image_crops_and_flips(pad, crop):
    images = np.random.default_rng(8).random((50, 3, 32, 32), dtype=np.float32)
    out = augment(images, AugmentPolicy(pad=pad, crop=crop, flip=True),
                  np.random.default_rng(9))
    draws = np.random.default_rng(9)  # the same draws, in the same order
    offsets = draws.integers(0, 2 * pad + 32 - crop + 1, size=(50, 2))
    flips = draws.integers(0, 2, size=50).astype(bool)
    assert flips.any() and not flips.all()
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    assert out.shape == (50, 3, crop, crop) and out.flags.c_contiguous
    for image, (r, c), flip, got in zip(padded, offsets, flips, out):
        want = image[:, r:r + crop, c:c + crop]
        assert np.array_equal(got, want[:, :, ::-1] if flip else want)


def test_augment_rejects_oversized_crop():
    images = np.ones((1, 3, 8, 8), dtype=np.float32)
    with pytest.raises(InputError):
        augment(images, AugmentPolicy(pad=1, crop=11), np.random.default_rng(0))


def test_synth_dataset_is_balanced_and_deterministic():
    a = synth_dataset(4, 5, seed=9)
    b = synth_dataset(4, 5, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert list(np.bincount(a.labels)) == [5, 5, 5, 5]
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    c = synth_dataset(4, 5, seed=10)
    assert not np.array_equal(a.images, c.images)
    with pytest.raises(InputError):
        synth_dataset(1, 5)


def test_synth_classes_are_visually_distinct():
    ds = synth_dataset(3, 8, seed=11)
    means = np.stack([ds.images[ds.labels == c].mean(axis=(0, 2, 3))
                      for c in range(3)])
    # per-class mean colours separate by construction
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.abs(means[i] - means[j]).max() > 0.1


def test_split_is_disjoint_and_deterministic():
    ds = synth_dataset(3, 10, seed=12)
    train_a, val_a = split_train_val(ds, 0.2, seed=1)
    train_b, val_b = split_train_val(ds, 0.2, seed=1)
    assert len(val_a) == 6 and len(train_a) == 24
    assert np.array_equal(train_a.images, train_b.images)
    assert np.array_equal(val_a.labels, val_b.labels)
    assert train_a.split == "train" and val_a.split == "val"

    joined = np.concatenate([train_a.images, val_a.images])
    assert joined.shape == ds.images.shape
    # every original image appears exactly once across the two splits
    original = {img.tobytes() for img in ds.images}
    assert {img.tobytes() for img in joined} == original

    with pytest.raises(InputError):
        split_train_val(ds, 0.0)
    with pytest.raises(InputError):
        split_train_val(ds, 1.0)


def test_subset_keeps_image_label_alignment():
    ds = synth_dataset(3, 4, seed=13)
    sub = ds.subset(np.array([5, 0, 7]), "train")
    assert np.array_equal(sub.images[0], ds.images[5])
    assert sub.labels[0] == ds.labels[5]
    assert len(sub) == 3


def test_dataset_checksum_tracks_content():
    a = synth_dataset(2, 3, seed=14, extent=8)
    b = synth_dataset(2, 3, seed=14, extent=8)
    assert a.checksum() == b.checksum()
    b.images[0, 0, 0, 0] += 0.5
    assert a.checksum() != b.checksum()


def test_out_of_range_labels_in_a_file_are_format_errors(tmp_path):
    c10 = write_c10(tmp_path / "label200.bin", [(1, 0), (200, 0)])
    with pytest.raises(FormatError, match="label200.bin: label 200 out of range"):
        load_cifar_binary(c10, "c10")
    ds = ImageDataset(np.zeros((2, 3, 8, 8), dtype=np.float32), np.array([0, 5]), 6)
    raw = tmp_path / "label5.crtd"
    save_raw_dataset(ds, raw)
    blob = bytearray(raw.read_bytes())
    blob[28:32] = (2).to_bytes(4, "little")  # the header's class count
    raw.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="label5.crtd: label 5 out of range for 2"):
        load_raw_dataset(raw)


@pytest.mark.parametrize("n, c, h, w", [(0, 2**32 - 1, 2**32 - 1, 2**32 - 1),
                                        (1, 0, 2**32 - 1, 2**32 - 1)])
def test_raw_container_rejects_empty_images_numpy_cannot_shape(tmp_path, n, c, h, w):
    path = tmp_path / "empty.crtd"
    path.write_bytes(_RAW_HEADER.pack(RAW_MAGIC, RAW_VERSION, 1, n, c, h, w, 3) + bytes(n))
    with pytest.raises(FormatError, match="empty.crtd: cannot shape"):
        load_raw_dataset(path)


def test_dataset_validation_catches_bad_labels():
    images = np.zeros((2, 3, 8, 8), dtype=np.float32)
    with pytest.raises(InputError):
        ImageDataset(images, np.array([0, 5]), class_count=3).validate()
    with pytest.raises(DimensionError):
        ImageDataset(images, np.array([0]), class_count=3).validate()
