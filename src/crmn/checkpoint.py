"""Named-tensor checkpoint container.

Layout: an 8-byte magic, a little-endian uint64 manifest length, a JSON
manifest, then each tensor's raw little-endian bytes concatenated in
manifest order. The manifest records the model kind, full config (including
flatten order and the output-gate choice) and input normalization, with
``mean_pixel``'s mean image as one more tensor, so a file is
self-describing; round trips are bit-exact. The writer checks every
tensor's dtype, writes the header, then writes each array straight from its
own memory, so saving holds no second copy of the model.

Batch-norm running statistics are stored alongside the trainable tensors
so a reloaded model evaluates identically.

Loading draws no random initialization: ``load_model`` builds the model with
``seed=None`` (every array allocated, nothing drawn) in the dtype of the
file's parameters, checks every tensor's name, shape and dtype against its
array, and reads each tensor's bytes straight into that array; nothing else
holds a copy. A tensor whose name, shape or dtype differs from its
destination's is a ``FormatError``; batch-norm running statistics are
always float64.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .analysis import KINDS, cost_report
from .atomic import atomic_open
from .data import NORMALIZE_MODES
from .errors import ContractError, FormatError, InputError
from .model import TAP_FLATTEN_ORDER, build_crmn, build_resnet
from .resnet import NetworkConfig

MAGIC = b"CRMNTNS1"
FORMAT_NAME = "crmn-tensors-1"

_DTYPE_TAGS = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}
_TAG_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}
MEAN_IMAGE = "input.mean_image"


def save_tensors(path, extra, tensors):
    """Write (name, array) pairs with a manifest carrying ``extra`` fields.

    An unsupported dtype raises ``FormatError`` before the file is opened.
    """
    tensors = list(tensors)
    listing = []
    for name, arr in tensors:
        try:
            tag = _DTYPE_TAGS[arr.dtype]
        except KeyError:
            raise FormatError(f"unsupported dtype {arr.dtype} for tensor {name!r}") from None
        listing.append({"name": name, "dtype": tag, "shape": list(arr.shape)})
    manifest = dict(extra)
    manifest["format"] = FORMAT_NAME
    manifest["tensors"] = listing
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for (_, arr), entry in zip(tensors, listing):
            fh.write(np.ascontiguousarray(arr).astype(entry["dtype"], copy=False).data)


def _entry_layout(path, entry):
    """Validate one manifest entry; returns (name, dtype, shape)."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise FormatError(f"{path}: tensor entry without a name: {entry!r}")
    name, tag, shape = entry["name"], entry.get("dtype"), entry.get("shape")
    dtype = _TAG_DTYPES.get(tag) if isinstance(tag, str) else None
    if dtype is None:
        raise FormatError(f"{path}: unknown dtype tag {tag!r} for {name!r}")
    if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape):
        raise FormatError(f"{path}: {name!r} has invalid shape {shape!r}")
    return name, dtype, tuple(shape)


def _read_header(path, fh):
    """Check an open container's magic, manifest and size against its tensor list.

    Returns (manifest, [(name, dtype, shape)]) with ``fh`` at the first
    tensor's bytes, which the listed tensors fill exactly.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(len(MAGIC) + 8)
    if len(head) < len(MAGIC) + 8 or head[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a tensor container (bad magic)")
    (blob_len,) = struct.unpack_from("<Q", head, len(MAGIC))
    offset = len(head) + blob_len
    if size < offset:
        raise FormatError(f"{path}: truncated manifest ({size} bytes)")
    try:
        manifest = json.loads(fh.read(blob_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    if manifest.get("format") != FORMAT_NAME:
        raise FormatError(f"{path}: unknown format {manifest.get('format')!r}")
    listing = manifest.get("tensors")
    if not isinstance(listing, list):
        raise FormatError(f"{path}: manifest has no tensor list")
    layouts = []
    for entry in listing:
        name, dtype, shape = _entry_layout(path, entry)
        end = offset + math.prod(shape) * dtype.itemsize
        if end > size:
            raise FormatError(f"{path}: truncated at byte {offset} reading {name!r}")
        layouts.append((name, dtype, shape))
        offset = end
    if offset != size:
        raise FormatError(f"{path}: {size - offset} trailing bytes")
    return manifest, layouts


def _read_into(path, fh, name, dest):
    if fh.readinto(dest) != dest.nbytes:
        raise FormatError(f"{path}: truncated reading {name!r}")


def load_tensors(path):
    """Read a container; returns (manifest, ordered dict of name -> array)."""
    with open(path, "rb") as fh:
        manifest, layouts = _read_header(path, fh)
        tensors = {}
        for name, dtype, shape in layouts:
            try:
                arr = np.empty(shape, dtype=dtype)
            except ValueError as exc:  # an empty shape NumPy cannot hold (>64 dims, huge dims)
                raise FormatError(f"{path}: {name!r} has shape {list(shape)}: {exc}") from None
            _read_into(path, fh, name, arr)
            tensors[name] = arr
    return manifest, tensors


def save_model(model, path):
    """Write ``model``'s arrays, config and input normalization to ``path``.

    A ``mean_pixel`` model's mean image must be 3 x E x E at the model's
    input extent E, or ``ContractError`` is raised before the file is opened;
    it is written as float32, the dtype ``load_model`` reads.
    """
    extra = {
        "kind": model.kind,
        "config": model.cfg.as_dict(),
        "flatten_order": TAP_FLATTEN_ORDER,
        "normalize": model.normalize,
    }
    tensors = model.named_arrays()
    if model.normalize == "mean_pixel":
        e = model.cfg.input_extent
        image = model.mean_image
        if image is None or np.shape(image) != (3, e, e):
            got = None if image is None else np.shape(image)
            raise ContractError(f"save_model: a mean_pixel model needs a (3, {e}, {e}) "
                                f"mean image, got {got}")
        tensors.append((MEAN_IMAGE, np.asarray(image, dtype=np.float32)))
    save_tensors(path, extra, tensors)


def load_model(path):
    """Rebuild the model a ``save_model`` file holds, in the file's dtype.

    Nothing is drawn: the model is built with ``seed=None`` and every array
    is then overwritten from the file (``lstm.c0`` of a cell without a
    learned c0 is not in the file and stays zeros). The model's ``normalize``
    and ``mean_image`` come from the file too. Raises ``FormatError`` for a
    bad config, kind, flatten order or normalization, or for a tensor whose
    name, shape or dtype does not match the model the manifest describes.
    """
    with open(path, "rb") as fh:
        manifest, layouts = _read_header(path, fh)
        try:
            cfg = NetworkConfig.from_dict(manifest.get("config"))
        except InputError as exc:
            raise FormatError(f"{path}: bad model config: {exc}") from None
        kind = manifest.get("kind")
        if kind not in KINDS:
            raise FormatError(f"{path}: unknown model kind {kind!r}")
        order = manifest.get("flatten_order", TAP_FLATTEN_ORDER)
        if order != TAP_FLATTEN_ORDER:
            raise FormatError(f"{path}: tap flatten order {order!r}, "
                              f"expected {TAP_FLATTEN_ORDER!r}")
        normalize = manifest.get("normalize", "none")
        if normalize not in NORMALIZE_MODES:
            raise FormatError(f"{path}: unknown input normalization {normalize!r}")
        # no real model has fewer values than n, maps, hidden units or classes; ruling
        # those out first keeps cost_report's walk over 3n blocks short and its ratio finite
        count = sum(math.prod(shape) for _, _, shape in layouts)
        if (max(cfg.n, cfg.base_maps, cfg.hidden_size, cfg.classes) > count
                or cost_report(kind, cfg).params_total > count):
            raise FormatError(f"{path}: config needs more parameters than the "
                              f"{count} values the file holds")
        # checkpoint order puts a parameter first; its dtype is the model's
        model = (build_crmn if kind == "crmn" else build_resnet)(cfg, seed=None,
                                                                  dtype=layouts[0][1])
        arrays = dict(model.named_arrays())
        model.normalize = normalize
        if normalize == "mean_pixel":
            e = cfg.input_extent
            model.mean_image = arrays[MEAN_IMAGE] = np.empty((3, e, e), np.float32)
        names = {name for name, _, _ in layouts}
        if arrays.keys() != names:
            missing = sorted(arrays.keys() - names)[:3]
            surplus = sorted(names - arrays.keys())[:3]
            raise FormatError(f"{path}: tensor names do not match config "
                              f"(missing {missing}, surplus {surplus})")
        for name, dtype, shape in layouts:
            dest = arrays[name]
            if shape != dest.shape:
                raise FormatError(f"{path}: {name} has shape {shape}, expected {dest.shape}")
            if dtype != dest.dtype:
                raise FormatError(f"{path}: {name} has dtype {dtype}, expected {dest.dtype}")
            _read_into(path, fh, name, dest)
    return model
