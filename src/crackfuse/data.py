"""Dataset plumbing: PPM/PGM image files, synthetic crack-pair generation,
input-variant assembly, geometric augmentation, splits, and batching.

Directory layout (documented verbatim by the CLI):

    root/rgb/<id>.ppm     binary P6, maxval 255
    root/ir/<id>.ppm      binary P6, maxval 255, stored at the IR scale
    root/mask/<id>.pgm    binary P5, values 0 (background) and 255 (crack)
    root/manifest.json    ids, split, seed, variant tag (checked by crackfuse.fields)

All randomness derives from named streams of a single seed, so every epoch
stream is a pure function of (manifest, seed, epoch index).
"""
from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import fields
from . import sr as sr_mod
from .ops import resize_bicubic, resize_nearest

VARIANTS = ("p_RGB", "P_RGB", "pRGB_plus_PIR", "PRGB_plus_PIRprime")
VARIANT_CHANNELS = {"p_RGB": 3, "P_RGB": 3, "pRGB_plus_PIR": 6, "PRGB_plus_PIRprime": 6}
VARIANT_LABELS = {"p_RGB": "p_RGB", "P_RGB": "P_RGB",
                  "pRGB_plus_PIR": "pRGB+PIR", "PRGB_plus_PIRprime": "PRGB+P'IR"}


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Deterministic generator for a (seed, stream-name) pair."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + list(name.encode())))


class ImageParseError(ValueError):
    pass


# --------------------------------------------------------------------------
# PPM (P6) / PGM (P5) binary image files


def _read_header_token(buf: bytes, pos: int):
    # skip whitespace and '#' comments, then read one token
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ImageParseError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def _parse_netpbm(buf: bytes, magic: bytes, path=""):
    where = f" in {path}" if path else ""
    if buf[:2] != magic:
        raise ImageParseError(f"bad magic {buf[:2]!r} at byte 0{where}, expected {magic!r}")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ImageParseError(f"non-numeric header token {tok!r} at byte {pos}{where}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise ImageParseError(f"unsupported maxval {maxval} at byte {pos}{where}; only 255 is handled")
    if width < 1 or height < 1:
        raise ImageParseError(f"bad dimensions {width}x{height}{where}")
    pos += 1  # single whitespace byte after maxval
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    payload = buf[pos:pos + need]
    if len(payload) != need:
        raise ImageParseError(
            f"truncated payload at byte {pos + len(payload)}{where}: have {len(payload)} of {need} bytes")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return arr, width, height


def _pixels(img):
    """A float image in [0,1] as the 8-bit pixels a P6 file stores."""
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def _frame(pixels):
    """8-bit pixels as a float32 frame scaled to [0,1], the dtype both stages
    then compute in. float32 is 24 bits wide, so _pixels gives back the same
    pixels."""
    return pixels.astype(np.float32) / np.float32(255)


def load_image(path):
    """Read a P6 file as a float32 [3,H,W] frame scaled to [0,1]."""
    with open(path, "rb") as f:
        buf = f.read()
    arr, _, _ = _parse_netpbm(buf, b"P6", path=str(path))
    return _frame(arr.transpose(2, 0, 1))


def save_image(path, img):
    """Write a [3,H,W] float image in [0,1] as binary P6."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected [3,H,W], got {img.shape}")
    q = _pixels(img).transpose(1, 2, 0)
    h, w = q.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(q.tobytes())


def load_mask(path):
    """Read a P5 file holding only {0, 255}; returns int64 [H,W] of {0,1}."""
    with open(path, "rb") as f:
        buf = f.read()
    arr, _, _ = _parse_netpbm(buf, b"P5", path=str(path))
    arr = arr[:, :, 0]
    bad = ~np.isin(arr, (0, 255))
    if bad.any():
        val = int(arr[bad][0])
        raise ImageParseError(f"mask {path} contains value {val}, expected only 0 or 255")
    return (arr == 255).astype(np.int64)


def save_mask(path, mask):
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"expected [H,W], got {mask.shape}")
    q = np.where(mask > 0, 255, 0).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(q.tobytes())


# --------------------------------------------------------------------------
# Synthetic RGB + IR crack pairs (stands in for a field dataset)


@dataclass
class SamplePair:
    rgb: np.ndarray    # [3, Hr, Wr] float32 8-bit frame in [0,1]
    ir: np.ndarray     # [3, Hi, Wi] float32 8-bit frame in [0,1]
    mask: np.ndarray   # [Hr, Wr] int64 {0,1}
    id: str


class Batch(NamedTuple):
    inputs: np.ndarray   # [B, C_in, ph, pw]
    targets: np.ndarray  # [B, ph, pw] labels {0,1}
    ids: list


def _smooth_field(rng, h, w, cells, lo, hi):
    coarse = rng.uniform(lo, hi, size=(max(cells, 2), max(cells, 2)))
    return resize_bicubic(coarse, h, w)[0]


def _draw_crack(rng, h, w, width_px):
    """Rasterize one random smooth polyline, dilated to width_px."""
    mask = np.zeros((h, w), dtype=bool)
    margin = 3
    y = rng.uniform(margin, h - margin)
    x = rng.uniform(margin, w - margin)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    steps = int(rng.integers(int(0.6 * max(h, w)), int(1.3 * max(h, w))))
    r = max(0.5, width_px / 2.0)
    ri = int(np.ceil(r))
    yy, xx = np.mgrid[-ri:ri + 1, -ri:ri + 1]
    stamp = (yy * yy + xx * xx) <= r * r
    for _ in range(steps):
        iy, ix = int(round(y)), int(round(x))
        if 0 <= iy < h and 0 <= ix < w:
            y0, y1 = max(iy - ri, 0), min(iy + ri + 1, h)
            x0, x1 = max(ix - ri, 0), min(ix + ri + 1, w)
            mask[y0:y1, x0:x1] |= stamp[y0 - iy + ri:y1 - iy + ri, x0 - ix + ri:x1 - ix + ri]
        ang += rng.normal(0.0, 0.28)
        y += np.sin(ang)
        x += np.cos(ang)
        if not (-margin < y < h + margin and -margin < x < w + margin):
            break
    return mask


def _make_sample(rng, rgb_dims, ir_factor):
    h, w = rgb_dims
    bg = np.stack([
        np.clip(_smooth_field(rng, h, w, max(h // 12, 2), 0.35, 0.75)
                + rng.normal(0.0, 0.02, size=(h, w)), 0.05, 0.95)
        for _ in range(3)
    ])
    n_cracks = int(rng.integers(1, 4))
    cracks = []
    for _ in range(n_cracks):
        width_px = int(rng.integers(1, 5))  # 1..4 px
        width_px = max(width_px, 2) if len(cracks) == 0 else width_px
        cracks.append((_draw_crack(rng, h, w, width_px), bool(rng.random() < 0.4)))
    mask = np.zeros((h, w), dtype=bool)
    rgb_visible = np.zeros((h, w), dtype=bool)
    for m, ir_only in cracks:
        mask |= m
        if not ir_only:
            rgb_visible |= m
    rgb = bg.copy()
    rgb[:, rgb_visible] *= rng.uniform(0.3, 0.45)
    thermal = _smooth_field(rng, h, w, max(h // 16, 2), 0.3, 0.6)
    thermal = thermal + 0.38 * mask
    # gentle separable blur keeps the crack contrast but rounds edges
    kern = np.array([0.25, 0.5, 0.25])
    pad = np.pad(thermal, 1, mode="edge")
    thermal = (kern[0] * pad[:-2, 1:-1] + kern[1] * pad[1:-1, 1:-1] + kern[2] * pad[2:, 1:-1])
    pad = np.pad(thermal, 1, mode="edge")
    thermal = (kern[0] * pad[1:-1, :-2] + kern[1] * pad[1:-1, 1:-1] + kern[2] * pad[1:-1, 2:])
    ir_full = np.clip(np.stack([thermal, 0.85 * thermal + 0.08, 1.0 - 0.6 * thermal]), 0.0, 1.0)
    ir = np.clip(sr_mod.degrade(ir_full, ir_factor), 0.0, 1.0) if Fraction(ir_factor) > 1 else ir_full
    return {"rgb": rgb, "ir": ir, "mask": mask.astype(np.int64),
            "background": bg, "rgb_visible": rgb_visible}


def synth_dataset(seed, n, rgb_dims, ir_factor):
    """Deterministically generate n RGB/IR/mask triples.

    Cracks are smooth polylines dilated to 1..4 px, darkened in RGB; a random
    subset is visible only as thermal contrast. Each sample's crack fraction
    is forced into [0.2%, 8%] by deterministic retry. The RGB and IR images
    are 8-bit float32 frames, equal bit for bit to what save_dataset writes
    and load_image reads back.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    samples = []
    for i in range(n):
        for attempt in range(64):
            rng = named_rng(seed, f"synth.{i}.{attempt}")
            made = _make_sample(rng, rgb_dims, ir_factor)
            frac = made["mask"].mean()
            if 0.002 <= frac <= 0.08:
                break
        else:
            raise RuntimeError(f"could not hit the crack-fraction window for sample {i}")
        samples.append(SamplePair(rgb=_frame(_pixels(made["rgb"])), ir=_frame(_pixels(made["ir"])),
                                  mask=made["mask"], id=f"s{i:04d}"))
    return samples


# --------------------------------------------------------------------------
# Input variants


def make_variant(sample: SamplePair, variant: str, sr_model=None):
    """Assemble (input, target) for one input variant.

    p_RGB: RGB downsampled to the IR grid. P_RGB: RGB as captured.
    pRGB_plus_PIR: downsampled RGB stacked with IR, at the IR grid.
    PRGB_plus_PIRprime: RGB stacked with super-resolved IR, at the RGB grid.
    Targets are nearest-resampled to the input grid.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    hr, wr = sample.rgb.shape[-2:]
    hi, wi = sample.ir.shape[-2:]
    if variant == "p_RGB":
        inp = np.clip(resize_bicubic(sample.rgb, hi, wi)[0], 0.0, 1.0)
    elif variant == "P_RGB":
        inp = sample.rgb
    elif variant == "pRGB_plus_PIR":
        low = np.clip(resize_bicubic(sample.rgb, hi, wi)[0], 0.0, 1.0)
        inp = np.concatenate([low, sample.ir], axis=0)
    else:
        if sr_model is None:
            raise ValueError("variant PRGB_plus_PIRprime requires a trained sr_model")
        ir_sr = sr_mod.sr_apply(sr_model, sample.ir, (hr, wr))
        inp = sr_mod.fuse_channels(sample.rgb, ir_sr)
    th, tw = inp.shape[-2:]
    target = sample.mask if (th, tw) == (hr, wr) else resize_nearest(sample.mask, th, tw)
    return inp, target


# --------------------------------------------------------------------------
# Augmentation: flips, quarter-turn rotations, random crop


def apply_geometric(inp, target, flip_h, flip_v, quarter_turns, crop_i, crop_j, patch):
    """One shared geometric transform for image and mask."""
    x = inp
    t = target
    if flip_h:
        x = x[..., ::-1]
        t = t[..., ::-1]
    if flip_v:
        x = x[..., ::-1, :]
        t = t[..., ::-1, :]
    k = quarter_turns % 4
    if k:
        x = np.rot90(x, k, axes=(-2, -1))
        t = np.rot90(t, k, axes=(-2, -1))
    h, w = x.shape[-2:]
    if patch > h or patch > w:
        raise ValueError(f"patch {patch} larger than image {h}x{w}")
    x = x[..., crop_i:crop_i + patch, crop_j:crop_j + patch]
    t = t[..., crop_i:crop_i + patch, crop_j:crop_j + patch]
    return np.ascontiguousarray(x), np.ascontiguousarray(t)


def augment(inp, target, rng, patch):
    """Random flips, k*90 degree rotation, random crop; mask stays binary."""
    flip_h = bool(rng.random() < 0.5)
    flip_v = bool(rng.random() < 0.5)
    k = int(rng.integers(0, 4))
    h, w = inp.shape[-2:]
    if k % 2:
        h, w = w, h
    if patch > h or patch > w:
        raise ValueError(f"patch {patch} larger than image {h}x{w} after rotation")
    ci = int(rng.integers(0, h - patch + 1))
    cj = int(rng.integers(0, w - patch + 1))
    return apply_geometric(inp, target, flip_h, flip_v, k, ci, cj, patch)


# --------------------------------------------------------------------------
# Manifests, splits, batches


@dataclass
class DatasetManifest:
    root: str
    ids: list
    split: dict          # id -> "train" | "val"
    variant: str
    seed: int
    rgb_dims: tuple = ()
    ir_factor: str = "2"

    def train_ids(self):
        return [i for i in self.ids if self.split[i] == "train"]

    def val_ids(self):
        return [i for i in self.ids if self.split[i] == "val"]


def split_ids(ids, seed):
    """Shuffle deterministically, assign floor(0.8 n) ids to train."""
    order = list(ids)
    named_rng(seed, "split").shuffle(order)
    n_train = int(len(order) * 0.8 + 1e-9)
    return {i: ("train" if k < n_train else "val") for k, i in enumerate(order)}


def write_manifest(manifest: DatasetManifest):
    doc = {k: v for k, v in dataclasses.asdict(manifest).items() if k != "root"}
    with open(os.path.join(manifest.root, "manifest.json"), "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)


class ManifestError(ValueError):
    """A dataset manifest.json that is missing a field, holds one of the wrong
    kind, or is not a JSON object; the message names the file."""


_MANIFEST_FIELDS = {
    "ids": fields.items(fields.NAME, "a non-empty list of plain file names", least=1),
    "split": fields.Rule(lambda v: isinstance(v, dict) and all(s in ("train", "val") for s in v.values()),
                         'an object mapping ids to "train" or "val"'),
    "variant": fields.TEXT,
    "seed": fields.Rule(lambda v: type(v) is int, "an integer"),
    "rgb_dims": fields.items(fields.integer(1), "a list of integers >= 1"),
    "ir_factor": fields.FACTOR,
}


def read_manifest(root) -> DatasetManifest:
    """The manifest.json under root; ManifestError naming the file if it is
    unreadable, not a JSON object, lacks a field or holds one of the wrong
    kind, or leaves an id without a split."""
    path = os.path.join(root, "manifest.json")
    where = f"dataset manifest {path}"
    doc = fields.read_json_object(path, ManifestError, where)
    try:
        got = fields.check_fields(doc, _MANIFEST_FIELDS)
        unsplit = [i for i in got["ids"] if i not in got["split"]]
        if unsplit:
            raise ValueError(f"split has no entry for id {unsplit[0]!r}")
    except ValueError as e:
        raise ManifestError(f"{where}: {e}") from None
    return DatasetManifest(root=str(root), **{**got, "rgb_dims": tuple(got["rgb_dims"])})


def save_dataset(root, samples, seed, variant="PRGB_plus_PIRprime", ir_factor="2"):
    for sub in ("rgb", "ir", "mask"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    for s in samples:
        save_image(os.path.join(root, "rgb", f"{s.id}.ppm"), s.rgb)
        save_image(os.path.join(root, "ir", f"{s.id}.ppm"), s.ir)
        save_mask(os.path.join(root, "mask", f"{s.id}.pgm"), s.mask)
    ids = [s.id for s in samples]
    manifest = DatasetManifest(root=str(root), ids=ids, split=split_ids(ids, seed),
                               variant=variant, seed=seed,
                               rgb_dims=tuple(samples[0].rgb.shape[-2:]),
                               ir_factor=str(ir_factor))
    write_manifest(manifest)
    return manifest


def load_sample(root, sample_id) -> SamplePair:
    """The frames and mask of one id; ImageParseError naming both files if
    the mask is not the size of the RGB frame, whose pixels it labels."""
    rgb_path = os.path.join(root, "rgb", f"{sample_id}.ppm")
    mask_path = os.path.join(root, "mask", f"{sample_id}.pgm")
    rgb, mask = load_image(rgb_path), load_mask(mask_path)
    if mask.shape != rgb.shape[1:]:
        raise ImageParseError(f"mask {mask_path} is {mask.shape[1]}x{mask.shape[0]}, "
                              f"its RGB frame {rgb_path} is {rgb.shape[2]}x{rgb.shape[1]}")
    return SamplePair(rgb=rgb, ir=load_image(os.path.join(root, "ir", f"{sample_id}.ppm")),
                      mask=mask, id=sample_id)


def materialize(samples, variant, sr_model=None) -> dict:
    """Precompute (input, target) per id for one variant. Inputs are float32,
    the dtype the segmenter then computes in; targets are int64."""
    table = {}
    want = VARIANT_CHANNELS[variant]
    for s in samples:
        inp, tgt = make_variant(s, variant, sr_model=sr_model)
        if inp.shape[0] != want:
            raise ValueError(f"{s.id}: variant {variant} expects {want} channels, got {inp.shape[0]}")
        table[s.id] = (inp.astype(np.float32), tgt)
    return table


class BatchSource:
    """Deterministic batch provider.

    Training batches are a pure function of the iteration index: epoch e uses
    the permutation from stream "epoch.<e>", augmentation draws come from
    stream "aug.<iteration>". Evaluation iterates ids in order, center-crops
    to the patch, and keeps the final partial batch.
    """

    def __init__(self, table: dict, ids, batch_size, patch, seed, augment_data=True):
        if not ids:
            raise ValueError("empty split")
        self.table = table
        self.ids = list(ids)
        self.batch_size = batch_size
        self.patch = patch
        self.seed = seed
        self.augment_data = augment_data
        channels = {table[i][0].shape[0] for i in self.ids}
        if len(channels) != 1:
            raise ValueError(f"inconsistent channel counts across split: {sorted(channels)}")
        self.per_epoch = max(len(self.ids) // batch_size, 1)

    def batch(self, iteration):
        epoch = iteration // self.per_epoch
        slot = iteration % self.per_epoch
        order = list(self.ids)
        named_rng(self.seed, f"epoch.{epoch}").shuffle(order)
        take = order[slot * self.batch_size:(slot + 1) * self.batch_size]
        if len(take) < self.batch_size:  # drop ragged tail, wrap into the epoch start
            take = (take + order * self.batch_size)[: self.batch_size]  # as often as it takes
        rng = named_rng(self.seed, f"aug.{iteration}")
        xs, ts = [], []
        for sid in take:
            inp, tgt = self.table[sid]
            if self.augment_data:
                inp, tgt = augment(inp, tgt, rng, patch=self.patch)
            else:
                inp, tgt = center_crop(inp, tgt, self.patch)
            xs.append(inp)
            ts.append(tgt)
        return Batch(np.stack(xs), np.stack(ts).astype(np.int64), take)

    def eval_batches(self):
        for k in range(0, len(self.ids), self.batch_size):
            take = self.ids[k:k + self.batch_size]
            xs, ts = [], []
            for sid in take:
                inp, tgt = self.table[sid]
                inp, tgt = center_crop(inp, tgt, self.patch)
                xs.append(inp)
                ts.append(tgt)
            yield Batch(np.stack(xs), np.stack(ts).astype(np.int64), take)


def center_crop(inp, target, patch):
    h, w = inp.shape[-2:]
    if patch > h or patch > w:
        raise ValueError(f"patch {patch} larger than image {h}x{w}")
    i = (h - patch) // 2
    j = (w - patch) // 2
    return (np.ascontiguousarray(inp[..., i:i + patch, j:j + patch]),
            np.ascontiguousarray(target[..., i:i + patch, j:j + patch]))

