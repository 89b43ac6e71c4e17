"""Stage 1: self-supervised detail-injection super-resolution and fusion.

The model upsamples with the plain bicubic kernel and adds a learned
residual predicted from that upsample by a small fully convolutional net,
so it applies at any scale. Training degrades each image by the sensor
factor and regresses the reconstruction onto the original; the final conv
starts at zero, making the untrained model exactly the bicubic baseline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import metrics
from .ops import clamp01, conv2d, relu, resize_bicubic
from .train import adamw_step, check_format, init_optimizer
from .trees import tree_flatten, tree_unflatten

SR_FORMAT = "crackfuse-sr-v1"


@dataclass
class SrModel:
    """Residual predictor (3 -> hidden -> hidden -> 3, 3x3 kernels) on top of
    a bicubic upsample, plus the training scale and loss bookkeeping."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    conv3_w: np.ndarray
    conv3_b: np.ndarray
    scale_num: int = 2
    scale_den: int = 1
    initial_loss: float = math.nan
    final_loss: float = math.nan

    @property
    def scale(self) -> Fraction:
        return Fraction(self.scale_num, self.scale_den)


@dataclass
class SrTrainConfig:
    iters: int = 300
    lr: float = 2e-3
    weight_decay: float = 0.0
    seed: int = 0
    hidden: int = 32
    crop: int | None = None  # optional training crop on the target grid


class SrDiverged(RuntimeError):
    pass


def init_sr_model(factor, rng, hidden=32) -> SrModel:
    f = Fraction(factor)
    k = 1.0 / math.sqrt(3 * 9)
    k2 = 1.0 / math.sqrt(hidden * 9)
    return SrModel(
        conv1_w=rng.uniform(-k, k, size=(hidden, 3, 3, 3)), conv1_b=np.zeros(hidden),
        conv2_w=rng.uniform(-k2, k2, size=(hidden, hidden, 3, 3)), conv2_b=np.zeros(hidden),
        conv3_w=np.zeros((3, hidden, 3, 3)), conv3_b=np.zeros(3),
        scale_num=f.numerator, scale_den=f.denominator,
    )


def _scaled_extent(extent: int, factor: Fraction) -> int:
    # round(extent / factor) half away from zero, in exact integer arithmetic
    num, den = factor.numerator, factor.denominator
    return (2 * extent * den + num) // (2 * num)


def degrade(img, factor):
    """Bicubic downsample by a rational factor >= 1 (the sensor-scale step)."""
    f = Fraction(factor)
    if f < 1:
        raise ValueError(f"degrade factor must be >= 1, got {f}")
    h, w = img.shape[-2:]
    oh, ow = _scaled_extent(h, f), _scaled_extent(w, f)
    if oh < 8 or ow < 8:
        raise ValueError(f"degraded size {oh}x{ow} is too small to train on (min 8)")
    return resize_bicubic(np.asarray(img, dtype=np.float64), oh, ow)[0]


def _residual_net(m: SrModel, x):
    t1, vjp1 = conv2d(x, m.conv1_w, m.conv1_b)
    a1, vr1 = relu(t1)
    t2, vjp2 = conv2d(a1, m.conv2_w, m.conv2_b)
    a2, vr2 = relu(t2)
    res, vjp3 = conv2d(a2, m.conv3_w, m.conv3_b)

    def vjp(dres):
        da2, dw3, db3 = vjp3(dres)
        dt2 = vr2(da2)[0]
        da1, dw2, db2 = vjp2(dt2)
        dt1 = vr1(da1)[0]
        dx, dw1, db1 = vjp1(dt1)
        return dx, replace(m, conv1_w=dw1, conv1_b=db1, conv2_w=dw2,
                           conv2_b=db2, conv3_w=dw3, conv3_b=db3)

    return res, vjp


def sr_forward(m: SrModel, low, out_h, out_w):
    """Bicubic upsample plus predicted residual, clamped to [0, 1]."""
    up = resize_bicubic(np.asarray(low, dtype=np.float64), out_h, out_w)[0]
    res, vjp_net = _residual_net(m, up)
    y, vjp_clamp = clamp01(up + res)

    def vjp(dy):
        ds = vjp_clamp(dy)[0]
        _dup, dweights = vjp_net(ds)
        return dweights  # an SrModel holding the residual weights' gradients

    return y, vjp


def sr_apply(m: SrModel, ir, out_dims):
    """Super-resolve an image up to out_dims = (H, W); refuses downscaling."""
    out_h, out_w = out_dims
    h, w = ir.shape[-2:]
    if out_h < h or out_w < w:
        raise ValueError(f"target {out_h}x{out_w} is smaller than input {h}x{w}")
    return sr_forward(m, ir, out_h, out_w)[0]


def corpus_loss(model: SrModel, images, factor) -> float:
    """Mean reconstruction MSE over a corpus at the training scale."""
    total = 0.0
    for img in images:
        img = np.asarray(img, dtype=np.float64)
        low = degrade(img, factor) if Fraction(factor) > 1 else img
        rec, _ = sr_forward(model, low, img.shape[-2], img.shape[-1])
        total += float(np.mean((rec - img) ** 2))
    return total / len(images)


def sr_train_selfsupervised(images, factor, cfg: SrTrainConfig | None = None) -> SrModel:
    """Train the residual net on (degraded, original) pairs with MSE loss.

    Each step picks one image round-robin, optionally crops the target at a
    size where the rational factor is exact, degrades, reconstructs, and
    regresses. Recorded initial/final losses are corpus-level MSEs (per-step
    losses are not comparable across images). Raises SrDiverged if a step
    loss exceeds 10x the initial loss.
    """
    if not images:
        raise ValueError("need at least one training image")
    cfg = cfg or SrTrainConfig()
    f = Fraction(factor)
    if f < 1:
        raise ValueError(f"factor must be >= 1, got {f}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5372]))
    model = init_sr_model(f, rng, hidden=cfg.hidden)
    params = tree_flatten(model)
    opt = init_optimizer(params)

    def training_pair(step):
        img = np.asarray(images[step % len(images)], dtype=np.float64)
        h, w = img.shape[-2:]
        if cfg.crop is not None:
            # crop a multiple of the factor numerator so degrade lands on an exact grid
            c = min(cfg.crop, h, w)
            c -= c % f.numerator
            if c >= max(8 * f.numerator // f.denominator, f.numerator):
                i = rng.integers(0, h - c + 1)
                j = rng.integers(0, w - c + 1)
                img = img[:, i:i + c, j:j + c]
        target = img
        low = degrade(img, f) if f > 1 else img
        return low, target

    initial = corpus_loss(model, images, f)
    # the zero-init start can sit near the loss floor already, so the
    # 10x-initial divergence trigger carries an absolute MSE floor
    ceiling = 10.0 * max(initial, 1e-4)
    for step in range(cfg.iters):
        low, target = training_pair(step)
        pred, vjp = sr_forward(model, low, target.shape[-2], target.shape[-1])
        diff = pred - target
        loss = float(np.mean(diff * diff))
        if not math.isfinite(loss) or loss > ceiling:
            raise SrDiverged(
                f"loss {loss:.3e} exceeded 10x initial {initial:.3e} at step {step}; try a lower lr")
        grads = tree_flatten(vjp(2.0 * diff / diff.size))
        params, opt = adamw_step(params, grads, opt, cfg.lr, weight_decay=cfg.weight_decay)
        model = tree_unflatten(model, params)
    model.initial_loss = initial
    model.final_loss = corpus_loss(model, images, f)
    return model


def evaluate_sr(model: SrModel, images, factor):
    """Per-image PSNR of the trained model vs the bicubic baseline, both
    reconstructing the original from its degraded copy."""
    rows = []
    for idx, img in enumerate(images):
        img = np.asarray(img, dtype=np.float64)
        h, w = img.shape[-2:]
        low = degrade(img, factor)
        up = np.clip(resize_bicubic(low, h, w)[0], 0.0, 1.0)
        rec = sr_forward(model, low, h, w)[0]
        rows.append({
            "index": idx,
            "psnr_model": metrics.psnr(rec, img),
            "psnr_bicubic": metrics.psnr(up, img),
        })
    return rows


def fuse_channels(rgb, ir_sr):
    """Concatenate [R,G,B] with the three aligned thermal channels."""
    rgb = np.asarray(rgb, dtype=np.float64)
    ir_sr = np.asarray(ir_sr, dtype=np.float64)
    if rgb.shape[0] != 3 or ir_sr.shape[0] != 3:
        raise ValueError(f"expected two 3-channel images, got {rgb.shape} and {ir_sr.shape}")
    if rgb.shape[1:] != ir_sr.shape[1:]:
        raise ValueError(f"spatial dims differ: rgb {rgb.shape} vs ir {ir_sr.shape}")
    return np.concatenate([rgb, ir_sr], axis=0)


# checkpoint plumbing: the weights are tree_flatten(model) --------------------


def sr_manifest(model: SrModel) -> dict:
    return {
        "format": SR_FORMAT,
        "scale": [model.scale_num, model.scale_den],
        "initial_loss": model.initial_loss,
        "final_loss": model.final_loss,
    }


def sr_from_checkpoint(tensors: dict, manifest: dict) -> SrModel:
    check_format(manifest, SR_FORMAT)
    num, den = manifest["scale"]
    return SrModel(
        **tensors,  # the tree_flatten(model) keys are the weight field names
        scale_num=num, scale_den=den,
        initial_loss=manifest.get("initial_loss", math.nan),
        final_loss=manifest.get("final_loss", math.nan),
    )
