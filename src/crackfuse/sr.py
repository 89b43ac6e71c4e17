"""Stage 1: self-supervised detail-injection super-resolution and fusion.

The model upsamples with the plain bicubic kernel and adds a learned
residual predicted from that upsample by a small fully convolutional net,
so it applies at any scale. Training degrades each image by the sensor
factor and regresses the reconstruction onto the original; the final conv
starts at zero, making the untrained model exactly the bicubic baseline.
The net is one walk of steps; only sr_forward, the training path, keeps their
vjps, so applying the model and scoring it hold one layer's closures at a time.

Every entry computes in its image's dtype by the rule Stage 2 uses
(ops.as_float): a float32 image stays float32, the dtype data.load_image and
synth_dataset give their 8-bit frames, and anything else becomes float64. The
weights stay float64 masters, cast once per reconstruction to the image's
dtype; sr_forward's gradients come back in the masters' dtype, so AdamW and
the SR checkpoints see float64 only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import fields, metrics
from .ops import as_float, clamp01, conv2d, relu, resize_bicubic, walk, walk_back
from .train import adamw_step, init_optimizer, restore_checkpoint, save_checkpoint
from .trees import tree_astype, tree_flatten

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


@dataclass
class SrTrainConfig:
    iters: int = fields.entry(300, fields.integer(0))
    lr: float = fields.entry(2e-3, fields.above(0))  # an lr of 0 trains steps that change nothing
    seed: int = fields.entry(0, fields.integer(0))
    hidden: int = fields.entry(32, fields.integer(1))

    def __post_init__(self):
        fields.check_config(self)


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
    return resize_bicubic(img, oh, ow)[0]


def _residual_net(m: SrModel, x, vjps=None):
    """conv1, relu, conv2, relu, conv3 on a [B, 3, H, W] batch, as one walk.
    Each step is named by the SrModel fields its gradients fill; appends each
    step's (names, vjp) to vjps when given a list."""
    return walk([(("conv1_w", "conv1_b"), lambda t: conv2d(t, m.conv1_w, m.conv1_b)),
                 ((), relu),
                 (("conv2_w", "conv2_b"), lambda t: conv2d(t, m.conv2_w, m.conv2_b)),
                 ((), relu),
                 (("conv3_w", "conv3_b"), lambda t: conv2d(t, m.conv3_w, m.conv3_b))], x, vjps)


def _reconstruct(m: SrModel, low, out_h, out_w, vjps=None):
    """Bicubic upsample of one [3, h, w] image plus predicted residual,
    clamped to [0, 1], as (y, the clamp's vjp), in the image's dtype
    (as_float); the residual net runs it as a batch of one on the weights cast
    to that dtype and appends its steps' vjps to vjps when given a list."""
    up = resize_bicubic(low, out_h, out_w)[0]
    return clamp01(up + _residual_net(tree_astype(m, up.dtype), up[None], vjps)[0])


def sr_forward(m: SrModel, low, out_h, out_w):
    """_reconstruct for training: (y, vjp) with vjp(dy) -> the residual
    weights' gradients by SrModel field name, the dict adamw_step takes, each
    in its master's dtype whatever the dtypes of low and dy."""
    vjps = []
    y, vjp_clamp = _reconstruct(m, low, out_h, out_w, vjps)

    def vjp(dy):
        grads = {}
        walk_back(vjps, vjp_clamp(dy)[0][None], grads)
        return {k: g.astype(getattr(m, k).dtype, copy=False) for k, g in grads.items()}

    return y, vjp


def sr_apply(m: SrModel, ir, out_dims):
    """Super-resolve an image up to out_dims = (H, W); refuses downscaling.
    Forward only: no step's vjp outlives its step."""
    out_h, out_w = out_dims
    h, w = ir.shape[-2:]
    if out_h < h or out_w < w:
        raise ValueError(f"target {out_h}x{out_w} is smaller than input {h}x{w}")
    return _reconstruct(m, ir, out_h, out_w)[0]


def corpus_loss(model: SrModel, images, factor) -> float:
    """Mean reconstruction MSE over a corpus at the training scale."""
    total = 0.0
    for img in images:
        low = degrade(img, factor) if Fraction(factor) > 1 else img
        rec = _reconstruct(model, low, img.shape[-2], img.shape[-1])[0]
        total += float(np.mean((rec - img) ** 2))
    return total / len(images)


def sr_train_selfsupervised(images, factor, cfg: SrTrainConfig | None = None) -> SrModel:
    """Train the residual net on (degraded, original) pairs with MSE loss.

    Each step picks one image round-robin, degrades it, reconstructs, and
    regresses; AdamW updates the model's float64 weights in place. Recorded
    initial/final losses are corpus-level MSEs (per-step losses are not
    comparable across images). Raises SrDiverged if a step loss exceeds 10x
    the initial loss.
    """
    if not images:
        raise ValueError("need at least one training image")
    cfg = cfg or SrTrainConfig()
    f = Fraction(factor)
    if f < 1:
        raise ValueError(f"factor must be >= 1, got {f}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5372]))
    model = init_sr_model(f, rng, hidden=cfg.hidden)
    opt = init_optimizer(model)

    initial = corpus_loss(model, images, f)
    # the zero-init start can sit near the loss floor already, so the
    # 10x-initial divergence trigger carries an absolute MSE floor
    ceiling = 10.0 * max(initial, 1e-4)
    for step in range(cfg.iters):
        target = as_float(images[step % len(images)])
        low = degrade(target, f) if f > 1 else target
        pred, vjp = sr_forward(model, low, target.shape[-2], target.shape[-1])
        diff = pred - target
        loss = float(np.mean(diff * diff))
        if not math.isfinite(loss) or loss > ceiling:
            raise SrDiverged(
                f"loss {loss:.3e} exceeded 10x initial {initial:.3e} at step {step}; try a lower lr")
        grads = vjp(2.0 * diff / diff.size)
        adamw_step(model, grads, opt, cfg.lr, weight_decay=0.0)
    model.initial_loss = initial
    model.final_loss = corpus_loss(model, images, f)
    return model


def evaluate_sr(model: SrModel, images, factor):
    """Per-image PSNR of the trained model vs the bicubic baseline, both
    reconstructing the original from its degraded copy."""
    rows = []
    for idx, img in enumerate(images):
        h, w = img.shape[-2:]
        low = degrade(img, factor)
        up = np.clip(resize_bicubic(low, h, w)[0], 0.0, 1.0)
        rec = _reconstruct(model, low, h, w)[0]
        rows.append({
            "index": idx,
            "psnr_model": metrics.psnr(rec, img),
            "psnr_bicubic": metrics.psnr(up, img),
        })
    return rows


def fuse_channels(rgb, ir_sr):
    """Concatenate [R,G,B] with the three aligned thermal channels, in float32
    when both are float32 and in float64 otherwise."""
    rgb, ir_sr = as_float(rgb), as_float(ir_sr)
    if rgb.shape[0] != 3 or ir_sr.shape[0] != 3:
        raise ValueError(f"expected two 3-channel images, got {rgb.shape} and {ir_sr.shape}")
    if rgb.shape[1:] != ir_sr.shape[1:]:
        raise ValueError(f"spatial dims differ: rgb {rgb.shape} vs ir {ir_sr.shape}")
    return np.concatenate([rgb, ir_sr], axis=0)


# checkpoint archive: the weights are tree_flatten(model) ---------------------


def save_sr_checkpoint(path, model: SrModel) -> None:
    save_checkpoint(path, tree_flatten(model), {
        "format": SR_FORMAT,
        "scale": [model.scale_num, model.scale_den],
        "initial_loss": model.initial_loss,
        "final_loss": model.final_loss,
    })


# save_sr_checkpoint writes NaN losses for an untrained model
_LOSS = fields.either(fields.NAN, fields.at_least(0)).optional(math.nan)
SR_FIELDS = {
    "format": fields.one_of(SR_FORMAT),
    "scale": fields.items(fields.integer(1), "a [numerator, denominator] pair of integers >= 1",
                          least=2, most=2),
    "initial_loss": _LOSS, "final_loss": _LOSS,
}


def _stored_model(stored: dict, tensors: dict) -> SrModel:
    """The tree an SR archive must hold: init_sr_model at the stored scale,
    as wide as the stored conv1_w, since no manifest field records the width."""
    conv1_w = tensors.get("conv1_w")  # restore_checkpoint names it if missing or misshapen
    hidden = conv1_w.shape[0] if conv1_w is not None and conv1_w.ndim == 4 else 1
    model = init_sr_model(Fraction(*stored["scale"]), np.random.default_rng(0), hidden=hidden)
    return replace(model, initial_loss=float(stored["initial_loss"]),
                   final_loss=float(stored["final_loss"]))


def load_sr_checkpoint(path) -> SrModel:
    """The SR model stored at path by save_sr_checkpoint; any other file
    raises CheckpointError naming path."""
    model, _opt, _stored = restore_checkpoint(path, SR_FIELDS, _stored_model)
    return model
