"""Segmentation network: patch embedding, gated scan blocks, a downsampling
encoder, and a pyramid-pooling / top-down decoder producing per-pixel logits.

Every layer takes a batch: images are [B, C, H, W], token grids flow
channels-last ([B, H, W, C]), and the decoder works channels-first
([B, C, h, w]) because it is convolutional. model_forward (training) and
predict (inference) check the layout and make the one dtype decision: a
float32 batch (data.materialize's frames) stays float32 and anything else
becomes float64 (ops.as_float, Stage 1's rule too). The weights stay float64
masters; both entries cast them to the batch's dtype once per call
(trees.tree_astype), and model_forward's vjp returns each weight
gradient in its master's dtype, so the optimizer and the checkpoints see
float64 only. Every layer computes in its input's dtype and returns
(output, vjp). The networks are chains of named steps, written once: one per
encoder stage (_encode), one per branch of the gated block (vss_block), one
between each two decoder joins (_decode). predict walks the encoder and the
decoder keeping no vjp past its step; vss_block, encoder_forward and
uper_decode keep the vjps, run them back with ops.walk_back into the flat
gradient dict they return, and write only the joins by hand.

model_forward and predict cut a large batch into two fixed, contiguous
shards (_shards) and run the second on a worker thread while the first runs
on the caller, so numpy's loops and GEMMs, which release the GIL, use a
second core. The cut depends only on the batch shape, never on the thread
count, so outputs are the same bits with or without the worker.
"""
from __future__ import annotations

import dataclasses
import math
import os
import threading
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import fields, scan2d, ssm
from .ops import (_linear_grads, as_float, conv2d, depthwise_conv2d, layer_norm, linear,
                  relu, resize_bilinear, adaptive_avg_pool2d, silu, walk, walk_back)
from .trees import tree_astype, tree_flatten, tree_leaves, tree_unflatten

POOL_BINS = (1, 2, 3, 6)


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = fields.entry(6, fields.integer(1))
    patch_size: int = fields.entry(3, fields.integer(1))
    embed_dims: tuple = fields.entry((16, 32, 64, 128), fields.items(
        fields.integer(1), "a tuple of two or more integers >= 1", kind=tuple, least=2))
    depths: tuple = fields.entry((1, 1, 1, 1), fields.items(
        fields.integer(0), "a tuple of two or more integers >= 0", kind=tuple, least=2))
    state_dim: int = fields.entry(4, fields.integer(1))
    num_classes: int = fields.entry(2, fields.integer(1))
    decoder_dim: int = fields.entry(32, fields.integer(1))

    def __post_init__(self):
        fields.check_config(self)
        if len(self.depths) != len(self.embed_dims):
            raise ValueError(f"depths is {self.depths!r}, not as long as embed_dims {self.embed_dims!r}")
        if any(b != 2 * a for a, b in zip(self.embed_dims, self.embed_dims[1:])):
            raise ValueError(f"embed_dims is {self.embed_dims!r}, not one that doubles per stage")

    @property
    def num_stages(self):
        return len(self.embed_dims)

    @property
    def grid_divisor(self):
        return self.patch_size * (1 << (self.num_stages - 1))

    def check_input(self, h, w):
        d = self.grid_divisor
        if h % d or w % d:
            raise ValueError(f"input {h}x{w} must be divisible by {d} "
                             f"(patch {self.patch_size} with {self.num_stages} stages)")

    def to_dict(self):
        # tuples as lists, so the dict equals its JSON round trip
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}

    @staticmethod
    def from_dict(d):
        return ModelConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


# --------------------------------------------------------------------------
# Weight containers


@dataclass
class PatchEmbedWeights:
    w: np.ndarray  # [in*ps*ps, C0]
    b: np.ndarray


@dataclass
class BlockWeights:
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    gate_w: np.ndarray
    gate_b: np.ndarray
    main_w: np.ndarray
    main_b: np.ndarray
    conv_kernel: np.ndarray       # [C, 3, 3] depthwise
    scans: list                   # four SsmParams (LR, TB, RL, BT)
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray


@dataclass
class DownsampleWeights:
    w: np.ndarray  # [4C, 2C]
    b: np.ndarray


@dataclass
class ConvWeights:
    w: np.ndarray  # [Cout, Cin, kh, kw]
    b: np.ndarray


@dataclass
class DecoderWeights:
    ppm_convs: list        # one 1x1 conv per pooling bin
    ppm_fuse: ConvWeights  # 3x3 over [deepest + pooled] concat
    laterals: list         # 1x1 conv per non-deepest level
    smooths: list          # 3x3 conv per non-deepest level
    fuse: ConvWeights      # 3x3 over all-level concat
    classifier: ConvWeights


@dataclass
class EncoderWeights:
    embed: PatchEmbedWeights
    stages: list  # list of stages, each a list of BlockWeights
    downs: list   # DownsampleWeights between consecutive stages


@dataclass
class ModelWeights:
    encoder: EncoderWeights
    decoder: DecoderWeights


@dataclass
class SegModel:
    cfg: ModelConfig
    weights: ModelWeights


def _uniform(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_block(channels, state_dim, rng) -> BlockWeights:
    c = channels
    return BlockWeights(
        ln1_gamma=np.ones(c), ln1_beta=np.zeros(c),
        gate_w=_uniform(rng, (c, c), c), gate_b=np.zeros(c),
        main_w=_uniform(rng, (c, c), c), main_b=np.zeros(c),
        conv_kernel=_uniform(rng, (c, 3, 3), 9),
        scans=[ssm.init_ssm_params(c, state_dim, rng) for _ in scan2d.DIRECTIONS],
        ln2_gamma=np.ones(c), ln2_beta=np.zeros(c),
        out_w=_uniform(rng, (c, c), c), out_b=np.zeros(c),
    )


def _init_conv(rng, c_out, c_in, k) -> ConvWeights:
    return ConvWeights(w=_uniform(rng, (c_out, c_in, k, k), c_in * k * k), b=np.zeros(c_out))


def init_decoder(feature_dims, decoder_dim, num_classes, rng) -> DecoderWeights:
    f = decoder_dim
    deep = feature_dims[-1]
    return DecoderWeights(
        ppm_convs=[_init_conv(rng, f, deep, 1) for _ in POOL_BINS],
        ppm_fuse=_init_conv(rng, f, deep + len(POOL_BINS) * f, 3),
        laterals=[_init_conv(rng, f, d, 1) for d in feature_dims[:-1]],
        smooths=[_init_conv(rng, f, f, 3) for _ in feature_dims[:-1]],
        fuse=_init_conv(rng, f, len(feature_dims) * f, 3),
        classifier=_init_conv(rng, num_classes, f, 1),
    )


def init_model(cfg: ModelConfig, rng) -> SegModel:
    ps = cfg.patch_size
    embed = PatchEmbedWeights(
        w=_uniform(rng, (cfg.in_channels * ps * ps, cfg.embed_dims[0]), cfg.in_channels * ps * ps),
        b=np.zeros(cfg.embed_dims[0]),
    )
    stages = [[init_block(c, cfg.state_dim, rng) for _ in range(depth)]
              for c, depth in zip(cfg.embed_dims, cfg.depths)]
    downs = [DownsampleWeights(w=_uniform(rng, (4 * c, 2 * c), 4 * c), b=np.zeros(2 * c))
             for c in cfg.embed_dims[:-1]]
    decoder = init_decoder(cfg.embed_dims, cfg.decoder_dim, cfg.num_classes, rng)
    return SegModel(cfg=cfg, weights=ModelWeights(
        encoder=EncoderWeights(embed=embed, stages=stages, downs=downs), decoder=decoder))


def flatten_weights(model: SegModel) -> dict:
    return tree_flatten(model.weights)


def unflatten_weights(model: SegModel, flat: dict) -> ModelWeights:
    return tree_unflatten(model.weights, flat)


# --------------------------------------------------------------------------
# Forward / backward pieces


def patch_embed(image, w: PatchEmbedWeights, cfg: ModelConfig):
    """Non-overlapping ps x ps patches of [B, C, H, W] images, flattened and
    linearly projected to a [B, H/ps, W/ps, C0] token grid."""
    b, c, h, wd = image.shape
    ps = cfg.patch_size
    if h % ps or wd % ps:
        raise ValueError(f"image {h}x{wd} not divisible by patch size {ps}")
    gh, gw = h // ps, wd // ps

    def patches():
        return image.reshape(b, c, gh, ps, gw, ps).transpose(0, 2, 4, 1, 3, 5).reshape(b, gh, gw, c * ps * ps)

    tokens = linear(patches(), w.w, w.b)[0]

    def vjp(dtok):
        # the vjp keeps the image, not its patch copy, and rebuilds the patches
        dpatches, dw, db = _linear_grads(patches(), w.w, dtok)
        dimg = dpatches.reshape(b, gh, gw, c, ps, ps).transpose(0, 3, 1, 4, 2, 5).reshape(b, c, h, wd)
        return dimg, PatchEmbedWeights(w=dw, b=db)

    return tokens, vjp


def _chain(vjps, key, steps, x):
    """walk steps from x, keeping their vjps as vjps[key] when vjps is a dict."""
    return walk(steps, x, None if vjps is None else vjps.setdefault(key, []))


def _op(fn, w, *names):
    """A step: fn(x, *those fields of w), its gradients named by the fields."""
    return names, lambda x: fn(x, *(getattr(w, f) for f in names))


def _transpose(*axes):
    """A step: x viewed with its axes permuted; its vjp permutes them back."""
    back = tuple(np.argsort(axes))
    return (), lambda x: (x.transpose(axes), lambda d: (d.transpose(back),))


def vss_block(x, w: BlockWeights):
    """Residual gated block: normalized input feeds a gate branch (linear +
    silu) and a main branch (linear, depthwise conv, silu, four-direction
    scan, norm); branches multiply, project, and add back to the input.
    x: [B, H, W, C]. Each branch is a chain of steps named by their fields
    in w; the fan-out, the product and the residual are the joins."""
    chains = {}
    n1 = _chain(chains, "ln1", [_op(layer_norm, w, "ln1_gamma", "ln1_beta")], x)
    gate = _chain(chains, "gate", [_op(linear, w, "gate_w", "gate_b"), ((), silu)], n1)
    main = [_op(linear, w, "main_w", "main_b"), _transpose(0, 3, 1, 2),
            _op(depthwise_conv2d, w, "conv_kernel"), _transpose(0, 2, 3, 1), ((), silu),
            (("scans",), lambda t: scan2d.ss2d(t, w.scans)),
            _op(layer_norm, w, "ln2_gamma", "ln2_beta")]
    n2 = _chain(chains, "main", main, n1)
    y = x + _chain(chains, "out", [_op(linear, w, "out_w", "out_b")], n2 * gate)

    def vjp(dy):
        flat = {}
        dprod = walk_back(chains["out"], dy, flat)
        dn1 = (walk_back(chains["main"], dprod * gate, flat)
               + walk_back(chains["gate"], dprod * n2, flat))
        return walk_back(chains["ln1"], dn1, flat) + dy, flat

    return y, vjp


def downsample(x, w: DownsampleWeights):
    """2x2 patch merging of a [B, H, W, C] grid: concatenate the four
    sub-positions, project 4C -> 2C. The concat order, which checkpoints
    depend on, is (even row, even column), (odd, even), (even, odd),
    (odd, odd): the column parity is the major index, the row parity the
    minor one."""
    b, h, wd, c = x.shape
    if h % 2 or wd % 2:
        raise ValueError(f"downsample needs even extents, got {h}x{wd}")
    # [B, H/2, row parity, W/2, column parity, C] -> [B, H/2, W/2, column, row, C]
    parts = x.reshape(b, h // 2, 2, wd // 2, 2, c).transpose(0, 1, 3, 4, 2, 5)
    y, vjp_lin = linear(parts.reshape(b, h // 2, wd // 2, 4 * c), w.w, w.b)

    def vjp(dy):
        dparts, dw, db = vjp_lin(dy)
        dx = dparts.reshape(b, h // 2, wd // 2, 2, 2, c).transpose(0, 1, 4, 2, 3, 5)
        return dx.reshape(b, h, wd, c), DownsampleWeights(w=dw, b=db)

    return y, vjp


def _encode(image, enc: EncoderWeights, cfg: ModelConfig, vjps=None):
    """The encoder's layer walk over [B, C, H, W] images: embed, then for
    each stage i the downsample into it (downs.{i-1}) and its blocks
    (stages.{i}.{j}), each step named by its weights' place in the tree.
    Returns the per-stage grids; with a vjps dict, keeps stage i's chain
    under key i."""
    cfg.check_input(*image.shape[2:])
    entries = [(("embed",), lambda x: patch_embed(x, enc.embed, cfg))]
    entries += [((f"downs.{i}",), lambda x, w=w: downsample(x, w)) for i, w in enumerate(enc.downs)]
    feats, t = [], image
    for i, (entry, blocks) in enumerate(zip(entries, enc.stages)):
        steps = [entry] + [((f"stages.{i}.{j}",), lambda x, w=w: vss_block(x, w))
                           for j, w in enumerate(blocks)]
        t = _chain(vjps, i, steps, t)
        feats.append(t)
    return feats


def encoder_forward(image, enc: EncoderWeights, cfg: ModelConfig):
    """Embed [B, C, H, W] images, then run each stage's blocks, downsampling
    between stages.

    Returns the per-stage feature grids ([B, h, w, C_i], channels-last) and
    a vjp mapping per-stage upstream grads to (dimage, flat weight gradients).
    """
    chains = {}
    feats = _encode(image, enc, cfg, chains)
    n = len(feats)  # the vjp keeps the count, not the grids

    def vjp(dfeats):
        if len(dfeats) != n:
            raise ValueError(f"expected {n} upstream grids, got {len(dfeats)}")
        flat, dt = {}, None
        for i in reversed(range(n)):
            dt = dfeats[i] if dt is None else dt + dfeats[i]
            dt = walk_back(chains[i], dt, flat)
        return dt, flat

    return feats, vjp


def _conv(name, cw: ConvWeights):
    """A step: conv2d with cw, its gradients named {name}.w and {name}.b."""
    return (f"{name}.w", f"{name}.b"), lambda x: conv2d(x, cw.w, cw.b)


def _resize(h, w):
    """A step: bilinear resize to h x w."""
    return (), lambda x: resize_bilinear(x, h, w)


def _decode(features, w: DecoderWeights, out_h, out_w, vjps=None):
    """Pyramid pooling on the deepest grid, top-down lateral fusion, all-level
    concat + fuse, then per-class logits [B, K, out_h, out_w].

    features are [B, h, w, C] channels-last grids ordered shallow to deep;
    any count >= 2 is accepted (the reduced gradient checks use two and three).
    Each chain between two joins is a walk of steps named by their weights'
    place in w; with a vjps dict, each chain is kept under its key.
    """
    if len(features) < 2:
        raise ValueError("decoder expects at least two feature levels")
    f4 = [x.transpose(0, 3, 1, 2) for x in features]  # [B,C,h,w]
    deep = f4[-1]
    # each step runs inside _chain, so a lambda reads the loop's current values
    ppm = [_chain(vjps, ("ppm", i), [((), lambda x: adaptive_avg_pool2d(x, bins, bins)),
                                     _conv(f"ppm_convs.{i}", cw), ((), relu),
                                     _resize(*deep.shape[2:])], deep)
           for i, (bins, cw) in enumerate(zip(POOL_BINS, w.ppm_convs))]
    acc = _chain(vjps, "ppm_fuse", [_conv("ppm_fuse", w.ppm_fuse), ((), relu)],
                 np.concatenate([deep, *ppm], axis=1))

    # top-down, deep to shallow: each level smooths its lateral plus the
    # upsampled sum of the level above
    levels = [acc]
    for i in reversed(range(len(f4) - 1)):
        lat = _chain(vjps, ("laterals", i), [_conv(f"laterals.{i}", w.laterals[i]), ((), relu)], f4[i])
        acc = lat + _chain(vjps, ("up", i), [_resize(*f4[i].shape[2:])], acc)
        levels.insert(0, _chain(vjps, ("smooths", i),
                                [_conv(f"smooths.{i}", w.smooths[i]), ((), relu)], acc))

    lifts = [_chain(vjps, ("lift", i), [_resize(*f4[0].shape[2:])], levels[i])
             for i in range(1, len(levels))]
    cat = np.concatenate([levels[0], *lifts], axis=1)
    del ppm, acc, lat, levels, lifts  # the head needs only their concat
    head = [_conv("fuse", w.fuse), ((), relu), _conv("classifier", w.classifier),
            _resize(out_h, out_w)]
    return _chain(vjps, "head", head, cat)


def uper_decode(features, w: DecoderWeights, out_h, out_w):
    """_decode keeping its chains: returns logits and a vjp(dlogits) ->
    (per-level gradients, channels-last, shallow to deep; the gradients by
    DecoderWeights leaf names). Only the joins between chains are written here."""
    chains = {}
    logits = _decode(features, w, out_h, out_w, chains)
    n, c = len(features), features[-1].shape[-1]

    def vjp(dlogits):
        flat = {}

        def back(key, d):
            return walk_back(chains[key], d, flat)

        dparts = np.split(back("head", dlogits), n, axis=1)
        dlevels = dparts[:1] + [back(("lift", i), d) for i, d in enumerate(dparts[1:], 1)]
        dfeat, carry = [], None  # carry: grad flowing into acc at this level from below
        for i, dlevel in enumerate(dlevels[:-1]):
            dacc = back(("smooths", i), dlevel)
            if carry is not None:
                dacc = dacc + carry
            dfeat.append(back(("laterals", i), dacc))
            carry = back(("up", i), dacc)
        dcat = back("ppm_fuse", dlevels[-1] + carry)
        ddeep = dcat[:, :c]
        for i, dup in enumerate(np.split(dcat[:, c:], len(POOL_BINS), axis=1)):
            ddeep = ddeep + back(("ppm", i), dup)
        dfeat.append(ddeep)
        return [d.transpose(0, 2, 3, 1) for d in dfeat], flat

    return logits, vjp


def _images(image, cfg: ModelConfig):
    """image as a [B, C, H, W] batch of cfg's channels, or ValueError. The
    batch computes in its own dtype when that is float32 and in float64
    otherwise (ops.as_float)."""
    img = as_float(image)
    if img.ndim != 4:
        raise ValueError(f"expected a [B, C, H, W] batch of images, got shape {img.shape}")
    if 0 in img.shape:
        raise ValueError(f"expected a non-empty [B, C, H, W] batch of images, got shape {img.shape}")
    if img.shape[1] != cfg.in_channels:
        raise ValueError(f"channel mismatch: expected {cfg.in_channels} input channels, "
                         f"got {img.shape[1]}")
    return img


# A batch is cut in two when its first shard holds at least this many pixels
# (ceil(B/2) * H * W). Measured at batch 8 of the default config, one BLAS
# thread: two shards made a forward+backward step 1.1-1.7x faster at every
# size from 48^2 up, but the second thread's malloc arena and temporaries
# raised peak RSS by 10-12% at 48^2 (9,216 pixels a shard) and 6-7% at 72^2
# (20,736), against 4% at 96^2 (36,864) and 2% at 120^2 (57,600).
_SHARD_MIN_PIXELS = 1 << 15
_POOL = None
_POOL_LOCK = threading.Lock()


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shards(img):
    """The fixed slices of a [B, C, H, W] batch that run apart: the first
    ceil(B/2) images and the rest, or the whole batch when B < 2 or a shard
    would hold fewer than _SHARD_MIN_PIXELS pixels."""
    b, _, h, w = img.shape
    half = -(-b // 2)
    if b < 2 or half * h * w < _SHARD_MIN_PIXELS:
        return [slice(0, b)]
    return [slice(0, half), slice(half, b)]


def _pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # imported here: concurrent.futures loads logging, 0.5 MB of RSS
            # that a process whose batches never shard need not pay
            from concurrent.futures import ThreadPoolExecutor
            # one worker: the caller runs shard 0, and a thread more would
            # only add a malloc arena
            _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="crackfuse-shard")
        return _POOL


def _each(runs):
    """The results of one or two shard runs, in order: the first runs on this
    thread and the second on the worker when another CPU is free for it,
    else here after the first."""
    if len(runs) == 1 or _cpu_count() < 2:
        return [run() for run in runs]
    first, second = runs
    future = _pool().submit(second)
    try:
        out = first()
    except BaseException:
        future.exception()  # waits: no shard outlives the call that cut it
        raise
    return [out, future.result()]


def _join(parts):
    """The shards' outputs as one batch."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def model_forward(image, model: SegModel, *, parallel=False):
    """Full network: [B, C_in, H, W] images -> [B, num_classes, H, W] logits.

    The one entry point to the Stage-2 layers for training: it refuses any
    other layout, keeps a float32 batch float32 and casts anything else to
    float64 (_images), and runs the layers on the weights cast once to that
    dtype. Returns (logits, vjp) with vjp(dlogits) -> (dimage, grads): dimage
    in the batch's dtype, grads the flat dict adamw_step takes, in the weights'
    leaf order, each gradient in its master leaf's dtype. A large batch runs
    as two shards (_shards, _each) whose logits and dimage are concatenated
    and whose weight gradients are summed, shard 0 + shard 1. The scan runs
    the sequential recurrence; parallel=True is refused.
    """
    if parallel:
        raise ValueError("the model runs the sequential scan; Blelloch is ssm.selective_scan_par")
    img = _images(image, model.cfg)
    work = SegModel(model.cfg, tree_astype(model.weights, img.dtype))
    shards = _shards(img)
    outs = _each([partial(_model_forward, img[s], work) for s in shards])
    logits, vjps = _join([y for y, _ in outs]), [vjp for _, vjp in outs]

    def vjp(dlogits):
        backs = _each([partial(v, dlogits[s]) for v, s in zip(vjps, shards)])
        grads = [tree_flatten(g) for _, g in backs]
        return _join([d for d, _ in backs]), {
            k: reduce(np.add, (g[k] for g in grads)).astype(w.dtype, copy=False)
            for k, w in tree_leaves(model.weights)}

    return logits, vjp


def _model_forward(img, model: SegModel):
    """model_forward of one shard, a [B, C, H, W] batch, in its dtype."""
    feats, vjp_enc = encoder_forward(img, model.weights.encoder, model.cfg)
    logits, vjp_dec = uper_decode(feats, model.weights.decoder, *img.shape[2:])

    def vjp(dlogits):
        dfeats, ddec = vjp_dec(dlogits)
        dimage, denc = vjp_enc(dfeats)
        return dimage, {"encoder": denc, "decoder": ddec}

    return logits, vjp


def predict(image, model: SegModel):
    """model_forward's logits, bit for bit, for inference: the encoder and
    decoder walks keep no step's vjp past the step that made it."""
    img = _images(image, model.cfg)
    work = SegModel(model.cfg, tree_astype(model.weights, img.dtype))
    return _join(_each([partial(_predict, img[s], work) for s in _shards(img)]))


def _predict(img, model: SegModel):
    """predict of one shard, a [B, C, H, W] batch, in its dtype."""
    feats = _encode(img, model.weights.encoder, model.cfg)
    return _decode(feats, model.weights.decoder, *img.shape[2:])
