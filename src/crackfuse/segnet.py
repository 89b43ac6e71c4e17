"""Segmentation network: patch embedding, gated scan blocks, a downsampling
encoder, and a pyramid-pooling / top-down decoder producing per-pixel logits.

Every layer takes a batch: images are [B, C, H, W], token grids flow
channels-last ([B, H, W, C]), and the decoder works channels-first
([B, C, h, w]) because it is convolutional. model_forward (training) and
predict (inference) check the layout and cast their input to float64; the
layers behind them take float64 batches as they are. Every layer returns
(output, vjp), its backward composed by hand from the primitives' closures.
The networks are chains of named steps, written once: one per encoder stage
(_encode), one between each two decoder joins (_decode). predict walks them
keeping no vjp; encoder_forward and uper_decode keep the vjps, run them back
with ops.walk_back and write only the joins by hand.

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

import numpy as np

from . import scan2d, ssm
from .ops import (_linear_grads, conv2d, depthwise_conv2d, layer_norm, linear, relu,
                  resize_bilinear, adaptive_avg_pool2d, silu, walk, walk_back)
from .trees import tree_flatten, tree_unflatten

POOL_BINS = (1, 2, 3, 6)


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 6
    patch_size: int = 3
    embed_dims: tuple = (16, 32, 64, 128)
    depths: tuple = (1, 1, 1, 1)
    state_dim: int = 4
    num_classes: int = 2
    decoder_dim: int = 32

    def __post_init__(self):
        for name in ("in_channels", "patch_size", "state_dim", "num_classes", "decoder_dim"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name, least in (("embed_dims", 1), ("depths", 0)):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and len(value) >= 2
                    and all(type(v) is int and v >= least for v in value)):
                raise ValueError(f"{name} must be a tuple of two or more integers >= {least}, "
                                 f"got {value!r}")
        if len(self.embed_dims) != len(self.depths):
            raise ValueError("embed_dims and depths must have the same length")
        for a, b in zip(self.embed_dims, self.embed_dims[1:]):
            if b != 2 * a:
                raise ValueError(f"embed_dims must double from stage to stage, got {self.embed_dims}")

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


def vss_block(x, w: BlockWeights, parallel=False):
    """Residual gated block: normalized input feeds a gate branch (linear +
    silu) and a main branch (linear, depthwise conv, silu, four-direction
    scan, norm); branches multiply, project, and add back to the input.
    x: [B, H, W, C]."""
    n1, vjp_ln1 = layer_norm(x, w.ln1_gamma, w.ln1_beta)
    g_pre, vjp_glin = linear(n1, w.gate_w, w.gate_b)
    gate, vjp_gact = silu(g_pre)
    m_pre, vjp_mlin = linear(n1, w.main_w, w.main_b)
    m_chw = m_pre.transpose(0, 3, 1, 2)
    conv, vjp_conv = depthwise_conv2d(m_chw, w.conv_kernel)
    conv_hwc = conv.transpose(0, 2, 3, 1)
    act, vjp_act = silu(conv_hwc)
    scanned, vjp_ss2d = scan2d.ss2d(act, w.scans, parallel=parallel)
    n2, vjp_ln2 = layer_norm(scanned, w.ln2_gamma, w.ln2_beta)
    prod = n2 * gate
    out, vjp_out = linear(prod, w.out_w, w.out_b)
    y = x + out

    def vjp(dy):
        dprod, dout_w, dout_b = vjp_out(dy)
        dn2 = dprod * gate
        dgate = dprod * n2
        dscanned, dg2, db2 = vjp_ln2(dn2)
        dact, dscan_params = vjp_ss2d(dscanned)
        dconv_hwc = vjp_act(dact)[0]
        dconv = dconv_hwc.transpose(0, 3, 1, 2)
        dm_chw, dkernel = vjp_conv(dconv)
        dm_pre = dm_chw.transpose(0, 2, 3, 1)
        dn1_main, dmain_w, dmain_b = vjp_mlin(dm_pre)
        dg_pre = vjp_gact(dgate)[0]
        dn1_gate, dgate_w, dgate_b = vjp_glin(dg_pre)
        dx, dg1, db1 = vjp_ln1(dn1_main + dn1_gate)
        dx = dx + dy
        grads = BlockWeights(
            ln1_gamma=dg1, ln1_beta=db1, gate_w=dgate_w, gate_b=dgate_b,
            main_w=dmain_w, main_b=dmain_b, conv_kernel=dkernel,
            scans=dscan_params, ln2_gamma=dg2, ln2_beta=db2,
            out_w=dout_w, out_b=dout_b,
        )
        return dx, grads

    return y, vjp


def downsample(x, w: DownsampleWeights):
    """2x2 patch merging of a [B, H, W, C] grid: concatenate the four
    sub-positions, project 4C -> 2C."""
    b, h, wd, c = x.shape
    if h % 2 or wd % 2:
        raise ValueError(f"downsample needs even extents, got {h}x{wd}")
    parts = np.concatenate([x[:, 0::2, 0::2], x[:, 1::2, 0::2],
                            x[:, 0::2, 1::2], x[:, 1::2, 1::2]], axis=-1)
    y, vjp_lin = linear(parts, w.w, w.b)

    def vjp(dy):
        dparts, dw, db = vjp_lin(dy)
        dx = np.zeros_like(x)
        dx[:, 0::2, 0::2] = dparts[..., 0 * c:1 * c]
        dx[:, 1::2, 0::2] = dparts[..., 1 * c:2 * c]
        dx[:, 0::2, 1::2] = dparts[..., 2 * c:3 * c]
        dx[:, 1::2, 1::2] = dparts[..., 3 * c:4 * c]
        return dx, DownsampleWeights(w=dw, b=db)

    return y, vjp


def _chain(vjps, key, steps, x):
    """walk steps from x, keeping their vjps as vjps[key] when vjps is a dict."""
    return walk(steps, x, None if vjps is None else vjps.setdefault(key, []))


def _encode(image, enc: EncoderWeights, cfg: ModelConfig, parallel=False, vjps=None):
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
        steps = [entry] + [((f"stages.{i}.{j}",), lambda x, w=w: vss_block(x, w, parallel=parallel))
                           for j, w in enumerate(blocks)]
        t = _chain(vjps, i, steps, t)
        feats.append(t)
    return feats


def encoder_forward(image, enc: EncoderWeights, cfg: ModelConfig, parallel=False):
    """Embed [B, C, H, W] images, then run each stage's blocks, downsampling
    between stages.

    Returns the per-stage feature grids ([B, h, w, C_i], channels-last) and
    a vjp mapping per-stage upstream grads to (dimage, EncoderWeights grads).
    """
    chains = {}
    feats = _encode(image, enc, cfg, parallel, chains)

    def vjp(dfeats):
        if len(dfeats) != len(feats):
            raise ValueError(f"expected {len(feats)} upstream grids, got {len(dfeats)}")
        flat, dt = {}, None
        for i in reversed(range(len(feats))):
            dt = dfeats[i] if dt is None else dt + dfeats[i]
            dt = walk_back(chains[i], dt, flat)
        return dt, tree_unflatten(enc, flat)

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
    head = [_conv("fuse", w.fuse), ((), relu), _conv("classifier", w.classifier),
            _resize(out_h, out_w)]
    return _chain(vjps, "head", head, np.concatenate([levels[0], *lifts], axis=1))


def uper_decode(features, w: DecoderWeights, out_h, out_w):
    """_decode keeping its chains: returns logits and a vjp(dlogits) ->
    (per-level gradients, channels-last, shallow to deep; DecoderWeights
    gradient). Only the joins between chains are written here."""
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
        return [d.transpose(0, 2, 3, 1) for d in dfeat], tree_unflatten(w, flat)

    return logits, vjp


def _images(image, cfg: ModelConfig):
    """image as a float64 [B, C, H, W] batch of cfg's channels, or ValueError."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 4:
        raise ValueError(f"expected a [B, C, H, W] batch of images, got shape {img.shape}")
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


def _both(first, second):
    """(first(), second()), one shard each: first on this thread, second on
    the worker when another CPU is free for it, else here after first."""
    if _cpu_count() < 2:
        return first(), second()
    future = _pool().submit(second)
    try:
        out = first()
    except BaseException:
        future.exception()  # waits: no shard outlives the call that cut it
        raise
    return out, future.result()


def _sum_grads(g0, g1):
    """Two weight-gradient trees summed leafwise, shard 0 + shard 1."""
    flat1 = tree_flatten(g1)
    return tree_unflatten(g0, {k: v + flat1[k] for k, v in tree_flatten(g0).items()})


def model_forward(image, model: SegModel, parallel=False):
    """Full network: [B, C_in, H, W] images -> [B, num_classes, H, W] logits.

    The one entry point to the Stage-2 layers: it casts the images to float64
    and refuses any other layout, so the layers behind it take float64
    batches as they are. Returns (logits, vjp) with vjp(dlogits) ->
    (dimage, ModelWeights gradient). A large batch runs as two shards
    (_shards) whose logits and dimage are concatenated and whose weight
    gradients are summed, shard 0 + shard 1.
    """
    img = _images(image, model.cfg)
    shards = _shards(img)
    if len(shards) == 1:
        return _model_forward(img, model, parallel)
    a, b = shards
    (y0, vjp0), (y1, vjp1) = _both(lambda: _model_forward(img[a], model, parallel),
                                   lambda: _model_forward(img[b], model, parallel))

    def vjp(dlogits):
        (d0, g0), (d1, g1) = _both(lambda: vjp0(dlogits[a]), lambda: vjp1(dlogits[b]))
        return np.concatenate([d0, d1]), _sum_grads(g0, g1)

    return np.concatenate([y0, y1]), vjp


def _model_forward(img, model: SegModel, parallel):
    """model_forward of one shard, a float64 [B, C, H, W] batch."""
    feats, vjp_enc = encoder_forward(img, model.weights.encoder, model.cfg, parallel=parallel)
    logits, vjp_dec = uper_decode(feats, model.weights.decoder, *img.shape[2:])

    def vjp(dlogits):
        dfeats, ddec = vjp_dec(dlogits)
        dimage, denc = vjp_enc(dfeats)
        return dimage, ModelWeights(encoder=denc, decoder=ddec)

    return logits, vjp


def predict(image, model: SegModel):
    """model_forward's logits, bit for bit, for inference: the encoder and
    decoder walks keep no step's vjp past the step that made it."""
    img = _images(image, model.cfg)
    shards = _shards(img)
    if len(shards) == 1:
        return _predict(img, model)
    a, b = shards
    return np.concatenate(_both(lambda: _predict(img[a], model), lambda: _predict(img[b], model)))


def _predict(img, model: SegModel):
    """predict of one shard, a float64 [B, C, H, W] batch."""
    feats = _encode(img, model.weights.encoder, model.cfg)
    return _decode(feats, model.weights.decoder, *img.shape[2:])
