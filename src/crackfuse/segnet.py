"""Segmentation network: patch embedding, gated scan blocks, a downsampling
encoder, and a pyramid-pooling / top-down decoder producing per-pixel logits.

Every layer takes a batch: images are [B, C, H, W], token grids flow
channels-last ([B, H, W, C]), and the decoder works channels-first
([B, C, h, w]) because it is convolutional. model_forward is the one entry
point that checks the layout and casts its input to float64; the layers
behind it take float64 batches as they are. Every composite returns
(output, vjp) with the backward pass composed by hand from the primitives'
closures, mirroring the forward graph exactly.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import scan2d, ssm
from .ops import (conv2d, depthwise_conv2d, layer_norm, linear, relu,
                  resize_bilinear, adaptive_avg_pool2d, silu)
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
        if len(self.embed_dims) != len(self.depths):
            raise ValueError("embed_dims and depths must have the same length")
        for a, b in zip(self.embed_dims, self.embed_dims[1:]):
            if b != 2 * a:
                raise ValueError(f"stage widths must double, got {self.embed_dims}")

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


def parameter_count(model: SegModel) -> int:
    return sum(int(a.size) for _, a in tree_flatten(model.weights).items())


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
    patches = image.reshape(b, c, gh, ps, gw, ps).transpose(0, 2, 4, 1, 3, 5).reshape(b, gh, gw, c * ps * ps)
    tokens, vjp_lin = linear(patches, w.w, w.b)

    def vjp(dtok):
        dpatches, dw, db = vjp_lin(dtok)
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


def encoder_forward(image, enc: EncoderWeights, cfg: ModelConfig, parallel=False):
    """Embed [B, C, H, W] images, then run each stage's blocks, downsampling
    between stages.

    Returns the per-stage feature grids ([B, h, w, C_i], channels-last) and
    a vjp mapping per-stage upstream grads to (dimage, EncoderWeights grads).
    """
    cfg.check_input(*image.shape[2:])
    tokens, vjp_embed = patch_embed(image, enc.embed, cfg)
    feats = []
    block_vjps = []
    down_vjps = []
    t = tokens
    for i, stage in enumerate(enc.stages):
        stage_vjps = []
        for blk in stage:
            t, vb = vss_block(t, blk, parallel=parallel)
            stage_vjps.append(vb)
        block_vjps.append(stage_vjps)
        feats.append(t)
        if i + 1 < len(enc.stages):
            t, vd = downsample(t, enc.downs[i])
            down_vjps.append(vd)

    def vjp(dfeats):
        if len(dfeats) != len(feats):
            raise ValueError(f"expected {len(feats)} upstream grids, got {len(dfeats)}")
        dstage_blocks = [None] * len(enc.stages)
        ddowns = [None] * len(enc.downs)
        carry = None
        for i in range(len(enc.stages) - 1, -1, -1):
            if carry is None:
                dt = dfeats[i]
            else:
                din, ddowns[i] = down_vjps[i](carry)
                dt = din + dfeats[i]
            grads = []
            for vb in reversed(block_vjps[i]):
                dt, g = vb(dt)
                grads.append(g)
            dstage_blocks[i] = list(reversed(grads))
            carry = dt
        dimage, dembed = vjp_embed(carry)
        return dimage, EncoderWeights(embed=dembed, stages=dstage_blocks, downs=ddowns)

    return feats, vjp


def _conv_relu(x, cw: ConvWeights):
    t, vjp_c = conv2d(x, cw.w, cw.b)
    y, vjp_r = relu(t)

    def vjp(dy):
        dt = vjp_r(dy)[0]
        dx, dw, db = vjp_c(dt)
        return dx, ConvWeights(w=dw, b=db)

    return y, vjp


def uper_decode(features, w: DecoderWeights, out_h, out_w):
    """Pyramid pooling on the deepest grid, top-down lateral fusion, all-level
    concat + fuse, then per-class logits [B, K, out_h, out_w].

    features are [B, h, w, C] channels-last grids ordered shallow to deep;
    any count >= 2 is accepted (the reduced gradient-check config uses two).
    """
    if len(features) < 2:
        raise ValueError("decoder expects at least two feature levels")
    n = len(features)
    f4 = [x.transpose(0, 3, 1, 2) for x in features]  # [B,C,h,w]
    sizes = [f.shape[-2:] for f in f4]
    deep = f4[-1]
    h_deep, w_deep = sizes[-1]

    ppm_records = []
    branches = [deep]
    for bins, cw in zip(POOL_BINS, w.ppm_convs):
        pooled, vjp_pool = adaptive_avg_pool2d(deep, bins, bins)
        conv, vjp_cr = _conv_relu(pooled, cw)
        up, vjp_up = resize_bilinear(conv, h_deep, w_deep)
        branches.append(up)
        ppm_records.append((vjp_pool, vjp_cr, vjp_up))
    cat_deep = np.concatenate(branches, axis=1)
    top, vjp_top = _conv_relu(cat_deep, w.ppm_fuse)

    levels = [None] * n
    levels[n - 1] = top
    lat_records = [None] * (n - 1)
    upacc_records = [None] * (n - 1)
    smooth_records = [None] * (n - 1)
    acc = top
    for i in range(n - 2, -1, -1):
        lat, vjp_lat = _conv_relu(f4[i], w.laterals[i])
        up, vjp_upacc = resize_bilinear(acc, *sizes[i])
        acc = lat + up
        levels[i], vjp_smooth = _conv_relu(acc, w.smooths[i])
        lat_records[i] = vjp_lat
        upacc_records[i] = vjp_upacc
        smooth_records[i] = vjp_smooth

    h0, w0 = sizes[0]
    merged = [levels[0]]
    merge_ups = [None]
    for i in range(1, n):
        up, vjp_mu = resize_bilinear(levels[i], h0, w0)
        merged.append(up)
        merge_ups.append(vjp_mu)
    cat_all = np.concatenate(merged, axis=1)
    fused, vjp_fuse = _conv_relu(cat_all, w.fuse)
    grid_logits, vjp_cls = conv2d(fused, w.classifier.w, w.classifier.b)
    logits, vjp_out = resize_bilinear(grid_logits, out_h, out_w)

    fdim = w.fuse.w.shape[1] // n

    def vjp(dlogits):
        dgrid = vjp_out(dlogits)[0]
        dfused, dcls_w, dcls_b = vjp_cls(dgrid)
        dcat_all, dfuse = vjp_fuse(dfused)
        dlevels = [None] * n
        dlevels[0] = dcat_all[:, 0:fdim]
        for i in range(1, n):
            dlevels[i] = merge_ups[i](dcat_all[:, i * fdim:(i + 1) * fdim])[0]

        dlats = [None] * (n - 1)
        dsmooths = [None] * (n - 1)
        dfeat = [None] * n
        carry = None  # grad flowing into acc at the current level from below
        for i in range(n - 1):
            dacc, dsmooths[i] = smooth_records[i](dlevels[i])
            if carry is not None:
                dacc = dacc + carry
            dfeat_i, dlats[i] = lat_records[i](dacc)
            dfeat[i] = dfeat_i
            carry = upacc_records[i](dacc)[0]
        dtop = dlevels[n - 1] + carry
        dcat_deep, dppm_fuse = vjp_top(dtop)
        ddeep = dcat_deep[:, 0:deep.shape[1]]
        dppm_convs = []
        off = deep.shape[1]
        for (vjp_pool, vjp_cr, vjp_up) in ppm_records:
            dup = dcat_deep[:, off:off + fdim]
            off += fdim
            dconv = vjp_up(dup)[0]
            dpooled, dcw = vjp_cr(dconv)
            ddeep = ddeep + vjp_pool(dpooled)[0]
            dppm_convs.append(dcw)
        dfeat[n - 1] = ddeep

        dgrads = DecoderWeights(
            ppm_convs=dppm_convs, ppm_fuse=dppm_fuse, laterals=dlats,
            smooths=dsmooths, fuse=dfuse, classifier=ConvWeights(w=dcls_w, b=dcls_b),
        )
        return [d.transpose(0, 2, 3, 1) for d in dfeat], dgrads

    return logits, vjp


def model_forward(image, model: SegModel, parallel=False):
    """Full network: [B, C_in, H, W] images -> [B, num_classes, H, W] logits.

    The one entry point to the Stage-2 layers: it casts the images to float64
    and refuses any other layout, so the layers behind it take float64
    batches as they are. Returns (logits, vjp) with vjp(dlogits) ->
    (dimage, ModelWeights gradient).
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 4:
        raise ValueError(f"model_forward expects a [B, C, H, W] batch of images, got shape {img.shape}")
    _, cin, h, w = img.shape
    if cin != model.cfg.in_channels:
        raise ValueError(f"channel mismatch: expected {model.cfg.in_channels} input channels, got {cin}")
    feats, vjp_enc = encoder_forward(img, model.weights.encoder, model.cfg, parallel=parallel)
    logits, vjp_dec = uper_decode(feats, model.weights.decoder, h, w)

    def vjp(dlogits):
        dfeats, ddec = vjp_dec(dlogits)
        dimage, denc = vjp_enc(dfeats)
        return dimage, ModelWeights(encoder=denc, decoder=ddec)

    return logits, vjp
