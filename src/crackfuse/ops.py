"""Differentiable array primitives.

Every operation here is pure and returns ``(output, vjp)`` where ``vjp`` maps
an upstream cotangent of the output's shape to gradients for each
differentiable input, in argument order. There is no tape: composite layers
chain these closures by hand in reverse order. A vjp keeps one copy of the
cheapest form of what its backward reads, and recomputes whatever one
elementwise pass or one small GEMM gives back bit for bit (relu keeps a bool
mask, silu only its input). A network written as a list of steps runs through
walk, which keeps each step's vjp only for a caller that asks for them, so a
forward-only pass holds no closure past the step that made it; walk_back
replays the kept vjps last first and collects the weight gradients by name.

Layout conventions: feature axes last for pointwise/affine ops; the convs
take image batches ``[B, C, H, W]`` only, and the resamplers act on the last
two axes of any array.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .trees import tree_flatten


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softplus(x):
    """log(1 + exp(x)) without overflow. This is the formula np.logaddexp(0, x)
    evaluates element by element; the vectorized exp and log1p run several
    times faster and agree with it to within an ulp or two. The steps run in
    place on one scratch array."""
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += np.maximum(x, 0.0)
    return t


def silu(x):
    """x * sigmoid(x), elementwise."""
    y = x * _sigmoid(x)

    def vjp(dy):
        s = _sigmoid(x)
        return (dy * (s * (1.0 + x * (1.0 - s))),)

    return y, vjp


def relu(x):
    y = np.maximum(x, 0.0)
    mask = x > 0.0

    def vjp(dy):
        return (dy * mask,)

    return y, vjp


def clamp01(x):
    """Clip to [0, 1]; gradient is zero where the clamp is active."""
    y = np.clip(x, 0.0, 1.0)
    inside = (x > 0.0) & (x < 1.0)

    def vjp(dy):
        return (dy * inside,)

    return y, vjp


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis to zero mean / unit variance, then affine.

    gamma and beta must match the last-axis extent.
    """
    m = x.shape[-1]
    if m == 0:
        raise ValueError("layer_norm: last axis has extent 0")
    if gamma.shape != (m,) or beta.shape != (m,):
        raise ValueError(
            f"layer_norm: gamma/beta shapes {gamma.shape}/{beta.shape} do not match axis extent {m}"
        )
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = xc * inv
    y = xh * gamma + beta

    def vjp(dy):
        lead = tuple(range(dy.ndim - 1))
        dgamma = (dy * xh).sum(axis=lead)
        dbeta = dy.sum(axis=lead)
        g = dy * gamma
        dx = inv * (g - g.mean(axis=-1, keepdims=True) - xh * (g * xh).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return y, vjp


def linear(x, w, b):
    """Affine map over the last axis: y = x @ w + b with w of shape [in, out]."""
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear: input extent {x.shape[-1]} does not match weight rows {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"linear: bias shape {b.shape} does not match weight cols {w.shape[1]}")
    y = x @ w + b

    def vjp(dy):
        return _linear_grads(x, w, dy)

    return y, vjp


def _linear_grads(x, w, dy):
    """linear's (dx, dw, db) for input x and upstream dy."""
    x2 = x.reshape(-1, w.shape[0])
    dy2 = dy.reshape(-1, w.shape[1])
    return dy @ w.T, x2.T @ dy2, dy2.sum(axis=0)


def _padded_rows(x, c, kh, kw, op):
    """The same-padding layout of both convolutions: x [B, C, H, W],
    zero-padded for a kh x kw kernel with odd extents plus one zero row, as
    flat rows xf [B, C, Hp*Wp], where tap (u, v) of output pixel (i, j) reads
    i*Wp + j + off with off = u*Wp + v: one contiguous slice per tap and block
    of output rows. Sums over taps live on [r, Wp] grids whose last 2*pw
    columns wrap into the next row. Returns xf, Wp, the taps as (u, v, off),
    crop(f, r=H, off=0), a view of the [..., r, W] image in the flat rows of f
    from off on, wrap columns dropped (at the centre tap's off, padding too),
    and stage(buf, d), which writes d there in a zeroed buf and returns those rows."""
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"{op}: kernel extents must be odd, got {kh}x{kw}")
    if x.shape[1] != c:
        raise ValueError(f"{op}: input has {x.shape[1]} channels, kernel expects {c}")
    bsz, _, h, wd = x.shape
    ph, pw, wp = kh // 2, kw // 2, wd + kw - 1
    xp = np.zeros((bsz, c, h + kh - 1 + (kw > 1), wp))
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    taps = [(u, v, u * wp + v) for u in range(kh) for v in range(kw)]

    def crop(f, r=h, off=0):
        return f[..., off : off + r * wp].reshape(f.shape[:-1] + (r, wp))[..., :wd]

    def stage(buf, d):
        crop(buf, d.shape[-2])[...] = d
        return buf[..., : d.shape[-2] * wp]

    return xp.reshape(bsz, c, -1), wp, taps, crop, stage


def depthwise_conv2d(x, k):
    """Per-channel 2d convolution, odd kernel, zero same-padding.

    x: [B,C,H,W]; k: [C,kh,kw]. Channel i of the output depends only on
    channel i of the input. One multiply-add per tap on _padded_rows.
    """
    xf, wp, taps, crop, stage = _padded_rows(x, *k.shape, "depthwise_conv2d")
    m = x.shape[2] * wp
    y = np.zeros(xf.shape[:2] + (m,))
    for u, v, off in taps:
        y += k[:, u, v, None] * xf[..., off : off + m]

    def vjp(dy):
        g = stage(np.zeros_like(y), dy)
        dk = np.empty_like(k)
        dxf = np.zeros_like(xf)
        for u, v, off in taps:
            dk[:, u, v] = np.einsum("bcm,bcm->c", g, xf[..., off : off + m])
            dxf[..., off : off + m] += k[:, u, v, None] * g
        return crop(dxf, off=taps[len(taps) // 2][2]), dk

    return crop(y), vjp


# Bytes of one working block: a conv2d row block's accumulator, or one
# [T, K, B, N, C] state array of an L-chunk of the selective scan. Small
# enough that such a block and the few others computed beside it stay in a
# core's cache and are reused from block to block instead of being freshly
# paged in.
_BLOCK_BYTES = 1 << 19


def conv2d(x, w, b):
    """Dense 2d convolution, odd kernel, zero same-padding.

    x: [B,Cin,H,W]; w: [Cout,Cin,kh,kw]; b: [Cout]. One GEMM per kernel tap
    on _padded_rows, in row blocks sized to stay in cache: per tap,
    y += w[:, :, u, v] @ slice, dw += dy @ slice.T and dx[slice] += w.T @ dy.
    """
    co, ci = w.shape[:2]
    xf, wp, taps, crop, stage = _padded_rows(x, *w.shape[1:], "conv2d")
    bsz, _, h, wd = x.shape
    # [kh, kw, Cout, Cin]: each tap's matrix is contiguous, so BLAS takes it as is
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    rows = max(1, min(h, _BLOCK_BYTES // max(1, 8 * bsz * co * wp)))
    blocks = [(i, min(rows, h - i)) for i in range(0, h, rows)]

    y = np.empty((bsz, co, h, wd))
    acc = np.empty((bsz, co, rows * wp))
    tmp = np.empty_like(acc)
    for i, r in blocks:
        s, m = i * wp, r * wp
        a, t = acc[:, :, :m], tmp[:, :, :m]
        for k, (u, v, off) in enumerate(taps):
            np.matmul(wt[u, v], xf[:, :, s + off : s + off + m], out=t if k else a)
            if k:
                a += t
        np.add(crop(a, r), b[None, :, None, None], out=y[:, :, i : i + r])

    def vjp(dy):
        db = dy.sum(axis=(0, 2, 3))
        dwt = np.zeros_like(wt)
        dxf = np.zeros_like(xf)
        dyb = np.zeros((bsz, co, rows * wp))
        tmp = np.empty((bsz, ci, rows * wp))
        for i, r in blocks:
            s, m = i * wp, r * wp
            g, t = stage(dyb, dy[:, :, i : i + r]), tmp[:, :, :m]
            for u, v, off in taps:
                dwt[u, v] += (g @ xf[:, :, s + off : s + off + m].transpose(0, 2, 1)).sum(axis=0)
                dxf[:, :, s + off : s + off + m] += np.matmul(wt[u, v].T, g, out=t)
        return crop(dxf, off=taps[len(taps) // 2][2]), dwt.transpose(2, 3, 0, 1).copy(), db

    return y, vjp


def walk(steps, x, vjps=None):
    """Run x through steps, (names, step) pairs with step(x) -> (y, vjp), and
    return the last output; names has a weight-tree name for each gradient
    but the input's that vjp returns. Appends (names, vjp) to vjps when given
    a list; without one each vjp is dropped as soon as its step returns."""
    for names, step in steps:
        x, vjp = step(x)
        if vjps is not None:
            vjps.append((names, vjp))
        del vjp
    return x


def walk_back(vjps, dy, grads):
    """Replay the (names, vjp) pairs that walk kept, last first, from dy, and
    return the walk input's gradient. The weight gradients go into the flat
    dict grads as tree leaves under their names, for trees.tree_unflatten."""
    for names, vjp in reversed(vjps):
        dy, *g = vjp(dy)
        for name, gi in zip(names, g):
            grads.update(tree_flatten(gi, name))
    return dy


# ---------------------------------------------------------------------------
# Separable resampling. Each resize/pool is a linear operator applied
# independently to rows and columns, so forward is Mr @ x @ Mc^T and the
# vjp is Mr^T @ dy @ Mc. Matrices are cached per (n_in, n_out).


def _cubic_weight(d, a=-0.5):
    # Catmull-Rom kernel (a = -0.5)
    d = abs(d)
    if d <= 1.0:
        return (a + 2.0) * d**3 - (a + 3.0) * d**2 + 1.0
    if d < 2.0:
        return a * (d**3 - 5.0 * d**2 + 8.0 * d - 4.0)
    return 0.0


@lru_cache(maxsize=None)
def _resample_matrix(n_in: int, n_out: int, mode: str):
    m = np.zeros((n_out, n_in))
    if mode == "pool":
        for i in range(n_out):
            lo = (i * n_in) // n_out
            hi = -(-(i + 1) * n_in // n_out)  # ceil
            m[i, lo:hi] = 1.0 / (hi - lo)
    else:
        scale = n_in / n_out
        for i in range(n_out):
            src = (i + 0.5) * scale - 0.5
            i0 = int(np.floor(src))
            t = src - i0
            if mode == "bicubic":
                taps = [(i0 - 1, _cubic_weight(t + 1.0)), (i0, _cubic_weight(t)),
                        (i0 + 1, _cubic_weight(1.0 - t)), (i0 + 2, _cubic_weight(2.0 - t))]
            elif mode == "bilinear":
                taps = [(i0, 1.0 - t), (i0 + 1, t)]
            else:
                raise ValueError(f"unknown resample mode {mode!r}")
            for j, wgt in taps:
                m[i, min(max(j, 0), n_in - 1)] += wgt  # clamp-to-edge
    m.setflags(write=False)
    return m


def _separable(x, out_h, out_w, mode):
    if out_h < 1 or out_w < 1:
        raise ValueError(f"target extents must be >= 1, got {out_h}x{out_w}")
    if x.ndim < 2:
        raise ValueError(f"expected at least a [H,W] array, got shape {x.shape}")
    h, w = x.shape[-2:]
    mr = _resample_matrix(h, out_h, mode)
    mc = _resample_matrix(w, out_w, mode)
    y = mr @ x @ mc.T

    def vjp(dy):
        return (mr.T @ dy @ mc,)

    return y, vjp


def resize_bicubic(x, out_h, out_w):
    """Separable Catmull-Rom resampling, clamp-to-edge. Exact when dims match."""
    return _separable(x, out_h, out_w, "bicubic")


def resize_bilinear(x, out_h, out_w):
    return _separable(x, out_h, out_w, "bilinear")


def adaptive_avg_pool2d(x, out_h, out_w):
    """Mean pooling onto an out_h x out_w grid of near-equal windows."""
    return _separable(x, out_h, out_w, "pool")


def resize_nearest(x, out_h, out_w):
    """Nearest-neighbor resampling (labels/masks); not differentiable."""
    h, w = x.shape[-2:]
    rows = ((2 * np.arange(out_h) + 1) * h) // (2 * out_h)
    cols = ((2 * np.arange(out_w) + 1) * w) // (2 * out_w)
    return x[..., rows.clip(0, h - 1)[:, None], cols.clip(0, w - 1)[None, :]]
