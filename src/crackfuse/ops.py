"""Differentiable array primitives.

Every operation here is pure and returns ``(output, vjp)`` where ``vjp`` maps
an upstream cotangent of the output's shape to gradients for each
differentiable input, in argument order. There is no tape: composite layers
chain these closures by hand in reverse order.

Layout conventions: feature axes last for pointwise/affine ops; the convs
take image batches ``[B, C, H, W]`` only, and the resamplers act on the last
two axes of any array.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softplus(x):
    """log(1 + exp(x)) without overflow. This is the formula np.logaddexp(0, x)
    evaluates element by element; the vectorized exp and log1p run several
    times faster and agree with it to within an ulp or two."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    s = _sigmoid(x)

    def vjp(dy):
        return (dy * s * (1.0 - s),)

    return s, vjp


def silu(x):
    """x * sigmoid(x), elementwise."""
    s = _sigmoid(x)
    y = x * s

    def vjp(dy):
        return (dy * (s * (1.0 + x * (1.0 - s))),)

    return y, vjp


def relu(x):
    y = np.maximum(x, 0.0)

    def vjp(dy):
        return (dy * (x > 0.0),)

    return y, vjp


def softplus(x):
    y = _softplus(x)
    s = _sigmoid(x)

    def vjp(dy):
        return (dy * s,)

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
        dx = dy @ w.T
        x2 = x.reshape(-1, w.shape[0])
        dy2 = dy.reshape(-1, w.shape[1])
        dw = x2.T @ dy2
        db = dy2.sum(axis=0)
        return dx, dw, db

    return y, vjp


def depthwise_conv2d(x, k):
    """Per-channel 2d convolution, odd kernel, zero same-padding.

    x: [B,C,H,W]; k: [C,kh,kw]. Channel i of the output depends only on
    channel i of the input.
    """
    c, kh, kw = k.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"depthwise_conv2d: kernel extents must be odd, got {kh}x{kw}")
    if x.shape[1] != c:
        raise ValueError(f"depthwise_conv2d: {x.shape[1]} channels vs kernel {c}")
    b, _, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    y = np.zeros_like(x)
    for u in range(kh):
        for v in range(kw):
            y += k[:, u, v][None, :, None, None] * xp[:, :, u : u + h, v : v + w]

    def vjp(dy):
        dk = np.empty_like(k)
        dxp = np.zeros_like(xp)
        for u in range(kh):
            for v in range(kw):
                patch = xp[:, :, u : u + h, v : v + w]
                dk[:, u, v] = np.einsum("bchw,bchw->c", dy, patch)
                dxp[:, :, u : u + h, v : v + w] += k[:, u, v][None, :, None, None] * dy
        return dxp[:, :, ph : ph + h, pw : pw + w], dk

    return y, vjp


# Bytes of one row block's accumulator in conv2d: small enough that it and
# its tap product stay in a core's cache and are reused from call to call
# instead of being freshly paged in.
_CONV_BLOCK_BYTES = 1 << 19


def conv2d(x, w, b):
    """Dense 2d convolution, odd kernel, zero same-padding.

    x: [B,Cin,H,W]; w: [Cout,Cin,kh,kw]; b: [Cout].

    Evaluated as one GEMM per kernel tap on shifted slices of the padded
    input, with no window copies. Each padded image (Hp x Wp) is viewed as
    one flat row of Hp*Wp pixels. Output pixel (i, j) of tap (u, v) reads
    flat position (i*Wp + j) + (u*Wp + v), so a tap's input for output rows
    [i0, i1) is the contiguous slice [i0*Wp + off, i1*Wp + off) with
    off = u*Wp + v, and ``w[:, :, u, v] @ slice`` is its contribution. The
    sum is formed on an [rows, Wp] grid whose last 2*pw columns wrap into the
    next row and are dropped; one extra zero row at the bottom keeps the
    last tap's slice in bounds. Output rows are taken in blocks sized to
    stay in cache. The vjp runs the same slices, with zeros in the wrap
    columns of the upstream: per tap, dw += dy @ slice.T and
    dx[slice] += w.T @ dy. Memory stays O(image).
    """
    co, ci, kh, kw = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    if x.shape[1] != ci:
        raise ValueError(f"conv2d: input has {x.shape[1]} channels, weight expects {ci}")
    bsz, _, h, wd = x.shape
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph + (pw > 0), wd + 2 * pw
    xp = np.zeros((bsz, ci, hp, wp))
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    xf = xp.reshape(bsz, ci, hp * wp)
    # [kh, kw, Cout, Cin]: each tap's matrix is contiguous, so BLAS takes it as is
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    taps = [(u, v, u * wp + v) for u in range(kh) for v in range(kw)]
    rows = max(1, min(h, _CONV_BLOCK_BYTES // max(1, 8 * bsz * co * wp)))
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
        np.add(a.reshape(bsz, co, r, wp)[..., :wd], b[None, :, None, None],
               out=y[:, :, i : i + r])

    def vjp(dy):
        db = dy.sum(axis=(0, 2, 3))
        dwt = np.zeros_like(wt)
        dxf = np.zeros_like(xf)
        dyb = np.zeros((bsz, co, rows, wp))  # the wrap columns stay zero
        tmp = np.empty((bsz, ci, rows * wp))
        for i, r in blocks:
            s, m = i * wp, r * wp
            dyb[:, :, :r, :wd] = dy[:, :, i : i + r]
            g, t = dyb.reshape(bsz, co, rows * wp)[:, :, :m], tmp[:, :, :m]
            for u, v, off in taps:
                dwt[u, v] += (g @ xf[:, :, s + off : s + off + m].transpose(0, 2, 1)).sum(axis=0)
                dxf[:, :, s + off : s + off + m] += np.matmul(wt[u, v].T, g, out=t)
        dx = dxf.reshape(bsz, ci, hp, wp)[:, :, ph : ph + h, pw : pw + wd]
        return dx, dwt.transpose(2, 3, 0, 1).copy(), db

    return y, vjp


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
