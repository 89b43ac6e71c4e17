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
replays the kept vjps last first into one flat gradient dict by dotted name.

Layout conventions: feature axes last for pointwise/affine ops; the convs
take image batches ``[B, C, H, W]`` only, and the resamplers act on the last
two axes of any array. Every operation computes in its input's float dtype,
work arrays included, so float32 in gives float32 out. The resamplers take
an integer array as float64; the convs take float batches only. as_float is
the one dtype decision of both stages' entries: float32 stays float32, and
anything else becomes float64.

conv2d's output and its dx are each a sum over kernel taps of a matrix times
a shifted slice of padded rows (_tap_sums). A fixed shape rule picks how:
when the contracted side (Cin for the output, Cout for dx) has fewer than
_NARROW = 8 channels and the kernel more than one tap, the taps' slices are
stacked into one column for a single GEMM; otherwise each tap runs its own
GEMM, accumulated in tap order. At the default configs only Stage 1's
3-channel convs stack; every Stage-2 conv runs per tap.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .trees import tree_flatten


def as_float(x):
    """x as the array a stage computes in: itself when it is a float32 array,
    else a float64 array."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


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
    xp = np.zeros((bsz, c, h + kh - 1 + (kw > 1), wp), dtype=x.dtype)
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    taps = [(u, v, u * wp + v) for u in range(kh) for v in range(kw)]

    def crop(f, r=h, off=0):
        return f[..., off : off + r * wp].reshape(f.shape[:-1] + (r, wp))[..., :wd]

    def stage(buf, d):
        crop(buf, d.shape[-2])[...] = d
        return buf[..., : d.shape[-2] * wp]

    return xp.reshape(bsz, c, -1), wp, taps, crop, stage


# A contracted side narrower than this makes each tap's GEMM too thin to run
# fast, so _tap_sums stacks the taps into one GEMM instead.
_NARROW = 8


def _tap_sums(mats, f, offs, h, wp, rows):
    """The sum over a conv's taps k of mats[k] @ f[:, :, s + offs[k] : s + offs[k] + r*wp],
    for f [B, C, Hp*Wp] from _padded_rows and mats [taps, N, C], in blocks of
    at most rows of the h output rows. Yields (i, r, a) per block of r rows
    from row i, with a [B, N, r*wp] on _padded_rows' grid, reused by the next
    block. Per tap, one GEMM each, added up in tap order. When C < _NARROW
    and there is more than one tap, stacked: the taps' slices are copied into
    one [B, taps*C, r*wp] column for a single GEMM with mats as [N, taps*C]."""
    nt, n, c = mats.shape
    bsz = f.shape[0]
    stacked = c < _NARROW and nt > 1
    acc = np.empty((bsz, n, rows * wp), dtype=f.dtype)
    if stacked:
        wcol = mats.transpose(1, 0, 2).reshape(n, nt * c)
        col = np.empty((bsz, nt, c, rows * wp), dtype=f.dtype)
        cols = col.reshape(bsz, nt * c, rows * wp)
    else:
        tmp = np.empty_like(acc)
    for i in range(0, h, rows):
        r = min(rows, h - i)
        s, m = i * wp, r * wp
        a = acc[:, :, :m]
        if stacked:
            for k, off in enumerate(offs):
                col[:, k, :, :m] = f[:, :, s + off : s + off + m]
            np.matmul(wcol, cols[:, :, :m], out=a)
        else:
            t = tmp[:, :, :m]
            for k, off in enumerate(offs):
                np.matmul(mats[k], f[:, :, s + off : s + off + m], out=t if k else a)
                if k:
                    a += t
        yield i, r, a


def depthwise_conv2d(x, k):
    """Per-channel 2d convolution, odd kernel, zero same-padding.

    x: [B,C,H,W]; k: [C,kh,kw]. Channel i of the output depends only on
    channel i of the input. One multiply-add per tap on _padded_rows.
    """
    xf, wp, taps, crop, stage = _padded_rows(x, *k.shape, "depthwise_conv2d")
    m = x.shape[2] * wp
    y = np.zeros(xf.shape[:2] + (m,), dtype=xf.dtype)
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

    x: [B,Cin,H,W]; w: [Cout,Cin,kh,kw]; b: [Cout]. The output and dx are
    each a _tap_sums on _padded_rows, in row blocks of Cout-wide rows sized
    to stay in cache: y sums w[:, :, u, v] @ slice over the taps of x, and dx
    sums w[:, :, u, v].T @ slice over the mirrored taps of dy. A side of
    fewer than _NARROW channels is contracted in one GEMM over all taps
    (Cin < 8 for y, Cout < 8 for dx), a wider one in one GEMM per tap. dw
    takes one GEMM per tap and block, dw[:, :, u, v] += dy @ slice.T.
    """
    co, ci, kh, kw = w.shape
    if np.shape(b) != (co,):
        raise ValueError(f"conv2d: bias shape {np.shape(b)} does not match ({co},), "
                         f"the output channels of weight shape {w.shape}")
    xf, wp, taps, crop, _ = _padded_rows(x, ci, kh, kw, "conv2d")
    bsz, _, h, wd = x.shape
    # [kh, kw, Cout, Cin]: each tap's matrix is contiguous, so BLAS takes it as is
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    rows = max(1, min(h, _BLOCK_BYTES // max(1, xf.itemsize * bsz * co * wp)))
    offs = [off for _u, _v, off in taps]

    y = np.empty((bsz, co, h, wd), dtype=xf.dtype)
    for i, r, a in _tap_sums(wt.reshape(-1, co, ci), xf, offs, h, wp, rows):
        np.add(crop(a, r), b[None, :, None, None], out=y[:, :, i : i + r])

    def vjp(dy):
        db = dy.sum(axis=(0, 2, 3))
        # dy padded like x: dx's tap (u, v) reads it at the mirrored tap's
        # offset, and from the centre tap's offset on it is dy on the output
        # grid with zero wrap columns, the rows dw contracts with x's slices
        dyf = _padded_rows(dy.astype(xf.dtype, copy=False), co, kh, kw, "conv2d")[0]
        centre = offs[len(offs) // 2]
        dwt = np.zeros_like(wt)
        dx = np.empty((bsz, ci, h, wd), dtype=xf.dtype)
        wtt = wt.transpose(0, 1, 3, 2).reshape(-1, ci, co)
        for i, r, a in _tap_sums(wtt, dyf, offs[::-1], h, wp, rows):
            dx[:, :, i : i + r] = crop(a, r)
            s, m = i * wp, r * wp
            g = dyf[:, :, centre + s : centre + s + m]
            for u, v, off in taps:
                dwt[u, v] += (g @ xf[:, :, s + off : s + off + m].transpose(0, 2, 1)).sum(axis=0)
        return dx, dwt.transpose(2, 3, 0, 1).copy(), db

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
    return the walk input's gradient. The weight gradients, trees or such
    dicts, go into the flat dict grads by dotted name under their names."""
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
    dt = x.dtype if x.dtype.kind == "f" else np.float64  # integers resample in float64
    mr = _resample_matrix(h, out_h, mode).astype(dt, copy=False)
    mc = _resample_matrix(w, out_w, mode).astype(dt, copy=False)
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
