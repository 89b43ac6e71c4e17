"""Selective state-space scan: input-dependent discretized linear recurrence.

A layer carries per-channel diagonal dynamics. For an input sequence
x[L, C] the layer produces, per channel c and state n:

    dt   = softplus(x @ dt_w + dt_b)            step sizes, > 0
    b_t  = x @ b_w                              per-step input gains
    c_t  = x @ c_w                              per-step readout
    a    = -exp(a_log)                          < 0, so decays lie in (0, 1)
    decay = exp(dt * a)
    gain  = ((decay - 1) / a) * b_t             exact zero-order-hold gain
    h_k  = decay_k * h_{k-1} + gain_k * x_k     with h_0 = 0
    y_k  = <c_k, h_k> + skip * x_k

Near dt*a = 0 the gain switches to the second-order series
dt*(1 + z/2 + z^2/6), which agrees with the exact branch to ~1e-13 relative
at the 1e-4 threshold and removes the 0/0.

One call scans K layers with their own weights (the four directions of
ss2d) as a stacked batch, and the single-layer scans are its K = 1 case.
The per-state work runs state-major, [T, K, B, N, C], in L-chunks of T steps
whose state array fits the cache-sized ops._BLOCK_BYTES, so no array of all
L states is ever formed (the selective-scan kernel of Mamba, Gu & Dao 2023,
section 3.3.2; chunks with a carried state as in Mamba-2). The forward
carries h across chunk boundaries and keeps only each chunk's entry state;
the backward walks the chunks in reverse, recomputes the discretization and
the states of a chunk from its entry state, and carries the adjoint back
across the boundary. Inside a chunk the model's scan runs the recurrence
step by step (linear_recurrence_seq). The work-efficient (Blelloch-style)
parallel scan over the associative combine
(a2, b2) o (a1, b1) = (a1*a2, a2*b1 + b2), linear_recurrence_par, is the
pair the checks compare it with: selective_scan_par runs it, and so does the
model's scan when it is put in linear_recurrence_seq's place on this module,
which the scan looks up at call time. Both give the same result to rounding;
the backward pass is itself a reversed scan of the same form.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ops
from .ops import _sigmoid, _softplus

SERIES_THRESHOLD = 1e-4


@dataclass
class SsmParams:
    """Weights for one selective-scan layer (C channels, N states each)."""

    a_log: np.ndarray   # [C, N] log-magnitude of the negated state decay rate
    skip: np.ndarray    # [C]    pass-through gain on the input
    dt_w: np.ndarray    # [C, C] step-size projection
    dt_b: np.ndarray    # [C]
    b_w: np.ndarray     # [C, N] input-gain projection
    c_w: np.ndarray     # [C, N] readout projection

    @property
    def channels(self) -> int:
        return self.a_log.shape[0]

    @property
    def state_dim(self) -> int:
        return self.a_log.shape[1]

    def materialized_a(self):
        return -np.exp(self.a_log)


def init_ssm_params(channels, state_dim, rng):
    """Random init: decay rates span [1, N] per channel, softplus(dt_b) is
    log-uniform in [0.01, 0.1], projections are fan-in uniform."""
    a = np.tile(np.arange(1.0, state_dim + 1.0), (channels, 1))
    dt = np.exp(rng.uniform(math.log(0.01), math.log(0.1), size=channels))
    bound = 1.0 / math.sqrt(channels)
    return SsmParams(
        a_log=np.log(a),
        skip=np.ones(channels),
        dt_w=rng.uniform(-bound, bound, size=(channels, channels)),
        dt_b=np.log(np.expm1(dt)),  # softplus inverse
        b_w=rng.uniform(-bound, bound, size=(channels, state_dim)),
        c_w=rng.uniform(-bound, bound, size=(channels, state_dim)),
    )


def s6_project(x, p: SsmParams):
    """Per-step parameterization: (pre, input gains, readout) from the input.

    x: [L, C] (or [B, L, C]). The step sizes are dt = ops._softplus(pre),
    strictly positive; the scan computes them chunk by chunk, and its
    backward pass needs pre for softplus' = sigmoid(pre).
    """
    return x @ p.dt_w + p.dt_b, x @ p.b_w, x @ p.c_w


@dataclass
class DiscretizedPair:
    """Per-step decay factors and input gains of the held-input discretization,
    with the branch factor and branch mask that the scan's backward pass needs."""

    decay: np.ndarray  # exp(dt * a), in (0, 1) for a < 0, dt > 0
    gain: np.ndarray   # g * b_t
    g: np.ndarray      # (decay - 1) / a, series branch near dt*a = 0
    small: np.ndarray  # True where the series branch is taken

    @classmethod
    def empty(cls, shape, dtype):
        """Uninitialized arrays of one shape, to pass as discretize_zoh's out."""
        return cls(decay=np.empty(shape, dtype), gain=np.empty(shape, dtype),
                   g=np.empty(shape, dtype), small=np.empty(shape, dtype=bool))

    def __getitem__(self, index):
        """The same entries of all four arrays, as views."""
        return DiscretizedPair(decay=self.decay[index], gain=self.gain[index],
                               g=self.g[index], small=self.small[index])


def discretize_zoh(a, b_t, dt, out=None):
    """Discretize diagonal dynamics a under step sizes dt with held inputs.

    State-major shapes: a: [N, C], or any shape that broadcasts against
    dt[..., None, :]; b_t: [L, N] (or [..., L, N]); dt: [L, C] (or
    [..., L, C]). Returns decay and gain of shape [..., L, N, C]. The series
    branch is evaluated only where |dt*a| is below the threshold. out, a
    DiscretizedPair of that shape, receives the result in place of fresh
    arrays (the scan reuses one across its chunks).
    """
    if np.any(dt <= 0.0):
        raise ValueError("discretize_zoh: step sizes must be strictly positive")
    z = np.multiply(dt[..., None, :], a, out=None if out is None else out.gain)
    if out is None:
        out = DiscretizedPair(decay=np.empty_like(z), gain=z, g=np.empty_like(z),
                              small=np.empty(z.shape, dtype=bool))
    decay = np.exp(z, out=out.decay)
    g = np.expm1(z, out=out.g)
    g /= a
    small = np.logical_and(-SERIES_THRESHOLD < z, z < SERIES_THRESHOLD, out=out.small)
    if small.any():
        zs = z[small]
        g[small] = np.broadcast_to(dt[..., None, :], z.shape)[small] * (1.0 + zs / 2.0 + (zs * zs) / 6.0)
    np.multiply(g, np.asarray(b_t)[..., None], out=z)  # the gain; z is not needed past here
    return out


# ---------------------------------------------------------------------------
# Linear recurrence h_k = a_k * h_{k-1} + u_k with h_0 = 0, over axis 0.


def linear_recurrence_seq(a, u, out=None):
    """Step-by-step evaluation; a, u: [L, ...]. a[0] is never read. The
    result is written to out when given, which may be u itself."""
    if out is None:
        out = u.copy()
    elif out is not u:
        out[...] = u
    for k in range(1, out.shape[0]):
        out[k] += a[k] * out[k - 1]
    return out


def linear_recurrence_par(a, u, out=None):
    """Work-efficient scan: pad to a power of two with the identity (1, 0),
    then an in-place up-sweep / down-sweep over the combine
    (a2, b2) o (a1, b1) = (a1*a2, a2*b1 + b2). The result is copied to out
    when given, which may be u itself."""
    L = a.shape[0]
    if L == 0:
        return u.copy() if out is None else out
    P = 1 << (L - 1).bit_length()
    av = np.ones((P,) + a.shape[1:], dtype=a.dtype)
    uv = np.zeros((P,) + u.shape[1:], dtype=u.dtype)
    av[:L] = a
    uv[:L] = u
    levels = P.bit_length() - 1
    for d in range(levels):
        step = 1 << (d + 1)
        half = 1 << d
        idx = np.arange(step - 1, P, step)
        prev = idx - half
        uv[idx] += av[idx] * uv[prev]
        av[idx] *= av[prev]
    for d in range(levels - 2, -1, -1):
        step = 1 << (d + 1)
        half = 1 << d
        idx = np.arange(step - 1, P - half, step)
        tgt = idx + half
        uv[tgt] += av[tgt] * uv[idx]
        av[tgt] *= av[idx]
    if out is None:
        return uv[:L]
    out[...] = uv[:L]
    return out


# ---------------------------------------------------------------------------
# Full selective scan with analytic backward pass.


def _stacked(params):
    """K layers' weights as one SsmParams whose arrays lead with K and
    broadcast against [K, B, L, .] inputs (a_log stays [K, C, N])."""
    def st(field):
        return np.stack([getattr(p, field) for p in params])

    return SsmParams(a_log=st("a_log"), skip=st("skip")[:, None, None], dt_w=st("dt_w")[:, None],
                     dt_b=st("dt_b")[:, None, None], b_w=st("b_w")[:, None], c_w=st("c_w")[:, None])


def _to_steps(a):
    """[K, B, L, ...] -> contiguous [L, K, B, ...]: the recurrence runs over axis 0."""
    return np.ascontiguousarray(np.moveaxis(a, 2, 0))


def _chunks(length, step_bytes):
    """[start, stop) bounds of the L-chunks: as many steps as keep one state
    array of step_bytes a step within ops._BLOCK_BYTES, at least one."""
    t = max(1, ops._BLOCK_BYTES // step_bytes)
    return [(s, min(s + t, length)) for s in range(0, length, t)]


def _sum_states(p):
    """Sum p [..., N, C] over N, in place, by folding the upper half of the
    states onto the lower until one is left. The order of the additions is
    fixed (a pairwise tree), whatever SIMD width a numpy reduction would
    pick on the machine. Returns a [..., C] view of p."""
    n = p.shape[-2]
    while n > 1:
        half = 1 << ((n - 1).bit_length() - 1)
        p[..., : n - half, :] += p[..., half:n, :]
        n = half
    return p[..., 0, :]


def _selective_scan(x, params, parallel: bool):
    """K independent selective scans in one pass. x: [K, B, L, C]; params: K
    SsmParams (the same object may repeat). Returns (y [K, B, L, C], vjp) with
    vjp(dy) -> (dx [K, B, L, C], [SsmParams gradient per layer]).

    The projections run on whole sequences and are kept step-major,
    [L, K, B, .], so each recurrence step is one contiguous slice across all
    K layers and the batch. The per-state work runs in L-chunks of T steps
    on state-major [T, K, B, N, C] arrays that fit ops._BLOCK_BYTES, and a
    chunk's step sizes dt = softplus(pre) are computed with it:

    - forward: a chunk's states start from the carried state h_in of the one
      before, u[0] += decay[0] * h_in, and the readout is written chunk by
      chunk. The vjp keeps only the step-major xs, pre, bs and cs and one
      [K, B, N, C] entry state per chunk: never the states or the step
      sizes, nor a batch-major copy of x or pre;
    - backward: the chunks run in reverse; each recomputes its step sizes,
      discretization and states from pre and its entry state, then runs the
      adjoint mu = decay * lam with the carried mu_in of the chunk after it:
      v[-1] += decay[-1] * mu_in, lam[-1] += mu_in and, for the chain term
      through decay, q[0] = mu[0] * h_in. The weight gradients then rebuild
      the batch-major x from xs.

    Each chunk makes one recurrence call forward and two backward (the
    recompute and the adjoint), sequential or Blelloch by `parallel`. The
    chunks of one pass share their [T, ...] work arrays, so these are paged
    in once per pass, not once per chunk.
    """
    K, B, L, C = x.shape
    for p in params:
        if C != p.channels:
            raise ValueError(f"input has {C} channels, params expect {p.channels}")
    N = params[0].state_dim
    scan_fn = linear_recurrence_par if parallel else linear_recurrence_seq
    ps = _stacked(params)
    xs, pres, bs, cs = (_to_steps(v) for v in (x, *s6_project(x, ps)))
    a_cn = ps.materialized_a()                   # [K,C,N]
    a = np.swapaxes(a_cn, 1, 2)[:, None]         # [K,1,N,C]: broadcasts against [T,K,B,N,C]
    skip = ps.skip[:, 0]                         # [K,1,C]
    chunks = _chunks(L, x.itemsize * K * B * N * C)
    work = (max((e - s for s, e in chunks), default=0), K, B, N, C)  # [T,K,B,N,C]

    def states(s, e, h_in, out):
        """Step sizes, discretization and states of steps [s, e), entered
        with state h_in, in the first e - s steps of the work arrays out."""
        dt = _softplus(pres[s:e])
        pair = discretize_zoh(a, bs[s:e], dt, out=out[: e - s])
        u = pair.gain
        u *= xs[s:e, ..., None, :]
        if h_in is not None:
            u[0] += pair.decay[0] * h_in
        return dt, pair, scan_fn(pair.decay, u, out=u)

    ys = np.empty_like(xs)                       # [L,K,B,C]
    h_ins = [None]                               # entry state of each chunk
    pair_buf = DiscretizedPair.empty(work, x.dtype)
    for s, e in chunks:
        h = states(s, e, h_ins[-1], pair_buf)[2]
        h_ins.append(h[-1].copy())
        h *= cs[s:e, ..., None]
        ys[s:e] = _sum_states(h)
    del h_ins[-1]
    ys += skip * xs
    y = np.moveaxis(ys, 0, 2)

    def vjp(dy):
        dys = _to_steps(dy)                                   # [L,K,B,C]
        dskip = np.einsum("lkbc,lkbc->kc", dys, xs)
        dxs, ddt = np.empty_like(xs), np.empty_like(xs)
        db_t, dc_t = np.empty_like(bs), np.empty_like(cs)
        da = np.zeros((K, N, C), dtype=xs.dtype)
        pair_buf = DiscretizedPair.empty(work, xs.dtype)
        lam_buf, v_buf, w_buf = (np.empty(work, xs.dtype) for _ in range(3))
        mu_in = None
        for (s, e), h_in in zip(reversed(chunks), reversed(h_ins)):
            dt_c, pair, h = states(s, e, h_in, pair_buf)
            decay, g = pair.decay, pair.g
            dy_c, x_c, b_c = dys[s:e], xs[s:e], bs[s:e]
            np.einsum("tkbc,tkbnc->tkbn", dy_c, h, out=dc_t[s:e])
            # d_h, then the adjoint
            lam = np.multiply(dy_c[..., None, :], cs[s:e, ..., None], out=lam_buf[: e - s])
            # The adjoint lam_k = d_h_k + decay_{k+1} * lam_{k+1} runs right to left.
            # In terms of mu = decay * lam it is the forward recurrence
            # mu_k = decay_k * mu_{k+1} + decay_k * d_h_k over reversed views.
            v = np.multiply(lam, decay, out=v_buf[: e - s])
            if mu_in is not None:
                v[-1] += decay[-1] * mu_in
                lam[-1] += mu_in
            mu = scan_fn(decay[::-1], v[::-1], out=v[::-1])[::-1]
            lam[:-1] += mu[1:]
            mu_in = mu[0].copy()
            # chain through decay = exp(z): lam_k * h_{k-1} * decay_k = mu_k * h_{k-1}
            q = mu
            q[1:] *= h[:-1]
            if h_in is None:
                q[0] = 0.0
            else:
                q[0] *= h_in
            lam_g = np.multiply(lam, g, out=w_buf[: e - s])
            dxs[s:e] = dy_c * skip + np.einsum("tkbnc,tkbn->tkbc", lam_g, b_c)
            np.einsum("tkbnc,tkbc->tkbn", lam_g, x_c, out=db_t[s:e])
            dg = lam
            dg *= x_c[..., None, :]
            dg *= b_c[..., None]
            # partials of g wrt dt and a: decay and (dt*decay - g)/a off the series
            # branch, the derivatives of dt*(1 + z/2 + z^2/6) on it
            g_dt = decay
            g_a = np.multiply(dt_c[..., None, :], decay, out=lam_g)
            g_a -= g
            g_a /= a
            if pair.small.any():
                small = pair.small
                g_dt = decay.copy()
                dt_s = np.broadcast_to(dt_c[..., None, :], g.shape)[small]
                z_s = dt_s * np.broadcast_to(a, g.shape)[small]
                g_dt[small] = 1.0 + z_s + (z_s * z_s) / 2.0
                g_a[small] = dt_s * dt_s * (0.5 + z_s / 3.0)
            ddt[s:e] = np.einsum("tkbnc,knc->tkbc", q, a[:, 0]) + np.einsum("tkbnc,tkbnc->tkbc", dg, g_dt)
            da += np.einsum("tkbnc,tkbc->knc", q, dt_c) + np.einsum("tkbnc,tkbnc->knc", dg, g_a)
        # batch-major x and dpre: the weight gradients' sums run in this layout
        x = np.ascontiguousarray(np.moveaxis(xs, 0, 2))        # [K,B,L,C]
        dpre = np.multiply(np.moveaxis(ddt, 0, 2), np.moveaxis(_sigmoid(pres), 0, 2),
                           out=np.empty_like(x))
        db_t = np.moveaxis(db_t, 0, 2)
        dc_t = np.moveaxis(dc_t, 0, 2)
        dx = np.moveaxis(dxs, 0, 2) + (dpre @ np.swapaxes(ps.dt_w, -1, -2)
                                       + db_t @ np.swapaxes(ps.b_w, -1, -2)
                                       + dc_t @ np.swapaxes(ps.c_w, -1, -2))
        xt = np.swapaxes(x.reshape(K, B * L, C), 1, 2)
        ddt_w = xt @ dpre.reshape(K, B * L, C)
        ddt_b = dpre.sum(axis=(1, 2))
        db_w = xt @ db_t.reshape(K, B * L, N)
        dc_w = xt @ dc_t.reshape(K, B * L, N)
        da_log = np.swapaxes(da, 1, 2) * a_cn
        dps = [SsmParams(a_log=da_log[k], skip=dskip[k], dt_w=ddt_w[k], dt_b=ddt_b[k],
                         b_w=db_w[k], c_w=dc_w[k]) for k in range(K)]
        return dx, dps

    return y, vjp


def _single_scan(x, p: SsmParams, parallel: bool):
    """One layer: the K = 1 case of _selective_scan."""
    y, vjp_k = _selective_scan(x[None], [p], parallel)

    def vjp(dy):
        dx, (dp,) = vjp_k(dy[None])
        return dx[0], dp

    return y[0], vjp


def selective_scan_seq(x, p: SsmParams):
    """Sequential evaluation of one selective-scan layer over a batch of
    sequences x [B, L, C]. Returns (y [B, L, C], vjp) with
    vjp(dy) -> (dx [B, L, C], SsmParams gradient)."""
    return _single_scan(x, p, parallel=False)


def selective_scan_par(x, p: SsmParams):
    """Parallel-scan evaluation of selective_scan_seq: same shapes, and the
    same result to rounding."""
    return _single_scan(x, p, parallel=True)


# ---------------------------------------------------------------------------
# Runtime evidence for the linear-complexity claim.


def _time_call(fn, reps):
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts))


def bench_scan(lengths=None, reps=11):
    """Median-of-reps timings of both scan evaluations (C=2, N=2) per length.

    Returns rows {length, t_seq, t_par} plus seq/par doubling ratios between
    consecutive lengths.
    """
    if lengths is None:
        lengths = [1 << k for k in range(12, 19)]
    rng = np.random.default_rng(0)
    p = init_ssm_params(2, 2, rng)
    rows = []
    for L in lengths:
        x = rng.standard_normal((1, L, 2)) * 0.5
        # warm up caches and allocation paths
        selective_scan_seq(x[:, : min(L, 64)], p)
        t_seq = _time_call(lambda: selective_scan_seq(x, p), reps)
        t_par = _time_call(lambda: selective_scan_par(x, p), reps)
        rows.append({"length": L, "t_seq": t_seq, "t_par": t_par})
    for i, row in enumerate(rows):
        if i == 0:
            row["ratio_seq"] = None
            row["ratio_par"] = None
        else:
            row["ratio_seq"] = row["t_seq"] / rows[i - 1]["t_seq"]
            row["ratio_par"] = row["t_par"] / rows[i - 1]["t_par"]
    return rows
