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
The recurrence runs either step by step, which the model uses, or as a
work-efficient (Blelloch-style) parallel scan over the associative combine
(a2, b2) o (a1, b1) = (a1*a2, a2*b1 + b2). Both give the same result; the
backward pass is itself a reversed scan of the same form.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

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


def init_ssm_params(channels, state_dim, rng, dt_min=0.01, dt_max=0.1):
    """Random init: decay rates span [1, N] per channel, softplus(dt_b) is
    log-uniform in [dt_min, dt_max], projections are fan-in uniform."""
    a = np.tile(np.arange(1.0, state_dim + 1.0), (channels, 1))
    dt = np.exp(rng.uniform(math.log(dt_min), math.log(dt_max), size=channels))
    bound = 1.0 / math.sqrt(channels)
    return SsmParams(
        a_log=np.log(a),
        skip=np.ones(channels),
        dt_w=rng.uniform(-bound, bound, size=(channels, channels)),
        dt_b=np.log(np.expm1(dt)),  # softplus inverse
        b_w=rng.uniform(-bound, bound, size=(channels, state_dim)),
        c_w=rng.uniform(-bound, bound, size=(channels, state_dim)),
    )


def zeros_like_params(p: SsmParams) -> SsmParams:
    return SsmParams(
        a_log=np.zeros_like(p.a_log), skip=np.zeros_like(p.skip),
        dt_w=np.zeros_like(p.dt_w), dt_b=np.zeros_like(p.dt_b),
        b_w=np.zeros_like(p.b_w), c_w=np.zeros_like(p.c_w),
    )


def _project(x, p: SsmParams):
    """s6_project that also returns the softplus argument, which the scan's
    backward pass needs for softplus' = sigmoid(pre)."""
    pre = x @ p.dt_w + p.dt_b
    return pre, _softplus(pre), x @ p.b_w, x @ p.c_w


def s6_project(x, p: SsmParams):
    """Per-step parameterization: (dt, input gains, readout) from the input.

    x: [L, C] (or [B, L, C]). dt is strictly positive via softplus.
    """
    return _project(x, p)[1:]


@dataclass
class DiscretizedPair:
    """Per-step decay factors and input gains of the held-input discretization,
    with the branch factor and branch mask that the scan's backward pass needs."""

    decay: np.ndarray  # exp(dt * a), in (0, 1) for a < 0, dt > 0
    gain: np.ndarray   # g * b_t
    g: np.ndarray      # (decay - 1) / a, series branch near dt*a = 0
    small: np.ndarray  # True where the series branch is taken


def discretize_zoh(a, b_t, dt):
    """Discretize diagonal dynamics a under step sizes dt with held inputs.

    a: [C, N], or any shape that broadcasts against dt[..., None];
    b_t: [L, N] (or [..., L, N]); dt: [L, C] (or [..., L, C]).
    Returns decay and gain of shape [..., L, C, N]. The series branch is
    evaluated only where |dt*a| is below the threshold.
    """
    dt = np.asarray(dt, dtype=np.float64)
    if np.any(dt <= 0.0):
        raise ValueError("discretize_zoh: step sizes must be strictly positive")
    z = dt[..., None] * a
    decay = np.exp(z)
    g = np.expm1(z)
    g /= a
    small = (-SERIES_THRESHOLD < z) & (z < SERIES_THRESHOLD)
    if small.any():
        zs = z[small]
        g[small] = np.broadcast_to(dt[..., None], z.shape)[small] * (1.0 + zs / 2.0 + (zs * zs) / 6.0)
    gain = np.multiply(g, np.asarray(b_t)[..., None, :], out=z)  # z is not needed past here
    return DiscretizedPair(decay=decay, gain=gain, g=g, small=small)


# ---------------------------------------------------------------------------
# Linear recurrence h_k = a_k * h_{k-1} + u_k with h_0 = 0, over axis 0.


def linear_recurrence_seq(a, u):
    """Step-by-step evaluation; a, u: [L, ...]. a[0] is never read."""
    out = u.copy()
    for k in range(1, out.shape[0]):
        out[k] += a[k] * out[k - 1]
    return out


def linear_recurrence_par(a, u):
    """Work-efficient scan: pad to a power of two with the identity (1, 0),
    then an in-place up-sweep / down-sweep over the combine
    (a2, b2) o (a1, b1) = (a1*a2, a2*b1 + b2)."""
    L = a.shape[0]
    if L == 0:
        return u.copy()
    P = 1 << (L - 1).bit_length()
    av = np.ones((P,) + a.shape[1:], dtype=np.float64)
    uv = np.zeros((P,) + u.shape[1:], dtype=np.float64)
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
    return uv[:L]


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


def _selective_scan(x, params, parallel: bool):
    """K independent selective scans in one pass. x: [K, B, L, C]; params: K
    SsmParams (the same object may repeat). Returns (y [K, B, L, C], vjp) with
    vjp(dy) -> (dx [K, B, L, C], [SsmParams gradient per layer]).

    The [.., C, N] work runs step-major, [L, K, B, C, N], so each recurrence
    step is one contiguous slice across all K layers and the batch.
    """
    x = np.asarray(x, dtype=np.float64)
    K, B, L, C = x.shape
    for p in params:
        if C != p.channels:
            raise ValueError(f"input has {C} channels, params expect {p.channels}")
    N = params[0].state_dim
    scan_fn = linear_recurrence_par if parallel else linear_recurrence_seq
    if L == 0:
        def vjp_empty(dy):
            return np.zeros_like(x), [zeros_like_params(p) for p in params]

        return np.zeros_like(x), vjp_empty

    ps = _stacked(params)
    pre, dt, b_t, c_t = _project(x, ps)          # [K,B,L,C], [K,B,L,N] x2
    a = ps.materialized_a()                      # [K,C,N]
    a5 = a[:, None]                              # broadcasts against [L,K,B,C,N]
    xs, dts, bs, cs = (_to_steps(v) for v in (x, dt, b_t, c_t))
    pair = discretize_zoh(a5, bs, dts)           # [L,K,B,C,N]
    decay, g, small = pair.decay, pair.g, pair.small
    u = pair.gain
    u *= xs[..., None]
    h = scan_fn(decay, u)
    del u, pair
    ys = np.einsum("lkbcn,lkbn->lkbc", h, cs)
    ys += ps.skip[:, 0] * xs
    y = np.moveaxis(ys, 0, 2)

    def vjp(dy):
        dys = _to_steps(np.asarray(dy, dtype=np.float64))    # [L,K,B,C]
        dskip = np.einsum("lkbc,lkbc->kc", dys, xs)
        dc_t = np.einsum("lkbc,lkbcn->lkbn", dys, h)
        lam = dys[..., None] * cs[:, :, :, None, :]           # d_h, then the adjoint
        # The adjoint lam_k = d_h_k + decay_{k+1} * lam_{k+1} runs right to left.
        # In terms of mu = decay * lam it is the forward recurrence
        # mu_k = decay_k * mu_{k+1} + decay_k * d_h_k over reversed views.
        mu = scan_fn(decay[::-1], (lam * decay)[::-1])[::-1]
        lam[:-1] += mu[1:]
        # chain through decay = exp(z): lam_k * h_{k-1} * decay_k = mu_k * h_{k-1}
        q = mu
        q[0] = 0.0
        q[1:] *= h[:-1]
        lam_g = lam * g
        dxs = dys * ps.skip[:, 0] + np.einsum("lkbcn,lkbn->lkbc", lam_g, bs)
        db_t = np.einsum("lkbcn,lkbc->lkbn", lam_g, xs)
        dg = lam
        dg *= xs[..., None]
        dg *= bs[:, :, :, None, :]
        # partials of g wrt dt and a: decay and (dt*decay - g)/a off the series
        # branch, the derivatives of dt*(1 + z/2 + z^2/6) on it
        g_dt = decay
        g_a = np.multiply(dts[..., None], decay, out=lam_g)
        g_a -= g
        g_a /= a5
        if small.any():
            g_dt = decay.copy()
            dt_s = np.broadcast_to(dts[..., None], g.shape)[small]
            z_s = dt_s * np.broadcast_to(a5, g.shape)[small]
            g_dt[small] = 1.0 + z_s + (z_s * z_s) / 2.0
            g_a[small] = dt_s * dt_s * (0.5 + z_s / 3.0)
        ddt = np.einsum("lkbcn,kcn->lkbc", q, a) + np.einsum("lkbcn,lkbcn->lkbc", dg, g_dt)
        da = np.einsum("lkbcn,lkbc->kcn", q, dts) + np.einsum("lkbcn,lkbcn->kcn", dg, g_a)
        dpre = np.moveaxis(ddt, 0, 2) * _sigmoid(pre)          # [K,B,L,C]
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
        da_log = da * a
        dps = [SsmParams(a_log=da_log[k], skip=dskip[k], dt_w=ddt_w[k], dt_b=ddt_b[k],
                         b_w=db_w[k], c_w=dc_w[k]) for k in range(K)]
        return dx, dps

    return y, vjp


def _single_scan(x, p: SsmParams, parallel: bool):
    """One layer: the K = 1 case of _selective_scan on [L, C] or [B, L, C]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError(f"selective scan expects [L,C] or [B,L,C], got shape {x.shape}")
    squeeze = x.ndim == 2
    y, vjp_k = _selective_scan((x[None] if squeeze else x)[None], [p], parallel)

    def vjp(dy):
        dy = np.asarray(dy, dtype=np.float64)
        dx, (dp,) = vjp_k((dy[None] if squeeze else dy)[None])
        return (dx[0, 0] if squeeze else dx[0]), dp

    return (y[0, 0] if squeeze else y[0]), vjp


def selective_scan_seq(x, p: SsmParams):
    """Sequential evaluation of the selective scan. Returns (y, vjp)."""
    return _single_scan(x, p, parallel=False)


def selective_scan_par(x, p: SsmParams):
    """Parallel-scan evaluation; same result as the sequential form."""
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


def bench_scan(lengths=None, reps=11, channels=2, state_dim=2, seed=0):
    """Median-of-reps timings of both scan evaluations for each length.

    Returns rows {length, t_seq, t_par} plus seq/par doubling ratios between
    consecutive lengths.
    """
    if lengths is None:
        lengths = [1 << k for k in range(12, 19)]
    rng = np.random.default_rng(seed)
    p = init_ssm_params(channels, state_dim, rng)
    rows = []
    for L in lengths:
        x = rng.standard_normal((L, channels)) * 0.5
        # warm up caches and allocation paths
        selective_scan_seq(x[: min(L, 64)], p)
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
