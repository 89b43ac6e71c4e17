import tracemalloc

import numpy as np
import pytest

from crackfuse import ops, scan2d, ssm
from crackfuse.gradcheck import grad_check
from crackfuse.trees import tree_flatten


def _orders(h, w):
    """Each direction's sequence of grid positions (row-major), read by
    cross_scan from a grid that holds its own indices."""
    seqs = scan2d.cross_scan(np.arange(h * w).reshape(1, h, w, 1))
    return {d: s[0, :, 0] for d, s in zip(scan2d.DIRECTIONS, seqs)}


def test_orders_2x2():
    vals = np.array(["a", "b", "c", "d"])
    got = {d: "".join(vals[perm]) for d, perm in _orders(2, 2).items()}
    assert got == {"LR": "abcd", "TB": "acbd", "RL": "dcba", "BT": "dbca"}


def test_orders_1x1():
    for perm in _orders(1, 1).values():
        np.testing.assert_array_equal(perm, [0])


def test_tb_2x3_enumeration():
    np.testing.assert_array_equal(_orders(2, 3)["TB"], [0, 3, 1, 4, 2, 5])


def test_perm_bijection_roundtrip_exhaustive():
    # every grid up to 64x64, all four directions: each order is a
    # permutation, and cross_merge of that direction alone puts it back
    for h in range(1, 65):
        for w in range(1, 65):
            grid = np.arange(h * w).reshape(1, h, w, 1)
            seqs = scan2d.cross_scan(grid)
            assert seqs.shape == (4, 1, h * w, 1)
            for k in range(len(scan2d.DIRECTIONS)):
                assert np.array_equal(np.sort(seqs[k, 0, :, 0]), grid.reshape(-1))
                only = np.zeros_like(seqs)
                only[k] = seqs[k]
                assert np.array_equal(scan2d.cross_merge(only, h, w), grid)


def test_rl_is_reversed_lr():
    orders = _orders(4, 6)
    np.testing.assert_array_equal(orders["RL"], orders["LR"][::-1])


def test_cross_scan_row_runs():
    h, w, c = 3, 5, 1
    x = np.repeat(np.arange(h, dtype=float)[:, None], w, axis=1).reshape(1, h, w, c)
    seqs = dict(zip(scan2d.DIRECTIONS, scan2d.cross_scan(x)))
    lr = seqs["LR"][0, :, 0]
    for row in range(h):
        run = lr[row * w:(row + 1) * w]
        assert np.all(run == run[0])


def test_scan_merge_roundtrip_is_4x():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 4, 5, 3))
    seqs = scan2d.cross_scan(x)
    merged = scan2d.cross_merge(seqs, 4, 5)
    np.testing.assert_allclose(merged, 4.0 * x, atol=1e-14)


def test_merge_single_nonzero_sequence():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 3, 3, 2))
    seqs = scan2d.cross_scan(x)
    only_tb = np.zeros_like(seqs)
    only_tb[1] = seqs[1]
    merged = scan2d.cross_merge(only_tb, 3, 3)
    np.testing.assert_allclose(merged, x)


def test_merge_linearity_and_length_check():
    rng = np.random.default_rng(2)
    seqs = rng.standard_normal((4, 1, 6, 2))
    m1 = scan2d.cross_merge(seqs, 2, 3)
    m2 = scan2d.cross_merge(3.0 * seqs, 2, 3)
    np.testing.assert_allclose(m2, 3.0 * m1)
    with pytest.raises(ValueError, match="length"):
        scan2d.cross_merge(seqs[:, :, :5], 2, 3)


def _skip_only_params(c, n):
    p = ssm.init_ssm_params(c, n, np.random.default_rng(3))
    p.b_w[:] = 0.0
    p.skip[:] = 1.0
    return p


def test_ss2d_all_skip_gives_4x():
    p = _skip_only_params(3, 2)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 5, 4, 3))
    y, _ = scan2d.ss2d(x, [p, p, p, p])
    np.testing.assert_allclose(y, 4.0 * x, atol=1e-12)


def test_ss2d_rot180_equivariance_tied():
    c, n = 3, 2
    p = ssm.init_ssm_params(c, n, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 6, 7, c))
    y, _ = scan2d.ss2d(x, [p, p, p, p])
    xr = x[:, ::-1, ::-1].copy()
    yr, _ = scan2d.ss2d(xr, [p, p, p, p])
    np.testing.assert_allclose(yr, y[:, ::-1, ::-1],
                               rtol=1e-10, atol=1e-12)


def test_ss2d_batched_matches_loop():
    ps = [ssm.init_ssm_params(2, 2, np.random.default_rng(10 + i)) for i in range(4)]
    rng = np.random.default_rng(7)
    xb = rng.standard_normal((3, 4, 4, 2))
    yb, _ = scan2d.ss2d(xb, ps)
    for b in range(3):
        y1, _ = scan2d.ss2d(xb[b:b + 1], ps)
        np.testing.assert_allclose(yb[b:b + 1], y1, rtol=1e-12, atol=1e-14)


def test_ss2d_gradcheck():
    c, n = 2, 2
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 3, 3, c)) * 0.5
    ps = [ssm.init_ssm_params(c, n, np.random.default_rng(20 + i)) for i in range(4)]
    rep = grad_check(scan2d.ss2d, [x, ps], tol=1e-4, name="ss2d")
    assert rep.passed, str(rep)


def _per_direction_oracle(x, ps, dy):
    """ss2d as cross_merge of four independent K = 1 sequential scans."""
    h, w = x.shape[1:3]
    runs = [ssm.selective_scan_seq(s, p) for s, p in zip(scan2d.cross_scan(x), ps)]
    y = scan2d.cross_merge(np.stack([yd for yd, _ in runs]), h, w)
    grads = [vjp_d(dd) for (_, vjp_d), dd in zip(runs, scan2d.cross_scan(dy))]
    dx = scan2d.cross_merge(np.stack([dxd for dxd, _ in grads]), h, w)
    return y, dx, [dp for _, dp in grads]


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def _assert_matches_oracle(x, ps, recurrence, tol=1e-12):
    with recurrence:
        y, vjp = scan2d.ss2d(x, ps)
    dy = np.random.default_rng(41).standard_normal(y.shape)
    dx, dps = vjp(dy)
    y_o, dx_o, dps_o = _per_direction_oracle(x, ps, dy)
    assert _rel(y, y_o) <= tol and _rel(dx, dx_o) <= tol
    got, want = tree_flatten(dps), tree_flatten(dps_o)
    assert list(got) == list(want) and len(got) == 24
    for name in got:
        assert _rel(got[name], want[name]) <= tol, name


@pytest.mark.parametrize("recurrence", ["seq", "par"], indirect=True)
def test_ss2d_batched_matches_per_direction_scans(recurrence):
    ps = [ssm.init_ssm_params(3, 4, np.random.default_rng(50 + i)) for i in range(4)]
    x = np.random.default_rng(51).standard_normal((2, 5, 7, 3))
    _assert_matches_oracle(x, ps, recurrence)
    _assert_matches_oracle(x, [ps[0]] * 4, recurrence)


@pytest.mark.parametrize("recurrence", ["seq", "par"], indirect=True)
def test_ss2d_runs_one_recurrence_each_way(recurrence, monkeypatch):
    # the recurrences are looked up on the module at call time, so a wrapper
    # installed there (as a tracer does, or the recurrence fixture's swap)
    # sees every call: one per chunk forward, and per chunk a recompute and
    # an adjoint backward
    calls = {"linear_recurrence_seq": 0, "linear_recurrence_par": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(ssm, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ssm, name, counted)
    ps = [ssm.init_ssm_params(2, 2, np.random.default_rng(70 + i)) for i in range(4)]
    x = np.random.default_rng(71).standard_normal((2, 3, 5, 2))
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 4 * 8 * (4 * 2 * 2 * 2))  # 4 steps: 15 = 4+4+4+3
    n_chunks = 4
    used = f"linear_recurrence_{recurrence.name}"
    with recurrence:
        y, vjp = scan2d.ss2d(x, ps)
    assert calls == {name: n_chunks if name == used else 0 for name in calls}
    vjp(np.ones_like(y))
    assert calls == {name: 3 * n_chunks if name == used else 0 for name in calls}


def _step_bytes(x, ps):
    """Bytes of one [K, B, N, C] state step of ss2d's scan on the grid x,
    whose dtype the scan computes in."""
    return x.itemsize * 4 * x.shape[0] * ps[0].state_dim * x.shape[-1]


@pytest.mark.parametrize("recurrence", ["seq", "par"], indirect=True)
def test_ss2d_multi_chunk_matches_one_chunk(recurrence, monkeypatch):
    ps = _series_params([1])
    x = np.random.default_rng(72).standard_normal((2, 5, 7, 3)) * 0.5
    dy = np.random.default_rng(73).standard_normal(x.shape)
    with recurrence:
        y1, vjp1 = scan2d.ss2d(x, ps)                          # L = 35 fits one chunk
    dx1, dps1 = vjp1(dy)
    want = tree_flatten(dps1)
    for steps in (1, 3, 34):                                   # 35 chunks; 11 + a 2-step one; 34 + 1
        monkeypatch.setattr(ops, "_BLOCK_BYTES", steps * _step_bytes(x, ps))
        assert len(ssm._chunks(35, _step_bytes(x, ps))) == -(-35 // steps)
        with recurrence:
            y, vjp = scan2d.ss2d(x, ps)
        dx, dps = vjp(dy)
        assert _rel(y, y1) <= 1e-12 and _rel(dx, dx1) <= 1e-12, steps
        got = tree_flatten(dps)
        assert list(got) == list(want) and len(got) == 24
        for name in got:
            assert _rel(got[name], want[name]) <= 1e-12, (steps, name)
    # finite differences through the chunk carries and the series branch
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 2 * _step_bytes(x[:1], ps))
    xs = x[:1, :2, :3]
    assert len(ssm._chunks(6, _step_bytes(xs, ps))) == 3
    with recurrence:
        rep = grad_check(scan2d.ss2d, [xs, ps], tol=1e-4, name="ss2d three chunks")
    assert rep.passed, str(rep)


def test_ss2d_memory_stays_below_one_state_array():
    # C = 8, N = 16, B = 2 on a 32 x 32 grid: one [L, K, B, C, N] float64
    # array of all the states is 8.4 MB; the chunked scan never forms one
    ps = [ssm.init_ssm_params(8, 16, np.random.default_rng(80 + i)) for i in range(4)]
    x = np.random.default_rng(81).standard_normal((2, 32, 32, 8))
    one = 32 * 32 * 4 * 2 * 8 * 16 * 8
    scan2d.ss2d(x, ps)  # first-call allocations (index tables, caches) stay out of the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y, vjp = scan2d.ss2d(x, ps)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        vjp(np.ones_like(y))
        bwd_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held < one, f"{held} bytes held by the output and the vjp"
    assert peak < 2 * one and bwd_peak < 2 * one, (peak, bwd_peak)


def test_scan_vjp_keeps_no_batch_major_copy(retained_bytes):
    # K = 4, B = 2, L = 800, C = 8, N = 4: four chunks, so three entry states
    ps = [ssm.init_ssm_params(8, 4, np.random.default_rng(82 + i)) for i in range(4)]
    x = np.random.default_rng(83).standard_normal((4, 2, 800, 8))
    y, vjp, held = retained_bytes(lambda v: ssm._selective_scan(v, ps, False), x.copy)
    chunks = ssm._chunks(800, 8 * 4 * 2 * 4 * 8)
    assert len(chunks) == 4
    # the output, the step-major xs, pre, bs and cs, and the entry states
    kept = 3 * x.nbytes + 2 * x.nbytes // 2 + (len(chunks) - 1) * 4 * 2 * 4 * 8 * 8
    assert held - kept < x.nbytes // 4, held - kept
    assert vjp(np.ones_like(y))[0].shape == x.shape


def _series_params(small_channels):
    """Params where |dt * a| falls below SERIES_THRESHOLD in the given channels."""
    ps = [ssm.init_ssm_params(3, 2, np.random.default_rng(60 + i)) for i in range(4)]
    for p in ps:
        p.a_log[small_channels] = -12.0
    return ps


@pytest.mark.parametrize("small_channels,mask", [([1], "mixed"), ([0, 1, 2], "all"),
                                                 ([], "empty")])
def test_ss2d_series_branch(small_channels, mask):
    ps = _series_params(small_channels)
    x = np.random.default_rng(61).standard_normal((2, 3, 4, 3)) * 0.5
    pre, b_t, _ = ssm.s6_project(x.reshape(-1, 3), ps[0])
    dt = ops._softplus(pre)
    a = ps[0].materialized_a().T                      # [N, C]
    pair = ssm.discretize_zoh(a, b_t, dt)
    assert {"mixed": pair.small.any() and not pair.small.all(), "all": pair.small.all(),
            "empty": not pair.small.any()}[mask]
    # both branches everywhere, then selected: the masked evaluation must agree
    z = dt[..., None, :] * a
    both = np.where(np.abs(z) < ssm.SERIES_THRESHOLD,
                    dt[..., None, :] * (1.0 + z / 2.0 + (z * z) / 6.0), np.expm1(z) / a)
    np.testing.assert_array_equal(pair.g, both)
    y, _ = scan2d.ss2d(x, ps)
    y_o, _, _ = _per_direction_oracle(x, ps, np.zeros_like(x))
    assert _rel(y, y_o) <= 1e-12
    rep = grad_check(scan2d.ss2d, [x[:1], ps], tol=1e-4, name=f"ss2d series {mask}")
    assert rep.passed, str(rep)
    if small_channels:
        # the a_log gradient of a series channel is ~1e-10, below grad_check's
        # absolute floor, so compare it with a finite difference, relatively.
        # y is linear in |a| = exp(a_log) up to O(dt*|a|) there, so a central
        # difference over |a| * (1 +- 0.5) is exact to ~1e-7. a_log[c] reaches
        # output channel c only, so the others are left out of the sum.
        c = small_channels[0]
        up = np.random.default_rng(62).standard_normal(y.shape)
        up[..., np.arange(3) != c] = 0.0
        _, dps = scan2d.ss2d(x, ps)[1](up)
        a_log0 = ps[0].a_log[c, 1]

        def s(scale):
            ps[0].a_log[c, 1] = a_log0 + np.log(scale)
            val = np.sum(up * scan2d.ss2d(x, ps)[0])
            ps[0].a_log[c, 1] = a_log0
            return val

        fd = s(1.5) - s(0.5)  # d/d|a| over a step of |a|, times |a|
        assert abs(dps[0].a_log[c, 1] - fd) <= 1e-4 * abs(fd)


def test_ss2d_seq_par_agree(recurrence):
    ps = [ssm.init_ssm_params(2, 3, np.random.default_rng(30 + i)) for i in range(4)]
    x = np.random.default_rng(9).standard_normal((1, 5, 6, 2))
    with recurrence:
        y1, _ = scan2d.ss2d(x, ps)
    y2, _ = scan2d.ss2d(x, ps)
    np.testing.assert_allclose(y1, y2, rtol=1e-10, atol=1e-13)
