import numpy as np
import pytest

from crackfuse import scan2d, ssm
from crackfuse.gradcheck import grad_check


def test_orders_2x2():
    vals = np.array(["a", "b", "c", "d"])
    got = {d: "".join(vals[scan2d.scan_order(d, 2, 2).perm]) for d in scan2d.DIRECTIONS}
    assert got == {"LR": "abcd", "TB": "acbd", "RL": "dcba", "BT": "dbca"}


def test_orders_1x1():
    for d in scan2d.DIRECTIONS:
        np.testing.assert_array_equal(scan2d.scan_order(d, 1, 1).perm, [0])


def test_tb_2x3_enumeration():
    np.testing.assert_array_equal(scan2d.scan_order("TB", 2, 3).perm, [0, 3, 1, 4, 2, 5])


def test_zero_extent_rejected():
    with pytest.raises(ValueError):
        scan2d.scan_order("LR", 0, 3)


def test_perm_bijection_roundtrip_exhaustive():
    # every grid up to 64x64, all four directions
    for h in range(1, 65):
        for w in range(1, 65):
            n = h * w
            ident = np.arange(n)
            for d in scan2d.DIRECTIONS:
                o = scan2d.scan_order(d, h, w)
                assert o.perm.shape == (n,)
                assert np.array_equal(o.perm[o.inv], ident)
                assert np.array_equal(o.inv[o.perm], ident)


def test_rl_is_reversed_lr():
    lr = scan2d.scan_order("LR", 4, 6).perm
    rl = scan2d.scan_order("RL", 4, 6).perm
    np.testing.assert_array_equal(rl, lr[::-1])


def test_cross_scan_row_runs():
    h, w, c = 3, 5, 1
    x = np.repeat(np.arange(h, dtype=float)[:, None], w, axis=1)[..., None]
    seqs = dict(zip(scan2d.DIRECTIONS, scan2d.cross_scan(x)))
    lr = seqs["LR"][:, 0]
    for row in range(h):
        run = lr[row * w:(row + 1) * w]
        assert np.all(run == run[0])


def test_scan_merge_roundtrip_is_4x():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 5, 3))
    seqs = scan2d.cross_scan(x)
    merged = scan2d.cross_merge(*seqs, 4, 5)
    np.testing.assert_allclose(merged, 4.0 * x, atol=1e-14)


def test_merge_single_nonzero_sequence():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 3, 2))
    seqs = scan2d.cross_scan(x)
    zero = np.zeros_like(seqs[0])
    merged = scan2d.cross_merge(zero, seqs[1], zero, zero, 3, 3)
    np.testing.assert_allclose(merged, x)


def test_merge_linearity_and_length_check():
    rng = np.random.default_rng(2)
    seqs = [rng.standard_normal((6, 2)) for _ in range(4)]
    m1 = scan2d.cross_merge(*seqs, 2, 3)
    m2 = scan2d.cross_merge(*(3.0 * s for s in seqs), 2, 3)
    np.testing.assert_allclose(m2, 3.0 * m1)
    with pytest.raises(ValueError, match="length"):
        scan2d.cross_merge(seqs[0][:5], seqs[1], seqs[2], seqs[3], 2, 3)


def _skip_only_params(c, n):
    p = ssm.init_ssm_params(c, n, np.random.default_rng(3))
    p.b_w[:] = 0.0
    p.skip[:] = 1.0
    return p


def test_ss2d_all_skip_gives_4x():
    p = _skip_only_params(3, 2)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 4, 3))
    y, _ = scan2d.ss2d(x, [p, p, p, p])
    np.testing.assert_allclose(y, 4.0 * x, atol=1e-12)


def test_ss2d_rot180_equivariance_tied():
    c, n = 3, 2
    p = ssm.init_ssm_params(c, n, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 7, c))
    y, _ = scan2d.ss2d(x, [p, p, p, p])
    xr = x[::-1, ::-1].copy()
    yr, _ = scan2d.ss2d(xr, [p, p, p, p])
    np.testing.assert_allclose(yr, y[::-1, ::-1],
                               rtol=1e-10, atol=1e-12)


def test_ss2d_batched_matches_loop():
    ps = [ssm.init_ssm_params(2, 2, np.random.default_rng(10 + i)) for i in range(4)]
    rng = np.random.default_rng(7)
    xb = rng.standard_normal((3, 4, 4, 2))
    yb, _ = scan2d.ss2d(xb, ps)
    for b in range(3):
        y1, _ = scan2d.ss2d(xb[b], ps)
        np.testing.assert_allclose(yb[b], y1, rtol=1e-12, atol=1e-14)


def test_ss2d_gradcheck():
    c, n = 2, 2
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 3, c)) * 0.5
    ps = [ssm.init_ssm_params(c, n, np.random.default_rng(20 + i)) for i in range(4)]
    fields = ["a_log", "skip", "dt_w", "dt_b", "b_w", "c_w"]
    arrays = [x]
    for p in ps:
        arrays.extend(getattr(p, f) for f in fields)

    def fn(xx, *arrs):
        rebuilt = []
        for i in range(4):
            chunk = arrs[i * 6:(i + 1) * 6]
            rebuilt.append(ssm.SsmParams(**dict(zip(fields, chunk))))
        y, vjp = scan2d.ss2d(xx, rebuilt)

        def vjp_list(dy):
            dx, dps = vjp(dy)
            out = [dx]
            for dp in dps:
                out.extend(getattr(dp, f) for f in fields)
            return tuple(out)

        return y, vjp_list

    rep = grad_check(fn, arrays, tol=1e-4, name="ss2d")
    assert rep.passed, str(rep)


def test_ss2d_seq_par_agree():
    ps = [ssm.init_ssm_params(2, 3, np.random.default_rng(30 + i)) for i in range(4)]
    x = np.random.default_rng(9).standard_normal((5, 6, 2))
    y1, _ = scan2d.ss2d(x, ps, parallel=True)
    y2, _ = scan2d.ss2d(x, ps, parallel=False)
    np.testing.assert_allclose(y1, y2, rtol=1e-10, atol=1e-13)
