import re
from dataclasses import replace

import numpy as np
import pytest

from crackfuse import ops, segnet
from crackfuse.gradcheck import grad_check


def test_silu_values():
    y, _ = ops.silu(np.array([0.0, 1.0, 50.0]))
    assert y[0] == 0.0
    assert abs(y[1] - 0.7310585786300049) < 1e-12
    assert abs(y[2] - 50.0) < 1e-6  # silu(x) -> x for large x


def test_relu_vjp_keeps_one_byte_per_element(retained_bytes):
    x = np.random.default_rng(3).standard_normal((64, 1000))
    y, vjp, held = retained_bytes(ops.relu, x.copy)
    assert held - y.nbytes <= x.size + 4096, held - y.nbytes
    dy = np.random.default_rng(4).standard_normal(x.shape)
    np.testing.assert_array_equal(vjp(dy)[0], np.where(x > 0.0, dy, 0.0))


def test_silu_vjp_keeps_only_its_input(retained_bytes):
    x = np.random.default_rng(3).standard_normal((64, 1000))
    y, vjp, held = retained_bytes(ops.silu, x.copy)
    assert held - y.nbytes <= x.nbytes + 4096, held - y.nbytes
    assert vjp(np.ones_like(x))[0].shape == x.shape


def test_layer_norm_constant_row():
    x = np.full((4, 6), 3.2)
    y, _ = ops.layer_norm(x, np.ones(6), np.full(6, -1.5))
    np.testing.assert_allclose(y, -1.5)


def test_layer_norm_two_point():
    x = np.array([[1.0, -1.0]])
    y, _ = ops.layer_norm(x, np.ones(2), np.zeros(2), eps=1e-5)
    np.testing.assert_allclose(y, [[1.0, -1.0]], atol=1e-4)
    assert abs(y[0, 0] - 0.999995) < 1e-5


def test_layer_norm_shape_and_errors():
    x = np.random.default_rng(0).standard_normal((2, 3, 5))
    y, _ = ops.layer_norm(x, np.ones(5), np.zeros(5))
    assert y.shape == x.shape
    with pytest.raises(ValueError):
        ops.layer_norm(np.zeros((2, 0)), np.ones(0), np.zeros(0))


def test_linear_identity_and_example():
    x = np.array([[1.0, 2.0]])
    y, _ = ops.linear(x, np.eye(2), np.zeros(2))
    np.testing.assert_array_equal(y, x)
    y2, _ = ops.linear(np.array([1.0, 2.0]), np.array([[1.0, 0.0], [1.0, 1.0]]),
                       np.array([0.0, 1.0]))
    np.testing.assert_allclose(y2, [3.0, 3.0])


def test_linear_batch_axes_and_mismatch():
    x = np.random.default_rng(1).standard_normal((2, 3, 4))
    w = np.random.default_rng(2).standard_normal((4, 5))
    y, _ = ops.linear(x, w, np.zeros(5))
    assert y.shape == (2, 3, 5)
    with pytest.raises(ValueError):
        ops.linear(x, np.zeros((3, 5)), np.zeros(5))


def test_depthwise_delta_kernel_is_identity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 3, 6, 7))
    k = np.zeros((3, 3, 3))
    k[:, 1, 1] = 1.0
    y, _ = ops.depthwise_conv2d(x, k)
    np.testing.assert_allclose(y, x)


def test_depthwise_impulse_response():
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 2] = 1.0
    y, _ = ops.depthwise_conv2d(x, np.ones((1, 3, 3)))
    expected = np.zeros((1, 1, 5, 5))
    expected[0, 0, 1:4, 1:4] = 1.0
    np.testing.assert_allclose(y, expected)


def test_depthwise_channel_independence():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 3, 5, 5))
    k = rng.standard_normal((3, 3, 3))
    y0, _ = ops.depthwise_conv2d(x, k)
    x2 = x.copy()
    x2[:, 1] += 10.0
    y1, _ = ops.depthwise_conv2d(x2, k)
    np.testing.assert_array_equal(y0[:, 0], y1[:, 0])
    np.testing.assert_array_equal(y0[:, 2], y1[:, 2])
    assert not np.allclose(y0[:, 1], y1[:, 1])


def test_depthwise_even_kernel_rejected():
    with pytest.raises(ValueError, match="odd"):
        ops.depthwise_conv2d(np.zeros((1, 1, 4, 4)), np.zeros((1, 2, 2)))


def _conv2d_direct(x, w, b, dy):
    """Same-padded conv2d and the gradients of sum(dy * y), one output pixel
    and one kernel tap at a time."""
    bsz, _, h, wd = x.shape
    _, _, kh, kw = w.shape
    y = np.zeros((bsz, w.shape[0], h, wd))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for n in range(bsz):
        for i in range(h):
            for j in range(wd):
                y[n, :, i, j] = b
                for u in range(kh):
                    for v in range(kw):
                        r, c = i + u - kh // 2, j + v - kw // 2
                        if 0 <= r < h and 0 <= c < wd:
                            y[n, :, i, j] += w[:, :, u, v] @ x[n, :, r, c]
                            dx[n, :, r, c] += w[:, :, u, v].T @ dy[n, :, i, j]
                            dw[:, :, u, v] += np.outer(dy[n, :, i, j], x[n, :, r, c])
    return y, dx, dw, dy.sum(axis=(0, 2, 3))


# Cin and Cout both below ops._NARROW: y and dx each stack their taps into
# one GEMM (a 1x1 kernel has one tap, one GEMM either way)
_CONV_CASES = [(shape, kernel)
               for shape in [(1, 2, 4, 6), (3, 2, 5, 7), (3, 1, 6, 5)]
               for kernel in [(1, 1), (3, 3), (5, 5), (1, 3), (3, 1), (5, 3)]]
# images smaller than their kernel, one and three to a batch
_CONV_CASES += [((1, 2, 2, 2), (5, 5)), ((3, 1, 2, 2), (5, 5))]
# Cout by Cin for the cases below; the rest have Cout = 3. A side of at least
# ops._NARROW channels runs one GEMM per tap: both sides at 8 -> 10, y at
# 9 -> 3 and dx at 3 -> 8, where the other side stacks its taps
_COUT = {8: 10, 9: 3, 3: 8}
_CONV_CASES += [(shape, kernel)
                for shape in [(2, 8, 5, 7), (1, 9, 4, 6), (2, 3, 5, 4)]
                for kernel in [(1, 1), (3, 3), (5, 3)]]


@pytest.mark.parametrize("rows", [None, 1, 2])
@pytest.mark.parametrize("shape,kernel", _CONV_CASES)
def test_conv2d_matches_direct_sum(shape, kernel, rows, monkeypatch):
    """Wrap columns and batch boundaries, with the output taken in one row
    block, in blocks of one row, and in blocks of two rows (the last block
    of an odd height is partial). conv2d sizes y's, dx's and dw's blocks
    alike, at _BLOCK_BYTES per B * Cout * Wp rows of the input's itemsize.
    depthwise_conv2d is checked as the conv2d whose weight is diagonal,
    w[c, c] = k[c], with no bias: its dk is that weight gradient's diagonal."""
    c = shape[-3]
    cout = _COUT.get(c, 3)
    if rows is not None:
        wp = shape[-1] + 2 * (kernel[1] // 2)
        monkeypatch.setattr(ops, "_BLOCK_BYTES", rows * 8 * shape[0] * cout * wp)
    rng = np.random.default_rng(sum(shape) * 10 + kernel[0] * 3 + kernel[1])
    x = rng.standard_normal(shape)
    x0 = x.copy()
    w = rng.standard_normal((cout, c) + kernel)
    b = rng.standard_normal(cout)
    y, vjp = ops.conv2d(x, w, b)
    assert y.flags.c_contiguous
    dy = rng.standard_normal(y.shape)
    checks = [((y,) + vjp(dy), _conv2d_direct(x, w, b, dy))]
    k = rng.standard_normal((c,) + kernel)
    wk = np.zeros((c, c) + kernel)
    wk[range(c), range(c)] = k
    y, vjp = ops.depthwise_conv2d(x, k)
    dy = rng.standard_normal(y.shape)
    y_ref, dx_ref, dw_ref, _ = _conv2d_direct(x, wk, np.zeros(c), dy)
    checks.append(((y,) + vjp(dy), (y_ref, dx_ref, dw_ref[range(c), range(c)])))
    for got, want in checks:
        for g, r in zip(got, want, strict=True):
            assert g.shape == r.shape
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(x, x0)


def _depthwise_scatter_backward(x, k, dy):
    """depthwise_conv2d's (dx, dk) as a scatter: dy is staged on the padded
    row grid in a zeroed buffer, and each tap adds k times it into a
    zero-filled padded dx at the tap's offset, in tap order; dk[:, u, v]
    contracts the staged dy with the tap's slice of padded x."""
    bsz, c, h, wd = x.shape
    _, kh, kw = k.shape
    ph, pw, wp = kh // 2, kw // 2, wd + kw - 1
    xp = np.zeros((bsz, c, h + kh - 1 + (kw > 1), wp), dtype=x.dtype)
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    xf = xp.reshape(bsz, c, -1)
    m = h * wp
    g = np.zeros((bsz, c, h, wp), dtype=x.dtype)
    g[..., :wd] = dy
    g = g.reshape(bsz, c, m)
    dxf = np.zeros_like(xf)
    dk = np.empty_like(k)
    for u in range(kh):
        for v in range(kw):
            off = u * wp + v
            dk[:, u, v] = np.einsum("bcm,bcm->c", g, xf[..., off : off + m])
            dxf[..., off : off + m] += k[:, u, v, None] * g
    centre = ph * wp + pw
    return dxf[..., centre : centre + m].reshape(bsz, c, h, wp)[..., :wd], dk


# train48's four encoder block shapes (8 x {16, 32, 64, 128} channels at 16,
# 8, 4 and 2 pixels a side), then 5x3 and 1x1 kernels on odd widths
_DEPTHWISE_CASES = [((8, 16, 16, 16), (3, 3)), ((8, 32, 8, 8), (3, 3)),
                    ((8, 64, 4, 4), (3, 3)), ((8, 128, 2, 2), (3, 3)),
                    ((2, 5, 7, 9), (5, 3)), ((3, 3, 6, 11), (5, 3)), ((2, 4, 5, 7), (1, 1))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,kernel", _DEPTHWISE_CASES)
def test_depthwise_backward_matches_scatter_bitwise(shape, kernel, dtype):
    """dx, the forward's tap sum over padded dy at the mirrored offsets, and
    dk add the same products in the same order as the scatter, so both are
    equal to it bit for bit."""
    rng = np.random.default_rng(sum(shape) + 10 * kernel[0] + kernel[1])
    x = rng.standard_normal(shape).astype(dtype)
    k = rng.standard_normal((shape[1],) + kernel).astype(dtype)
    dy = rng.standard_normal(shape).astype(dtype)
    got = ops.depthwise_conv2d(x, k)[1](dy)
    for g, want in zip(got, _depthwise_scatter_backward(x, k, dy), strict=True):
        assert g.dtype == want.dtype and g.shape == want.shape
        assert g.tobytes() == want.tobytes()


@pytest.mark.parametrize("cin,cout", [(3, 32), (32, 3)], ids=["stacked-y", "stacked-dx"])
def test_conv2d_float32_stacked_taps_near_float64(cin, cout):
    """Stage 1's narrow convs in float32: SR conv1 (3 -> 32) stacks its taps
    in y, conv3 (32 -> 3) in dx. Each output is within 1e-6 of its largest
    entry of the float64 direct sum over the same float32 values: about 8
    float32 epsilons for sums of up to 288 products; measured, at most 2.0e-7."""
    rng = np.random.default_rng(cin + cout)
    x, w, b = (rng.standard_normal(s).astype(np.float32)
               for s in [(2, cin, 7, 9), (cout, cin, 3, 3), (cout,)])
    y, vjp = ops.conv2d(x, w, b)
    dy = rng.standard_normal(y.shape).astype(np.float32)
    got = (y,) + vjp(dy)
    want = _conv2d_direct(*(a.astype(np.float64) for a in (x, w, b, dy)))
    for g, r in zip(got, want, strict=True):
        assert g.dtype == np.float32 and g.shape == r.shape
        assert np.abs(g - r).max() <= 1e-6 * np.abs(r).max()


@pytest.mark.parametrize("bias", [(1,), (3, 1), (), (4,)])
def test_conv2d_refuses_a_bias_not_one_per_output_channel(bias):
    # a (1,) bias used to broadcast to every output channel
    with pytest.raises(ValueError, match=re.escape(f"bias shape {bias}")) as err:
        ops.conv2d(np.ones((1, 2, 5, 5)), np.ones((3, 2, 3, 3)), np.full(bias, 0.5))
    assert "(3,)" in str(err.value) and "(3, 2, 3, 3)" in str(err.value)


def test_resize_identity_and_constant():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 7, 9))
    y, _ = ops.resize_bicubic(x, 7, 9)
    np.testing.assert_allclose(y, x, atol=1e-12)
    c = np.full((1, 5, 5), 0.37)
    up, _ = ops.resize_bicubic(c, 16, 11)
    np.testing.assert_allclose(up, 0.37, atol=1e-12)


def test_resize_sensor_grid():
    x = np.zeros((3, 288, 384))
    y, _ = ops.resize_bicubic(x, 960, 1280)
    assert y.shape == (3, 960, 1280)


def test_resize_zero_extent_rejected():
    with pytest.raises(ValueError):
        ops.resize_bicubic(np.zeros((1, 4, 4)), 0, 4)


def _gaussian_blur(img, sigma):
    r = int(np.ceil(3 * sigma))
    t = np.arange(-r, r + 1)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    k /= k.sum()
    pad = np.pad(img, r, mode="edge")
    rows = np.apply_along_axis(lambda v: np.convolve(v, k, mode="valid"), 0, pad)
    return np.apply_along_axis(lambda v: np.convolve(v, k, mode="valid"), 1, rows)


@pytest.mark.parametrize("seed", range(5))
def test_resize_up_down_roundtrip_smooth(seed):
    # gaussian-blurred random images, blur sigma >= 2
    rng = np.random.default_rng(seed)
    x = _gaussian_blur(rng.random((32, 32)), sigma=2.0)
    up, _ = ops.resize_bicubic(x, 64, 64)
    back, _ = ops.resize_bicubic(up, 32, 32)
    assert np.max(np.abs(back - x)) <= 0.05


def test_adaptive_pool_matches_exact_windows():
    x = np.arange(16.0).reshape(1, 4, 4)
    y, _ = ops.adaptive_avg_pool2d(x, 2, 2)
    np.testing.assert_allclose(y[0], [[2.5, 4.5], [10.5, 12.5]])


def test_adaptive_pool_upscale_output():
    x = np.arange(4.0).reshape(1, 2, 2)
    y, _ = ops.adaptive_avg_pool2d(x, 6, 6)
    assert y.shape == (1, 6, 6)
    np.testing.assert_allclose(y[0, 0, 0], 0.0)


@pytest.mark.parametrize("op, extents", [(ops.resize_bicubic, (7, 3)), (ops.resize_bilinear, (2, 8)),
                                         (ops.adaptive_avg_pool2d, (3, 2))],
                         ids=["bicubic", "bilinear", "pool"])
def test_resamplers_take_integers_as_float64(op, extents):
    # the resamplers follow a float input's dtype; integers resample in float64
    ints = np.arange(20).reshape(4, 5)
    y, vjp = op(ints, *extents)
    want, _ = op(ints.astype(np.float64), *extents)
    assert y.dtype == np.float64 and y.shape == extents
    np.testing.assert_array_equal(y, want)
    assert np.abs(y).max() > 1.0
    assert vjp(np.ones(extents))[0].dtype == np.float64


@pytest.mark.parametrize("op", [ops.resize_bicubic, ops.resize_bilinear, ops.adaptive_avg_pool2d],
                         ids=["bicubic", "bilinear", "pool"])
def test_resamplers_take_float16_as_float64(op):
    # as_float, the rule of every entry: only float32 keeps its dtype
    img = np.random.default_rng(4).random((2, 5, 6)).astype(np.float16)
    y, vjp = op(img, 3, 4)
    want, _ = op(img.astype(np.float64), 3, 4)
    assert y.dtype == np.float64
    np.testing.assert_array_equal(y, want)
    assert vjp(np.ones((2, 3, 4)))[0].dtype == np.float64


def test_nearest_resize_binary_stays_binary():
    mask = (np.random.default_rng(7).random((9, 9)) < 0.3).astype(np.int64)
    out = ops.resize_nearest(mask, 5, 13)
    assert set(np.unique(out)) <= {0, 1}


def test_purity_bitwise():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 3, 8, 8))
    k = rng.standard_normal((3, 3, 3))
    a, _ = ops.depthwise_conv2d(x, k)
    b, _ = ops.depthwise_conv2d(x, k)
    assert np.array_equal(a, b)
    s1, _ = ops.silu(x)
    s2, _ = ops.silu(x)
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("trial", range(10))
def test_gradients_random_shapes(trial):
    """Every differentiable op passes at 1e-5 on varied shapes."""
    rng = np.random.default_rng(100 + trial)
    h = int(rng.integers(3, 8))
    w = int(rng.integers(3, 8))
    c = int(rng.integers(1, 4))
    x = rng.standard_normal((1, c, h, w))
    checks = [
        ("silu", ops.silu, [x]),
        ("layer_norm", ops.layer_norm,
         [rng.standard_normal((h, w)), rng.standard_normal(w), rng.standard_normal(w)]),
        ("linear", ops.linear,
         [rng.standard_normal((h, c + 1)), rng.standard_normal((c + 1, c + 2)),
          rng.standard_normal(c + 2)]),
        ("depthwise", ops.depthwise_conv2d, [x, rng.standard_normal((c, 3, 3))]),
        ("conv2d", ops.conv2d,
         [rng.standard_normal((int(rng.integers(1, 4)), c, h, w)),
          rng.standard_normal((2, c, int(rng.choice([1, 3, 5])), int(rng.choice([1, 3])))),
          rng.standard_normal(2)]),
        ("bicubic", lambda a: ops.resize_bicubic(a, h + 3, w - 1), [x]),
        ("bilinear", lambda a: ops.resize_bilinear(a, h - 1, w + 2), [x]),
        ("pool", lambda a: ops.adaptive_avg_pool2d(a, 2, 3), [x]),
    ]
    for name, fn, inputs in checks:
        rep = grad_check(fn, inputs, tol=1e-5, seed=trial, name=name)
        assert rep.passed, str(rep)


def test_grad_check_catches_wrong_vjp():
    def bad_op(a):
        y, vjp = ops.silu(a)
        return y, lambda dy: tuple(2.0 * g for g in vjp(dy))

    rep = grad_check(bad_op, [np.random.default_rng(0).standard_normal(5)], tol=1e-5)
    assert not rep.passed

    # in a weight tree, the report blames the one leaf whose gradient is wrong
    def bad_downsample(x, w):
        y, vjp = segnet.downsample(x, w)

        def bad_vjp(dy):
            dx, dw = vjp(dy)
            return dx, replace(dw, b=2.0 * dw.b)

        return y, bad_vjp

    rng = np.random.default_rng(1)
    w = segnet.DownsampleWeights(w=rng.standard_normal((8, 4)), b=rng.standard_normal(4))
    rep = grad_check(bad_downsample, [rng.standard_normal((1, 4, 4, 2)), w], tol=1e-5)
    assert not rep.passed
    assert [c.name for c in rep.inputs if c.max_rel_err > rep.tol] == ["1.b"]
    assert [c.name for c in rep.inputs] == ["0", "1.w", "1.b"]


def test_grad_check_reports_nonfinite():
    def nan_op(a):
        return a.copy(), lambda dy: (np.full_like(a, np.nan),)

    rep = grad_check(nan_op, [np.ones(3)], tol=1e-5, name="nan_op")
    assert not rep.passed
    assert "non-finite" in rep.message


def test_grad_check_report_says_why_it_failed():
    def one_grad(a, b):
        return a * b, lambda dy: (dy * b,)

    ones = np.ones(3)
    rep = grad_check(one_grad, [ones, ones], tol=1e-5, name="one_grad")
    assert str(rep) == ("[FAIL] one_grad: max rel err inf (tol 1.0e-05): "
                        "vjp returned 1 gradients for 2 inputs")

    # a numeric failure names its worst leaf
    def bad_bias(a, ws):
        return a * ws[0] + ws[1], lambda dy: (dy * ws[0], [dy * a, 2.0 * dy])

    rng = np.random.default_rng(2)
    rep = grad_check(bad_bias, [rng.standard_normal(3), [rng.standard_normal(3), ones]],
                     tol=1e-5, name="bad_bias")
    assert str(rep).startswith("[FAIL] bad_bias: max rel err 5.000e-01")
    assert str(rep).endswith(", worst at 1.1")
    rep = grad_check(ops.silu, [ones], tol=1e-5, name="silu")
    assert str(rep).startswith("[PASS] silu:") and str(rep).endswith(")")


def test_walk_back_replays_last_first_and_names_each_gradient():
    seen = []

    def scale(name, a):
        def step(x):
            def vjp(dy):
                seen.append(name)
                return dy * a, dy * x

            return x * a, vjp

        return step

    def negate(x):
        def vjp(dy):
            seen.append("negate")
            return (-dy,)

        return -x, vjp

    def affine(w):
        # its gradient is a weight tree, named under the step's one name
        def step(x):
            def vjp(dy):
                seen.append("affine")
                return dy * w.w, segnet.DownsampleWeights(w=dy * x, b=dy)

            return x * w.w + w.b, vjp

        return step

    w = segnet.DownsampleWeights(w=np.array([3.0]), b=np.array([1.0]))
    steps = [(("a",), scale("a", 2.0)), ((), negate), (("layer",), affine(w)),
             (("c",), scale("c", 5.0))]
    vjps = []
    y = ops.walk(steps, np.array([1.5]), vjps)
    assert y.tolist() == [-40.0]  # 5 * (3 * -(2 * 1.5) + 1)
    assert [names for names, _ in vjps] == [("a",), (), ("layer",), ("c",)]
    grads = {}
    dx = ops.walk_back(vjps, np.array([1.0]), grads)
    assert seen == ["c", "affine", "negate", "a"]
    assert dx.tolist() == [-30.0]
    assert {k: v.tolist() for k, v in grads.items()} == {
        "c": [-8.0], "layer.w": [-15.0], "layer.b": [5.0], "a": [-22.5]}
