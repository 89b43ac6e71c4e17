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


_CONV_CASES = [(shape, kernel)
               for shape in [(1, 2, 4, 6), (3, 2, 5, 7), (3, 1, 6, 5)]
               for kernel in [(1, 1), (3, 3), (5, 5), (1, 3), (3, 1), (5, 3)]]
# images smaller than their kernel, one and three to a batch
_CONV_CASES += [((1, 2, 2, 2), (5, 5)), ((3, 1, 2, 2), (5, 5))]


@pytest.mark.parametrize("rows", [None, 1, 2])
@pytest.mark.parametrize("shape,kernel", _CONV_CASES)
def test_conv2d_matches_direct_sum(shape, kernel, rows, monkeypatch):
    """Wrap columns and batch boundaries, with the output taken in one row
    block, in blocks of one row, and in blocks of two rows (the last block
    of an odd height is partial). depthwise_conv2d is checked as the conv2d
    whose weight is diagonal, w[c, c] = k[c], with no bias: its dk is that
    weight gradient's diagonal."""
    if rows is not None:
        wp = shape[-1] + 2 * (kernel[1] // 2)
        monkeypatch.setattr(ops, "_BLOCK_BYTES", rows * 8 * shape[0] * 3 * wp)
    rng = np.random.default_rng(sum(shape) * 10 + kernel[0] * 3 + kernel[1])
    x = rng.standard_normal(shape)
    x0 = x.copy()
    c = shape[-3]
    w = rng.standard_normal((3, c) + kernel)
    b = rng.standard_normal(3)
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
