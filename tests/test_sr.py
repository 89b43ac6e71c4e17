import math
from fractions import Fraction

import numpy as np
import pytest

from crackfuse import sr
from crackfuse.gradcheck import grad_check
from crackfuse.ops import resize_bicubic
from crackfuse.trees import tree_flatten


def smooth_image(seed, h=40, w=40):
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0.2, 0.8, size=(3, 6, 6))
    img = resize_bicubic(coarse, h, w)[0]
    return np.clip(img, 0.0, 1.0)


def textured_image(seed, h=40, w=40):
    """Smooth field plus thin dark strokes, so downscaling loses real detail."""
    rng = np.random.default_rng(seed)
    img = resize_bicubic(rng.uniform(0.25, 0.75, size=(3, 6, 6)), h, w)[0]
    for _ in range(6):
        r = int(rng.integers(2, h - 2))
        c0, c1 = int(rng.integers(0, w // 2)), int(rng.integers(w // 2, w))
        img[:, r, c0:c1] *= 0.35
        c = int(rng.integers(2, w - 2))
        r0, r1 = int(rng.integers(0, h // 2)), int(rng.integers(h // 2, h))
        img[:, r0:r1, c] *= 0.45
    return np.clip(img, 0.0, 1.0)


def test_degrade_dims():
    img = np.zeros((3, 64, 64))
    assert sr.degrade(img, 2).shape == (3, 32, 32)
    big = np.zeros((3, 384, 288))
    out = sr.degrade(big, Fraction(10, 3))
    assert out.shape == (3, 115, 86)


def test_degrade_constant_and_bounds():
    img = np.full((3, 32, 32), 0.6)
    out = sr.degrade(img, 2)
    np.testing.assert_allclose(out, 0.6, atol=1e-12)
    with pytest.raises(ValueError, match="small"):
        sr.degrade(np.zeros((3, 12, 12)), 2)
    with pytest.raises(ValueError, match=">= 1"):
        sr.degrade(img, Fraction(1, 2))


def test_degrade_factor_one_is_identity():
    img = smooth_image(0, 16, 16)
    out = sr.degrade(img, 1)
    np.testing.assert_allclose(out, img, atol=1e-12)


def test_zero_model_is_bicubic():
    m = sr.init_sr_model(2, np.random.default_rng(0))
    m.conv1_w[:] = 0.0  # with conv3 already zero this is belt and braces
    low = smooth_image(1, 12, 12)
    y, _ = sr.sr_forward(m, low, 24, 24)
    up = np.clip(resize_bicubic(low, 24, 24)[0], 0.0, 1.0)
    np.testing.assert_allclose(y, up, atol=1e-12)
    assert y.shape == (3, 24, 24)


def test_fresh_model_equals_bicubic_by_zero_final_layer():
    m = sr.init_sr_model(2, np.random.default_rng(1))
    low = smooth_image(2, 10, 14)
    y, _ = sr.sr_forward(m, low, 20, 28)
    up = np.clip(resize_bicubic(low, 20, 28)[0], 0.0, 1.0)
    np.testing.assert_allclose(y, up, atol=1e-12)


def test_sr_output_in_unit_interval():
    m = sr.init_sr_model(2, np.random.default_rng(2))
    m.conv3_w[:] = np.random.default_rng(3).standard_normal(m.conv3_w.shape)
    y, _ = sr.sr_forward(m, smooth_image(4), 60, 60)
    assert y.min() >= 0.0 and y.max() <= 1.0


def test_residual_path_gradcheck():
    m = sr.init_sr_model(2, np.random.default_rng(5), hidden=4)
    low = smooth_image(6, 10, 10) * 0.6 + 0.2  # keep clamp inactive
    m.conv3_w = np.random.default_rng(7).standard_normal(m.conv3_w.shape) * 0.01

    def fn(mm):
        y, vjp = sr.sr_forward(mm, low, 20, 20)
        return y, lambda dy: (vjp(dy),)

    rep = grad_check(fn, [m], tol=1e-5, name="sr_residual", max_entries_per_input=30)
    assert rep.passed, str(rep)


def test_sr_apply_dims_and_errors():
    m = sr.init_sr_model(Fraction(10, 3), np.random.default_rng(8))
    ir = smooth_image(9, 288 // 8, 384 // 8)  # scaled-down stand-in, same aspect
    out = sr.sr_apply(m, ir, (120, 160))
    assert out.shape == (3, 120, 160)
    with pytest.raises(ValueError, match="smaller"):
        sr.sr_apply(m, ir, (20, 20))


def test_sr_apply_sensor_resolution():
    m = sr.init_sr_model(Fraction(10, 3), np.random.default_rng(10), hidden=4)
    ir = np.clip(resize_bicubic(np.random.default_rng(11).uniform(0.3, 0.7, (3, 6, 6)),
                                288, 384)[0], 0, 1)
    out = sr.sr_apply(m, ir, (960, 1280))
    assert out.shape == (3, 960, 1280)


# tracemalloc peak of sr_apply from a 30 x 40 frame to 60 x 80 with 32 hidden
# channels; keeping every layer's output until the net returns peaks at
# 8,659,824 bytes, so the bound (this figure plus 10%) catches that
SR_APPLY_PEAK = 5_198_768


def test_sr_apply_is_forward_only(peak_bytes):
    m = sr.init_sr_model(2, np.random.default_rng(12))
    m.conv3_w[:] = np.random.default_rng(13).standard_normal(m.conv3_w.shape) * 0.05
    ir = smooth_image(14, 30, 40)
    sr.sr_apply(m, ir, (60, 80))  # first-call caches stay out of the count
    (y, _), train_peak, _ = peak_bytes(lambda x: sr.sr_forward(m, x, 60, 80), ir.copy)
    out, apply_peak, _ = peak_bytes(lambda x: sr.sr_apply(m, x, (60, 80)), ir.copy)
    assert np.array_equal(out, y)
    assert apply_peak < train_peak, (apply_peak, train_peak)
    assert apply_peak <= 1.1 * SR_APPLY_PEAK, apply_peak


# sr_apply's peak at the same shape on a float32 frame: the net computes in
# float32, so its activations take half the bytes
SR_APPLY_PEAK_FLOAT32 = 3_174_452


def test_float32_sr_apply_stays_float32(peak_bytes):
    m = sr.init_sr_model(2, np.random.default_rng(12))
    m.conv3_w[:] = np.random.default_rng(13).standard_normal(m.conv3_w.shape) * 0.05
    ir = smooth_image(14, 30, 40).astype(np.float32)
    sr.sr_apply(m, ir, (60, 80))  # first-call caches stay out of the count
    out, peak, _ = peak_bytes(lambda x: sr.sr_apply(m, x, (60, 80)), ir.copy)
    assert out.dtype == np.float32
    assert peak <= 1.1 * SR_APPLY_PEAK_FLOAT32, peak
    assert m.conv1_w.dtype == np.float64  # the masters are not cast in place


def _fixture_29_to_96():
    """A model with a live residual path, a 29^2 image upsampled to 96^2 and a
    cotangent, all float64."""
    m = sr.init_sr_model(2, np.random.default_rng(3))
    m.conv3_w = np.random.default_rng(4).standard_normal(m.conv3_w.shape) * 0.05
    low = np.random.default_rng(5).uniform(0.2, 0.8, (3, 29, 29))
    return m, low, np.random.default_rng(6).standard_normal((3, 96, 96))


@pytest.mark.parametrize("low_dtype", [np.float32, np.float64])
def test_float32_forward_keeps_float64_gradients(low_dtype):
    # a float32 image computes in float32; a float32 cotangent under a float64
    # image must not leak float32 into a gradient either
    m, low, dy = _fixture_29_to_96()
    y, vjp = sr.sr_forward(m, low.astype(low_dtype), 96, 96)
    assert y.dtype == low_dtype
    grads = vjp(dy.astype(np.float32))
    assert sorted(grads) == sorted(tree_flatten(m))
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}
    # float32 against float64: measured 2.0e-7 absolute on y and 1.0e-6 of
    # each gradient's largest entry
    want_y, want_vjp = sr.sr_forward(m, low, 96, 96)
    assert np.abs(y - want_y).max() <= 1e-6
    for name, g in want_vjp(dy).items():
        assert np.abs(grads[name] - g).max() <= 1e-5 * np.abs(g).max(), name


def test_stage1_follows_its_input_dtype():
    img32 = smooth_image(15, 24, 24).astype(np.float32)
    assert sr.degrade(img32, 2).dtype == np.float32
    assert sr.degrade(np.full((3, 24, 24), 1), 2).dtype == np.float64  # integers compute in float64
    assert sr.fuse_channels(img32, img32).dtype == np.float32
    assert sr.fuse_channels(img32, img32.astype(np.float64)).dtype == np.float64
    m = sr.sr_train_selfsupervised([img32], 2, sr.SrTrainConfig(iters=3, lr=1e-3, hidden=4))
    assert {a.dtype for a in tree_flatten(m).values()} == {np.dtype(np.float64)}
    assert math.isfinite(m.final_loss) and math.isfinite(sr.corpus_loss(m, [img32], 2))
    row = sr.evaluate_sr(m, [img32], 2)[0]
    assert row["psnr_model"] > 20 and row["psnr_bicubic"] > 20


def test_training_reduces_loss():
    imgs = [textured_image(20 + i) for i in range(4)]
    model = sr.sr_train_selfsupervised(imgs, 2, sr.SrTrainConfig(iters=120, lr=1e-3, hidden=8))
    assert model.final_loss < model.initial_loss


def test_training_deterministic():
    imgs = [textured_image(30 + i) for i in range(2)]
    cfg = sr.SrTrainConfig(iters=15, lr=1e-3, hidden=4, seed=3)
    m1 = sr.sr_train_selfsupervised(imgs, 2, cfg)
    m2 = sr.sr_train_selfsupervised(imgs, 2, cfg)
    assert np.array_equal(m1.conv1_w, m2.conv1_w)
    assert m1.final_loss == m2.final_loss


def test_training_factor_one_degenerates():
    imgs = [smooth_image(40, 16, 16)]
    model = sr.sr_train_selfsupervised(imgs, 1, sr.SrTrainConfig(iters=5, lr=1e-4, hidden=4))
    assert model.initial_loss < 1e-10  # identity reconstruction from step zero
    assert model.final_loss < 1e-6


def test_training_requires_images():
    with pytest.raises(ValueError, match="at least one"):
        sr.sr_train_selfsupervised([], 2)


@pytest.mark.parametrize("field, value", [("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
                                          ("lr", float("inf")), ("lr", True), ("lr", "1e-3"),
                                          ("iters", -3), ("iters", 2.0), ("seed", -1),
                                          ("hidden", 0), ("hidden", True)])
def test_train_config_refuses_values_that_cannot_train(field, value):
    # an lr of 0 would train steps that change nothing, and a bool is not a number
    with pytest.raises(ValueError, match=f"^{field} is "):
        sr.SrTrainConfig(**{field: value})


def test_training_divergence_raises():
    # an absurd lr blows a near-floor start far past the guard
    with pytest.raises(sr.SrDiverged, match="lower lr"):
        sr.sr_train_selfsupervised([smooth_image(81)], 2,
                                   sr.SrTrainConfig(iters=50, lr=30.0, hidden=8))


def test_fuse_channels():
    rgb = smooth_image(50, 12, 12)
    ir = smooth_image(51, 12, 12)
    fused = sr.fuse_channels(rgb, ir)
    assert fused.shape == (6, 12, 12)
    np.testing.assert_array_equal(fused[:3], rgb)
    np.testing.assert_array_equal(fused[3:], ir)
    with pytest.raises(ValueError, match=r"\(3, 12, 12\)"):
        sr.fuse_channels(rgb, smooth_image(52, 6, 6))


def test_training_scale_protocol_dims():
    # reconstruction at the training scale has the target's dims for every image
    imgs = [smooth_image(60, 30, 40), smooth_image(61, 36, 30)]
    f = Fraction(10, 3)
    m = sr.init_sr_model(f, np.random.default_rng(12), hidden=4)
    for img in imgs:
        low = sr.degrade(img, f)
        rec, _ = sr.sr_forward(m, low, img.shape[-2], img.shape[-1])
        assert rec.shape == img.shape


def test_checkpoint_roundtrip(tmp_path):
    m = sr.sr_train_selfsupervised([smooth_image(70)], Fraction(5, 2),
                                   sr.SrTrainConfig(iters=5, lr=1e-3, hidden=4))
    path = tmp_path / "sr.ckpt"
    sr.save_sr_checkpoint(path, m)
    m2 = sr.load_sr_checkpoint(path)
    want, got = tree_flatten(m), tree_flatten(m2)
    assert list(want) == list(got)
    for name, a in want.items():
        assert np.array_equal(a, got[name]), name
    assert (m2.scale_num, m2.scale_den) == (5, 2)
    assert (m2.initial_loss, m2.final_loss) == (m.initial_loss, m.final_loss)
