import numpy as np
import pytest

from crackfuse import segnet, train
from crackfuse.gradcheck import grad_check
from crackfuse.trees import tree_flatten

TOY = segnet.ModelConfig()  # 6ch, patch 3, dims (16,32,64,128), depths (1,1,1,1)

TINY = segnet.ModelConfig(in_channels=2, patch_size=3, embed_dims=(4, 8, 16, 32),
                          depths=(1, 1, 1, 1), state_dim=2, num_classes=2, decoder_dim=4)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_config_validation():
    with pytest.raises(ValueError, match="double"):
        segnet.ModelConfig(embed_dims=(16, 48, 96, 192))
    with pytest.raises(ValueError, match="divisible"):
        TOY.check_input(50, 48)
    TOY.check_input(48, 96)


def test_patch_embed_grid_shape():
    model = segnet.init_model(TOY, rng())
    img = rng(1).standard_normal((1, 6, 48, 48))
    tok, _ = segnet.patch_embed(img, model.weights.encoder.embed, TOY)
    assert tok.shape == (1, 16, 16, 16)


def test_patch_embed_constant_image():
    model = segnet.init_model(TOY, rng())
    img = np.full((1, 6, 24, 24), 0.4)
    tok, _ = segnet.patch_embed(img, model.weights.encoder.embed, TOY)
    np.testing.assert_allclose(tok, np.broadcast_to(tok[0, 0, 0], tok.shape), atol=1e-12)


def test_patch_embed_indivisible_rejected():
    model = segnet.init_model(TOY, rng())
    with pytest.raises(ValueError, match="divisible"):
        segnet.patch_embed(np.zeros((1, 6, 47, 48)), model.weights.encoder.embed, TOY)


def test_patch_embed_gradcheck():
    cfg = segnet.ModelConfig(in_channels=2, patch_size=3, embed_dims=(4, 8), depths=(1, 1),
                             state_dim=2, decoder_dim=4)
    w = segnet.PatchEmbedWeights(w=rng(2).standard_normal((int(2 * 9), 4)) * 0.3, b=np.zeros(4))
    img = rng(3).standard_normal((1, 2, 6, 6))
    rep = grad_check(lambda a, ww: segnet.patch_embed(a, ww, cfg), [img, w], tol=1e-5,
                     name="patch_embed")
    assert rep.passed, str(rep)


def test_block_identity_when_output_zeroed():
    blk = segnet.init_block(4, 2, rng(4))
    blk.out_w[:] = 0.0
    blk.out_b[:] = 0.0
    x = rng(5).standard_normal((1, 3, 3, 4))
    y, _ = segnet.vss_block(x, blk)
    np.testing.assert_allclose(y, x, atol=1e-14)


def test_block_gate_saturation_is_near_identity():
    blk = segnet.init_block(4, 2, rng(6))
    blk.gate_w[:] = 0.0
    blk.gate_b[:] = -40.0
    x = rng(7).standard_normal((1, 3, 3, 4))
    y, _ = segnet.vss_block(x, blk)
    np.testing.assert_allclose(y, x, atol=1e-6)


def test_block_gradcheck():
    blk = segnet.init_block(4, 2, rng(8))
    x = rng(9).standard_normal((1, 3, 3, 4)) * 0.5
    rep = grad_check(segnet.vss_block, [x, blk], tol=1e-4, name="vss_block")
    assert rep.passed, str(rep)


def test_downsample_shape_and_constant():
    w = segnet.DownsampleWeights(w=rng(10).standard_normal((32, 16)) * 0.2, b=np.zeros(16))
    x = rng(11).standard_normal((1, 16, 16, 8))
    y, _ = segnet.downsample(x, w)
    assert y.shape == (1, 8, 8, 16)
    c = np.full((1, 4, 4, 8), 0.3)
    yc, _ = segnet.downsample(c, w)
    np.testing.assert_allclose(yc, np.broadcast_to(yc[0, 0, 0], yc.shape), atol=1e-12)
    with pytest.raises(ValueError, match="even"):
        segnet.downsample(np.zeros((1, 3, 4, 8)), w)


def test_downsample_gradcheck():
    w = segnet.DownsampleWeights(w=rng(12).standard_normal((8, 4)) * 0.3, b=np.zeros(4))
    x = rng(13).standard_normal((1, 4, 4, 2))
    rep = grad_check(segnet.downsample, [x, w], tol=1e-5, name="downsample")
    assert rep.passed, str(rep)


def test_encoder_stage_shapes():
    model = segnet.init_model(TOY, rng(14))
    img = rng(15).standard_normal((1, 6, 48, 48)) * 0.3
    feats, _ = segnet.encoder_forward(img, model.weights.encoder, TOY)
    assert [f.shape for f in feats] == [(1, 16, 16, 16), (1, 8, 8, 32), (1, 4, 4, 64),
                                        (1, 2, 2, 128)]


def test_encoder_deterministic_bitwise():
    model = segnet.init_model(TOY, rng(16))
    img = rng(17).standard_normal((1, 6, 24, 24)) * 0.3
    f1, _ = segnet.encoder_forward(img, model.weights.encoder, TOY)
    f2, _ = segnet.encoder_forward(img, model.weights.encoder, TOY)
    for a, b in zip(f1, f2):
        assert np.array_equal(a, b)


def test_encoder_zeroed_blocks_equal_embed_downsample_chain():
    model = segnet.init_model(TINY, rng(18))
    for stage in model.weights.encoder.stages:
        for blk in stage:
            blk.out_w[:] = 0.0
            blk.out_b[:] = 0.0
    img = rng(19).standard_normal((1, 2, 24, 24)) * 0.5
    feats, _ = segnet.encoder_forward(img, model.weights.encoder, TINY)
    t, _ = segnet.patch_embed(img, model.weights.encoder.embed, TINY)
    expect = [t]
    for dw in model.weights.encoder.downs:
        t, _ = segnet.downsample(t, dw)
        expect.append(t)
    for a, b in zip(feats, expect):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_encoder_end_to_end_gradcheck_sampled():
    model = segnet.init_model(TINY, rng(20))
    img = rng(21).standard_normal((1, 2, 24, 24)) * 0.4
    rep = grad_check(lambda a, enc: segnet.encoder_forward(a, enc, TINY),
                     [img, model.weights.encoder], tol=1e-4, name="encoder",
                     max_entries_per_input=3)
    assert rep.passed, str(rep)


def test_decoder_output_shape_and_finite():
    model = segnet.init_model(TOY, rng(22))
    img = rng(23).standard_normal((1, 6, 48, 48)) * 0.3
    feats, _ = segnet.encoder_forward(img, model.weights.encoder, TOY)
    logits, _ = segnet.uper_decode(feats, model.weights.decoder, 48, 48)
    assert logits.shape == (1, 2, 48, 48)
    assert np.all(np.isfinite(logits))


def test_decoder_gradcheck_reduced():
    dec = segnet.init_decoder((4, 8), 4, 2, rng(24))
    f0 = rng(25).standard_normal((1, 4, 4, 4)) * 0.5
    f1 = rng(26).standard_normal((1, 2, 2, 8)) * 0.5
    rep = grad_check(lambda f, w: segnet.uper_decode(f, w, 12, 12), [[f0, f1], dec],
                     tol=1e-4, name="uper_decode", max_entries_per_input=24)
    assert rep.passed, str(rep)


def test_model_forward_shapes_and_channel_error():
    model = segnet.init_model(TOY, rng(27))
    img = rng(28).standard_normal((1, 6, 48, 48)) * 0.2
    logits, _ = segnet.model_forward(img, model)
    assert logits.shape == (1, 2, 48, 48)
    with pytest.raises(ValueError, match="expected 6 input channels, got 3"):
        segnet.model_forward(np.zeros((1, 3, 48, 48)), model)


def test_model_forward_rejects_unbatched_image():
    model = segnet.init_model(TINY, rng(27))
    with pytest.raises(ValueError, match=r"\[B, C, H, W\]"):
        segnet.model_forward(np.zeros((2, 24, 24)), model)


def test_model_forward_blelloch_matches_sequential():
    # grids 24, 12, 6, 3: not powers of two, so the parallel scan pads
    model = segnet.init_model(segnet.ModelConfig(), rng(30))
    img = rng(31).standard_normal((1, 6, 72, 72)) * 0.5
    seq, _ = segnet.model_forward(img, model, parallel=False)
    par, _ = segnet.model_forward(img, model, parallel=True)
    assert np.max(np.abs(par - seq)) <= 1e-9


def test_model_accepts_3_and_6_channel_configs():
    for cin in (3, 6):
        cfg = segnet.ModelConfig(in_channels=cin, embed_dims=(8, 16, 32, 64),
                                 depths=(1, 1, 1, 1), state_dim=2, decoder_dim=8)
        model = segnet.init_model(cfg, rng(29))
        logits, _ = segnet.model_forward(np.zeros((1, cin, 24, 24)), model)
        assert logits.shape == (1, 2, 24, 24)


def _expected_param_count(cfg: segnet.ModelConfig):
    ps, dims, n = cfg.patch_size, cfg.embed_dims, cfg.state_dim
    total = cfg.in_channels * ps * ps * dims[0] + dims[0]  # embed
    for c, depth in zip(dims, cfg.depths):
        per_scan = c * n + c + c * c + c + c * n + c * n  # a_log, skip, dt, b, c maps
        block = (2 * c + (c * c + c) * 2 + 9 * c + 4 * per_scan + 2 * c + c * c + c)
        total += depth * block
    for c in dims[:-1]:
        total += 4 * c * 2 * c + 2 * c  # patch merge
    f, k, deep = cfg.decoder_dim, cfg.num_classes, dims[-1]
    total += 4 * (deep * f + f)                         # pooled 1x1 convs
    total += (deep + 4 * f) * f * 9 + f                 # pyramid fuse 3x3
    total += sum(d * f + f for d in dims[:-1])          # laterals
    total += (len(dims) - 1) * (f * f * 9 + f)          # per-level smooths
    total += len(dims) * f * f * 9 + f                  # all-level fuse
    total += f * k + k                                  # classifier
    return total


def test_parameter_count_closed_form():
    model = segnet.init_model(TOY, rng(30))
    assert segnet.parameter_count(model) == _expected_param_count(TOY)
    model2 = segnet.init_model(TINY, rng(31))
    assert segnet.parameter_count(model2) == _expected_param_count(TINY)


def test_no_dead_parameters_toy_config():
    model = segnet.init_model(TOY, rng(32))
    img = rng(33).standard_normal((1, 6, 48, 48)) * 0.5
    target = rng(34).integers(0, 2, size=(1, 48, 48))
    logits, vjp = segnet.model_forward(img, model)
    _, vjp_loss = train.cross_entropy(logits, target)
    _, gtree = vjp(vjp_loss(1.0)[0])
    for name, g in tree_flatten(gtree).items():
        assert np.any(g != 0.0), f"parameter {name} received a zero gradient"


def test_flatten_unflatten_roundtrip():
    model = segnet.init_model(TINY, rng(35))
    flat = segnet.flatten_weights(model)
    rebuilt = segnet.unflatten_weights(model, flat)
    for (n1, a), (n2, b) in zip(tree_flatten(model.weights).items(),
                                tree_flatten(rebuilt).items()):
        assert n1 == n2
        assert a is b
