import dataclasses
import threading
import time

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
    with pytest.raises(ValueError, match="embed_dims"):
        segnet.ModelConfig(embed_dims=("a", "aa", "aaaa", "aaaaaaaa"))
    for name, value in [("state_dim", "x"), ("decoder_dim", 0), ("depths", (1, -1, 1, 1)),
                        ("in_channels", True)]:
        with pytest.raises(ValueError, match=name):
            segnet.ModelConfig(**{name: value})
    with pytest.raises(ValueError, match="divisible"):
        TOY.check_input(50, 48)
    TOY.check_input(48, 96)
    # the decoder fuses two or more levels, so a one-stage config is refused
    with pytest.raises(ValueError, match="embed_dims must be a tuple of two or more"):
        segnet.ModelConfig(embed_dims=(16,), depths=(1,))


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


def _reduced(depths):
    """TINY's widths and sizes with depths, one stage per entry."""
    return dataclasses.replace(TINY, embed_dims=TINY.embed_dims[:len(depths)], depths=depths)


@pytest.mark.parametrize("cfg", [TINY, _reduced((2, 0))], ids=["tiny", "depths-2-0"])
def test_encoder_end_to_end_gradcheck_sampled(cfg):
    model = segnet.init_model(cfg, rng(20))
    img = rng(21).standard_normal((1, 2, 24, 24)) * 0.4
    rep = grad_check(lambda a, enc: segnet.encoder_forward(a, enc, cfg),
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


@pytest.mark.parametrize("levels", [2, 3], ids=["two-levels", "three-levels"])
def test_decoder_gradcheck_reduced(levels):
    # three levels reach the top-down carry into a smoothed level and the
    # lift of a level >= 2, which two levels never do
    dims = (4, 8, 16)[:levels]
    dec = segnet.init_decoder(dims, 4, 2, rng(24))
    feats = [rng(25 + i).standard_normal((1, 2 << (levels - 1 - i), 2 << (levels - 1 - i), d)) * 0.5
             for i, d in enumerate(dims)]
    rep = grad_check(lambda f, w: segnet.uper_decode(f, w, 12, 12), [feats, dec],
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


@pytest.mark.parametrize("cfg", [TOY, *(dataclasses.replace(_reduced(d), in_channels=6)
                                   for d in [(2, 0), (0, 2), (2, 1, 0, 3)])],
                         ids=["default", "depths-2-0", "depths-0-2", "depths-2-1-0-3"])
def test_predict_equals_model_forward_bitwise(cfg):
    # stages with two blocks and with none walk the same steps in both
    model = segnet.init_model(cfg, rng(36))
    img = rng(37).standard_normal((2, 6, 48, 48)) * 0.5
    logits, _ = segnet.model_forward(img, model)
    assert np.array_equal(segnet.predict(img, model), logits)
    with pytest.raises(ValueError, match="expected 6 input channels, got 3"):
        segnet.predict(np.zeros((1, 3, 48, 48)), model)


def test_predict_peak_memory_below_model_forward(peak_bytes):
    # measured on two 48 x 48 frames of the default config: predict peaks at
    # 0.50 of model_forward (4.03 against 8.11 MB), since predict keeps no
    # step's closure in the encoder or the decoder; the bound is that ratio
    # plus 10%
    model = segnet.init_model(TOY, rng(7))
    image = rng(8).standard_normal((2, 6, 48, 48))
    segnet.model_forward(image, model)  # first-call caches stay out of the count
    _, train_peak = peak_bytes(lambda im: segnet.model_forward(im, model), image.copy)
    _, infer_peak = peak_bytes(lambda im: segnet.predict(im, model), image.copy)
    assert infer_peak <= 0.55 * train_peak, (infer_peak, train_peak)


# tracemalloc bytes that model_forward's logits and vjp keep alive for two
# 48 x 48 frames of the default config
RETAINED_2X48 = 6_414_192


def test_model_forward_retained_memory(retained_bytes):
    # the bound is the measured figure plus 10%, so a closure that starts
    # keeping a copy of an activation fails it
    model = segnet.init_model(TOY, rng(7))
    image = rng(8).standard_normal((2, 6, 48, 48))
    segnet.model_forward(image, model)  # first-call caches stay out of the count
    logits, vjp, held = retained_bytes(lambda im: segnet.model_forward(im, model), image.copy)
    assert held <= 1.1 * RETAINED_2X48, held
    assert vjp(np.ones_like(logits))[0].shape == image.shape


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
    for cfg, seed in ((TOY, 30), (TINY, 31)):
        model = segnet.init_model(cfg, rng(seed))
        count = sum(a.size for a in tree_flatten(model.weights).values())
        assert count == _expected_param_count(cfg)


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


# --------------------------------------------------------------------------
# Sharded batches: above segnet._SHARD_MIN_PIXELS a batch runs as two shards,
# the second on a worker thread. TINY at 5 x 120^2 holds 43,200 pixels in its
# first shard, above the gate, and cuts unevenly (3 + 2 images).


def _sharded_case():
    model = segnet.init_model(TINY, rng(40))
    img = rng(41).standard_normal((5, 2, 120, 120)) * 0.5
    target = rng(42).integers(0, 2, size=(5, 120, 120))
    assert segnet._shards(img) == [slice(0, 3), slice(3, 5)]
    return model, img, target


def _step(model, img, target):
    """Logits, dimage and the flat weight gradient of one cross-entropy step."""
    logits, vjp = segnet.model_forward(img, model)
    dimage, gtree = vjp(train.cross_entropy(logits, target)[1](1.0)[0])
    return logits, dimage, tree_flatten(gtree)


def test_shard_cut_follows_the_gate():
    def cut(*shape):
        return segnet._shards(np.broadcast_to(0.0, shape))

    assert cut(8, 6, 48, 48) == [slice(0, 8)]    # train48's step and val pass
    assert cut(8, 6, 72, 72) == [slice(0, 8)]
    assert cut(8, 6, 96, 96) == [slice(0, 4), slice(4, 8)]
    assert cut(8, 6, 120, 120) == [slice(0, 4), slice(4, 8)]    # infer120
    assert cut(1, 6, 240, 240) == [slice(0, 1)]
    assert cut(3, 6, 144, 144) == [slice(0, 2), slice(2, 3)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_shard_outputs_do_not_depend_on_worker_count(monkeypatch, cpus):
    model, img, target = _sharded_case()
    want = _step(model, img, target)  # on this process's own CPUs
    threads = {}  # shard size -> the thread that ran it

    def spy(shard, *args):
        threads[shard.shape[0]] = threading.current_thread().name
        return forward(shard, *args)

    forward = segnet._model_forward
    monkeypatch.setattr(segnet, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(segnet, "_model_forward", spy)
    logits, dimage, grads = _step(model, img, target)
    assert threads[3] == threading.current_thread().name
    assert threads[2].startswith("crackfuse-shard") == (cpus == 2)
    assert np.array_equal(logits, want[0]) and np.array_equal(dimage, want[1])
    assert grads.keys() == want[2].keys()
    for name, g in grads.items():
        assert np.array_equal(g, want[2][name]), name
    assert np.array_equal(segnet.predict(img, model), logits)


def test_shard_matches_whole_batch_within_tolerance():
    # splitting the batch changes the rounding of batch-wide sums only
    model, img, target = _sharded_case()
    logits, dimage, grads = _step(model, img, target)
    whole, vjp = segnet._model_forward(img, model, False)
    whole_dimage, whole_tree = vjp(train.cross_entropy(whole, target)[1](1.0)[0])
    assert np.max(np.abs(logits - whole)) <= 1e-12
    assert np.max(np.abs(dimage - whole_dimage)) <= 1e-12 * np.max(np.abs(whole_dimage))
    for name, g in tree_flatten(whole_tree).items():
        assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


def test_shard_below_gate_runs_whole_batch_on_caller(monkeypatch):
    monkeypatch.setattr(segnet, "_cpu_count", lambda: 2)
    monkeypatch.setattr(segnet, "_POOL", None)
    model = segnet.init_model(TOY, rng(43))
    img = rng(44).standard_normal((8, 6, 48, 48)) * 0.5
    dlogits = rng(45).standard_normal((8, 2, 48, 48))
    threads = threading.active_count()
    logits, vjp = segnet.model_forward(img, model)
    dimage, gtree = vjp(dlogits)
    whole, whole_vjp = segnet._model_forward(img, model, False)
    whole_dimage, whole_tree = whole_vjp(dlogits)
    assert np.array_equal(logits, whole) and np.array_equal(dimage, whole_dimage)
    for (name, g), w in zip(tree_flatten(gtree).items(), tree_flatten(whole_tree).values()):
        assert np.array_equal(g, w), name
    assert np.array_equal(segnet.predict(img, model), segnet._predict(img, model))
    assert segnet._POOL is None and threading.active_count() == threads


class _ShardFailed(Exception):
    pass


def test_shard_failure_reaches_caller(monkeypatch):
    model, img, _ = _sharded_case()
    want = segnet.predict(img, model)

    def second_fails(fn):
        def run(shard, *args):
            if shard.shape[0] == 2:  # the second shard of the 3 + 2 cut
                raise _ShardFailed("shard 1")
            return fn(shard, *args)
        return run

    monkeypatch.setattr(segnet, "_cpu_count", lambda: 2)
    with monkeypatch.context() as m:
        m.setattr(segnet, "_model_forward", second_fails(segnet._model_forward))
        m.setattr(segnet, "_predict", second_fails(segnet._predict))
        with pytest.raises(_ShardFailed):
            segnet.model_forward(img, model)
        with pytest.raises(_ShardFailed):
            segnet.predict(img, model)
    assert np.array_equal(segnet.predict(img, model), want)
    assert np.array_equal(segnet.model_forward(img, model)[0], want)


def test_shard_failure_in_first_waits_for_second(monkeypatch):
    model, img, _ = _sharded_case()
    done = []

    def fake(shard, model):
        if shard.shape[0] == 3:  # the first shard fails at once
            raise _ShardFailed("shard 0")
        time.sleep(0.2)
        done.append(threading.current_thread().name)
        return np.zeros((shard.shape[0], 2) + shard.shape[2:])

    monkeypatch.setattr(segnet, "_cpu_count", lambda: 2)
    monkeypatch.setattr(segnet, "_predict", fake)
    with pytest.raises(_ShardFailed):
        segnet.predict(img, model)
    assert len(done) == 1 and done[0].startswith("crackfuse-shard")
