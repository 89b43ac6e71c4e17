import dataclasses
import re
import threading
import time
import weakref

import numpy as np
import pytest

from crackfuse import checks, ops, segnet, train
from crackfuse.gradcheck import grad_check
from crackfuse.trees import tree_astype, tree_flatten, tree_unflatten

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
    with pytest.raises(ValueError, match=r"embed_dims is \(16,\), not a tuple of two or more"):
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


def test_downsample_concat_order_matches_strided_slices():
    # the concat order is part of every stored checkpoint's weights: pin it
    # against the four strided slices it was first written as
    w = segnet.DownsampleWeights(w=rng(30).standard_normal((12, 6)), b=rng(31).standard_normal(6))
    x = rng(32).standard_normal((2, 4, 6, 3))
    parts = np.concatenate([x[:, 0::2, 0::2], x[:, 1::2, 0::2],
                            x[:, 0::2, 1::2], x[:, 1::2, 1::2]], axis=-1)
    want_y, vjp_lin = ops.linear(parts, w.w, w.b)
    y, vjp = segnet.downsample(x, w)
    np.testing.assert_array_equal(y, want_y)
    dy = rng(33).standard_normal(y.shape)
    dparts = vjp_lin(dy)[0]
    want = np.zeros_like(x)
    for k, (r, s) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        want[:, r::2, s::2] = dparts[..., k * 3:(k + 1) * 3]
    np.testing.assert_array_equal(vjp(dy)[0], want)


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


def test_encoder_vjp_frees_the_stage_grids():
    # the vjp checks the upstream count against a number, so the grids it
    # returned are the caller's to free
    model = segnet.init_model(TINY, rng(18))
    img = rng(19).standard_normal((1, 2, 24, 24))
    feats, vjp = segnet.encoder_forward(img, model.weights.encoder, TINY)
    deepest = weakref.ref(feats[-1])
    del feats
    assert deepest() is None
    with pytest.raises(ValueError, match="expected 4 upstream grids, got 3"):
        vjp([None] * 3)


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


_DEPTHS = [TOY, *(dataclasses.replace(_reduced(d), in_channels=6)
                  for d in [(2, 0), (0, 2), (2, 1, 0, 3)])]
_DEPTH_IDS = ["default", "depths-2-0", "depths-0-2", "depths-2-1-0-3"]


@pytest.mark.parametrize("cfg, dtype", [(c, np.float64) for c in _DEPTHS]
                         + [(c, np.float32) for c in _DEPTHS],
                         ids=_DEPTH_IDS + [f"{i}-f32" for i in _DEPTH_IDS])
def test_predict_equals_model_forward_bitwise(cfg, dtype):
    # stages with two blocks and with none walk the same steps in both
    model = segnet.init_model(cfg, rng(36))
    img = (rng(37).standard_normal((2, 6, 48, 48)) * 0.5).astype(dtype)
    logits, _ = segnet.model_forward(img, model)
    assert logits.dtype == dtype
    assert np.array_equal(segnet.predict(img, model), logits)
    with pytest.raises(ValueError, match="expected 6 input channels, got 3"):
        segnet.predict(np.zeros((1, 3, 48, 48)), model)


def test_predict_peak_memory_below_model_forward(peak_bytes):
    # measured on two 48 x 48 frames of the default config: predict peaks at
    # 0.54 of model_forward (3.96 against 7.28 MB), since predict keeps no
    # step's closure in the encoder or the decoder; the bound was set at
    # 0.50 plus 10%, before model_forward's decoder freed its lists
    model = segnet.init_model(TOY, rng(7))
    image = rng(8).standard_normal((2, 6, 48, 48))
    segnet.model_forward(image, model)  # first-call caches stay out of the count
    _, train_peak = peak_bytes(lambda im: segnet.model_forward(im, model), image.copy)
    _, infer_peak = peak_bytes(lambda im: segnet.predict(im, model), image.copy)
    assert infer_peak <= 0.55 * train_peak, (infer_peak, train_peak)


# tracemalloc peak of model_forward on two 48 x 48 frames of the default
# config; the decoder drops its pyramid lists before the head runs
MODEL_FORWARD_PEAK_2X48 = 7_275_840


def test_model_forward_peak_memory(peak_bytes):
    # the bound is the measured figure plus 10%; holding the decoder's lists
    # through the head peaks at 8.11 MB and fails it
    model = segnet.init_model(TOY, rng(7))
    image = rng(8).standard_normal((2, 6, 48, 48))
    segnet.model_forward(image, model)  # first-call caches stay out of the count
    _, peak = peak_bytes(lambda im: segnet.model_forward(im, model), image.copy)
    assert peak <= 1.1 * MODEL_FORWARD_PEAK_2X48, peak


# tracemalloc bytes that model_forward's logits and vjp keep alive for two
# float64 48 x 48 frames of the default config, measured with the weights
# used as they are (no cast copy, no flattened tree)
RETAINED_2X48 = 6_291_088


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
    want, got = tree_flatten(model.weights), tree_flatten(rebuilt)
    assert list(want) == list(got)
    for name, a in want.items():
        assert a is got[name], name
    # a dict is a tree keyed by name, so a flat gradient dict's dotted keys
    # go under the prefix as they are
    nested = {"enc": {"scans.0.a_log": rng(36).standard_normal(2)}, "dec": [np.zeros(1)]}
    flat = tree_flatten(nested, "1")
    assert list(flat) == ["1.enc.scans.0.a_log", "1.dec.0"]
    rebuilt = tree_unflatten(nested, flat, "1")
    assert rebuilt["enc"]["scans.0.a_log"] is flat["1.enc.scans.0.a_log"]
    assert rebuilt["dec"][0] is flat["1.dec.0"]


def test_tree_astype_casts_leaves_or_returns_the_tree():
    model = segnet.init_model(TINY, rng(37))
    assert tree_astype(model, np.float64) is model  # the float64 entries copy nothing
    cast = tree_astype(model, np.float32)
    assert cast.cfg == model.cfg
    master, work = tree_flatten(model), tree_flatten(cast)
    assert list(master) == list(work)
    for name, a in master.items():
        assert work[name].dtype == np.float32 and a.dtype == np.float64, name
        assert np.array_equal(work[name], a.astype(np.float32)), name
    assert tree_astype(cast, np.float32) is cast


# --------------------------------------------------------------------------
# Sharded batches: above segnet._SHARD_MIN_PIXELS a batch runs as two shards,
# the second on a worker thread. TINY at 5 x 120^2 holds 43,200 pixels in its
# first shard, above the gate, and cuts unevenly (3 + 2 images).


def _sharded_case(dtype=np.float64):
    model = segnet.init_model(TINY, rng(40))
    img = (rng(41).standard_normal((5, 2, 120, 120)) * 0.5).astype(dtype)
    target = rng(42).integers(0, 2, size=(5, 120, 120))
    assert segnet._shards(img) == [slice(0, 3), slice(3, 5)]
    return model, img, target


def _step(model, img, target):
    """Logits, dimage and the flat weight gradient of one cross-entropy step."""
    logits, vjp = segnet.model_forward(img, model)
    dimage, grads = vjp(train.cross_entropy(logits, target)[1](1.0)[0])
    return logits, dimage, grads


def test_shard_cut_follows_the_gate():
    def cut(*shape):
        return segnet._shards(np.broadcast_to(0.0, shape))

    assert cut(8, 6, 48, 48) == [slice(0, 8)]    # train48's step and val pass
    assert cut(8, 6, 72, 72) == [slice(0, 8)]
    assert cut(8, 6, 96, 96) == [slice(0, 4), slice(4, 8)]
    assert cut(8, 6, 120, 120) == [slice(0, 4), slice(4, 8)]    # infer120
    assert cut(1, 6, 240, 240) == [slice(0, 1)]
    assert cut(3, 6, 144, 144) == [slice(0, 2), slice(2, 3)]


@pytest.mark.parametrize("cpus, dtype", [(1, np.float64), (2, np.float64),
                                         (1, np.float32), (2, np.float32)],
                         ids=["1", "2", "1-f32", "2-f32"])
def test_shard_outputs_do_not_depend_on_worker_count(monkeypatch, cpus, dtype):
    model, img, target = _sharded_case(dtype)
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
    assert logits.dtype == dimage.dtype == dtype
    assert grads.keys() == want[2].keys()
    for name, g in grads.items():
        assert np.array_equal(g, want[2][name]), name
    assert np.array_equal(segnet.predict(img, model), logits)
    # clip_grad_norm sums in dict order: two shards and one keep the weights' order
    names = list(tree_flatten(model.weights))
    assert list(grads) == names
    assert segnet._shards(img[:1]) == [slice(0, 1)]
    assert list(_step(model, img[:1], target[:1])[2]) == names


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
    dimage, grads = vjp(dlogits)
    whole, whole_vjp = segnet._model_forward(img, model, False)
    whole_dimage, whole_tree = whole_vjp(dlogits)
    assert np.array_equal(logits, whole) and np.array_equal(dimage, whole_dimage)
    whole_grads = tree_flatten(whole_tree)
    assert grads.keys() == whole_grads.keys()
    for name, g in grads.items():
        assert np.array_equal(g, whole_grads[name]), name
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


@pytest.mark.parametrize("shape", [(0, 6, 24, 24), (1, 6, 0, 0), (1, 6, 0, 24)],
                         ids=["no-images", "no-pixels", "no-rows"])
@pytest.mark.parametrize("entry", ["model_forward", "predict"])
def test_empty_images_rejected(entry, shape):
    model = segnet.init_model(TOY, rng(40))
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        getattr(segnet, entry)(np.zeros(shape), model)


def _dtypes(tree):
    """The dtype of each leaf of tree, by name."""
    return {k: v.dtype for k, v in tree_flatten(tree).items()}


SUITE = checks.suite()


@pytest.mark.parametrize("check", SUITE, ids=[name for name, *_ in SUITE])
def test_suite_op_computes_in_float32(check):
    # every layer follows its input's dtype; only the entries pick one (ops.as_float)
    _name, fn, inputs, _max_entries = check
    y, vjp = fn(*tree_astype(inputs, np.float32))
    if isinstance(y, float):  # a loss
        dy = 1.0
    else:
        assert set(_dtypes(y).values()) == {np.dtype(np.float32)}, _dtypes(y)
        dy = tree_astype(tree_unflatten(y, {k: np.random.default_rng(1).standard_normal(v.shape)
                                            for k, v in tree_flatten(y).items()}), np.float32)
    grads = _dtypes(list(vjp(dy)))
    assert len(grads) == len(tree_flatten(list(inputs)))
    assert set(grads.values()) == {np.dtype(np.float32)}, grads


@pytest.mark.parametrize("parallel", [False, True], ids=["seq", "par"])
def test_model_computes_in_float32(parallel):
    # float32 images run the layers in float32 behind the float64 masters
    model = segnet.init_model(TOY, rng(50))
    master = tree_flatten(model.weights)
    kept = {k: v.copy() for k, v in master.items()}
    image = rng(51).uniform(size=(2, 6, 48, 48))
    dlogits = rng(52).standard_normal((2, 2, 48, 48))
    logits, vjp = segnet.model_forward(image.astype(np.float32), model, parallel)
    dimage, grads = vjp(dlogits.astype(np.float32))
    assert logits.dtype == dimage.dtype == np.float32
    leaves = tree_flatten(grads)
    assert len(leaves) == 174 and set(_dtypes(grads).values()) == {np.dtype(np.float64)}
    for name, leaf in tree_flatten(model.weights).items():
        assert leaf is master[name] and np.array_equal(leaf, kept[name]), name
    # the layers behind the cast keep every weight gradient in float32
    work = tree_astype(model, np.float32)
    _, vjp32 = segnet._model_forward(image.astype(np.float32), work, parallel)
    assert set(_dtypes(vjp32(dlogits.astype(np.float32))[1]).values()) == {np.dtype(np.float32)}
    predicted = segnet.predict(image.astype(np.float32), model)  # the sequential scan
    assert predicted.dtype == np.float32
    # float32 against the float64 pass: logits relative to the largest
    # float64 logit, each gradient leaf relative to its own largest entry
    want, want_vjp = segnet.model_forward(image, model, parallel)
    for got in (logits, predicted):
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
    for name, g in tree_flatten(want_vjp(dlogits)[1]).items():
        assert np.abs(leaves[name] - g).max() <= 1e-4 * np.abs(g).max(), name
