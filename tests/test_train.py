import dataclasses
import json
import math

import numpy as np
import pytest

from crackfuse import data, segnet, train
from crackfuse.gradcheck import grad_check
from crackfuse.trees import tree_flatten

CFG3 = segnet.ModelConfig(in_channels=3, patch_size=3, embed_dims=(4, 8, 16, 32),
                          depths=(1, 1, 1, 1), state_dim=2, num_classes=2, decoder_dim=4)


def test_ce_confident_correct_is_tiny():
    logits = np.zeros((1, 2, 2, 2))
    target = np.array([[[1, 0], [0, 1]]])
    logits[0, 1][target[0] == 1] = 20.0
    logits[0, 0][target[0] == 0] = 20.0
    loss, _ = train.cross_entropy(logits, target)
    assert loss < 1e-8


def test_ce_uniform_is_ln2():
    loss, _ = train.cross_entropy(np.zeros((2, 2, 3, 3)), np.zeros((2, 3, 3), dtype=int))
    assert abs(loss - math.log(2.0)) < 1e-12


def test_ce_target_range_checked():
    with pytest.raises(ValueError, match="labels"):
        train.cross_entropy(np.zeros((1, 2, 2, 2)), np.full((1, 2, 2), 3))


def test_ce_gradcheck():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((1, 2, 3, 3))
    target = rng.integers(0, 2, (1, 3, 3))
    rep = grad_check(lambda lg: train.cross_entropy(lg, target), [logits],
                     tol=1e-5, name="cross_entropy")
    assert rep.passed, str(rep)


def test_adamw_hand_step():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([1.0])}
    state = train.init_optimizer(params)
    new, state = train.adamw_step(params, grads, state, lr=0.1, weight_decay=0.01)
    assert abs(new["w"][0] - 0.899) < 1e-6
    assert state.step == 1


def test_adamw_pure_decay_with_zero_grads():
    params = {"w": np.array([2.0])}
    state = train.init_optimizer(params)
    p = params
    for _ in range(3):
        p, state = train.adamw_step(p, {"w": np.zeros(1)}, state, lr=0.1, weight_decay=0.01)
    assert abs(p["w"][0] - 2.0 * (1 - 0.1 * 0.01) ** 3) < 1e-12


def test_adamw_bias_correction_first_step():
    g = np.array([0.37])
    state = train.init_optimizer({"w": np.zeros(1)})
    train.adamw_step({"w": np.zeros(1)}, {"w": g}, state, lr=0.0)
    m_hat = state.m["w"] / (1 - 0.9)
    np.testing.assert_allclose(m_hat, g)


def test_adamw_nonfinite_grad_names_param():
    params = {"layer.weight": np.ones(2)}
    state = train.init_optimizer(params)
    with pytest.raises(FloatingPointError, match="layer.weight"):
        train.adamw_step(params, {"layer.weight": np.array([1.0, np.nan])}, state, lr=0.1)


def test_train_config_defaults_and_validation():
    cfg = train.TrainConfig()
    assert cfg.total_iters == 20000
    assert cfg.base_lr == 3e-5
    assert cfg.weight_decay == 0.01
    assert cfg.warmup_iters == 1500
    assert cfg.poly_power == 0.9
    with pytest.raises(ValueError):
        train.TrainConfig(warmup_iters=10, total_iters=10)
    with pytest.raises(ValueError):
        train.TrainConfig(base_lr=0.0)
    for name in ("batch_size", "eval_interval"):
        with pytest.raises(ValueError, match=name):
            train.TrainConfig(**{name: 0})


def _global_norm(grads):
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def test_clip_grad_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[-4.0]])}  # global norm 5
    clipped = train.clip_grad_norm(grads, 1.0)
    assert abs(_global_norm(clipped) - 1.0) < 1e-12
    for name, g in grads.items():  # rescaled, direction kept
        np.testing.assert_allclose(clipped[name], g / 5.0, rtol=1e-15)
    for max_norm in (5.0, 7.5):  # at or below the threshold: unchanged
        same = train.clip_grad_norm(grads, max_norm)
        assert all(np.array_equal(same[k], grads[k]) for k in grads)
    zeros = {"a": np.zeros(2), "b": np.zeros((1, 1))}
    out = train.clip_grad_norm(zeros, 1.0)
    assert all(np.array_equal(out[k], zeros[k]) for k in zeros)


def test_train_with_grad_clip_is_deterministic(tmp_path, monkeypatch):
    norms = []
    real = train.clip_grad_norm

    def spy(grads, max_norm):
        out = real(grads, max_norm)
        norms.append((_global_norm(grads), _global_norm(out)))
        return out

    monkeypatch.setattr(train, "clip_grad_norm", spy)
    runs = []
    for run in range(2):
        tcfg, tsrc, vsrc = _toy_setup(tmp_path / f"r{run}", total=4, eval_interval=2)
        tcfg = dataclasses.replace(tcfg, grad_clip=0.05)
        model = segnet.init_model(CFG3, data.named_rng(0, "init"))
        res = train.train(model, tsrc, tcfg, val_batches_fn=vsrc.eval_batches)
        runs.append((res.loss_curve, segnet.flatten_weights(model),
                     train.load_checkpoint(res.last_path)[0]))
    assert len(norms) == 8
    assert all(before > 0.05 and abs(after - 0.05) < 1e-12 for before, after in norms)
    (curve_a, weights_a, ckpt_a), (curve_b, weights_b, ckpt_b) = runs
    assert curve_a == curve_b
    for a, b in ((weights_a, weights_b), (ckpt_a, ckpt_b)):
        assert list(a) == list(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)


def test_poly_lr_schedule():
    cfg = train.TrainConfig(total_iters=20000, warmup_iters=1500, base_lr=3e-5,
                            poly_power=0.9)
    assert train.poly_lr(1500, cfg) == 3e-5
    assert train.poly_lr(20000, cfg) == 0.0
    assert abs(train.poly_lr(10750, cfg) - 3e-5 * 0.5 ** 0.9) < 1e-12
    assert abs(train.poly_lr(10750, cfg) - 1.6075e-5) < 5e-9
    # continuity at the boundary and monotone decay after it
    assert abs(train.poly_lr(1499, cfg) - train.poly_lr(1500, cfg)) < 3e-5 / 1500 + 1e-12
    lrs = [train.poly_lr(i, cfg) for i in range(1500, 20001, 250)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    # linear warmup takes a nonzero first step
    assert train.poly_lr(0, cfg) == 3e-5 / 1500


def _toy_setup(tmp_path, n=6, total=6, eval_interval=3, seed=0):
    samples = data.synth_dataset(seed, n, (24, 24), "1")
    table = data.materialize(samples, "P_RGB")
    ids = [s.id for s in samples]
    split = {i: ("train" if k < n - 2 else "val") for k, i in enumerate(ids)}
    train_ids = [i for i in ids if split[i] == "train"]
    val_ids = [i for i in ids if split[i] == "val"]
    tcfg = train.TrainConfig(total_iters=total, batch_size=2, base_lr=1e-3,
                             warmup_iters=2, seed=seed, eval_interval=eval_interval,
                             checkpoint_dir=str(tmp_path / "ck"))
    tsrc = data.BatchSource(table, train_ids, 2, 24, seed, augment_data=True)
    vsrc = data.BatchSource(table, val_ids, 2, 24, seed, augment_data=False)
    return tcfg, tsrc, vsrc


def test_train_deterministic_bitwise(tmp_path):
    curves = []
    for run in range(2):
        tcfg, tsrc, vsrc = _toy_setup(tmp_path / f"r{run}")
        model = segnet.init_model(CFG3, data.named_rng(0, "init"))
        res = train.train(model, tsrc, tcfg, val_batches_fn=vsrc.eval_batches)
        curves.append(res.loss_curve)
    assert curves[0] == curves[1]


def test_train_resume_continues_curve(tmp_path):
    tcfg, tsrc, vsrc = _toy_setup(tmp_path / "full", total=6, eval_interval=3)
    model = segnet.init_model(CFG3, data.named_rng(0, "init"))
    full = train.train(model, tsrc, tcfg, val_batches_fn=vsrc.eval_batches)

    # interrupt the same schedule at iteration 2 (not an eval boundary), resume
    tcfg_a, tsrc_a, vsrc_a = _toy_setup(tmp_path / "half", total=6, eval_interval=3)
    model_a = segnet.init_model(CFG3, data.named_rng(0, "init"))
    half = train.train(model_a, tsrc_a, tcfg_a, val_batches_fn=vsrc_a.eval_batches,
                       stop_after=2)
    assert len(half.loss_curve) == 2

    tcfg_b, tsrc_b, vsrc_b = _toy_setup(tmp_path / "resume", total=6, eval_interval=3)
    model_b = segnet.init_model(CFG3, data.named_rng(0, "init"))
    resumed = train.train(model_b, tsrc_b, tcfg_b, val_batches_fn=vsrc_b.eval_batches,
                          resume_from=half.last_path)
    assert half.loss_curve + resumed.loss_curve == full.loss_curve


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    named = {"a.w": rng.standard_normal((3, 4)), "b.v": rng.standard_normal(5)}
    manifest = {"iteration": 7, "note": "x"}
    p1 = tmp_path / "c1.ckpt"
    p2 = tmp_path / "c2.ckpt"
    train.save_checkpoint(p1, named, manifest)
    tensors, man = train.load_checkpoint(p1)
    train.save_checkpoint(p2, tensors, man)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_save_failure_keeps_previous(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    old = {"a.w": rng.standard_normal((3, 4)), "b.v": rng.standard_normal(5)}
    path = tmp_path / "last.ckpt"
    train.save_checkpoint(path, old, {"iteration": 1})
    before = path.read_bytes()

    calls = []
    real = train.tensor_to_bytes

    def failing(arr):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(arr)

    monkeypatch.setattr(train, "tensor_to_bytes", failing)
    new = {k: v + 1.0 for k, v in old.items()}
    with pytest.raises(OSError, match="disk full"):
        train.save_checkpoint(path, new, {"iteration": 2})
    assert len(calls) == 2
    assert path.read_bytes() == before
    tensors, manifest = train.load_checkpoint(path)
    assert manifest["iteration"] == 1
    for k, v in old.items():
        assert np.array_equal(tensors[k], v)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]


def test_resume_refuses_mismatched_run(tmp_path):
    tcfg, tsrc, vsrc = _toy_setup(tmp_path / "half", total=6, eval_interval=3)
    model = segnet.init_model(CFG3, data.named_rng(0, "init"))
    half = train.train(model, tsrc, tcfg, stop_after=1)
    tcfg_b, tsrc_b, _ = _toy_setup(tmp_path / "resume", total=8, eval_interval=4)
    model_b = segnet.init_model(CFG3, data.named_rng(0, "init"))
    with pytest.raises(ValueError, match="total_iters") as err:
        train.train(model_b, tsrc_b, tcfg_b, resume_from=half.last_path)
    assert "eval_interval" in str(err.value)
    assert "checkpoint_dir" not in str(err.value)


def test_training_logs_jsonl(tmp_path):
    tcfg, tsrc, vsrc = _toy_setup(tmp_path, total=4, eval_interval=2)
    model = segnet.init_model(CFG3, data.named_rng(0, "init"))
    log = tmp_path / "metrics.jsonl"
    train.train(model, tsrc, tcfg, val_batches_fn=vsrc.eval_batches, log_path=str(log))
    recs = [json.loads(line) for line in log.read_text().splitlines()]
    steps = [r for r in recs if "loss" in r]
    evals = [r for r in recs if "miou" in r]
    assert len(steps) == 4 and {"iter", "loss", "lr"} <= set(steps[0])
    assert len(evals) == 2 and {"iter", "miou", "iou_bg", "iou_crack"} <= set(evals[0])


def test_training_aborts_on_nonfinite_loss(tmp_path):
    tcfg, tsrc, vsrc = _toy_setup(tmp_path, total=4, eval_interval=2)
    model = segnet.init_model(CFG3, data.named_rng(0, "init"))
    model.weights.decoder.classifier.w[:] = np.nan  # force a non-finite loss
    with pytest.raises(train.TrainingDiverged, match="non-finite"):
        train.train(model, tsrc, tcfg, val_batches_fn=vsrc.eval_batches)


def test_single_step_descends_for_small_lr():
    rng = np.random.default_rng(2)
    failures = 0
    for trial in range(20):
        model = segnet.init_model(CFG3, np.random.default_rng(200 + trial))
        x = rng.standard_normal((1, 3, 24, 24)) * 0.4
        target = rng.integers(0, 2, (1, 24, 24))
        params = segnet.flatten_weights(model)
        logits, vjp = segnet.model_forward(x, model)
        loss0, vjp_loss = train.cross_entropy(logits, target)
        _, gtree = vjp(vjp_loss(1.0)[0])
        grads = tree_flatten(gtree)
        state = train.init_optimizer(params)
        new_params, _ = train.adamw_step(params, grads, state, lr=1e-6)
        model.weights = segnet.unflatten_weights(model, new_params)
        loss1, _ = train.cross_entropy(segnet.model_forward(x, model)[0], target)
        if not loss1 < loss0:
            failures += 1
    assert failures <= 1


def test_evaluate_model_report_shape(tmp_path):
    tcfg, tsrc, vsrc = _toy_setup(tmp_path)
    model = segnet.init_model(CFG3, data.named_rng(0, "init"))
    rep = train.evaluate_model(model, vsrc.eval_batches())
    assert 0.0 <= rep["miou"] <= 1.0
    assert rep["image_count"] == 2
    assert len(rep["iou_per_class"]) == 2
