import copy
import dataclasses
import json
import math
import os
import re
import stat
import threading
import warnings
import zipfile

import numpy as np
import pytest

from crackfuse import data, segnet, sr, train
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
    train.adamw_step(params, grads, state, lr=0.1, weight_decay=0.01)
    assert abs(params["w"][0] - 0.899) < 1e-6
    assert state.step == 1

    # three in-place steps on two leaves give the out-of-place update's bits
    rng = np.random.default_rng(4)
    params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
    ref = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    state = train.init_optimizer(params)
    lr, wd = 0.05, 0.1
    for t in range(1, 4):
        grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        train.adamw_step(params, grads, state, lr, weight_decay=wd)
        for k, g in grads.items():
            m[k] = 0.9 * m[k] + (1 - 0.9) * g
            v[k] = 0.999 * v[k] + (1 - 0.999) * (g * g)
            m_hat = m[k] / (1 - 0.9 ** t)
            v_hat = v[k] / (1 - 0.999 ** t)
            ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + 1e-8) - lr * wd * ref[k]
        for k in ref:
            assert params[k].tobytes() == ref[k].tobytes(), (t, k)
            assert state.m[k].tobytes() == m[k].tobytes() and state.v[k].tobytes() == v[k].tobytes()


def test_adamw_pure_decay_with_zero_grads():
    params = {"w": np.array([2.0])}
    state = train.init_optimizer(params)
    for _ in range(3):
        train.adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1, weight_decay=0.01)
    assert abs(params["w"][0] - 2.0 * (1 - 0.1 * 0.01) ** 3) < 1e-12


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


@pytest.mark.parametrize("bad, error", [(np.array([1.0, np.nan]), FloatingPointError),
                                        (np.ones(3), ValueError)], ids=["nan", "shape"])
def test_adamw_refused_gradient_changes_nothing(bad, error):
    params = {"a": np.array([1.0, -2.0]), "b": np.array([0.5, 3.0])}
    state = train.init_optimizer(params)
    train.adamw_step(params, {"a": np.array([0.3, 0.1]), "b": np.array([-0.2, 0.4])}, state, lr=0.1)
    before = copy.deepcopy((params, state))
    # the second leaf's gradient is refused after the first leaf's was accepted
    with pytest.raises(error, match="'b'|^b:"):
        train.adamw_step(params, {"a": np.array([1.0, 1.0]), "b": bad}, state, lr=0.1)
    for now, then in ((params, before[0]), (state.m, before[1].m), (state.v, before[1].v)):
        assert all(now[k].tobytes() == then[k].tobytes() for k in then)
    assert state.step == before[1].step == 1


def test_adamw_steps_without_a_copy_of_the_weights(peak_bytes):
    # measured at the default config, whose largest leaf is 0.59 MB: in place,
    # a step peaks at 1.77 MB and keeps under 1 kB; an out-of-place step that
    # returns new weights and moments peaked at 9.88 MB and kept 9.00 MB
    model = segnet.init_model(segnet.ModelConfig(), np.random.default_rng(0))
    leaves = tree_flatten(model.weights)
    largest = max(a.nbytes for a in leaves.values())
    rng = np.random.default_rng(1)
    grads = {k: rng.standard_normal(a.shape) for k, a in leaves.items()}
    state = train.init_optimizer(model.weights)
    # first-call caches stay out of the count
    train.adamw_step(model.weights, grads, state, lr=1e-3)
    _, peak, held = peak_bytes(lambda g: train.adamw_step(model.weights, g, state, lr=1e-3),
                               lambda: grads)
    assert peak < 5 * largest, (peak, largest)
    assert held < largest // 100, held


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
    for name, value in [("total_iters", "x"), ("base_lr", None), ("seed", 1.0), ("grad_clip", "1"),
                        # a clip at or below 0 would flip or zero every gradient
                        ("grad_clip", -1.0), ("grad_clip", 0), ("grad_clip", math.nan),
                        ("base_lr", math.inf), ("base_lr", math.nan), ("weight_decay", -0.01),
                        ("weight_decay", math.nan), ("poly_power", -0.5), ("poly_power", math.inf)]:
        with pytest.raises(ValueError, match=name):
            train.TrainConfig(**{name: value})
    train.TrainConfig(weight_decay=0, poly_power=0.0)


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
    # a non-finite leaf reaches adamw_step as it is, so the error names it
    params = {"a": np.zeros(3), "b": np.zeros(2)}
    for bad in (np.nan, np.inf):
        grads = {"a": np.ones(3), "b": np.array([1.0, bad])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = train.clip_grad_norm(grads, 0.5)
            with pytest.raises(FloatingPointError, match="parameter 'b'"):
                train.adamw_step(params, out, train.init_optimizer(params), lr=1e-3)


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


def test_train_leaves_the_callers_weights_alone(tmp_path):
    tcfg, tsrc, vsrc = _toy_setup(tmp_path)
    model = segnet.init_model(CFG3, data.named_rng(0, "init"))
    caller = tree_flatten(model.weights)
    snapshot = {k: a.copy() for k, a in caller.items()}
    res = train.train(model, tsrc, tcfg, val_batches_fn=vsrc.eval_batches, stop_after=2)
    assert all(caller[k].tobytes() == snapshot[k].tobytes() for k in snapshot)
    tensors, _ = train.load_checkpoint(res.last_path)
    trained = tree_flatten(model.weights)
    assert set(trained) == {k for k in tensors if not k.startswith("opt.")}
    assert all(trained[k].tobytes() == tensors[k].tobytes() for k in trained)
    assert not all(trained[k].tobytes() == snapshot[k].tobytes() for k in snapshot)


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


def test_checkpoint_save_leaves_other_temporary_files_alone(tmp_path):
    """Each writer makes its own temporary file: another's .tmp beside path,
    or a crashed writer's leftover under this writer's first name, survives a
    save unchanged, and the checkpoint gets a plain open's permission bits."""
    path = tmp_path / "last.ckpt"
    other = tmp_path / "last.ckpt.tmp"
    other.write_bytes(b"another writer's bytes")
    leftover = tmp_path / f"last.ckpt.{os.getpid()}.{threading.get_ident()}.0.tmp"
    leftover.write_bytes(b"a crashed writer's bytes")
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    train.save_checkpoint(path, {"w": np.arange(4.0)}, {"iteration": 1})
    assert other.read_bytes() == b"another writer's bytes"
    assert leftover.read_bytes() == b"a crashed writer's bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["last.ckpt", other.name, leftover.name, "plain"])
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    tensors, manifest = train.load_checkpoint(path)
    assert manifest == {"iteration": 1} and np.array_equal(tensors["w"], np.arange(4.0))


def _zip_with(path, **entries):
    with zipfile.ZipFile(path, "w") as z:
        for name, payload in entries.items():
            z.writestr(name.replace("__", "/"), payload)
    return path


@pytest.mark.parametrize("make,match", [
    (lambda p: _zip_with(p, **{"manifest.json": "[1, 2]"}), "list, not a JSON object"),
    (lambda p: _zip_with(p, **{"manifest.json": '"v1"'}), "str, not a JSON object"),
    (lambda p: _zip_with(p, **{"manifest.json": "{"}), "unreadable"),
    (lambda p: _zip_with(p, **{"tensors__w.mscm": b"MSCM"}), "manifest.json"),
    (lambda p: _zip_with(p, **{"manifest.json": "{}", "tensors__w.mscm": b"MSCX\x02\x00"}),
     "bad magic"),
    (lambda p: p.write_bytes(b"not a zip archive") and p, "not a zip file"),
    (lambda p: p, "No such file"),
], ids=["list-manifest", "string-manifest", "bad-json", "no-manifest", "bad-tensor",
        "not-zip", "missing"])
def test_load_checkpoint_names_path_in_checkpoint_error(tmp_path, make, match):
    path = make(tmp_path / "bad.ckpt")
    with pytest.raises(train.CheckpointError, match=match) as err:
        train.load_checkpoint(path)
    assert str(path) in str(err.value)
    assert isinstance(err.value, ValueError)


def test_load_checkpoint_truncated_archive(tmp_path):
    path = tmp_path / "last.ckpt"
    train.save_checkpoint(path, {"w": np.arange(4.0)}, {"iteration": 1})
    whole = path.read_bytes()
    for keep in (0, 10, len(whole) // 2, len(whole) - 1):
        path.write_bytes(whole[:keep])
        with pytest.raises(train.CheckpointError, match=str(path)):
            train.load_checkpoint(path)


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


RESUME_CFG = train.TrainConfig(total_iters=4, batch_size=2, warmup_iters=1)


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """A segmenter archive as train writes it mid-run, and an SR archive."""
    root = tmp_path_factory.mktemp("archives")
    weights = segnet.flatten_weights(segnet.init_model(CFG3, np.random.default_rng(0)))
    named = {**weights, **{f"opt.{moment}.{k}": np.zeros_like(v)
                           for moment in "mv" for k, v in weights.items()}}
    train.save_checkpoint(root / "model.ckpt", named, {
        "format": train.CHECKPOINT_FORMAT, "iteration": 2, "model_config": CFG3.to_dict(),
        "train_config": RESUME_CFG.to_dict(), "best_miou": -1.0})
    sr.save_sr_checkpoint(root / "sr.ckpt", sr.init_sr_model(2, np.random.default_rng(0), hidden=4))
    train.load_model_checkpoint(root / "model.ckpt")
    sr.load_sr_checkpoint(root / "sr.ckpt")
    return {"model": root / "model.ckpt", "sr": root / "sr.ckpt"}


def _resume(path):
    train.train(segnet.init_model(CFG3, np.random.default_rng(0)), None, RESUME_CFG,
                resume_from=path)


_READERS = {"resume": _resume, "eval": train.load_model_checkpoint,
            "sr": sr.load_sr_checkpoint}


def _without(*prefixes):
    return lambda t, m: ({k: v for k, v in t.items() if not k.startswith(prefixes)}, m)


def _with_entry(name, value):
    return lambda t, m: ({**t, name: value}, m)


def _with_field(key, value):
    return lambda t, m: (t, {**m, key: value})


def _without_field(key):
    return lambda t, m: (t, {k: v for k, v in m.items() if k != key})


_BAD_ARCHIVES = [
    # id, reader, edit of (tensors, manifest), what the error names besides the path
    ("wrong-format", "resume", _with_field("format", sr.SR_FORMAT),
     [train.CHECKPOINT_FORMAT, sr.SR_FORMAT]),
    ("extra-entry", "eval", _with_entry("decoder.extra", np.zeros(3)), ["decoder.extra"]),
    ("missing-entry", "eval", _without("decoder.fuse.w"), ["decoder.fuse.w"]),
    ("misshapen-entry", "sr", _with_entry("conv1_b", np.zeros(1)), ["conv1_b", "(1,)"]),
    ("misshapen-moment", "resume", _with_entry("opt.m.decoder.fuse.b", np.zeros(1)),
     ["opt.m.decoder.fuse.b"]),
    # adamw_step updates a leaf in place, so a stored float32 moment would stay float32
    ("float32-moment", "resume", _with_entry("opt.m.decoder.fuse.b", np.zeros(4, np.float32)),
     ["opt.m.decoder.fuse.b", "float32"]),
    ("float32-entry", "sr", _with_entry("conv1_b", np.zeros(4, np.float32)),
     ["conv1_b", "float32"]),
    ("partial-moments", "resume", _without("opt.v.decoder.classifier.b"),
     ["opt.v.decoder.classifier.b"]),
    ("resume-without-moments", "resume", _without("opt."), ["optimizer state"]),
    ("non-finite-entry", "eval", _with_entry("decoder.classifier.b", np.array([0.0, np.nan])),
     ["decoder.classifier.b", "non-finite"]),
    ("no-iteration", "resume", _without_field("iteration"), ["iteration is missing"]),
    ("string-iteration", "resume", _with_field("iteration", "x"), ["iteration is 'x'"]),
    ("list-model-config", "resume", _with_field("model_config", ["a", 1]),
     ["model_config is ['a', 1]"]),
    ("no-model-config", "eval", _without_field("model_config"), ["model_config is missing"]),
    ("unknown-model-key", "eval",
     lambda t, m: (t, {**m, "model_config": {**m["model_config"], "foo": 1}}), ["foo"]),
    ("no-scale", "sr", _without_field("scale"), ["scale is missing"]),
    ("zero-denominator", "sr", _with_field("scale", [2, 0]), ["scale is [2, 0]"]),
    ("string-scale", "sr", _with_field("scale", "2"), ["scale is '2'"]),
    # a resume that reads a best_miou of NaN or above 1 never rewrites best.ckpt
    *[(f"best-miou-{value}", "resume", _with_field("best_miou", value), [f"best_miou is {value!r}"])
      for value in ("nan", True, "0.5", 1e9)],
    *[(f"{key}-{value}", "sr", _with_field(key, value), [f"{key} is {value!r}"])
      for key in ("initial_loss", "final_loss") for value in ("inf", "nan", True)],
]


@pytest.mark.parametrize("reader,edit,names", [case[1:] for case in _BAD_ARCHIVES],
                         ids=[case[0] for case in _BAD_ARCHIVES])
def test_restore_checkpoint_refuses_bad_archive(tmp_path, archives, reader, edit, names):
    tensors, manifest = edit(*train.load_checkpoint(archives["sr" if reader == "sr" else "model"]))
    path = tmp_path / "bad.ckpt"
    train.save_checkpoint(path, tensors, manifest)
    with pytest.raises(train.CheckpointError) as err:
        _READERS[reader](path)
    for text in [str(path), *names]:
        assert text in str(err.value)


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


def _failing_at(it, fn, make_bad):
    """fn, but its call number it (from 0) passes its (value, vjp) through make_bad."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        out = fn(*args)
        return make_bad(*out) if len(calls) == it + 1 else out
    return wrapped


def _nan_loss(_loss, vjp):
    return math.nan, vjp


def _nan_grad(logits, vjp):
    def bad_vjp(dlogits):
        dimg, grads = vjp(dlogits)
        return dimg, {**grads, "decoder.classifier.b": np.full_like(grads["decoder.classifier.b"], np.nan)}
    return logits, bad_vjp


@pytest.mark.parametrize("module, name, make_bad, cause", [
    (train, "cross_entropy", _nan_loss, "non-finite loss"),
    (segnet, "model_forward", _nan_grad, "non-finite gradient for parameter 'decoder.classifier.b'"),
], ids=["loss", "gradient"])
def test_training_abort_snapshots_the_state_before_the_failed_iteration(
        tmp_path, monkeypatch, module, name, make_bad, cause):
    # iteration 2 fails; last.ckpt holds the state after iterations 0 and 1
    tcfg, tsrc, _ = _toy_setup(tmp_path, total=4, eval_interval=2)
    monkeypatch.setattr(module, name, _failing_at(2, getattr(module, name), make_bad))
    model = segnet.init_model(CFG3, data.named_rng(0, "init"))
    with pytest.raises(train.TrainingDiverged, match=re.escape(f"{cause} at iteration 2")) as err:
        train.train(model, tsrc, tcfg)
    assert isinstance(err.value.__cause__, FloatingPointError) == (name == "model_forward")
    last = os.path.join(tcfg.checkpoint_dir, "last.ckpt")
    tensors, manifest = train.load_checkpoint(last + ".aborted")
    assert manifest["iteration"] == 2
    good, _ = train.load_checkpoint(last)
    assert tensors.keys() == good.keys()
    for k, t in tensors.items():
        np.testing.assert_array_equal(t, good[k], err_msg=k)
    # the snapshot resumes like any checkpoint
    assert len(train.train(model, tsrc, tcfg, resume_from=last + ".aborted").loss_curve) == 2


def test_single_step_descends_for_small_lr():
    rng = np.random.default_rng(2)
    failures = 0
    for trial in range(20):
        model = segnet.init_model(CFG3, np.random.default_rng(200 + trial))
        x = rng.standard_normal((1, 3, 24, 24)) * 0.4
        target = rng.integers(0, 2, (1, 24, 24))
        logits, vjp = segnet.model_forward(x, model)
        loss0, vjp_loss = train.cross_entropy(logits, target)
        _, gtree = vjp(vjp_loss(1.0)[0])
        grads = tree_flatten(gtree)
        state = train.init_optimizer(model.weights)
        train.adamw_step(model.weights, grads, state, lr=1e-6)
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
