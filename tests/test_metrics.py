import math

import numpy as np
import pytest

from crackfuse.metrics import ConfusionMatrix, psnr, psnr_for_log


def brute_force_miou(pred, gt, num_classes):
    """Independent oracle: explicit per-pixel loops."""
    ious = []
    for cls in range(num_classes):
        tp = fp = fn = 0
        for p, g in zip(pred.ravel().tolist(), gt.ravel().tolist()):
            if p == cls and g == cls:
                tp += 1
            elif p == cls and g != cls:
                fp += 1
            elif p != cls and g == cls:
                fn += 1
        if tp + fp + fn > 0:
            ious.append(tp / (tp + fp + fn))
    return sum(ious) / len(ious)


def test_perfect_prediction():
    cm = ConfusionMatrix(2)
    gt = np.array([[0, 1], [1, 0]])
    cm.add(gt, gt)
    assert cm.miou() == 1.0
    assert np.all(cm.fp == 0) and np.all(cm.fn == 0)


def test_hand_example_four_pixels():
    cm = ConfusionMatrix(2)
    cm.add(np.array([0, 0, 0, 0]), np.array([1, 0, 0, 0]))
    assert cm.tp[0] == 3 and cm.fp[0] == 1 and cm.fn[0] == 0
    assert cm.tp[1] == 0 and cm.fp[1] == 0 and cm.fn[1] == 1
    assert cm.miou() == 0.375


def test_additivity_over_images():
    rng = np.random.default_rng(0)
    a_pred, a_gt = rng.integers(0, 2, (2, 6, 6))
    b_pred, b_gt = rng.integers(0, 2, (2, 4, 4))
    cm1 = ConfusionMatrix(2).add(a_pred, a_gt).add(b_pred, b_gt)
    cm2 = ConfusionMatrix(2).add(np.concatenate([a_pred.ravel(), b_pred.ravel()]),
                                 np.concatenate([a_gt.ravel(), b_gt.ravel()]))
    assert np.array_equal(cm1.tp, cm2.tp)
    assert np.array_equal(cm1.fp, cm2.fp)
    assert np.array_equal(cm1.fn, cm2.fn)
    assert np.array_equal(cm1.tn, cm2.tn)


def test_swap_symmetry():
    rng = np.random.default_rng(2)
    pred = rng.integers(0, 2, (8, 8))
    gt = rng.integers(0, 2, (8, 8))
    m1 = ConfusionMatrix(2).add(pred, gt).miou()
    m2 = ConfusionMatrix(2).add(gt, pred).miou()
    assert m1 == m2


def test_streamed_equals_single_pass_and_oracle():
    rng = np.random.default_rng(3)
    streamed = ConfusionMatrix(2)
    preds, gts = [], []
    for _ in range(50):
        p = rng.integers(0, 2, (8, 8))
        g = rng.integers(0, 2, (8, 8))
        streamed.add(p, g)
        preds.append(p)
        gts.append(g)
    whole = ConfusionMatrix(2).add(np.stack(preds), np.stack(gts))
    assert streamed.miou() == whole.miou()
    ref = brute_force_miou(np.stack(preds), np.stack(gts), 2)
    assert abs(streamed.miou() - ref) < 1e-12


def test_oracle_randomized_1000_cases():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = rng.integers(0, 2, (8, 8))
        g = rng.integers(0, 2, (8, 8))
        cm = ConfusionMatrix(2).add(p, g)
        assert abs(cm.miou() - brute_force_miou(p, g, 2)) < 1e-12
        vals = cm.iou()
        ok = vals[~np.isnan(vals)]
        assert np.all(ok >= 0.0) and np.all(ok <= 1.0)


def test_empty_class_excluded():
    cm = ConfusionMatrix(2)
    cm.add(np.zeros((4, 4), dtype=int), np.zeros((4, 4), dtype=int))
    assert cm.miou() == 1.0  # crack class empty, excluded
    vals = cm.iou()
    assert math.isnan(vals[1])


def test_errors():
    cm = ConfusionMatrix(2)
    with pytest.raises(ValueError, match="shape"):
        cm.add(np.zeros((2, 2), dtype=int), np.zeros((3, 2), dtype=int))
    with pytest.raises(ValueError, match="labels"):
        cm.add(np.full((2, 2), 5), np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError, match="undefined"):
        ConfusionMatrix(2).miou()


def test_psnr_values():
    a = np.zeros((3, 4, 4))
    assert psnr(a, a) == math.inf
    b = a + 1.0 / 255.0
    assert abs(psnr(a, b) - 20.0 * math.log10(255.0)) < 1e-9
    assert abs(psnr(a, b) - 48.1308) < 1e-3
    assert psnr(a, b) == psnr(b, a)
    with pytest.raises(ValueError, match="shape"):
        psnr(a, np.zeros((3, 4, 5)))


def test_psnr_log_cap():
    assert psnr_for_log(math.inf) == 120.0
    assert psnr_for_log(37.5) == 37.5
