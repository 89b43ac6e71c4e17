"""Evaluation counters: per-class confusion counts, IoU/mIoU, and PSNR."""
from __future__ import annotations

import math

import numpy as np

PSNR_LOG_CAP = 120.0


class ConfusionMatrix:
    """Per-class TP/FP/FN/TN pixel counts, exact integer arithmetic.

    Accumulation is additive across images.
    """

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise ValueError("need at least one class")
        self.num_classes = num_classes
        self.tp = np.zeros(num_classes, dtype=np.int64)
        self.fp = np.zeros(num_classes, dtype=np.int64)
        self.fn = np.zeros(num_classes, dtype=np.int64)
        self.tn = np.zeros(num_classes, dtype=np.int64)

    def add(self, pred, gt):
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        if pred.shape != gt.shape:
            raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
        if pred.size and (pred.min() < 0 or pred.max() >= self.num_classes):
            raise ValueError(f"prediction labels outside [0, {self.num_classes})")
        if gt.size and (gt.min() < 0 or gt.max() >= self.num_classes):
            raise ValueError(f"ground-truth labels outside [0, {self.num_classes})")
        total = pred.size
        for i in range(self.num_classes):
            p = pred == i
            g = gt == i
            tp = int(np.count_nonzero(p & g))
            fp = int(np.count_nonzero(p & ~g))
            fn = int(np.count_nonzero(~p & g))
            self.tp[i] += tp
            self.fp[i] += fp
            self.fn[i] += fn
            self.tn[i] += total - tp - fp - fn
        return self

    def iou(self):
        """Per-class IoU; nan where the class never occurs (TP+FP+FN == 0)."""
        denom = self.tp + self.fp + self.fn
        out = np.full(self.num_classes, np.nan)
        present = denom > 0
        out[present] = self.tp[present] / denom[present]
        return out

    def miou(self) -> float:
        """Mean IoU over classes that occur; empty classes are excluded."""
        vals = self.iou()
        present = ~np.isnan(vals)
        if not present.any():
            raise ValueError("mIoU undefined: every class is empty")
        return float(vals[present].mean())

    def report(self, image_count) -> dict:
        return {
            "miou": self.miou(),
            "iou_per_class": [None if math.isnan(v) else float(v) for v in self.iou()],
            "pixel_counts": {
                "tp": self.tp.tolist(), "fp": self.fp.tolist(),
                "fn": self.fn.tolist(), "tn": self.tn.tolist(),
            },
            "image_count": image_count,
        }


def psnr(a, b) -> float:
    """10*log10(1 / MSE) of [0, 1] images; returns inf when they match exactly."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def psnr_for_log(value: float) -> float:
    """Cap the infinite sentinel for report files."""
    return min(value, PSNR_LOG_CAP)
