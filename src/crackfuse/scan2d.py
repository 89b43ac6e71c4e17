"""Four-direction serialization of a patch grid and the 2d selective scan.

A [H, W, C] token grid is flattened along four traversal orders (left to
right, top to bottom, right to left, bottom to top), the four sequences run
through their own selective-scan weights as one stacked batch, and the
results are scattered back onto the grid and summed. Summation order is
fixed (LR, TB, RL, BT) so the merge is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ssm

DIRECTIONS = ("LR", "TB", "RL", "BT")


@dataclass
class ScanOrder:
    """A bijection between grid positions (row-major) and sequence slots."""

    direction: str
    height: int
    width: int
    perm: np.ndarray      # sequence slot i reads grid position perm[i]
    inv: np.ndarray       # grid position p lands at sequence slot inv[p]


def scan_order(direction: str, height: int, width: int) -> ScanOrder:
    if height < 1 or width < 1:
        raise ValueError(f"grid extents must be >= 1, got {height}x{width}")
    n = height * width
    if direction == "LR":
        perm = np.arange(n)
    elif direction == "TB":
        perm = np.arange(n).reshape(height, width).T.reshape(-1)
    elif direction == "RL":
        perm = np.arange(n)[::-1].copy()
    elif direction == "BT":
        perm = np.arange(n).reshape(height, width).T.reshape(-1)[::-1].copy()
    else:
        raise ValueError(f"unknown direction {direction!r}")
    inv = np.argsort(perm)
    return ScanOrder(direction=direction, height=height, width=width, perm=perm, inv=inv)


def _indices(height, width):
    """[4, L] gather (perm) and scatter (inv) indices, one row per direction."""
    orders = [scan_order(d, height, width) for d in DIRECTIONS]
    return np.stack([o.perm for o in orders]), np.stack([o.inv for o in orders])


def _grid(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ValueError(f"expected [H,W,C] or [B,H,W,C], got shape {x.shape}")


def cross_scan(x):
    """Flatten a [H,W,C] (or [B,H,W,C]) grid into the four direction
    sequences, stacked as [4, L, C] (or [4, B, L, C])."""
    x4, squeeze = _grid(x)
    b, h, w, c = x4.shape
    perm, _ = _indices(h, w)
    seqs = np.moveaxis(x4.reshape(b, h * w, c)[:, perm], 1, 0)
    return seqs[:, 0] if squeeze else seqs


def cross_merge(y_lr, y_tb, y_rl, y_bt, height, width):
    """Un-permute each directional sequence onto the grid and sum."""
    seqs = [np.asarray(s, dtype=np.float64) for s in (y_lr, y_tb, y_rl, y_bt)]
    squeeze = seqs[0].ndim == 2
    seqs = [s[None] if s.ndim == 2 else s for s in seqs]
    n = height * width
    for s, d in zip(seqs, DIRECTIONS):
        if s.shape[1] != n:
            raise ValueError(f"direction {d}: sequence length {s.shape[1]} != {height}x{width}")
    b, _, c = seqs[0].shape
    _, inv = _indices(height, width)
    out = seqs[0][:, inv[0]]
    for s, idx in zip(seqs[1:], inv[1:]):
        out += s[:, idx]
    out = out.reshape(b, height, width, c)
    return out[0] if squeeze else out


def ss2d(x, params, parallel=False):
    """Cross-scan, selective scan of the four directions as one stacked
    batch, cross-merge. Returns (y, vjp).

    params is a sequence of four SsmParams ordered LR, TB, RL, BT; passing the
    same object four times ties the directions (used by symmetry tests).
    vjp(dy) returns (dx, [dparams per direction]); the adjoint of cross_merge
    is cross_scan and vice versa.
    """
    if len(params) != len(DIRECTIONS):
        raise ValueError(f"need {len(DIRECTIONS)} parameter sets, got {len(params)}")
    x4, squeeze = _grid(x)
    h, w = x4.shape[1:3]
    ys, vjp_scan = ssm._selective_scan(cross_scan(x4), params, parallel)
    y = cross_merge(*ys, h, w)

    def vjp(dy):
        dxs, dps = vjp_scan(cross_scan(_grid(dy)[0]))
        dx = cross_merge(*dxs, h, w)
        return (dx[0] if squeeze else dx), dps

    return (y[0] if squeeze else y), vjp
