"""Four-direction serialization of a patch grid and the 2d selective scan.

A batch of [H, W, C] token grids, [B, H, W, C], is flattened along four
traversal orders (left to right, top to bottom, right to left, bottom to
top), the four sequences run through their own selective-scan weights as
one stacked batch, and the results are scattered back onto the grid and
summed. Summation order is fixed (LR, TB, RL, BT) so the merge is
deterministic.
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


def cross_scan(x):
    """Flatten a [B, H, W, C] grid into the four direction sequences,
    stacked as [4, B, L, C] with L = H*W, in DIRECTIONS order."""
    b, h, w, c = x.shape
    perm, _ = _indices(h, w)
    return np.moveaxis(x.reshape(b, h * w, c)[:, perm], 1, 0)


def cross_merge(ys, height, width):
    """Inverse layout of cross_scan: un-permute each direction of the stacked
    ys [4, B, L, C] onto the [B, height, width, C] grid and sum them, always
    in the order LR, TB, RL, BT."""
    _, b, n, c = ys.shape
    if n != height * width:
        raise ValueError(f"sequence length {n} != {height}x{width}")
    _, inv = _indices(height, width)
    out = ys[0][:, inv[0]]
    for s, idx in zip(ys[1:], inv[1:]):
        out += s[:, idx]
    return out.reshape(b, height, width, c)


def ss2d(x, params, parallel=False):
    """Cross-scan, selective scan of the four directions as one stacked
    batch, cross-merge. x: [B, H, W, C]. Returns (y [B, H, W, C], vjp).

    params is a sequence of four SsmParams ordered LR, TB, RL, BT; passing the
    same object four times ties the directions (used by symmetry tests).
    vjp(dy) returns (dx, [dparams per direction]); the adjoint of cross_merge
    is cross_scan and vice versa.
    """
    if len(params) != len(DIRECTIONS):
        raise ValueError(f"need {len(DIRECTIONS)} parameter sets, got {len(params)}")
    h, w = x.shape[1:3]
    ys, vjp_scan = ssm._selective_scan(cross_scan(x), params, parallel)
    y = cross_merge(ys, h, w)

    def vjp(dy):
        dxs, dps = vjp_scan(cross_scan(dy))
        return cross_merge(dxs, h, w), dps

    return y, vjp
