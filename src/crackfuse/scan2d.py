"""Four-direction serialization of a patch grid and the 2d selective scan.

A batch of [H, W, C] token grids, [B, H, W, C], is read along four fixed
traversals (left to right, top to bottom, right to left, bottom to top).
Each is a view of the grid: the rows flattened, the columns flattened (the
grid transposed), and both reversed. The four sequences run through their
own selective-scan weights as one stacked batch, and the results are viewed
back onto the grid and summed. Summation order is fixed (LR, TB, RL, BT) so
the merge is deterministic.
"""
from __future__ import annotations

import numpy as np

from . import ssm

DIRECTIONS = ("LR", "TB", "RL", "BT")


def cross_scan(x):
    """Flatten a [B, H, W, C] grid into the four direction sequences,
    stacked as [4, B, L, C] with L = H*W, in DIRECTIONS order."""
    b, h, w, c = x.shape
    rows = x.reshape(b, h * w, c)
    cols = x.transpose(0, 2, 1, 3).reshape(b, h * w, c)
    return np.stack([rows, cols, rows[:, ::-1], cols[:, ::-1]])


def cross_merge(ys, height, width):
    """Inverse layout of cross_scan: view each direction of the stacked ys
    [4, B, L, C] back onto the [B, height, width, C] grid and sum them,
    always in the order LR, TB, RL, BT."""
    _, b, n, c = ys.shape
    if n != height * width:
        raise ValueError(f"sequence length {n} != {height}x{width}")
    grid, transposed = (b, height, width, c), (b, width, height, c)
    out = ys[0].reshape(grid).copy()
    out += ys[1].reshape(transposed).transpose(0, 2, 1, 3)
    out += ys[2][:, ::-1].reshape(grid)
    out += ys[3][:, ::-1].reshape(transposed).transpose(0, 2, 1, 3)
    return out


def ss2d(x, params):
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
    ys, vjp_scan = ssm._selective_scan(cross_scan(x), params, parallel=False)
    y = cross_merge(ys, h, w)

    def vjp(dy):
        dxs, dps = vjp_scan(cross_scan(dy))
        return cross_merge(dxs, h, w), dps

    return y, vjp
